"""Command-line front end: instance files, command dispatch, CSV emission.

Instance files are JSON with explicit dimension fields and row-major flat
arrays:

    {
      "plant": {"n": 2, "m": 2, "d": 1, "r": 1,
                "Theta": [...], "R": [...], "M": [...], "N": [...], "D": [...]},
      "weights": {"S": [...], "K": [...]},
      "theta": 0.1,
      "controller": {"a": [...], "b": [...], "c": [...]},        // optional
      "quadrature": {"abs_tol": ..., "rel_tol": ...},
      "oracle": {"T": ..., "N": ...},
      "synthesis": {"max_iters": ..., "grad_tol": ...}
    }

The document and each block are objects.  The document and its oracle
block hold no keys but the ones shown; the quadrature and synthesis blocks
take the fields of QuadratureConfig and SynthesisConfig (but theta and
quad).  theta and those two blocks make the instance's one
SynthesisConfig, `ProblemInstance.cfg`, which every command reads and
`--theta` and `--quad-tol` replace fields of.  Each setting is checked by
the type that uses it (QuadratureConfig, SynthesisConfig, check_theta,
model.check_weights for S and K, and the oracle's check_horizon and
check_grid_size): a rejected value, a non-finite or mis-shaped weight, a
non-object block or an unknown key is a validation error that names it.
So is a file that is not JSON, including one that is not UTF-8 text or
nests arrays past the parser's recursion limit.

`scripts/write_instance.py` writes instance files: the canonical plant or
the random plant of a seed, at a given theta or at the theta that puts the
spectral supremum of the plant's LQG loop at a target.

Exit codes: 0 ok, 2 validation, 3 inadmissible, 4 numerical, 5 io.
"""

import argparse
import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from qefsyn import gramians, oracle
from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
from qefsyn.freq import (
    QuadratureConfig,
    check_admissible,
    check_number,
    qef_growth_rate,
)
from qefsyn.grad import gradient_check
from qefsyn.model import (
    ControllerParams,
    DerivedPlant,
    PlantSpec,
    assemble_closed_loop,
    check_weights,
    derive_plant,
)
from qefsyn.synth import SynthesisConfig, lqg_controller, synthesize

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INADMISSIBLE = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _fmt(x):
    return f"{float(x):.17g}"


def _leaves(value):
    """The entries of a JSON value, nested lists flattened."""
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _array(obj, key):
    """obj[key] as a flat float array; missing or non-numeric is invalid,
    and so is an entry that is a string or a boolean, which numpy would
    read as a number."""
    if key not in obj:
        raise ValidationError(f"missing array {key!r}")
    bad = [v for v in _leaves(obj[key]) if isinstance(v, (str, bool))]
    if bad:
        raise ValidationError(f"{key!r} is not a numeric array: entry "
                              f"{bad[0]!r} is not a JSON number")
    try:
        return np.asarray(obj[key], dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key!r} is not a numeric array: {exc}") from exc


def _matrix(obj, key, rows, cols):
    flat = _array(obj, key)
    if flat.size != rows * cols:
        raise ValidationError(
            f"{key!r} has {flat.size} entries, expected {rows}x{cols}"
        )
    return flat.reshape(rows, cols)


@dataclass
class ProblemInstance:
    """A fully validated problem read from a JSON instance file."""

    plant: DerivedPlant
    S: np.ndarray
    K: np.ndarray
    controller: Optional[ControllerParams]
    cfg: SynthesisConfig           # theta, quadrature and descent settings
    oracle_T: Optional[float]
    oracle_N: int

    def __post_init__(self):
        # oracle-compare divides T before build_operators sees it, so the
        # oracle's checks run here; without T the horizon is the loop's
        # default_horizon
        if self.oracle_T is not None:
            oracle.check_horizon(self.oracle_T)
        oracle.check_grid_size(self.oracle_N)


#: keys of the JSON "quadrature" and "synthesis" blocks: the fields of the
#: configs they build, less the ones the instance sets itself
_QUADRATURE_KEYS = tuple(f.name for f in dataclasses.fields(QuadratureConfig))
_SYNTHESIS_KEYS = tuple(f.name for f in dataclasses.fields(SynthesisConfig)
                        if f.name not in ("theta", "quad"))


def _object(value, name, keys=None):
    """`value` if it is a JSON object holding no key outside `keys`."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{name} must be an object, got {type(value).__name__}")
    unknown = [] if keys is None else [k for k in value if k not in keys]
    if unknown:
        raise ValidationError(
            f"unknown {name} setting {', '.join(map(repr, unknown))}")
    return value


def _number(name, value, valid, what, kind=numbers.Real):
    """`value` as a float (an int for an Integral `kind`) once
    `check_number` accepts it."""
    check_number(name, value, valid, what, kind)
    return int(value) if kind is numbers.Integral else float(value)


def load_instance(path):
    """Parse and validate a JSON instance file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read instance file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not text, or arrays nested past the parser's depth
        raise ValidationError(f"instance file is not valid JSON: {exc}") from exc

    # a misspelt optional key such as "theta" would otherwise fall back to
    # its default without a word
    doc = _object(doc, "instance", ("plant", "weights", "theta", "controller",
                                    "quadrature", "oracle", "synthesis"))
    try:
        p = _object(doc["plant"], "plant")
        n, m, d, r = (_number(f"plant {k}", p[k], lambda v: v >= 1,
                              "an integer >= 1", numbers.Integral)
                      for k in ("n", "m", "d", "r"))
    except KeyError as exc:
        raise ValidationError(f"missing plant field {exc}") from exc
    plant = derive_plant(PlantSpec(
        Theta=_matrix(p, "Theta", n, n),
        R=_matrix(p, "R", n, n),
        M=_matrix(p, "M", m, n),
        N=_matrix(p, "N", d, n),
        D=_matrix(p, "D", r, m),
    ))
    if "weights" not in doc:
        raise ValidationError("missing 'weights'")
    w = _object(doc["weights"], "weights")
    S_flat = _array(w, "S")
    if S_flat.size == 0 or S_flat.size % n != 0:
        raise ValidationError("weights.S length must be a positive multiple "
                              "of n")
    nu = S_flat.size // n
    S, K = check_weights(plant, (S_flat.reshape(nu, n),
                                _matrix(w, "K", nu, d)))

    ctrl = None
    if "controller" in doc:
        cdoc = _object(doc["controller"], "controller")
        ctrl = ControllerParams(
            a=_matrix(cdoc, "a", n, n),
            b=_matrix(cdoc, "b", n, r),
            c=_matrix(cdoc, "c", d, n),
        )
    quad = QuadratureConfig(**_object(doc.get("quadrature", {}),
                                      "quadrature", _QUADRATURE_KEYS))
    cfg = SynthesisConfig(theta=doc.get("theta", 0.0), quad=quad,
                          **_object(doc.get("synthesis", {}), "synthesis",
                                    _SYNTHESIS_KEYS))
    cfg.theta = float(cfg.theta)        # JSON may write it as an integer
    odoc = _object(doc.get("oracle", {}), "oracle", ("T", "N"))
    return ProblemInstance(
        plant=plant, S=S, K=K, controller=ctrl, cfg=cfg,
        oracle_T=odoc.get("T"), oracle_N=odoc.get("N", 800),
    )


def controller_to_json(ctrl):
    return {name: [float(x) for x in getattr(ctrl, name).ravel()]
            for name in "abc"}


def _closed_loop(inst):
    """The closed loop of the instance's controller, else of its LQG one."""
    ctrl = inst.controller
    if ctrl is None:
        ctrl = lqg_controller(inst.plant, (inst.S, inst.K))
    return assemble_closed_loop(inst.plant, (inst.S, inst.K), ctrl)


def cmd_validate(inst, args):
    _closed_loop(inst)
    print("ok")
    return EXIT_OK


def cmd_evaluate(inst, args):
    cl = _closed_loop(inst)
    adm = check_admissible(cl, inst.cfg.theta)
    ups0 = gramians.lqg_cost(cl)
    print(f"spec1_sup,{_fmt(adm.spec1_sup)}")
    print(f"admissible,{int(adm.admissible)}")
    print(f"ups0,{_fmt(ups0)}")
    if not adm.admissible:
        raise InadmissibleError("cost growth rate undefined for this instance")
    ups = qef_growth_rate(cl, inst.cfg.theta, inst.cfg.quad)
    print(f"ups,{_fmt(ups)}")
    return EXIT_OK


def cmd_grad_check(inst, args):
    cl = _closed_loop(inst)
    check = gradient_check(cl, inst.cfg.theta, inst.cfg.quad)
    print("block,row,col,analytic,fd,rel_err")
    for name, i, j, analytic, fd, rel in check.rows:
        print(f"{name},{i},{j},{_fmt(analytic)},{_fmt(fd)},{_fmt(rel)}")
    print(f"max_rel_err,{_fmt(check.max_rel_err)}")
    print(f"max_abs_err,{_fmt(check.max_abs_err)}")
    print(f"invariance_residual,{_fmt(check.invariance_residual)}")
    return EXIT_OK


def cmd_oracle_compare(inst, args):
    cl = _closed_loop(inst)
    theta = inst.cfg.theta
    ups = qef_growth_rate(cl, theta, inst.cfg.quad)
    T_final = inst.oracle_T
    if T_final is None:
        T_final = oracle.default_horizon(cl.calA)
    T_list, N = [T_final / 4, T_final / 2, T_final], inst.oracle_N
    try:
        rows = oracle.growth_rate_estimate(cl, theta, T_list, N)
    except InadmissibleError:
        if not check_admissible(cl, theta).admissible:
            raise
        raise NumericalError(
            f"oracle grid too coarse: N={N} points over horizons up to "
            f"T={T_final:g} (step up to {T_final / (N - 1):.3g}) break the "
            "finite-horizon formula at an admissible theta") from None
    out = args.output or "oracle.csv"
    with open(out, "w") as fh:
        fh.write("T,lnXi_over_T,ups_freq,rel_gap\n")
        for T, rate in rows:
            gap = abs(rate - ups) / abs(ups) if ups != 0 else 0.0
            fh.write(f"{_fmt(T)},{_fmt(rate)},{_fmt(ups)},{_fmt(gap)}\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_synthesize(inst, args):
    report = synthesize(inst.plant, (inst.S, inst.K), inst.cfg)
    trace = args.output or "trace.csv"
    with open(trace, "w") as fh:
        fh.write("iter,ups,residual,step\n")
        for it, ups, resid, step in report.iterates:
            fh.write(f"{it},{_fmt(ups)},{_fmt(resid)},{_fmt(step)}\n")
    ctrl_path = args.controller_out or "controller.json"
    with open(ctrl_path, "w") as fh:
        json.dump(controller_to_json(report.controller), fh, indent=2)
        fh.write("\n")
    print(f"termination,{report.termination}")
    print(f"ups,{_fmt(report.cost)}")
    print(f"residual,{_fmt(report.residual)}")
    print(f"wrote {trace} and {ctrl_path}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qefsyn",
        description="Risk-sensitive controller synthesis for linear "
                    "quantum stochastic plants",
    )
    ap.add_argument("command",
                    choices=["validate", "evaluate", "grad-check",
                             "oracle-compare", "synthesize"])
    ap.add_argument("instance", help="path to a JSON instance file")
    ap.add_argument("--theta", type=float, default=None,
                    help="override the instance risk parameter")
    ap.add_argument("--quad-tol", type=float, default=None,
                    help="override both quadrature tolerances")
    ap.add_argument("--oracle-N", type=int, default=None)
    ap.add_argument("--oracle-T", type=float, default=None)
    ap.add_argument("--output", default=None, help="CSV output path")
    ap.add_argument("--controller-out", default=None,
                    help="path for the synthesized controller JSON")
    return ap


_COMMANDS = {
    "validate": cmd_validate,
    "evaluate": cmd_evaluate,
    "grad-check": cmd_grad_check,
    "oracle-compare": cmd_oracle_compare,
    "synthesize": cmd_synthesize,
}


def _with_overrides(inst, args):
    """The instance with the command-line overrides, validated again."""
    cfg = {}
    if args.theta is not None:
        cfg["theta"] = args.theta
    if args.quad_tol is not None:
        cfg["quad"] = dataclasses.replace(
            inst.cfg.quad, abs_tol=args.quad_tol, rel_tol=args.quad_tol)
    changes = {name: getattr(args, name) for name in ("oracle_N", "oracle_T")
               if getattr(args, name) is not None}
    return dataclasses.replace(
        inst, cfg=dataclasses.replace(inst.cfg, **cfg), **changes)


def exit_code(fn):
    """fn(), or the exit code of the package error or OSError it raises,
    with that error printed as one line on stderr."""
    try:
        return fn()
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InadmissibleError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None):
    args = build_parser().parse_args(argv)
    return exit_code(lambda: _COMMANDS[args.command](
        _with_overrides(load_instance(args.instance), args), args))


if __name__ == "__main__":
    sys.exit(main())
