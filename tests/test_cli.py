"""CLI: instance parsing, command dispatch, exit codes, CSV emission."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from qefsyn import cli, grad, oracle, synth
from qefsyn.errors import InadmissibleError, ValidationError
from qefsyn.freq import check_admissible, theta_for_spec1
from qefsyn.instances import (
    canonical_plant_spec,
    canonical_weights_square,
    random_stable_instance,
)
from qefsyn.model import derive_plant
from qefsyn.synth import lqg_controller


def _flat(M):
    return [float(x) for x in np.asarray(M).ravel()]


def _canonical_doc(theta=0.05, with_controller=False):
    spec = canonical_plant_spec()
    S, K = canonical_weights_square()
    doc = {
        "plant": {"n": 2, "m": 2, "d": 1, "r": 1,
                  "Theta": _flat(spec.Theta), "R": _flat(spec.R),
                  "M": _flat(spec.M), "N": _flat(spec.N),
                  "D": _flat(spec.D)},
        "weights": {"S": _flat(S), "K": _flat(K)},
        "theta": theta,
        "quadrature": {"abs_tol": 1e-8, "rel_tol": 1e-7},
    }
    if with_controller:
        ctrl = lqg_controller(derive_plant(spec), (S, K))
        doc["controller"] = {"a": _flat(ctrl.a), "b": _flat(ctrl.b),
                             "c": _flat(ctrl.c)}
    return doc


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_instance_round_trip(tmp_path):
    doc = _canonical_doc(with_controller=True)
    inst = cli.load_instance(_write(tmp_path, doc))
    assert inst.cfg.theta == 0.05
    assert inst.controller is not None
    assert np.allclose(inst.controller.a.ravel(), doc["controller"]["a"])
    assert inst.S.shape == (2, 2) and inst.K.shape == (2, 1)

    # matrices may also be written as nested lists of JSON numbers
    doc["plant"]["Theta"] = [[0, 1], [-1, 0]]
    doc["weights"]["S"] = [[1.0, 0.0], [0, 1]]
    nested = cli.load_instance(_write(tmp_path, doc))
    assert np.array_equal(nested.plant.Theta, inst.plant.Theta)
    assert np.array_equal(nested.S, inst.S)


def test_load_instance_rejects_symmetric_theta(tmp_path):
    doc = _canonical_doc()
    doc["plant"]["Theta"] = _flat(np.eye(2))
    with pytest.raises(ValidationError, match="antisymmetric"):
        cli.load_instance(_write(tmp_path, doc))


def test_load_instance_rejects_bad_dimension(tmp_path):
    doc = _canonical_doc()
    doc["plant"]["M"] = [1.0, 2.0, 3.0]
    with pytest.raises(ValidationError, match="entries"):
        cli.load_instance(_write(tmp_path, doc))


def test_validate_command(tmp_path, capsys):
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    assert cli.main(["validate", path]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_exit_code_on_bad_instance(tmp_path, capsys):
    doc = _canonical_doc()
    doc["plant"]["Theta"] = _flat(np.eye(2))
    path = _write(tmp_path, doc)
    assert cli.main(["validate", path]) == cli.EXIT_VALIDATION


def test_missing_file_exit_code(capsys):
    assert cli.main(["validate", "/nonexistent/inst.json"]) == cli.EXIT_IO


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"plant": ')
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe\x00", id="not-utf8"),  # used: UnicodeDecodeError
    pytest.param(b"[" * 5000 + b"]" * 5000, id="too-deep"),  # RecursionError
])
def test_undecodable_instance_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    assert "instance file is not valid JSON" in capsys.readouterr().err


def test_missing_plant_dimension_exits_2(tmp_path, capsys):
    doc = _canonical_doc()
    del doc["plant"]["r"]
    assert cli.main(["validate", _write(tmp_path, doc)]) == cli.EXIT_VALIDATION
    assert "missing plant field 'r'" in capsys.readouterr().err


def test_missing_weights_block_exits_2(tmp_path, capsys):
    doc = _canonical_doc()
    del doc["weights"]
    assert cli.main(["validate", _write(tmp_path, doc)]) == cli.EXIT_VALIDATION
    assert "missing 'weights'" in capsys.readouterr().err


def test_evaluate_inadmissible_theta_exits_3_after_the_report(tmp_path,
                                                              capsys):
    # at theta = 1000 the spectral supremum reads 1 to round-off: the
    # admissibility report and the LQG cost print, the growth rate does not
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    assert cli.main(["evaluate", path, "--theta", "1000"]) \
        == cli.EXIT_INADMISSIBLE
    out, err = capsys.readouterr()
    fields = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert list(fields) == ["spec1_sup", "admissible", "ups0"]
    assert abs(float(fields["spec1_sup"]) - 1.0) <= 1e-12
    assert fields["admissible"] == "0"
    assert "inadmissible" in err


def test_evaluate_command(tmp_path, capsys):
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    assert cli.main(["evaluate", path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    fields = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert fields["admissible"] == "1"
    assert float(fields["ups"]) > 0
    assert float(fields["ups0"]) > 0
    # a loop that is not Hurwitz exits 3 before any output, so a hurwitz
    # row could only read 1
    assert "hurwitz" not in fields


def test_evaluate_zero_weight_instance(tmp_path, capsys):
    # calC = 0 forces a zero growth rate
    doc = _canonical_doc(with_controller=True)
    doc["weights"] = {"S": _flat(np.zeros((2, 2))),
                      "K": _flat(np.zeros((2, 1)))}
    path = _write(tmp_path, doc)
    assert cli.main(["evaluate", path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    fields = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert abs(float(fields["ups"])) <= 1e-9


def test_evaluate_deterministic(tmp_path, capsys):
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    cli.main(["evaluate", path])
    first = capsys.readouterr().out
    cli.main(["evaluate", path])
    second = capsys.readouterr().out
    assert first == second


def test_theta_override(tmp_path, capsys):
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    cli.main(["evaluate", path])
    base = capsys.readouterr().out
    cli.main(["evaluate", path, "--theta", "0.01"])
    overridden = capsys.readouterr().out
    ups = float(dict(l.split(",", 1) for l in base.strip().splitlines())["ups"])
    ups2 = float(dict(l.split(",", 1)
                      for l in overridden.strip().splitlines())["ups"])
    assert ups2 < ups


def test_oracle_compare_writes_csv(tmp_path, capsys):
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    out = str(tmp_path / "oracle.csv")
    code = cli.main(["oracle-compare", path, "--oracle-T", "8.0",
                     "--oracle-N", "80", "--output", out])
    assert code == cli.EXIT_OK
    lines = (tmp_path / "oracle.csv").read_text().strip().splitlines()
    assert lines[0] == "T,lnXi_over_T,ups_freq,rel_gap"
    assert len(lines) == 4


def test_synthesize_writes_trace_and_controller(tmp_path, capsys):
    doc = _canonical_doc(theta=0.05)
    doc["synthesis"] = {"max_iters": 30}
    path = _write(tmp_path, doc)
    trace = str(tmp_path / "trace.csv")
    ctrl_out = str(tmp_path / "controller.json")
    code = cli.main(["synthesize", path, "--output", trace,
                     "--controller-out", ctrl_out])
    assert code == cli.EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,ups,residual,step"
    assert len(lines) >= 2
    # schema round trip: the emitted controller loads back exactly
    emitted = json.loads((tmp_path / "controller.json").read_text())
    doc2 = _canonical_doc(theta=0.05)
    doc2["controller"] = emitted
    inst = cli.load_instance(_write(tmp_path, doc2, "round.json"))
    assert inst.controller.a.ravel().tolist() == emitted["a"]
    assert inst.controller.b.ravel().tolist() == emitted["b"]
    assert inst.controller.c.ravel().tolist() == emitted["c"]


@pytest.mark.parametrize("perturb, max_rel", [
    # the LQG controller is stationary: the finite differences are noise
    # (max_rel_err used to read 4e9), so only the bound of 2 holds
    pytest.param(0.0, 2.0, id="stationary"),
    # used to read 4e-4 from a 2-point difference on adaptive grids
    pytest.param(0.05, 1e-5, id="perturbed"),
])
def test_grad_check_command(tmp_path, capsys, perturb, max_rel):
    doc = _canonical_doc(with_controller=True)
    rng = np.random.default_rng(0)
    for key, vals in doc["controller"].items():
        doc["controller"][key] = [v + perturb * rng.standard_normal()
                                  for v in vals]
    path = _write(tmp_path, doc)
    assert cli.main(["grad-check", path]) == cli.EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "block,row,col,analytic,fd,rel_err"
    # one row per entry of a (2x2), b (2x1) and c (1x2)
    assert [line.split(",")[0] for line in out[1:-3]] == list("aaaabbcc")
    figures = dict(line.split(",") for line in out[-3:])
    assert list(figures) == ["max_rel_err", "max_abs_err",
                             "invariance_residual"]
    assert float(figures["max_rel_err"]) <= max_rel
    assert float(figures["max_abs_err"]) <= 1e-8
    assert float(figures["invariance_residual"]) <= 1e-12


def test_grad_check_exits_3_when_every_step_is_inadmissible(
        tmp_path, capsys, monkeypatch):
    exact = grad.qef_growth_rate

    def rate(cl, theta, quad=None, grid=None):
        if grid is not None:
            raise InadmissibleError("step leaves the admissible set")
        return exact(cl, theta, quad, grid)

    monkeypatch.setattr(grad, "qef_growth_rate", rate)
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    assert cli.main(["grad-check", path]) == cli.EXIT_INADMISSIBLE
    captured = capsys.readouterr()
    assert "finite-difference steps leave the admissible set" in captured.err
    assert captured.out == ""


def test_riccati_failure_exits_4_without_a_controller(tmp_path, capsys):
    # with no field coupling (M = 0) the plant is the undamped oscillator
    # A = 2 Theta R and C = 0, so the filter Hamiltonian [[A^T, 0], [0, -A]]
    # keeps its eigenvalues +-2i on the imaginary axis
    doc = _canonical_doc()
    doc["plant"]["M"] = [0.0] * 4
    assert (cli.main(["evaluate", _write(tmp_path, doc)])
            == cli.EXIT_NUMERICAL)
    assert ("numerical error: Riccati solve failed: 0 of the Hamiltonian's "
            "4 eigenvalues lie clearly left of the imaginary axis, not 2"
            in capsys.readouterr().err)


def test_synthesize_inadmissible_start_exit_code(tmp_path, capsys,
                                                 monkeypatch):
    def check(cl, theta):
        return SimpleNamespace(admissible=False, spec1_sup=1.0)

    monkeypatch.setattr(synth, "check_admissible", check)
    path = _write(tmp_path, _canonical_doc(theta=0.05))
    code = cli.main(["synthesize", path,
                     "--output", str(tmp_path / "out.csv"),
                     "--controller-out", str(tmp_path / "ctrl.json")])
    assert code == cli.EXIT_INADMISSIBLE
    assert "stage 1 of 4" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["grad-check", "synthesize"])
def test_zero_theta_is_a_validation_error(tmp_path, capsys, command):
    # grad-check at theta = 0 used to print an all-zero table and exit 0
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    code = cli.main([command, path, "--theta", "0",
                     "--output", str(tmp_path / "out.csv"),
                     "--controller-out", str(tmp_path / "ctrl.json")])
    assert code == cli.EXIT_VALIDATION
    assert "theta > 0" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--theta", "nan"],
    ["--quad-tol", "-1"],      # used to spin and exit as a numerical error
    ["--theta", "-0.1"],       # used to end in an uncaught ValueError
    ["--quad-tol", "inf"],     # used to print a growth rate 2.4e-4 off
    ["--quad-tol", "0"],
])
def test_bad_override_is_a_validation_error(tmp_path, capsys, flags):
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    assert cli.main(["evaluate", path, *flags]) == cli.EXIT_VALIDATION
    assert "ups," not in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("lambda_max", -5.0),      # a removed setting, now an unknown key
    ("abs_tol", 0.0), ("rel_tol", "tight"),
    ("theta", -0.1),
    ("theta", "abc"),          # used to end in an uncaught ValueError
    ("abs_tl", 1e-3),          # used to run silently at the default tolerances
])
def test_bad_instance_setting_is_a_validation_error(tmp_path, capsys, field,
                                                    value):
    doc = _canonical_doc(with_controller=True)
    if field == "theta":
        doc["theta"] = value
    else:
        doc["quadrature"][field] = value
    path = _write(tmp_path, doc)
    assert cli.main(["evaluate", path]) == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err


#: the oracle's name for each setting of the "oracle" block
_ORACLE_SETTING = {"T": "horizon", "N": "grid size"}


@pytest.mark.parametrize("flags", [
    ["--oracle-T", "-5"],      # used to end in an uncaught LinAlgError
    ["--oracle-T", "nan"],     # likewise
    ["--oracle-T", "0"],       # used to run silently at the default horizon
    ["--oracle-N", "1"],
])
def test_bad_oracle_override_is_a_validation_error(tmp_path, capsys, flags):
    path = _write(tmp_path, _canonical_doc(with_controller=True))
    out = tmp_path / "oracle.csv"
    code = cli.main(["oracle-compare", path, "--oracle-N", "40", *flags,
                     "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    setting = _ORACLE_SETTING[flags[0][-1]]
    assert f"{setting} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("oracle_doc", [
    {"T": -1},                 # used to end in an uncaught LinAlgError
    {"T": "long"},
    {"N": "x"},                # used to end in an uncaught ValueError
    {"N": 40.5},
    {"T": 40.0, "n": 400},     # unknown keys used to be dropped silently
])
def test_bad_oracle_instance_setting_is_a_validation_error(tmp_path, capsys,
                                                           oracle_doc):
    doc = _canonical_doc(with_controller=True)
    doc["oracle"] = oracle_doc
    out = tmp_path / "oracle.csv"
    code = cli.main(["oracle-compare", _write(tmp_path, doc),
                     "--output", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    if "n" in oracle_doc:
        assert "unknown oracle setting 'n'" in err
    else:
        (key,) = oracle_doc
        assert f"{_ORACLE_SETTING[key]} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("synthesis, theta", [
    pytest.param({"max_iters": "x"}, 0.05, id="iters-string"),  # ValueError
    pytest.param({"max_iters": 2.7}, 0.05, id="iters-fraction"),  # truncated
    pytest.param({"max_iters": 0}, 0.05, id="iters-zero"),
    pytest.param({"max_iters": 10**400}, 0.05, id="iters-huge"),  # TypeError
    pytest.param({"grad_tol": -1}, 0.05, id="tol-negative"),  # ValueError
    # the step rule's settings were removed and are now unknown keys
    pytest.param({"initial_step": 0.0}, 0.05, id="step-zero"),
    pytest.param({"backtrack_factor": 1.0}, 0.05, id="backtrack-one"),
    pytest.param({"armijo_c": "small"}, 0.05, id="armijo-string"),
    pytest.param([30], 0.05, id="not-an-object"),
    pytest.param({"max_iter": 30}, 0.05, id="unknown-key"),  # was dropped
    pytest.param({"max_iters": 30}, 0.0, id="theta-zero"),
])
def test_bad_synthesis_setting_is_a_validation_error(tmp_path, synthesis,
                                                     theta):
    doc = _canonical_doc(theta=theta)
    doc["synthesis"] = synthesis
    trace = tmp_path / "trace.csv"
    code = cli.main(["synthesize", _write(tmp_path, doc),
                     "--output", str(trace),
                     "--controller-out", str(tmp_path / "controller.json")])
    assert code == cli.EXIT_VALIDATION
    assert not trace.exists()


@pytest.mark.parametrize("block, changes", [
    pytest.param("plant", {"n": "two"}, id="n-string"),  # used: ValueError
    pytest.param("plant", {"d": 1.5}, id="d-fraction"),
    pytest.param("plant", {"r": 0}, id="r-zero"),
    pytest.param("weights", {"S": None}, id="S-missing"),  # used: KeyError
    pytest.param("weights", {"S": "abc"}, id="S-string"),  # used: ValueError
    pytest.param("weights", {"S": [], "K": []}, id="S-empty"),  # IndexError
    pytest.param("weights", {"K": ["a", "b"]}, id="K-strings"),
    pytest.param("weights", {"S": [float("nan"), 0.0, 0.0, 1.0]},
                 id="S-nan"),  # used: exit 0 from validate, 3 from evaluate
    pytest.param("weights", {"K": [0.0, float("inf")]}, id="K-inf"),
])
def test_bad_plant_or_weights_is_a_validation_error(tmp_path, block,
                                                    changes):
    doc = _canonical_doc(with_controller=True)
    for key, value in changes.items():
        if value is None:
            del doc[block][key]
        else:
            doc[block][key] = value
    path = _write(tmp_path, doc)
    with pytest.raises(ValidationError):
        cli.load_instance(path)
    assert cli.main(["evaluate", path]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("block, changes, message", [
    # numpy reads strings and booleans as numbers: each of these used to
    # exit 0 with the canonical figures
    pytest.param("plant", {"Theta": ["0", "1", "-1", "0"]},
                 "'Theta' is not a numeric array", id="Theta-strings"),
    pytest.param("plant", {"D": [True, False]},
                 "'D' is not a numeric array", id="D-booleans"),
    pytest.param("controller", {"a": ["-2.0", "1.4", "-1.0", "-1.5"]},
                 "'a' is not a numeric array", id="a-strings"),
    pytest.param("weights", {"S": [True, False, False, True]},
                 "'S' is not a numeric array", id="S-booleans"),
    # plant shapes that derive_plant rejects and no other test reaches
    pytest.param("plant", {"n": 3, "Theta": [0.0] * 9, "R": [0.0] * 9,
                           "M": [1.0] * 6, "N": [1.0] * 3},
                 "Theta must be square of even order", id="n-odd"),
    pytest.param("plant", {"m": 3, "M": [1.0] * 6, "D": [1.0] * 3},
                 "M must have an even number of rows and n columns",
                 id="m-odd"),
])
def test_bad_matrix_entry_or_shape_exits_2_with_the_message(
        tmp_path, capsys, block, changes, message):
    doc = _canonical_doc(with_controller=True)
    doc[block].update(changes)
    path = _write(tmp_path, doc)
    with pytest.raises(ValidationError, match=message):
        cli.load_instance(path)
    assert cli.main(["evaluate", path]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("with_controller", [True, False])
@pytest.mark.parametrize("command", ["validate", "evaluate", "grad-check",
                                     "oracle-compare", "synthesize"])
def test_non_finite_weight_exits_2_from_every_command(tmp_path, capsys,
                                                      command,
                                                      with_controller):
    # JSON reads NaN; without a controller the LQG solve used to fail (exit 4)
    doc = _canonical_doc(with_controller=with_controller)
    doc["weights"]["S"][0] = float("nan")
    code = cli.main([command, _write(tmp_path, doc),
                     "--output", str(tmp_path / "out.csv"),
                     "--controller-out", str(tmp_path / "controller.json")])
    assert code == cli.EXIT_VALIDATION
    assert "S has non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "evaluate", "grad-check",
                                     "oracle-compare", "synthesize"])
def test_singular_control_weight_exits_2_without_a_controller(
        tmp_path, capsys, command):
    # the LQG controller needs K^T K > 0; this used to exit 4
    doc = _canonical_doc()
    doc["weights"]["K"] = [0.0, 0.0]
    code = cli.main([command, _write(tmp_path, doc),
                     "--output", str(tmp_path / "out.csv"),
                     "--controller-out", str(tmp_path / "controller.json")])
    assert code == cli.EXIT_VALIDATION
    assert "control weight K" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "evaluate", "grad-check",
                                     "oracle-compare", "synthesize"])
def test_every_command_derives_the_plant_once(tmp_path, monkeypatch, command):
    calls = []

    def derive(spec):
        calls.append(spec)
        return derive_plant(spec)

    monkeypatch.setattr(cli, "derive_plant", derive)
    # with a controller, validate used to derive the plant twice
    code = cli.main([command, _write(tmp_path, _canonical_doc(
                         with_controller=True)),
                     "--oracle-N", "40",
                     "--output", str(tmp_path / "out.csv"),
                     "--controller-out", str(tmp_path / "controller.json")])
    assert code == cli.EXIT_OK and len(calls) == 1


@pytest.mark.parametrize("block, value", [
    pytest.param(None, [1, 2], id="document"),  # used: TypeError
    pytest.param("plant", [1], id="plant"),  # used: TypeError
    pytest.param("weights", "S", id="weights"),
    pytest.param("controller", [1], id="controller"),
    pytest.param("quadrature", "x", id="quadrature"),  # used to be ignored
    pytest.param("oracle", [1], id="oracle"),  # used: AttributeError
])
def test_non_object_block_is_a_validation_error(tmp_path, block, value):
    doc = _canonical_doc(with_controller=True)
    if block is None:
        doc = value
    else:
        doc[block] = value
    path = _write(tmp_path, doc)
    with pytest.raises(ValidationError, match="must be an object"):
        cli.load_instance(path)
    assert cli.main(["evaluate", path]) == cli.EXIT_VALIDATION


def test_unknown_key_is_named(tmp_path):
    doc = _canonical_doc()
    doc["synthesis"] = {"max_iter": 30}
    with pytest.raises(ValidationError, match="'max_iter'"):
        cli.load_instance(_write(tmp_path, doc))
    # a misspelt theta used to evaluate silently at theta = 0
    doc = _canonical_doc(with_controller=True)
    doc["thata"] = doc.pop("theta")
    path = _write(tmp_path, doc)
    with pytest.raises(ValidationError, match="'thata'"):
        cli.load_instance(path)
    assert cli.main(["evaluate", path]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("block, key", [
    ("synthesis", "initial_step"), ("synthesis", "backtrack_factor"),
    ("synthesis", "armijo_c"), ("quadrature", "lambda_max"),
])
def test_removed_setting_is_an_unknown_key(tmp_path, capsys, block, key):
    # the line search's step rule and the truncation frequency are fixed
    doc = _canonical_doc()
    doc.setdefault(block, {})[key] = 0.5
    code = cli.main(["synthesize", _write(tmp_path, doc),
                     "--output", str(tmp_path / "trace.csv"),
                     "--controller-out", str(tmp_path / "controller.json")])
    assert code == cli.EXIT_VALIDATION
    assert f"unknown {block} setting {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "grad-check",
                                     "oracle-compare"])
def test_unstable_loop_is_inadmissible(tmp_path, capsys, command):
    # evaluate used to exit 4 from the LQG-cost Lyapunov solve
    doc = _canonical_doc(with_controller=True)
    a = np.reshape(doc["controller"]["a"], (2, 2))
    doc["controller"]["a"] = _flat(-a + 5.0 * np.eye(2))
    out = tmp_path / "oracle.csv"
    code = cli.main([command, _write(tmp_path, doc), "--oracle-N", "40",
                     "--output", str(out)])
    assert code == cli.EXIT_INADMISSIBLE
    captured = capsys.readouterr()
    assert "closed loop is not Hurwitz" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_oracle_horizon_too_long_is_numerical(tmp_path, capsys):
    # the first horizon, T / 4, already has non-finite operators; this
    # used to exit 1 with numpy's LinAlgError
    out = tmp_path / "oracle.csv"
    code = cli.main(["oracle-compare",
                     _write(tmp_path, _canonical_doc(with_controller=True)),
                     "--oracle-T", "1e40", "--oracle-N", "10",
                     "--output", str(out)])
    assert code == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert ("numerical error: oracle operators are not finite at horizon "
            "T=2.5e+39 with N=10" in captured.err)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("T, spec1_sup, expected", [
    ("1e3", None, cli.EXIT_OK),
    ("1e4", None, cli.EXIT_NUMERICAL),
    ("1e4", 0.97, cli.EXIT_INADMISSIBLE),
])
def test_oracle_grid_too_coarse_is_numerical(tmp_path, capsys, monkeypatch,
                                             T, spec1_sup, expected):
    # at theta = 0.05 (spec1_sup 0.05) a step T / (N - 1) of 1111 breaks
    # theta lambda_max(P_T K_T) < 1; this used to exit 3 as if theta were
    # inadmissible.  Only that failure checks admissibility, and a theta
    # whose spec1_sup misses the margin keeps the oracle's exit 3.
    checks = []

    def check(cl, theta):
        checks.append(theta)
        report = check_admissible(cl, theta)
        if spec1_sup is None:
            return report
        return SimpleNamespace(admissible=False, spec1_sup=spec1_sup)

    monkeypatch.setattr(cli, "check_admissible", check)
    out = tmp_path / "oracle.csv"
    code = cli.main(["oracle-compare",
                     _write(tmp_path, _canonical_doc(with_controller=True)),
                     "--oracle-T", T, "--oracle-N", "10",
                     "--output", str(out)])
    assert code == expected
    err = capsys.readouterr().err
    if expected == cli.EXIT_OK:
        assert checks == [] and out.exists()
        return
    assert checks == [0.05] and not out.exists()
    if expected == cli.EXIT_NUMERICAL:
        assert ("numerical error: oracle grid too coarse: N=10 points over "
                "horizons up to T=10000 (step up to 1.11e+03)" in err)
    else:
        assert "inadmissible: theta * lambda_max(P_T K_T) >= 1" in err


def test_oracle_grid_too_coarse_with_scipys_gramian(tmp_path, capsys,
                                                    monkeypatch):
    # at T = 1e4 and N = 10, K_T^{-1} - theta P_T is zero to rounding
    # (eigenvalues near 1e-15 against diagonal terms near 56), so whether
    # its Cholesky completes turns on the last bits of Sigma.  The pivot
    # floor rejects it for scipy's Sigma as for the library's (the 1e4
    # cases above).
    monkeypatch.setattr(oracle, "solve_lyapunov", lambda A, W:
                        scipy.linalg.solve_continuous_lyapunov(A, -W))
    out = tmp_path / "oracle.csv"
    code = cli.main(["oracle-compare",
                     _write(tmp_path, _canonical_doc(with_controller=True)),
                     "--oracle-T", "1e4", "--oracle-N", "10",
                     "--output", str(out)])
    assert code == cli.EXIT_NUMERICAL
    assert "oracle grid too coarse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    pytest.param(["--stacked-weights", "--with-controller"], id="canonical"),
    pytest.param(["--seed", "0", "--spec1", "0.4"], id="seed0-spec1"),
])
def test_written_instances_load(tmp_path, capsys, flags):
    # the instance files the bundled script writes must keep loading
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / "inst.json"
    subprocess.run([sys.executable, str(root / "scripts" / "write_instance.py"),
                    str(path), *flags],
                   check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": str(root / "src")})
    inst = cli.load_instance(str(path))
    assert (inst.controller is not None) == ("--with-controller" in flags)
    if "--seed" not in flags:
        return
    # the seeded plant and its theta load bit for bit
    plant, _, cl = random_stable_instance(np.random.default_rng(0))
    for name in "ABCE":
        assert np.array_equal(getattr(inst.plant, name), getattr(plant, name))
    assert inst.cfg.theta == theta_for_spec1(cl, 0.4)
    # the descent from its LQG start reaches stationarity at the CLI
    # defaults, within the row budget of the seed-0 stationarity test in
    # test_synth.py (38 rows when measured)
    trace = tmp_path / "trace.csv"
    code = cli.main(["synthesize", str(path), "--output", str(trace),
                     "--controller-out", str(tmp_path / "controller.json")])
    assert code == cli.EXIT_OK
    assert "termination,stationary" in capsys.readouterr().out.splitlines()
    assert len(trace.read_text().strip().splitlines()) - 1 <= 57


def test_stacked_weights_evaluate_and_grad_check(tmp_path, capsys):
    # nu = 3 > m = 2 makes Psi singular at every frequency; the loop is
    # admissible and its gradient checks (max_rel_err 1.2e-11 when
    # measured)
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / "stacked.json"
    subprocess.run([sys.executable, str(root / "scripts" / "write_instance.py"),
                    str(path), "--seed", "0", "--spec1", "0.4",
                    "--stacked-weights", "--with-controller"],
                   check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert cli.main(["evaluate", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    fields = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert list(fields) == ["spec1_sup", "admissible", "ups0", "ups"]
    assert fields["admissible"] == "1"
    assert cli.main(["grad-check", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    fields = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert float(fields["max_rel_err"]) <= 1e-5


@pytest.mark.parametrize("name, flags, code, message", [
    pytest.param("inst.json", ["--spec1", "1.5"], cli.EXIT_VALIDATION,
                 "validation error: target must be in (0, 1), got 1.5",
                 id="spec1-out-of-range"),
    pytest.param("inst.json", ["--seed", "-1"], cli.EXIT_VALIDATION,
                 "validation error: seed must be an integer >= 0, got -1",
                 id="seed-negative"),
    pytest.param("inst.json", ["--theta", "-1"], cli.EXIT_VALIDATION,
                 "validation error: theta must be finite and nonnegative, "
                 "got -1.0", id="theta-negative"),
    pytest.param("missing/inst.json", [], cli.EXIT_IO,
                 "io error: [Errno 2] No such file or directory",
                 id="missing-directory"),
])
def test_write_instance_exit_codes(tmp_path, name, flags, code, message):
    # each of these used to end in a traceback with exit 1, or (a negative
    # theta) to write a file that `qefsyn validate` then rejected
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / name
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "write_instance.py"),
         str(path), *flags],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == code
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(message)
    assert list(tmp_path.iterdir()) == []


#: prints the scipy modules loaded so far, one list
_PRINT_SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'scipy'))")


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg alone took 0.14 of 0.22 s of this import in a fresh
    # interpreter (2-core VM, warm file cache); only the oracle and
    # freq.theta_for_spec1 need scipy, and they import it when called
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qefsyn.cli, qefsyn.instances; " + _PRINT_SCIPY_MODULES],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # the oracle imports its thread pool when called; concurrent.futures
    # took 2.0-3.2 ms to import after qefsyn (python -X importtime)
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qefsyn.cli, qefsyn.instances; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'concurrent'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.stdout.strip() == "[]"


def test_commands_but_the_oracle_leave_scipy_unloaded(tmp_path):
    # with no controller in the instance, every command solves the LQG
    # Riccati equations first
    root = Path(__file__).resolve().parents[1]
    path = _write(tmp_path, _canonical_doc())
    commands = ["validate", "evaluate", "grad-check", "synthesize"]
    script = ("import sys\n"
              "from qefsyn import cli\n"
              "path, out = sys.argv[1:]\n"
              f"for command in {commands!r}:\n"
              "    assert cli.main([command, path, '--output', out + '.csv',\n"
              "                     '--controller-out', out + '.json']) == 0\n"
              + _PRINT_SCIPY_MODULES)
    proc = subprocess.run(
        [sys.executable, "-c", script, path, str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.stdout.splitlines()[-1] == "[]"


def test_seed_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["validate", "inst.json", "--seed", "1"])
    assert exc.value.code == 2


def test_lambda_max_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["evaluate", "inst.json",
                                       "--lambda-max", "10"])
    assert exc.value.code == 2
