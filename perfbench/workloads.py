"""The three benchmark workloads: gradcheck, synth and oracle.

Every workload draws its inputs from the run's seed, so the library only
sees generated plants.  One item is one user-visible task; the timed part
of an item runs inside ``region()``, and the output checks run after it.
Each check mirrors an acceptance criterion of ``tests/test_acceptance.py``
with the same bound, never a looser one.

The library is reached through module attributes (``freq.qef_growth_rate``
rather than a ``from`` import), so the traced run's wrappers see the calls.
"""

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from qefsyn import cli, freq, grad, instances, model, synth
from qefsyn.errors import InadmissibleError

# criterion 1: 8th-order central stencil over a ladder of steps; the
# adjacent pair of estimates that agree best gives the derivative
STENCIL = ((1, 4.0 / 5.0), (2, -1.0 / 5.0), (3, 4.0 / 105.0),
           (4, -1.0 / 280.0))
H_LADDER = (8e-3, 2e-3, 5e-4, 1.25e-4, 3e-5)
GRAD_TOL = 1e-5          # criterion 1 bound on the relative gradient error
ORACLE_GAP_TOL = 2e-2    # criterion 2 bound on the final relative gap
ORACLE_HORIZONS = 3      # the CLI's ladder is T/4, T/2, T
COST_SLACK = 1e-12       # criterion 8 slack on "final cost <= LQG cost"

GRADCHECK_SPEC1 = 0.25   # criterion 1: theta at spec1 0.25, perturb 0.2
GRADCHECK_PERTURB = 0.2
SYNTH_SPEC1 = 0.4
SYNTH_QUAD = dict(abs_tol=1e-10, rel_tol=1e-9)
ORACLE_SPEC1 = 0.25      # criterion 2: theta at spec1 0.25
ORACLE_T_DECAYS = 40.0   # horizon T in closed-loop time constants
ORACLE_QUAD = dict(abs_tol=1e-11, rel_tol=1e-10)

# criterion 2's fixed perturbation of the canonical LQG controller
ORACLE_PERTURBATION = dict(
    a=0.05 * np.array([[1.0, -0.5], [0.25, 0.75]]),
    b=0.05 * np.array([[-0.5], [1.0]]),
    c=0.05 * np.array([[0.5, -0.25]]),
)


# Plant seeds: plant j is the first draw of the library's generator from
# np.random.default_rng(j).  An item's cost varies several-fold between
# plants (frozen-grid size 165-1260 nodes over j < 260; theta-bisection
# length and backtracking for the descent), and a run holds only a few
# items, so each pool keeps every plant of one problem size among those
# scanned when the benchmark was defined.  The seed draws the plants and
# their order; a run takes about 4 of the gradcheck pool and 10 of the
# synth pool, so different seeds run different subsets.
#: every criterion-1 instance j < 260 whose frozen grid has 210 nodes
#: (14 GK15 panels)
GRADCHECK_POOL = (0, 1, 5, 15, 20, 24, 25, 42, 51, 52, 66, 82, 83, 85, 119,
                  128, 130, 137, 148, 153, 161, 162, 164, 165, 169, 171,
                  175, 183, 191, 199, 205, 232, 236, 244, 247, 258)
#: every plant j < 200 whose 3-iteration descent from theta at spec1 0.4
#: makes 12-20 admissibility checks (5 without backtracking), 3000-3800
#: ln det Delta calls and at most 16800 spec1 calls
SYNTH_POOL = (13, 16, 17, 21, 41, 45, 47, 60, 72, 81, 91, 135, 156, 158, 167,
              173, 174, 176, 180, 191)


def _plant_order(seed, pool):
    """Endless seeded walk over the pool: a fresh permutation per pass."""
    rng = np.random.default_rng(seed)
    while True:
        yield from (int(j) for j in rng.permutation(pool))


@dataclass
class Outcome:
    """One item: its timed wall seconds, inner-call latencies and check."""

    wall_s: float = 0.0
    calls_s: list = field(default_factory=list)
    ok: bool = False
    info: dict = field(default_factory=dict)


class Region:
    """Times the user-visible parts of an item; opens a root span when traced.

    An item may enter the region several times; ``probe()`` between two
    entries times the harness's reference kernel (when one is given),
    outside the item's wall time, and keeps it in ``refs``.
    """

    def __init__(self, tracer=None, item="", reference=None):
        self.tracer = tracer
        self.item = item
        self.wall_s = 0.0
        self.refs = []
        self.marks = []
        self._reference = reference

    def probe(self, calls):
        """Time the reference; ``calls`` inner calls have ended so far."""
        if self._reference is not None:
            self.refs.append(self._reference())
            self.marks.append(calls)

    @contextlib.contextmanager
    def __call__(self):
        span = (self.tracer.span("bench.item", self.item)
                if self.tracer is not None else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.wall_s += time.perf_counter() - start


def _fd_derivative(ups_of, ctrl, name, i, j):
    """Criterion 1's noise-robust high-order central difference."""
    estimates = []
    for h in H_LADDER:
        try:
            acc = 0.0
            for k, ck in STENCIL:
                for sign in (1.0, -1.0):
                    kw = {f: getattr(ctrl, f).copy() for f in ("a", "b", "c")}
                    kw[name][i, j] += sign * k * h
                    acc += sign * ck * ups_of(model.ControllerParams(**kw))
            estimates.append(acc / h)
        except InadmissibleError:
            estimates.append(None)
    pairs = [(abs(e1 - e2), 0.5 * (e1 + e2))
             for e1, e2 in zip(estimates, estimates[1:])
             if e1 is not None and e2 is not None]
    if not pairs:
        raise InadmissibleError("every finite-difference step was "
                                "inadmissible")
    return min(pairs)[1]


class Gradcheck:
    """Criterion 1 on seeded random admissible instances.

    Nearly all time goes to the per-node ln det Delta kernel on a frozen
    grid, with a new closed loop on every call and theta fixed: the case
    that theta-reuse caching cannot help and node batching helps most.
    """

    name = "gradcheck"
    kernel = "per_node"   # reference kernel for rescaling, see harness
    trace_items = 1
    call_unit = ("one FD evaluation: assemble_closed_loop + frozen-grid "
                 "growth rate")

    def __init__(self, seed, out_dir, abs_tol=1e-11, rel_tol=1e-10):
        self.plants = _plant_order(seed, GRADCHECK_POOL)
        self.quad = freq.QuadratureConfig(abs_tol=abs_tol, rel_tol=rel_tol)
        self.weights = instances.canonical_weights_square()

    def make_input(self):
        plant_seed = next(self.plants)
        return plant_seed, instances.random_admissible_instance(
            np.random.default_rng(plant_seed),
            theta_fraction=GRADCHECK_SPEC1, perturb=GRADCHECK_PERTURB)

    def dims(self, inp):
        _, (plant, _, cl, _) = inp
        return {"n": plant.n, "m": plant.m, "nu": cl.nu}

    def run_item(self, inp, region):
        plant_seed, (plant, ctrl, cl, theta) = inp
        out = Outcome()

        def ups_of(c):
            start = time.perf_counter()
            cl_ = model.assemble_closed_loop(plant, self.weights, c)
            val = freq.qef_growth_rate(cl_, theta, self.quad, grid=grid)
            out.calls_s.append(time.perf_counter() - start)
            return val

        with region():
            grid = freq.growth_rate_grid(cl, theta, self.quad)
            report = grad.frechet_derivatives(cl, theta, self.quad)
        blocks = (("a", report.dUps_da), ("b", report.dUps_db),
                  ("c", report.dUps_dc))
        entries = [(name, mat, i, j) for name, mat in blocks
                   for i in range(mat.shape[0]) for j in range(mat.shape[1])]
        worst = 0.0
        scale = max(float(np.max(np.abs(mat))) for _, mat in blocks)
        for name, mat, i, j in entries:
            region.probe(len(out.calls_s))
            with region():
                fd = _fd_derivative(ups_of, ctrl, name, i, j)
            worst = max(worst, abs(fd - mat[i, j]) / scale)
        out.ok = bool(worst <= GRAD_TOL)
        out.info = {"plant": plant_seed, "theta": theta,
                    "worst_rel_err": worst,
                    "frozen_nodes": 15 * (len(grid.body_edges)
                                          + len(grid.tail_edges) - 2)}
        return out


def _accepted_steps(report):
    """Accepted steps of a synthesis report (iterates carrying a step)."""
    return sum(1 for *_, step in report.iterates if math.isfinite(step))


class Synth:
    """theta selection plus a budgeted descent on seeded random plants.

    The workload where grad/matfun carry real weight, and the only one that
    runs the descent's step and backtracking logic and the spec1 sweep
    repeated over many theta.  The
    canonical plant is avoided: its LQG controller is already stationary.
    """

    name = "synth"
    kernel = "per_node"   # reference kernel for rescaling, see harness
    trace_items = 3
    call_unit = "one descent iteration: synthesize wall / iterates"

    def __init__(self, seed, out_dir, max_iters=3):
        self.plants = _plant_order(seed, SYNTH_POOL)
        self.max_iters = max_iters
        self.quad = freq.QuadratureConfig(**SYNTH_QUAD)
        self.weights = instances.canonical_weights_square()

    def make_input(self):
        plant_seed = next(self.plants)
        return plant_seed, instances.random_stable_instance(
            np.random.default_rng(plant_seed), weights=self.weights)

    def dims(self, inp):
        _, (plant, _, cl) = inp
        return {"n": plant.n, "m": plant.m, "nu": cl.nu,
                "max_iters": self.max_iters}

    def run_item(self, inp, region):
        plant_seed, (plant, _, cl_lqg) = inp
        out = Outcome()
        with region():
            theta = freq.theta_for_spec1(cl_lqg, SYNTH_SPEC1)
        region.probe(len(out.calls_s))
        cfg = synth.SynthesisConfig(theta=theta, max_iters=self.max_iters,
                                    quad=self.quad)
        with region():
            start = time.perf_counter()
            report = synth.synthesize(plant, self.weights, cfg)
            descent_s = time.perf_counter() - start
        out.calls_s.append(descent_s / len(report.iterates))
        ups_lqg = freq.qef_growth_rate(cl_lqg, theta, self.quad)
        costs = [u for _, u, _, _ in report.iterates]
        decreasing = all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))
        admissible = all(a.admissible for a in report.admissibility)
        no_worse = report.cost <= ups_lqg + COST_SLACK
        out.ok = bool(decreasing and admissible and no_worse)
        out.info = {"plant": plant_seed, "theta": theta,
                    "termination": report.termination,
                    "iterates": len(report.iterates),
                    "accepted": _accepted_steps(report),
                    "ups_lqg": ups_lqg, "ups_final": report.cost,
                    "cost_drop": (ups_lqg - report.cost) / ups_lqg,
                    "decreasing": decreasing, "admissible": admissible,
                    "no_worse_than_lqg": no_worse}
        return out


def _flat(M):
    return [float(x) for x in np.asarray(M).ravel()]


class Oracle:
    """``qefsyn oracle-compare`` through ``cli.main`` on criterion 2's loop.

    Dominated by dense eigensolvers in the time-domain oracle, with almost
    no frequency work; the one path through the CLI.  The input is the
    fixed perturbed canonical loop, so the seed does not change it.
    """

    name = "oracle"
    # dense eigensolves track the host's speed differently from the
    # per-node work, so they are rescaled by a dense kernel
    kernel = "dense"
    trace_items = 1
    call_unit = "one horizon of the T ladder: oracle-compare wall / 3"

    def __init__(self, seed, out_dir, N=400):
        self.N = N
        self.tag = f"{os.getpid()}-{seed}"
        self.out_dir = out_dir

    def make_input(self):
        spec = instances.canonical_plant_spec()
        plant = model.derive_plant(spec)
        S, K = instances.canonical_weights_lqg()
        ctrl = synth.lqg_controller(plant, (S, K)) + model.ControllerParams(
            **ORACLE_PERTURBATION)
        cl = model.assemble_closed_loop(plant, (S, K), ctrl)
        theta = freq.theta_for_spec1(cl, ORACLE_SPEC1)
        decay = abs(float(np.max(np.linalg.eigvals(cl.calA).real)))
        doc = {
            "plant": {"n": plant.n, "m": plant.m, "d": plant.d,
                      "r": plant.r, "Theta": _flat(spec.Theta),
                      "R": _flat(spec.R), "M": _flat(spec.M),
                      "N": _flat(spec.N), "D": _flat(spec.D)},
            "weights": {"S": _flat(S), "K": _flat(K)},
            "theta": theta,
            "controller": {"a": _flat(ctrl.a), "b": _flat(ctrl.b),
                           "c": _flat(ctrl.c)},
            "quadrature": ORACLE_QUAD,
        }
        path = self.out_dir / f"oracle-instance-{self.tag}.json"
        path.write_text(json.dumps(doc))
        return {"path": path, "T": ORACLE_T_DECAYS / decay,
                "nu": cl.nu, "n": plant.n, "m": plant.m, "theta": theta}

    def dims(self, inp):
        return {"n": inp["n"], "m": inp["m"], "nu": inp["nu"],
                "oracle_N": self.N, "operator_dim": self.N * inp["nu"]}

    def run_item(self, inp, region):
        out = Outcome()
        csv_path = self.out_dir / f"oracle-{self.tag}.csv"
        argv = ["oracle-compare", str(inp["path"]),
                "--oracle-N", str(self.N), "--oracle-T", repr(inp["T"]),
                "--output", str(csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            with region():
                code = cli.main(argv)
        gaps = []
        if code == 0:
            with open(csv_path, newline="") as fh:
                gaps = [float(row["rel_gap"]) for row in csv.DictReader(fh)]
        out.calls_s.append(region.wall_s / ORACLE_HORIZONS)
        decreasing = (len(gaps) == ORACLE_HORIZONS
                      and gaps[0] > gaps[1] > gaps[2])
        out.ok = bool(code == 0 and decreasing and gaps[-1] <= ORACLE_GAP_TOL)
        out.info = {"exit_code": code, "gaps": gaps}
        return out


WORKLOADS = {w.name: w for w in (Gradcheck, Synth, Oracle)}
