"""LQG initializer and the descent loop."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from qefsyn import grad, synth
from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
from qefsyn.freq import (
    QuadratureConfig,
    GrowthRate,
    check_admissible,
    is_hurwitz,
    qef_growth_rate,
    theta_for_spec1,
)
from qefsyn.grad import GradReport, frechet_derivatives
from qefsyn.instances import (
    canonical_weights_lqg,
    canonical_weights_square,
    random_plant_spec,
    random_stable_instance,
)
from qefsyn.model import ControllerParams, assemble_closed_loop, derive_plant
from qefsyn.synth import SynthesisConfig, lqg_controller, synthesize


def test_lqg_controller_stabilizes(canonical_plant, weights_square):
    ctrl = lqg_controller(canonical_plant, weights_square)
    cl = assemble_closed_loop(canonical_plant, weights_square, ctrl)
    assert is_hurwitz(cl.calA)


def test_lqg_controller_observer_form(canonical_plant, weights_square):
    ctrl = lqg_controller(canonical_plant, weights_square)
    p = canonical_plant
    assert np.allclose(ctrl.a, p.A + p.E @ ctrl.c - ctrl.b @ p.C)


def test_lqg_controller_rejects_degenerate_control_weight(canonical_plant):
    # the weights are input: a singular K is invalid, not a numerical fault
    with pytest.raises(ValidationError, match="control weight K"):
        lqg_controller(canonical_plant, (np.eye(2), np.zeros((2, 1))))


def test_lqg_controller_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(3):
        _, _, cl = random_stable_instance(rng)
        assert is_hurwitz(cl.calA)


def _riccati_equations(seed, n):
    """(A, B, Q, R, S) of the control and the filter Riccati equation of
    a seeded plant of order n with seeded nu = 3 weights."""
    rng = np.random.default_rng(seed)
    p = derive_plant(random_plant_spec(rng, n=n))
    S, K = rng.standard_normal((3, n)), rng.standard_normal((3, p.d))
    return ((p.A, p.E, S.T @ S, K.T @ K, S.T @ K),
            (p.A.T, p.C.T, p.B @ p.B.T, p.D @ p.D.T, p.B @ p.D.T))


def _weakly_controllable(c):
    """(A, B, Q, R, S) with A = [[1, c], [0, -1]], B = [0; 1]: the
    unstable mode is uncontrollable at c = 0 and X grows like 1 / c^2."""
    return (np.array([[1.0, c], [0.0, -1.0]]), np.array([[0.0], [1.0]]),
            np.eye(2), np.eye(1), np.zeros((2, 1)))


@pytest.mark.parametrize("equations", [
    pytest.param([eq for seed in range(20)
                  for eq in _riccati_equations(seed, n)], id=str(n))
    for n in (2, 4)
] + [
    pytest.param([_weakly_controllable(c)], id=f"weak-{c:g}")
    for c in (1e-4, 1e-5, 1e-6, 1e-7)
])
def test_riccati_solutions_match_scipy(equations):
    # over seeds 0-19 the largest difference relative to scipy's largest
    # entry measured 3.6e-11 (n = 4, seed 16, entries up to 2.9e5).  The
    # weakly controllable ones fail the residual test without Newton steps
    # (8.6e-6 at c = 1e-5) and measured at most 7.5e-11 with them (c = 1e-5,
    # X about 1e11)
    for A, B, Q, R, S in equations:
        X = synth._care(A, B, Q, R, S)
        ref = scipy.linalg.solve_continuous_are(A, B, Q, R, s=S)
        assert np.max(np.abs(X - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.array_equal(X, X.T)


@pytest.mark.parametrize("A, B, Q, message", [
    # A's eigenvalues +-i are neither controlled nor weighted, so they stay
    # on the imaginary axis
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 1)), np.zeros((2, 2)),
     "0 of the Hamiltonian's 4 eigenvalues lie clearly left of the "
     "imaginary axis, not 2"),
    # the unstable mode of A = [[1, c], [0, -1]] is uncontrollable at c = 0
    # and so weakly controllable at c = 1e-8 that X is about 1e17; scipy's
    # ordered Schur solve still returns it, but Newton steps from the
    # eigenvector solution do not converge to it
    (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0], [1.0]]),
     np.eye(2), "Singular matrix"),
    (np.array([[1.0, 1e-8], [0.0, -1.0]]), np.array([[0.0], [1.0]]),
     np.eye(2), "residual .* above tolerance"),
])
def test_riccati_failure_is_a_numerical_error(A, B, Q, message):
    with pytest.raises(NumericalError,
                       match=f"^Riccati solve failed: {message}"):
        synth._care(A, B, Q, np.eye(1), np.zeros((2, 1)))


def test_synthesis_config_validation():
    for bad in (dict(theta=-0.1), dict(theta=np.nan), dict(theta=np.inf),
                dict(theta=0.1, grad_tol=np.inf),
                dict(theta=0.1, max_iters=2.5), dict(theta=0.1, max_iters=0),
                dict(theta=0.1, max_iters=True),
                dict(theta=0.1, grad_tol=None)):
        name = next((k for k in bad if k != "theta"), "theta")
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            SynthesisConfig(**bad)


def test_synthesize_rejects_zero_theta(canonical_plant, weights_square):
    cfg = SynthesisConfig(theta=0.0)
    with pytest.raises(ValidationError, match=r"theta > 0"):
        synthesize(canonical_plant, weights_square, cfg)


def test_synthesize_canonical_reaches_stationarity(canonical_plant,
                                                   weights_square, cl_square):
    theta = theta_for_spec1(cl_square, 0.3)
    cfg = SynthesisConfig(theta=theta, max_iters=50,
                          quad=QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8))
    report = synthesize(canonical_plant, weights_square, cfg)
    assert report.termination == "stationary"
    assert report.residual <= cfg.grad_tol * (1 + abs(report.cost))
    assert report.cost > 0
    # every accepted iterate was admissible
    assert all(a.admissible for a in report.admissibility)
    # the trace never increases
    costs = [u for _, u, _, _ in report.iterates]
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(costs, costs[1:]))


def test_synthesize_final_controller_admissible(canonical_plant,
                                                weights_square, cl_square):
    theta = theta_for_spec1(cl_square, 0.3)
    cfg = SynthesisConfig(theta=theta, max_iters=20,
                          quad=QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8))
    report = synthesize(canonical_plant, weights_square, cfg)
    cl = assemble_closed_loop(canonical_plant, weights_square,
                              report.controller)
    assert check_admissible(cl, theta).admissible


def test_admissible_maps_only_validation_errors(canonical_plant,
                                                weights_square, monkeypatch):
    ctrl = lqg_controller(canonical_plant, weights_square)

    def raise_(exc):
        def assemble(*args):
            raise exc
        return assemble

    monkeypatch.setattr(synth, "assemble_closed_loop",
                        raise_(ValidationError("shape mismatch")))
    assert synth._admissible(canonical_plant, weights_square, ctrl,
                             0.05) is None
    # anything else is a bug in closed-loop assembly, not inadmissibility
    monkeypatch.setattr(synth, "assemble_closed_loop",
                        raise_(RuntimeError("assembly bug")))
    with pytest.raises(RuntimeError, match="assembly bug"):
        synth._admissible(canonical_plant, weights_square, ctrl, 0.05)


@pytest.fixture(scope="module")
def pool_problem():
    """Plant 16 of the benchmark's synthesis pool, one descent iteration.

    Its first trial step passes Armijo and the admissibility check.
    """
    weights = canonical_weights_square()
    plant, _, cl = random_stable_instance(np.random.default_rng(16),
                                          weights=weights)
    cfg = SynthesisConfig(theta=theta_for_spec1(cl, 0.4), max_iters=1,
                          quad=QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9))
    _, _, resid, full_step = synthesize(plant, weights, cfg).iterates[0]
    assert full_step == synth._INITIAL_STEP / (1.0 + resid)
    return plant, weights, cfg, full_step


#: a stand-in report whose spectral supremum lies past the margin
_FAILING = SimpleNamespace(admissible=False, spec1_sup=1.0)


def test_check_failing_after_armijo_halves_the_step(pool_problem,
                                                    monkeypatch):
    plant, weights, cfg, full_step = pool_problem
    checks = []

    def check(cl, theta):
        checks.append(theta)
        report = check_admissible(cl, theta)
        # the start is check 1; check 2 is the first trial to pass Armijo
        return _FAILING if len(checks) == 2 else report

    monkeypatch.setattr(synth, "check_admissible", check)
    report = synthesize(plant, weights, cfg)
    assert report.iterates[0][3] == synth._BACKTRACK * full_step
    assert len(checks) == 3
    assert all(a.admissible for a in report.admissibility)


@pytest.mark.parametrize("admissible", [False, True])
def test_numerical_error_from_trial_cost(pool_problem, monkeypatch,
                                         admissible):
    plant, weights, cfg, full_step = pool_problem
    costs, checks_after_raise = [], []

    def cost(cl, theta, quad=None, grid=None):
        costs.append(theta)
        if len(costs) == 2:       # the first trial; call 1 is the start
            raise NumericalError("quadrature stall")
        return qef_growth_rate(cl, theta, quad, grid)

    def check(cl, theta):
        report = check_admissible(cl, theta)
        if len(costs) != 2:
            return report
        checks_after_raise.append(theta)
        return report if admissible else _FAILING

    monkeypatch.setattr(synth, "qef_growth_rate", cost)
    monkeypatch.setattr(synth, "check_admissible", check)
    if admissible:
        with pytest.raises(NumericalError, match="quadrature stall"):
            synthesize(plant, weights, cfg)
    else:
        report = synthesize(plant, weights, cfg)
        assert report.iterates[0][3] == synth._BACKTRACK * full_step
    assert len(checks_after_raise) == 1


def test_line_search_failure_keeps_the_start(pool_problem, monkeypatch):
    plant, weights, cfg, _ = pool_problem
    start = []

    def cost(cl, theta, quad=None, grid=None):
        if grid is None:
            start.append(qef_growth_rate(cl, theta, quad))
            return start[-1]
        # every frozen-grid trial costs more than the start, so no step
        # passes its Armijo bound down to _MIN_STEP
        return GrowthRate(start[0] + 1.0, grid)

    monkeypatch.setattr(synth, "qef_growth_rate", cost)
    report = synthesize(plant, weights, cfg)
    assert report.termination == "line-search failure"
    assert len(report.iterates) == 1 and np.isnan(report.iterates[0][3])
    assert len(start) == 1 and report.cost == start[0]


def _pool_descent(seed):
    """Plant `seed` of the benchmark's synthesis pool, 3-iteration settings."""
    weights = canonical_weights_square()
    plant, _, cl = random_stable_instance(np.random.default_rng(seed),
                                          weights=weights)
    cfg = SynthesisConfig(theta=theta_for_spec1(cl, 0.4), max_iters=3,
                          quad=QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9))
    return plant, weights, cfg


def test_admissible_start_checks_once_plus_accepted_steps(monkeypatch):
    plant, weights, cfg = _pool_descent(21)
    checks = []

    def check(cl, theta):
        checks.append(theta)
        return check_admissible(cl, theta)

    monkeypatch.setattr(synth, "check_admissible", check)
    report = synthesize(plant, weights, cfg)
    accepted = sum(1 for *_, step in report.iterates if np.isfinite(step))
    assert report.admissibility[0].admissible and accepted == 3
    assert len(checks) == 1 + accepted


def test_lqg_start_is_assembled_once(monkeypatch):
    # the loop lqg_controller checks Hurwitz is the one the first
    # admissibility check reads
    plant, weights, cfg = _pool_descent(21)
    cfg = dataclasses.replace(cfg, max_iters=1)
    loops, checked = [], []

    def assemble(*args):
        loops.append(assemble_closed_loop(*args))
        return loops[-1]

    def check(cl, theta):
        checked.append(cl)
        return check_admissible(cl, theta)

    monkeypatch.setattr(synth, "assemble_closed_loop", assemble)
    monkeypatch.setattr(synth, "check_admissible", check)
    synthesize(plant, weights, cfg)
    assert checked[0] is loops[0]


def test_trials_are_costed_on_the_current_iterate_grid(monkeypatch):
    plant, weights, cfg = _pool_descent(21)
    log = []

    def cost(cl, theta, quad=None, grid=None):
        rate = qef_growth_rate(cl, theta, quad, grid)
        log.append(("adaptive", rate.grid) if grid is None
                   else ("trial", grid, rate.meets(quad)))
        return rate

    def gradient(cl, theta, quad=None, grid=None, sweep=None):
        log.append(("gradient", grid))
        return frechet_derivatives(cl, theta, quad, grid, sweep)

    monkeypatch.setattr(synth, "qef_growth_rate", cost)
    monkeypatch.setattr(synth, "frechet_derivatives", gradient)
    report = synthesize(plant, weights, cfg)
    accepted = sum(1 for *_, step in report.iterates if np.isfinite(step))
    assert accepted == 3
    assert log[0][0] == "adaptive"
    current, trials = None, 0
    for k, (kind, grid, *_) in enumerate(log):
        if kind == "adaptive":
            # only a trial whose frozen sum misses the tolerance re-adapts
            assert k == 0 or (log[k - 1][0] == "trial"
                              and not log[k - 1][2])
            current = grid
        else:
            # trials and the gradient are summed on the iterate's grid
            assert grid is not None and grid is current
            trials += kind == "trial"
    assert trials > accepted      # the descent backtracked
    assert sum(kind == "gradient" for kind, *_ in log) == 1 + accepted
    # at least one accepted step kept its iterate's grid
    assert sum(kind == "adaptive" for kind, *_ in log) < 1 + accepted


def test_gradient_on_a_kept_grid_makes_no_sweep(monkeypatch):
    # an accepted trial whose frozen sum met the tolerance kept its
    # iterate's grid, and the gradient reuses that sum's sweep
    plant, weights, cfg = _pool_descent(21)
    sweeps, gradients = [], []
    sweep_of = grad.spectral_sweep

    def counted(cl, lams):
        sweeps.append(len(lams))
        return sweep_of(cl, lams)

    def gradient(cl, theta, quad=None, grid=None, sweep=None):
        before = len(sweeps)
        report = frechet_derivatives(cl, theta, quad, grid, sweep)
        gradients.append((grid, sweep is not None, len(sweeps) - before))
        return report

    monkeypatch.setattr(grad, "spectral_sweep", counted)
    monkeypatch.setattr(synth, "frechet_derivatives", gradient)
    synthesize(plant, weights, cfg)
    kept = [False] + [g1 is g0 for (g0, *_), (g1, *_)
                      in zip(gradients, gradients[1:])]
    assert len(gradients) == 4 and any(kept)
    for keeps, (_, reused, made) in zip(kept, gradients):
        assert reused == keeps and made == (0 if keeps else 1)


@pytest.mark.parametrize("outcome", ["not lower", "above the Armijo bound",
                                     "inadmissible", "numerical"])
def test_adaptive_cost_of_an_accepted_trial(pool_problem, monkeypatch,
                                            outcome):
    plant, weights, cfg, full_step = pool_problem
    if outcome == "not lower":
        # an Armijo decrement below one ulp of the cost, so that only the
        # strict test rejects a trial that does not lower it
        monkeypatch.setattr(synth, "_ARMIJO_C", 1e-300)
    costs = []

    def cost(cl, theta, quad=None, grid=None):
        rate = qef_growth_rate(cl, theta, quad, grid)
        if grid is not None:
            # every trial re-adapts: its frozen sum carries an error
            # estimate above any tolerance, as on a grid it drifted from
            return GrowthRate(rate, rate.grid, error=abs(rate))
        costs.append(float(rate))
        if len(costs) == 2:       # the first trial; call 1 is the start
            if outcome == "not lower":
                return GrowthRate(costs[0], rate.grid)
            if outcome == "above the Armijo bound":
                # lower than the start, but by less than any Armijo decrement
                return GrowthRate(np.nextafter(costs[0], -np.inf), rate.grid)
            if outcome == "inadmissible":
                raise InadmissibleError("theta mu >= 1 at a node")
            raise NumericalError("quadrature stall")
        return rate

    monkeypatch.setattr(synth, "qef_growth_rate", cost)
    if outcome == "numerical":
        with pytest.raises(NumericalError, match="quadrature stall"):
            synthesize(plant, weights, cfg)
        return
    report = synthesize(plant, weights, cfg)
    assert report.iterates[0][3] == synth._BACKTRACK * full_step
    assert len(costs) == 3
    assert report.cost == costs[2] < costs[0]


def test_trial_within_tolerance_keeps_the_grid(pool_problem, monkeypatch):
    plant, weights, cfg, full_step = pool_problem
    adaptive, frozen, gradient_grids = [], [], []

    def cost(cl, theta, quad=None, grid=None):
        rate = qef_growth_rate(cl, theta, quad, grid)
        if grid is None:
            adaptive.append(rate)
            return rate
        frozen.append(GrowthRate(rate, rate.grid, error=0.0))
        return frozen[-1]

    def gradient(cl, theta, quad=None, grid=None, sweep=None):
        gradient_grids.append(grid)
        return frechet_derivatives(cl, theta, quad, grid, sweep)

    monkeypatch.setattr(synth, "qef_growth_rate", cost)
    monkeypatch.setattr(synth, "frechet_derivatives", gradient)
    report = synthesize(plant, weights, cfg)
    # the first trial passes Armijo and the check, and its frozen sum is
    # its cost: no adaptive integral runs after the start's
    assert report.iterates[0][3] == full_step
    assert len(adaptive) == 1 and len(frozen) == 1
    assert report.cost == frozen[0] < adaptive[0]
    assert len(gradient_grids) == 2
    assert all(grid is adaptive[0].grid for grid in gradient_grids)


@pytest.mark.parametrize("seed", [16, 45, 180])
def test_reported_cost_is_an_accurate_cost(seed):
    # costs kept from a frozen grid are still within the quadrature
    # tolerance of the final controller's adaptive cost
    plant, weights, cfg = _pool_descent(seed)
    report = synthesize(plant, weights, cfg)
    cl = assemble_closed_loop(plant, weights, report.controller)
    fresh = qef_growth_rate(cl, cfg.theta, cfg.quad)
    assert abs(report.cost - fresh) <= cfg.quad.rel_tol * abs(fresh)


def _continuation_problem(seed, spec1):
    """A plant whose LQG controller is inadmissible at theta (spec1 0.96+)."""
    plant, _, cl = random_stable_instance(np.random.default_rng(seed))
    cfg = SynthesisConfig(theta=theta_for_spec1(cl, spec1), max_iters=5,
                          quad=QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9))
    assert not check_admissible(cl, cfg.theta).admissible
    return plant, canonical_weights_square(), cfg


def test_continuation_ladder(monkeypatch):
    plant, weights, cfg = _continuation_problem(0, 0.96)
    theta, checks = cfg.theta, []

    def check(cl, th):
        checks.append(th)
        return check_admissible(cl, th)

    monkeypatch.setattr(synth, "check_admissible", check)
    report = synthesize(plant, weights, cfg)
    # the LQG start at theta, then every check of stage k at its own theta
    runs = [th for k, th in enumerate(checks) if k == 0 or th != checks[k - 1]]
    assert runs == [theta, theta / 8, theta / 4, theta / 2, theta]
    # max_iters applies per stage: 4 stages of max_iters + 1 rows
    assert [it for it, *_ in report.iterates] == list(range(24))
    costs = [u for _, u, _, _ in report.iterates]
    stages = [costs[k:k + 6] for k in range(0, 24, 6)]
    for stage in stages:
        assert all(c2 < c1 for c1, c2 in zip(stage, stage[1:]))
    # each stage is costed at its own, larger theta
    assert all(s2[0] > s1[-1] for s1, s2 in zip(stages, stages[1:]))
    assert report.termination == "max-iterations"
    cl = assemble_closed_loop(plant, weights, report.controller)
    assert check_admissible(cl, theta).admissible


def test_inadmissible_later_stage_start_names_the_stage(monkeypatch):
    plant, weights, cfg = _pool_descent(21)
    cfg = dataclasses.replace(cfg, max_iters=1)
    checks = []

    def check(cl, theta):
        checks.append(theta)
        report = check_admissible(cl, theta)
        return _FAILING if theta == cfg.theta else report

    monkeypatch.setattr(synth, "check_admissible", check)
    # every loop fails at theta, so the minimizer of stage 3 (theta/2)
    # does; this used to be reported as the "initial controller"
    with pytest.raises(InadmissibleError,
                       match="stage 4 of 4: its start, the minimizer of "
                             "stage 3, is inadmissible"):
        synthesize(plant, weights, cfg)
    # the LQG start and the stage-4 start
    assert checks.count(cfg.theta) == 2
    assert checks[0] == checks[-1] == cfg.theta


def test_inadmissible_lqg_start_names_the_first_stage(monkeypatch):
    plant, weights, cfg = _pool_descent(21)
    checks = []

    def check(cl, theta):
        checks.append(theta)
        return _FAILING

    monkeypatch.setattr(synth, "check_admissible", check)
    # this used to claim every continuation stage had been tried
    with pytest.raises(InadmissibleError,
                       match="stage 1 of 4: its start, the LQG controller, "
                             "is inadmissible"):
        synthesize(plant, weights, cfg)
    assert checks == [cfg.theta, cfg.theta / 8]


def test_continuation_from_inadmissible_stage_minimizer():
    # under steepest descent, stage 3's minimizer on this plant was
    # inadmissible at theta, so stage 4 could not start
    plant, weights, cfg = _continuation_problem(2, 0.99)
    report = synthesize(plant, weights, cfg)
    # every stage ran its max_iters + 1 rows
    assert [it for it, *_ in report.iterates] == list(range(24))
    assert report.termination == "max-iterations"
    cl = assemble_closed_loop(plant, weights, report.controller)
    assert check_admissible(cl, cfg.theta).admissible


#: rows each descent needs (38, 14 and 32 when measured), with 50% margin
_STATIONARY_ROWS = {0: 57, 1: 21, 2: 48}


@pytest.mark.parametrize("seed", sorted(_STATIONARY_ROWS))
def test_descent_reaches_stationarity_on_random_plants(seed):
    # the canonical plant's LQG start is already stationary; these are not
    plant, _, cl = random_stable_instance(np.random.default_rng(seed))
    weights = canonical_weights_square()
    cfg = SynthesisConfig(theta=theta_for_spec1(cl, 0.4), max_iters=100,
                          quad=QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9))
    ups_lqg = qef_growth_rate(cl, cfg.theta, cfg.quad)
    report = synthesize(plant, weights, cfg)
    assert report.termination == "stationary"
    assert len(report.iterates) <= _STATIONARY_ROWS[seed]
    assert report.residual <= cfg.grad_tol * (1 + abs(report.cost))
    assert report.residual < report.iterates[0][2]
    costs = [u for _, u, _, _ in report.iterates]
    assert all(c2 < c1 for c1, c2 in zip(costs, costs[1:]))
    assert report.cost < ups_lqg
    assert all(a.admissible for a in report.admissibility)


#: rows each stacked-weight descent needs (35, 15, 35, 28, 22 and 15 when
#: measured), with 50% margin
_STACKED_ROWS = {0: 53, 1: 23, 2: 53, 3: 42, 4: 33, 5: 23}


@pytest.mark.parametrize("seed", sorted(_STACKED_ROWS))
def test_stacked_weight_descent_reaches_stationarity(seed):
    # nu = 3 > m = 2: Psi is singular at every frequency, and the loop is
    # admissible and differentiable all the same
    weights = canonical_weights_lqg()
    plant, _, cl = random_stable_instance(np.random.default_rng(seed),
                                          weights)
    cfg = SynthesisConfig(theta=theta_for_spec1(cl, 0.4), max_iters=100,
                          quad=QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9))
    report = synthesize(plant, weights, cfg)
    assert report.termination == "stationary"
    assert len(report.iterates) <= _STACKED_ROWS[seed]
    assert report.cost < qef_growth_rate(cl, cfg.theta, cfg.quad)
    assert all(a.admissible for a in report.admissibility)


def _pairs(rng, count, size=8):
    """`count` pairs (s, A s) for one random symmetric positive definite A."""
    M = rng.standard_normal((size, size))
    A = M @ M.T + 0.1 * np.eye(size)
    pairs = []
    for _ in range(count):
        s = rng.standard_normal(size)
        synth._remember(pairs, s, A @ s)
    assert len(pairs) == count
    return pairs


def test_direction_without_pairs_is_the_negative_gradient():
    g = np.random.default_rng(0).standard_normal(8)
    assert np.array_equal(synth._direction(g, []), -g)


@pytest.mark.parametrize("count", [1, 3, synth._MEMORY])
def test_direction_meets_the_newest_secant_condition(count):
    pairs = _pairs(np.random.default_rng(count), count)
    s, y = pairs[-1]
    d = synth._direction(y, pairs)
    assert np.linalg.norm(d + s) <= 1e-12 * np.linalg.norm(s)


def test_direction_is_a_descent_direction():
    rng = np.random.default_rng(1)
    for count in range(1, synth._MEMORY + 1):
        pairs = _pairs(rng, count)
        for _ in range(20):
            g = rng.standard_normal(8)
            assert g @ synth._direction(g, pairs) < 0


def test_pair_without_positive_curvature_is_not_kept():
    s = np.array([1.0, 2.0, -1.0])
    pairs = []
    for y in (-s, np.array([2.0, -1.0, 0.0]), np.array([1.0, 0.0, 1.0])):
        synth._remember(pairs, s, y)     # s^T y = -6, 0, 0
    assert pairs == []
    synth._remember(pairs, s, s)
    assert len(pairs) == 1


def test_flat_view_round_trips():
    rng = np.random.default_rng(3)
    ctrl = ControllerParams(a=rng.standard_normal((2, 2)),
                            b=rng.standard_normal((2, 1)),
                            c=rng.standard_normal((1, 2)))
    grad = GradReport(dUps_da=ctrl.a, dUps_db=ctrl.b, dUps_dc=ctrl.c)
    v = synth._flat(ctrl)
    assert np.array_equal(v, np.concatenate([ctrl.a.ravel(), ctrl.b.ravel(),
                                             ctrl.c.ravel()]))
    assert np.array_equal(synth._flat(grad), v)
    for record in (ctrl, grad):
        back = synth._unflat(synth._flat(record), record)
        assert type(back) is type(record)
        for f in dataclasses.fields(record):
            assert np.array_equal(getattr(back, f.name),
                                  getattr(record, f.name))


def test_ascent_direction_falls_back_to_the_scaled_gradient(pool_problem,
                                                            monkeypatch):
    plant, weights, cfg, _ = pool_problem
    cfg = dataclasses.replace(cfg, max_iters=2)
    gradients, directions, trials = [], [], []
    trial = synth._trial

    def gradient(cl, theta, quad=None, grid=None, sweep=None):
        gradients.append((cl.ctrl, frechet_derivatives(cl, theta, quad,
                                                        grid, sweep)))
        return gradients[-1][1]

    def ascent(g, pairs):
        directions.append(len(pairs))
        return g

    def record(plant, weights, ctrl, theta, quad, ups, bound):
        trials.append((len(gradients), ctrl, ups - bound))
        return trial(plant, weights, ctrl, theta, quad, ups, bound)

    monkeypatch.setattr(synth, "frechet_derivatives", gradient)
    monkeypatch.setattr(synth, "_direction", ascent)
    monkeypatch.setattr(synth, "_trial", record)
    report = synthesize(plant, weights, cfg)
    assert len(report.iterates) == 3
    # the second step had a pair, and its direction +g is an ascent one
    assert directions == [0, 1]
    ctrl, g = gradients[1]
    resid = report.iterates[1][2]
    step = synth._INITIAL_STEP / (1.0 + resid)
    _, first, decrement = next(t for t in trials if t[0] == 2)
    for name, dname in zip("abc", ("dUps_da", "dUps_db", "dUps_dc")):
        assert np.array_equal(getattr(first, name),
                              getattr(ctrl, name) - step * getattr(g, dname))
    assert decrement == pytest.approx(synth._ARMIJO_C * step * resid**2,
                                      rel=1e-12)
