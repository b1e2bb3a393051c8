"""Controller synthesis: LQG initializer and gradient descent on the cost.

The classical LQG controller for the equivalent classical system
(dx = (Ax + Eu)dt + B dw, dz = Cx dt + D dw, cost density |Sx + Ku|^2)
solves the limiting small-risk problem exactly and initializes a plain
gradient descent on the exponential-cost growth rate over the controller
triple (a, b, c), with a backtracking line search that keeps every iterate
stabilizing and spectrally admissible.

Every backtracking trial of a step is costed on the FrequencyGrid of the
current iterate: the adaptive `qef_growth_rate` that gives an iterate's
cost also gives its grid, and the adaptive value is the sum over exactly
that grid's panels, so the Armijo test compares two sums over one set of
nodes.  Each trial runs, in order: closed-loop assembly (a ValidationError
rejects the trial); its cost on the frozen grid by `qef_growth_rate` (an
InadmissibleError, raised cheaply for a non-Hurwitz loop or for
theta mu >= 1 at a node, rejects it); the Armijo test on the frozen values;
`check_admissible`; and one adaptive integral of the trial, which gives its
reported cost and the grid of the next line search.  The trial is accepted
only if that adaptive cost passes the same Armijo test and is strictly
below the current one, so the reported costs decrease sufficiently, and
strictly even where the Armijo decrement rounds away.  A NumericalError
from the frozen cost is re-raised only if the trial passes the check, and
otherwise rejects it; a NumericalError from the adaptive integral is
re-raised, since the trial has passed the check.  An InadmissibleError
there rejects the trial.
"""

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
from qefsyn.freq import (
    QuadratureConfig,
    _finite_positive,
    check_admissible,
    qef_growth_rate,
)
from qefsyn.grad import frechet_derivatives, optimality_residual
from qefsyn.model import ControllerParams, assemble_closed_loop, is_hurwitz

__all__ = ["SynthesisConfig", "SynthesisReport", "lqg_controller", "synthesize"]


@dataclass
class SynthesisConfig:
    """Knobs of the descent loop."""

    theta: float
    max_iters: int = 500
    grad_tol: float = 1e-6
    initial_step: float = 1.0
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    min_step: float = 1e-14
    theta_continuation: Optional[list] = None
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if not all(_finite_positive(v) for v in (
                self.theta, self.grad_tol, self.initial_step, self.min_step)):
            raise ValueError("theta, grad_tol, initial_step, min_step must "
                             "be finite and positive")
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError("max_iters must be an integer >= 1")
        if not (0 < self.backtrack_factor < 1 and 0 < self.armijo_c < 1):
            raise ValueError("backtrack_factor, armijo_c must lie in (0, 1)")


@dataclass
class SynthesisReport:
    """Accepted-iterate trace and the final controller."""

    iterates: list                 # (iteration, cost, residual, step)
    controller: ControllerParams
    cost: float
    residual: float
    admissibility: list
    termination: str


def lqg_controller(plant, weights):
    """Classical LQG controller in observer form for the derived plant.

    Filter gain from the filtering Riccati equation with noise covariances
    (B B^T, D D^T, cross B D^T); feedback gain from the control Riccati
    equation with weights (S^T S, S^T K, K^T K).
    """
    S, K = (np.atleast_2d(np.asarray(w, dtype=float)) for w in weights)
    A, B, E, C, D = plant.A, plant.B, plant.E, plant.C, plant.D
    R2 = K.T @ K
    if np.min(np.linalg.eigvalsh(R2)) <= 0:
        raise NumericalError("control weight K^T K must be positive definite")
    try:
        X = scipy.linalg.solve_continuous_are(A, E, S.T @ S, R2, s=S.T @ K)
        Y = scipy.linalg.solve_continuous_are(A.T, C.T, B @ B.T, D @ D.T,
                                              s=B @ D.T)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Riccati solve failed: {exc}") from exc
    F = np.linalg.solve(R2, E.T @ X + (S.T @ K).T)      # feedback gain
    Lg = np.linalg.solve(D @ D.T, C @ Y + D @ B.T).T    # filter gain
    c = -F
    b = Lg
    a = A + E @ c - b @ C
    ctrl = ControllerParams(a=a, b=b, c=c)
    cl = assemble_closed_loop(plant, (S, K), ctrl)
    if not is_hurwitz(cl.calA):
        raise NumericalError("LQG controller failed to stabilize the plant")
    return ctrl


def _closed_loop(plant, weights, ctrl):
    """The closed loop of `ctrl`, or None where it cannot be assembled."""
    try:
        return assemble_closed_loop(plant, weights, ctrl)
    except ValidationError:
        return None


def _admissible(plant, weights, ctrl, theta):
    cl = _closed_loop(plant, weights, ctrl)
    return cl, None if cl is None else check_admissible(cl, theta)


def _trial_cost(cl, theta, quad, grid):
    """Growth rate of a trial loop on `grid`; inf where the cost rejects it.

    A non-Hurwitz loop, or theta mu >= 1 at a node of the grid, is an
    InadmissibleError and rejects the trial.  A NumericalError is raised
    only for a trial that passes the admissibility check; a trial that
    fails it is rejected.
    """
    try:
        return qef_growth_rate(cl, theta, quad, grid=grid)
    except InadmissibleError:
        return np.inf
    except NumericalError:
        if not check_admissible(cl, theta).admissible:
            return np.inf
        raise


def _cost_and_grid(cl, theta, quad):
    """Adaptive cost of a loop and the FrequencyGrid it was summed on."""
    rate = qef_growth_rate(cl, theta, quad)
    return float(rate), rate.grid


def _certified_cost(cl, theta, quad):
    """Adaptive cost and grid of a trial that passed the check.

    theta mu >= 1 at an adaptive node rejects the trial (cost inf); a
    NumericalError is re-raised.
    """
    try:
        return _cost_and_grid(cl, theta, quad)
    except InadmissibleError:
        return np.inf, None


def _descent_stage(plant, weights, ctrl, start, theta, cfg, iterates,
                   adm_hist, iter_offset):
    """One descent run at fixed theta; returns (ctrl, cost, resid, reason).

    `start` is the (closed loop, admissibility report) pair of `ctrl` at
    this theta, so the start is not certified twice.
    """
    cl, adm = start
    if cl is None or not adm.admissible:
        raise InadmissibleError(
            f"initial controller inadmissible at theta={theta:g}"
        )
    ups, grid = _cost_and_grid(cl, theta, cfg.quad)
    it = iter_offset
    for _ in range(cfg.max_iters):
        report = frechet_derivatives(cl, theta, cfg.quad)
        resid = optimality_residual(report)
        iterates.append((it, ups, resid, np.nan))
        adm_hist.append(adm)
        if resid <= cfg.grad_tol * (1.0 + abs(ups)):
            return ctrl, ups, resid, "stationary", it
        step = cfg.initial_step / (1.0 + resid)
        accepted = False
        while step >= cfg.min_step:
            trial = ControllerParams(
                a=ctrl.a - step * report.dUps_da,
                b=ctrl.b - step * report.dUps_db,
                c=ctrl.c - step * report.dUps_dc,
            )
            cl_t = _closed_loop(plant, weights, trial)
            bound = ups - cfg.armijo_c * step * resid**2
            if (cl_t is not None
                    and _trial_cost(cl_t, theta, cfg.quad, grid) <= bound):
                adm_t = check_admissible(cl_t, theta)
                if adm_t.admissible:
                    ups_t, grid_t = _certified_cost(cl_t, theta, cfg.quad)
                    if ups_t <= bound and ups_t < ups:
                        ctrl, cl, adm = trial, cl_t, adm_t
                        ups, grid = ups_t, grid_t
                        iterates[-1] = (it, iterates[-1][1], resid, step)
                        accepted = True
                        break
            step *= cfg.backtrack_factor
        if not accepted:
            return ctrl, ups, resid, "line-search failure", it
        it += 1
    report = frechet_derivatives(cl, theta, cfg.quad)
    resid = optimality_residual(report)
    iterates.append((it, ups, resid, np.nan))
    adm_hist.append(adm)
    return ctrl, ups, resid, "max-iterations", it


def synthesize(plant, weights, cfg):
    """Gradient descent on the cost growth rate, LQG-initialized.

    If the LQG controller is inadmissible at the target theta, a geometric
    theta ladder (theta/8, theta/4, theta/2, theta) warm-starts each stage
    with the previous stage's minimizer.
    """
    ctrl = lqg_controller(plant, weights)
    start = _admissible(plant, weights, ctrl, cfg.theta)
    if start[1] is not None and start[1].admissible:
        stages = [cfg.theta]
    else:
        ladder = cfg.theta_continuation or [cfg.theta / 8, cfg.theta / 4,
                                            cfg.theta / 2, cfg.theta]
        stages = list(ladder)
        start = _admissible(plant, weights, ctrl, stages[0])
        if start[1] is None or not start[1].admissible:
            raise InadmissibleError(
                "LQG initializer inadmissible at every continuation stage"
            )
    iterates, adm_hist = [], []
    offset = 0
    for k, theta in enumerate(stages):
        if k:
            start = _admissible(plant, weights, ctrl, theta)
        ctrl, ups, resid, reason, offset = _descent_stage(
            plant, weights, ctrl, start, theta, cfg, iterates, adm_hist,
            offset)
        offset += 1
    return SynthesisReport(iterates=iterates, controller=ctrl, cost=ups,
                           residual=resid, admissibility=adm_hist,
                           termination=reason)
