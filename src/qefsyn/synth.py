"""Controller synthesis: LQG initializer and gradient descent on the cost.

The classical LQG controller for the equivalent classical system
(dx = (Ax + Eu)dt + B dw, dz = Cx dt + D dw, cost density |Sx + Ku|^2)
solves the limiting small-risk problem exactly and initializes a plain
gradient descent on the exponential-cost growth rate over the controller
triple (a, b, c), with a backtracking line search that keeps every iterate
stabilizing and spectrally admissible.

Each backtracking trial runs, in order: closed-loop assembly (a
ValidationError rejects the trial), the cost by `qef_growth_rate` (an
InadmissibleError rejects it), the Armijo test, and only then
`check_admissible`, which accepts the trial if it passes.  The cost raises
InadmissibleError cheaply for a non-Hurwitz loop or for theta mu >= 1 at a
quadrature node, so most inadmissible trials never reach the check.  A
NumericalError from the cost is re-raised only if the trial passes the
check; otherwise the trial is rejected.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
from qefsyn.freq import QuadratureConfig, check_admissible, qef_growth_rate
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
        if self.theta <= 0 or self.max_iters <= 0 or self.grad_tol <= 0:
            raise ValueError("theta, max_iters, grad_tol must be positive")
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


def _trial_cost(cl, theta, quad):
    """Growth rate of a trial loop; inf where the cost rejects the trial.

    A non-Hurwitz loop, or theta mu >= 1 at a quadrature node, is an
    InadmissibleError and rejects the trial.  A NumericalError is raised
    only for a trial that passes the admissibility check; a trial that
    fails it is rejected, as it would have been before its cost was tried.
    """
    try:
        return qef_growth_rate(cl, theta, quad)
    except InadmissibleError:
        return np.inf
    except NumericalError:
        if not check_admissible(cl, theta).admissible:
            return np.inf
        raise


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
    ups = qef_growth_rate(cl, theta, cfg.quad)
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
            if cl_t is not None:
                ups_t = _trial_cost(cl_t, theta, cfg.quad)
                if ups_t <= ups - cfg.armijo_c * step * resid**2:
                    adm_t = check_admissible(cl_t, theta)
                    if adm_t.admissible:
                        ctrl, cl, adm, ups = trial, cl_t, adm_t, ups_t
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
