"""Controller synthesis: LQG initializer and L-BFGS descent on the cost.

The classical LQG controller for the equivalent classical system
(dx = (Ax + Eu)dt + B dw, dz = Cx dt + D dw, cost density |Sx + Ku|^2)
solves the limiting small-risk problem exactly and initializes an L-BFGS
descent on the exponential-cost growth rate over the controller triple
(a, b, c), with a backtracking line search that keeps every iterate
stabilizing and spectrally admissible.  Its step rule is fixed.  The
direction d is -H g, with H built from the last _MEMORY pairs
(s, y) = (change of (a, b, c), change of g) of accepted steps by the
two-loop recursion, scaled by s^T y / y^T y of the newest pair (Nocedal &
Wright, Numerical Optimization, 2nd ed., Alg. 7.4 and eq. 7.20); a pair
with s^T y <= 0 is not kept, and each continuation stage starts with no
pairs.  The step along d starts at 1.  With no pairs, or where g^T d >= 0,
d is -g and the step starts at _INITIAL_STEP / (1 + |g|).  The step is
multiplied by _BACKTRACK until a trial passes the Armijo bound
ups + _ARMIJO_C * step * g^T d; the search gives up below _MIN_STEP.

Both Riccati equations of the LQG controller are solved by the Hamiltonian
method (`_care`): the stabilizing solution is X = U2 U1^{-1}, with
[U1; U2] the eigenvectors of the 2n x 2n Hamiltonian matrix that belong to
its n eigenvalues left of the imaginary axis (Potter, SIAM J. Appl. Math.
14, 1966; Laub, IEEE Trans. Autom. Control 24(6), 1979).  Where that X
fails the residual test, as near a barely controllable mode, Newton steps
refine it (Kleinman, IEEE Trans. Autom. Control 13(1), 1968).

Each iterate has one FrequencyGrid: the grid its cost, a GrowthRate, was
summed on.  Its gradient is summed on that grid too, so it is the exact
derivative of the sums that the line search compares; where the cost was
summed on a kept grid, the gradient reuses that sum's sweep (`ups.sweep`).
A line-search trial (`_trial`) runs, in order: closed-loop assembly (a
ValidationError rejects it); its cost on the current iterate's grid (an
InadmissibleError rejects it; a NumericalError rejects it if it fails
`check_admissible` and is re-raised otherwise); the Armijo test;
`check_admissible`, of which only `.admissible` is read (on a loop its
Hamiltonian test certifies, the supremum is never summed).  If the frozen
sum's error estimate then meets the quadrature tolerance, by the test that
stops the adaptive integral, that sum is the trial's cost and the grid is
kept.  Otherwise one adaptive integral gives its cost and a new grid (an
InadmissibleError rejects it), and the trial is accepted only if that cost
also passes the Armijo test.  Either way the cost must be strictly below
the current one.  A grid is thus re-adapted only when the controller has
drifted far enough from the loop it was adapted to that its own estimate
fails.
"""

import dataclasses
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from qefsyn import gramians
from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
from qefsyn.freq import (
    QuadratureConfig,
    check_admissible,
    check_number,
    check_theta,
    is_hurwitz,
    qef_growth_rate,
)
from qefsyn.grad import frechet_derivatives, optimality_residual
from qefsyn.model import ControllerParams, assemble_closed_loop, check_weights

__all__ = ["SynthesisConfig", "SynthesisReport", "lqg_controller", "synthesize"]

#: divisors of theta for the continuation stages, run when the LQG
#: controller is inadmissible at theta
_CONTINUATION = (8, 4, 2, 1)
#: the line search's step rule (module doc)
_INITIAL_STEP = 1.0
_BACKTRACK = 0.5
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-14
#: (s, y) pairs the L-BFGS direction keeps
_MEMORY = 8
#: Hamiltonian eigenvalues with |Re| at most this times its 1-norm count as
#: on the imaginary axis (rounding moves a defective one there by about
#: sqrt(eps) times the norm)
_AXIS_GAP = 1e-7
#: bound on a Riccati residual relative to 1 + its largest term
_RICCATI_RTOL = 1e-10
#: Newton steps while the residual test fails: A = [[1, c], [0, -1]],
#: B = [0; 1], Q = I, R = 1 takes one for c = 1e-3 to 1e-5, two at 1e-6
#: and five at 1e-7 (X about 1e15)
_NEWTON_STEPS = 5


@dataclass
class SynthesisConfig:
    """Settings of the descent; its step rule is fixed (module doc)."""

    theta: float
    max_iters: int = 500
    grad_tol: float = 1e-6
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        check_theta(self.theta)
        check_number("max_iters", self.max_iters, lambda v: v >= 1,
                     "an integer >= 1", numbers.Integral)
        check_number("grad_tol", self.grad_tol)


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
    return _lqg(plant, weights)[0]


def _lqg(plant, weights):
    """`lqg_controller` and the closed loop it was checked Hurwitz on."""
    S, K = check_weights(plant, weights)
    A, B, E, C, D = plant.A, plant.B, plant.E, plant.C, plant.D
    R2 = K.T @ K
    if np.min(np.linalg.eigvalsh(R2)) <= 0:
        raise ValidationError("control weight K^T K must be positive definite")
    X = _care(A, E, S.T @ S, R2, S.T @ K)
    Y = _care(A.T, C.T, B @ B.T, D @ D.T, B @ D.T)
    F = np.linalg.solve(R2, E.T @ X + (S.T @ K).T)      # feedback gain
    Lg = np.linalg.solve(D @ D.T, C @ Y + D @ B.T).T    # filter gain
    ctrl = ControllerParams(a=A - E @ F - Lg @ C, b=Lg, c=-F)
    cl = assemble_closed_loop(plant, (S, K), ctrl)
    if not is_hurwitz(cl.calA):
        raise NumericalError("LQG controller failed to stabilize the plant")
    return ctrl, cl


def _care(A, B, Q, R, S):
    """Stabilizing X of A^T X + X A - (X B + S) R^{-1} (B^T X + S^T) + Q = 0
    for symmetric invertible R, by the Hamiltonian method (module doc).

    The Hamiltonian is [[F, -B R^{-1} B^T], [S R^{-1} S^T - Q, -F^T]] with
    F = A - B R^{-1} S^T.  Exactly n of its eigenvalues must lie left of
    the imaginary axis by more than _AXIS_GAP times its 1-norm.  Up to
    _NEWTON_STEPS Newton (Kleinman) steps refine an X that fails the
    residual test at _RICCATI_RTOL: where A_X = A - B R^{-1} (B^T X + S^T)
    is Hurwitz, the next iterate is X + E with
    A_X^T E + E A_X + residual = 0 (`gramians._refined`).  An X that still
    fails is a NumericalError.
    """
    n = A.shape[0]
    try:
        RB, RS = np.split(np.linalg.solve(R, np.hstack([B.T, S.T])), [n],
                          axis=1)
        F = A - B @ RS
        H = np.block([[F, -B @ RB], [S @ RS - Q, -F.T]])
        w, V = np.linalg.eig(H)
        stable = w.real < -_AXIS_GAP * np.linalg.norm(H, 1)
        k = np.count_nonzero(stable)
        if k != n:
            raise NumericalError(
                f"Riccati solve failed: {k} of the Hamiltonian's {2 * n} "
                f"eigenvalues lie clearly left of the imaginary axis, not {n}")
        U = V[:, stable]
        X = np.linalg.solve(U[:n].T, U[n:].T).T.real     # U2 U1^{-1}
        X = 0.5 * (X + X.T)
        for step in range(_NEWTON_STEPS + 1):
            G = X @ B + S
            gain = np.linalg.solve(R, G.T)
            terms = (A.T @ X, G @ gain, Q)
            res = terms[0] + terms[0].T - terms[1] + Q
            size = np.max(np.abs(res))
            if size <= _RICCATI_RTOL * (1.0 + max(np.max(np.abs(t))
                                                  for t in terms)):
                return X
            closed = A - B @ gain
            if step == _NEWTON_STEPS or not is_hurwitz(closed):
                break
            X = X + gramians._refined(closed, 0.5 * (res + res.T),
                                      adjoint=True)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Riccati solve failed: {exc}") from exc
    raise NumericalError(f"Riccati solve failed: residual {size:.2e} "
                         "above tolerance")


def _closed_loop(plant, weights, ctrl):
    """The closed loop of `ctrl`, or None where it cannot be assembled."""
    try:
        return assemble_closed_loop(plant, weights, ctrl)
    except ValidationError:
        return None


def _admissible(plant, weights, ctrl, theta):
    """The AdmissibilityReport of `ctrl`, or None (`_closed_loop`)."""
    cl = _closed_loop(plant, weights, ctrl)
    return None if cl is None else check_admissible(cl, theta)


def _trial(plant, weights, ctrl, theta, quad, ups, bound):
    """Accepted (ctrl, adm, cost) of a trial, or None (module doc)."""
    cl = _closed_loop(plant, weights, ctrl)
    if cl is None:
        return None
    try:
        frozen = qef_growth_rate(cl, theta, quad, grid=ups.grid)
    except InadmissibleError:
        return None
    except NumericalError:
        if not check_admissible(cl, theta).admissible:
            return None
        raise
    if not frozen <= bound:
        return None
    adm = check_admissible(cl, theta)
    if not adm.admissible:
        return None
    cost = frozen
    if not cost.meets(quad):
        try:
            cost = qef_growth_rate(cl, theta, quad)
        except InadmissibleError:
            return None
    return (ctrl, adm, cost) if cost <= bound and cost < ups else None


def _flat(record):
    """The entries of a ControllerParams or GradReport as one vector."""
    return np.concatenate([getattr(record, f.name).ravel()
                           for f in dataclasses.fields(record)])


def _unflat(v, like):
    """The inverse of _flat: `v` as a record of the type and shapes of
    `like`."""
    blocks, k = {}, 0
    for f in dataclasses.fields(like):
        shape = getattr(like, f.name).shape
        size = int(np.prod(shape))
        blocks[f.name] = v[k:k + size].reshape(shape)
        k += size
    return type(like)(**blocks)


def _remember(pairs, s, y):
    """Append the pair (s, y) to `pairs` unless s^T y <= 0."""
    if s @ y > 0:
        pairs.append((s, y))


def _direction(g, pairs):
    """-H g by the L-BFGS two-loop recursion over `pairs`, oldest first."""
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alpha = (s @ q) / (s @ y)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - (y @ q) / (s @ y)) * s
    return -q


def _descent(plant, weights, ctrl, theta, cfg, stage, iterates, adm_hist,
             start=None):
    """One stage at fixed theta; returns (ctrl, cost, resid, reason).

    Appends a row and an admissibility report per iterate.  `stage` is
    (k, number of stages); `start` is the AdmissibilityReport of `ctrl`
    if known.
    """
    adm = start or _admissible(plant, weights, ctrl, theta)
    if adm is None or not adm.admissible:
        k, n = stage
        origin = ("the LQG controller" if k == 1
                  else f"the minimizer of stage {k - 1}")
        raise InadmissibleError(f"stage {k} of {n}: its start, {origin}, "
                                f"is inadmissible at theta={theta:g}")
    ups = qef_growth_rate(adm.cl, theta, cfg.quad)
    x, pairs, last = _flat(ctrl), deque(maxlen=_MEMORY), None
    for i in range(cfg.max_iters + 1):
        report = frechet_derivatives(adm.cl, theta, cfg.quad, grid=ups.grid,
                                     sweep=ups.sweep)
        g = _flat(report)
        resid = optimality_residual(report)
        row = (len(iterates), float(ups), resid)
        adm_hist.append(adm)
        if i == cfg.max_iters or resid <= cfg.grad_tol * (1.0 + abs(ups)):
            reason = "max-iterations" if i == cfg.max_iters else "stationary"
            break
        if last is not None:
            _remember(pairs, x - last[0], g - last[1])
        d = _direction(g, pairs)
        if pairs and g @ d < 0:
            step = 1.0
        else:
            d, step = -g, _INITIAL_STEP / (1.0 + resid)
        slope = g @ d
        while step >= _MIN_STEP:
            accepted = _trial(plant, weights, _unflat(x + step * d, ctrl),
                              theta, cfg.quad, ups,
                              ups + _ARMIJO_C * step * slope)
            if accepted:
                break
            step *= _BACKTRACK
        else:
            reason = "line-search failure"
            break
        iterates.append((*row, step))
        last = x, g
        ctrl, adm, ups = accepted
        x = _flat(ctrl)
    iterates.append((*row, np.nan))
    return ctrl, float(ups), resid, reason


def synthesize(plant, weights, cfg):
    """L-BFGS descent on the cost growth rate, LQG-initialized.

    If the LQG controller is inadmissible at the target theta, the stages
    theta/8, theta/4, theta/2, theta each start from the previous stage's
    minimizer with no (s, y) pairs, so each stage's first step is along -g
    (module doc).  cfg.theta must be > 0.
    """
    if cfg.theta == 0.0:
        raise ValidationError("synthesize needs theta > 0")
    ctrl, cl = _lqg(plant, weights)
    start = check_admissible(cl, cfg.theta)
    if start.admissible:
        stages = [cfg.theta]
    else:
        stages, start = [cfg.theta / k for k in _CONTINUATION], None
    iterates, adm_hist = [], []
    for k, theta in enumerate(stages, 1):
        ctrl, ups, resid, reason = _descent(
            plant, weights, ctrl, theta, cfg, (k, len(stages)), iterates,
            adm_hist, start)
    return SynthesisReport(iterates=iterates, controller=ctrl, cost=ups,
                           residual=resid, admissibility=adm_hist,
                           termination=reason)
