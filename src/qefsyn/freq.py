"""Frequency-domain cost evaluation for the closed-loop system.

The growth rate of the quadratic-exponential cost is
    -(1/(4 pi)) * integral over the real line of ln det Delta(lambda),
with Delta = cos(theta Psi) - theta Phi sinc(theta Psi) built from the
quantum spectral pair Phi = F F* (Hermitian PSD) and Psi = F J F*
(skew-Hermitian) of the closed-loop transfer function F = calC G calB.

All per-frequency work is one batched sweep over an array of frequencies
(`spectral_sweep`).  calA = V diag(s) V^{-1} is factored once per loop, so
F(i lambda) = (calC V) diag(1 / (i lambda - s)) (V^{-1} calB) at every node
is one matrix product; a residual bound certifies each node, and the nodes
it cannot certify are solved directly.  The gradient's G calB and calC G
are two more such products (`SpectralSweep.resolvent`).  Phi and Psi
follow, and the stacked eigendecomposition i Psi = U diag(d0) U* is
formed from them when first read.  None of it depends on theta:
i theta Psi has eigenvalues theta d0 and the same U.

ln det Delta is real on the admissible set: with T = tanc(theta Psi) > 0,
    det Delta = det(cos(theta Psi)) * det(I - theta Phi T),
and the second factor is det(I - theta s W s), with s = sqrt(tanhc(theta
d0)) and the theta-free W = U* Phi U; this Hermitian matrix has the
eigenvalues 1 - theta mu_j.  It is positive definite exactly where the
admissibility condition theta*mu < 1 holds, so ln det Delta checks that
condition at every quadrature node.  At nu = 2 the 2 x 2 determinant is
a closed form in d0 and three theta-free scalars per node, det Phi and
the diagonal of W, which the spectral projectors of i Psi give without U
(`SpectralSweep.log_det_delta`): the cost reads neither U nor W, so a
sweep that only sums the cost never forms them.  Any other nu takes one
stacked Cholesky factorization (`_log_det_eye_minus`).  The gradient,
the spectral condition itself (`spec1`) and a root-find over theta read
U and W; the last two need the largest mu, one stacked Hermitian
eigensolve per theta.  The nu x nu products of the sweep are
broadcast sums (`_mm`), not one BLAS call per matrix.  At nu = 2 the
small eigensolves are closed forms, not one LAPACK call per matrix: one
Jacobi rotation diagonalizes a 2 x 2 Hermitian matrix (`_jacobi`,
`_rotation`); any other nu calls `np.linalg`.

Since tanhc lies in (0, 1], theta mu is at most theta sigma_max(F)^2, so
`check_admissible` first tries to certify the condition at every
frequency with one Hamiltonian eigenvalue test of the H-infinity bound
theta ||F||_inf^2 < 1 - margin (`_certified`).  Its AdmissibilityReport
holds the loop, theta and that verdict, and samples the supremum
`spec1_sup` on one sweep when first read: a certified loop is admissible
with no sweep at all, and `check_admissible` reads the supremum of any
other loop before it returns the report.

The integrand is conjugate-even in lambda, so the half-line is integrated,
mapped onto t in [0, 2] with a 1/lambda tail (`integrate_half_line`), as
one adaptive Gauss-Kronrod 7-15 integral with one tolerance; each panel set
it evaluates (its start, a split, or a frozen grid) is one sweep.
"""

import logging
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, ClassVar

import numpy as np

from qefsyn.errors import InadmissibleError, NumericalError, ValidationError

logger = logging.getLogger(__name__)

__all__ = [
    "QuadratureConfig",
    "AdmissibilityReport",
    "SpectralSweep",
    "spectral_sweep",
    "sinhc",
    "tanhc",
    "delta_matrix",
    "check_admissible",
    "is_hurwitz",
    "check_loop",
    "check_number",
    "check_theta",
    "qef_growth_rate",
    "GrowthRate",
    "growth_rate_grid",
    "FrequencyGrid",
    "default_lambda_max",
    "integrate_half_line",
    "resonance_breakpoints",
    "theta_for_spec1",
]


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7-15 panel rule


_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# full symmetric node/weight vectors on [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.zeros_like(_WK)
_WG_FULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass
class QuadratureConfig:
    """Tolerances of the frequency integrals."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        check_number("abs_tol", self.abs_tol)
        check_number("rel_tol", self.rel_tol)


def check_number(name, value, valid=lambda v: v > 0,
                 what="finite and positive", kind=numbers.Real):
    """A ValidationError naming `name` unless `value` is a finite number of
    `kind`, not a bool, for which `valid` holds.  An int too large for a
    float is not finite."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (abs(value) <= sys.float_info.max and valid(value))):
        raise ValidationError(f"{name} must be {what}, got {value!r}")


def check_theta(theta):
    """A ValidationError unless theta is a finite real number >= 0."""
    check_number("theta", theta, lambda t: t >= 0, "finite and nonnegative")


def _gk_nodes(edges):
    """The GK15 nodes of consecutive panels between `edges`, flattened in
    panel order, and the panel half-widths."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * _NODES).ravel(), half


def _gk_sums(vals, half):
    """Kronrod integrals, shape (panels, k), and per-panel error estimates
    |Kronrod - Gauss|, maximised over the k components, from the values
    (panels * 15, k) at `_gk_nodes`."""
    vals = vals.reshape(len(half), len(_NODES), -1)        # (panels, 15, k)
    ik = half[:, None] * (_WK @ vals)
    ig = half[:, None] * (_WG_FULL @ vals)
    return ik, _by_columns(np.maximum, np.abs(ik - ig))


def _panels(f, edges):
    """`_gk_sums` of f on consecutive panels; one call of f evaluates every
    node of every panel."""
    t, half = _gk_nodes(np.asarray(edges, dtype=float))
    return _gk_sums(f(t), half)


#: subdivision budget of one adaptive integral
_MAX_SUBDIVISIONS = 400
#: splits in a row without a 10% drop of the error estimate: a stall
_STALL_LIMIT = 60
#: the multiple of its tolerance an unfinished integral may be returned at
_STALL_SLACK = 100.0


def _tolerance(total, abs_tol, rel_tol):
    """The error estimate an integral `total` may carry:
    max(abs_tol, rel_tol * |total|), |total| its largest component.
    The adaptive integral stops on it."""
    return max(abs_tol, rel_tol * float(np.max(np.abs(total))))


def _adaptive(f, a, b, abs_tol, rel_tol, breakpoints=()):
    """Adaptive GK15 for a vector-valued integrand; deterministic order.

    `breakpoints` seed the initial subdivision (resonance peaks narrower
    than a panel would otherwise produce falsely small error estimates
    and never trigger refinement).

    The panels are kept in edge order: the sorted `edges`, with each
    panel's integral and error estimate.  The worst panel (the first in
    edge order on a tie) is split in place at its midpoint until the
    summed estimate meets the tolerance, which is tested after every
    split, the last of the _MAX_SUBDIVISIONS included; the edges are the
    grid returned.  When the estimate has not dropped by 10% in
    _STALL_LIMIT splits the integrand's evaluation-noise floor has been
    reached: a genuinely unresolved feature shrinks the estimate
    steadily, while noise-level estimates scale with panel width and
    their sum stays flat.  An integral that ends above its tolerance is
    returned with a logged warning when within _STALL_SLACK times it (the
    estimate is part of the return value); anything worse raises
    NumericalError.  The warning and the error each say whether the
    estimate stalled or the subdivision budget ran out.
    """
    edges = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b)
                     + [b], dtype=float)
    ik, err = _panels(f, edges)
    n_sub = stall = 0
    best_err = np.inf
    while True:
        total, tot_err = ik.sum(axis=0), float(err.sum())
        tol = _tolerance(total, abs_tol, rel_tol)
        if tot_err <= tol:
            return total, tot_err, edges
        if n_sub >= _MAX_SUBDIVISIONS:
            break
        if tot_err < 0.9 * best_err:
            best_err, stall = tot_err, 0
        else:
            stall += 1
        if stall >= _STALL_LIMIT:
            break
        i = int(np.argmax(err))
        edges = np.insert(edges, i + 1, 0.5 * (edges[i] + edges[i + 1]))
        ik2, err2 = _panels(f, edges[i:i + 3])
        ik = np.concatenate([ik[:i], ik2, ik[i + 1:]])
        err = np.concatenate([err[:i], err2, err[i + 1:]])
        n_sub += 1
    stalled = stall >= _STALL_LIMIT
    if tot_err > _STALL_SLACK * tol:
        if stalled:
            raise NumericalError(
                f"frequency quadrature stalled at error {tot_err:.2e} "
                f"after {n_sub} subdivisions: the tolerance {tol:.2e} "
                "requested lies below the integrand's noise floor")
        raise NumericalError(
            "frequency quadrature did not converge within "
            f"{n_sub} subdivisions (error {tot_err:.2e})"
        )
    logger.warning(
        "frequency quadrature %s %d subdivisions: error %.2e above the "
        "tolerance %.2e", "stalled after" if stalled else
        "did not converge within", n_sub, tot_err, tol)
    return total, tot_err, edges


def resonance_breakpoints(calA, lam_max):
    """Frequencies bracketing the resonance peaks of the closed loop.

    The integrands peak near |Im eig| with half-width |Re eig|; panels
    split there cannot step over a narrow peak unnoticed.
    """
    pts = []
    for eig in _modes(calA).s:
        omega = abs(eig.imag)
        width = max(abs(eig.real), 1e-6 * max(omega, 1.0))
        for p in (omega - width, omega, omega + width):
            if 0.0 < p < lam_max:
                pts.append(float(p))
    return tuple(pts)


def _half_line(t, lam_max):
    """The frequencies lambda at t in [0, 2] of the half-line map and its
    Jacobian d lambda / d t: lambda = t lam_max up to t = 1, then
    lambda = lam_max / (2 - t)."""
    tail = t > 1.0
    s = np.where(tail, 2.0 - t, 1.0)
    return lam_max * np.where(tail, 1.0 / s, t), lam_max / s**2


@dataclass(frozen=True)
class FrequencyGrid:
    """A frozen composite-panel subdivision of the half-line integral.

    `edges` are panel edges in the coordinate t of [0, 2] that
    `integrate_half_line` integrates over: lambda = t lam_max up to t = 1,
    which is always an edge, and lambda = lam_max / (2 - t) beyond.
    Evaluating nearby systems on one shared grid makes the quadrature
    error a smooth function of the system parameters, so it cancels in
    finite differences; the adaptive routine cannot offer that, because
    its subdivision jumps discontinuously between evaluations.

    The grid keeps a read-only copy of its edges, and `nodes` holds the
    GK15 nodes in lambda, the map's Jacobian there and the panel
    half-widths, formed on first read by the same helpers as an adaptive
    integral's (`_gk_nodes`, `_half_line`), so every frozen sum on the
    grid reads them in place of mapping t to lambda again, with the same
    values to the last bit.
    """

    lam_max: float
    edges: np.ndarray

    def __post_init__(self):
        edges = np.array(self.edges, dtype=float)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @cached_property
    def nodes(self):
        """(lambda, Jacobian, half-widths) of the grid's GK15 nodes."""
        t, half = _gk_nodes(self.edges)
        return (*_half_line(t, self.lam_max), half)

    @property
    def body_edges(self):
        """The panel edges in lambda on [0, lam_max]."""
        return self.lam_max * self.edges[self.edges <= 1.0]

    @property
    def tail_edges(self):
        """The panel edges beyond lam_max in u = 1/lambda, ascending."""
        return (2.0 - self.edges[self.edges >= 1.0])[::-1] / self.lam_max


def integrate_half_line(f, lam_max, quad, breakpoints=(), grid=None):
    """Integral of a vector-valued f(lambda) over [0, infinity).

    f takes an array of frequencies and returns an array (npts, k).  The
    half-line is mapped onto t in [0, 2]: lambda = t lam_max up to 1, then
    lambda = lam_max / (2 - t), which is u = 1/lambda and exact for
    integrands decaying like 1/lambda^2 (`_half_line`).  One adaptive GK15
    integral in t, its panels seeded at t = 1 and at `breakpoints`
    (frequencies), stops when its error estimate meets
    max(abs_tol, rel_tol |total|).  Passing a FrequencyGrid skips
    adaptivity and sums its panels, mapped by its own lam_max, in one call
    of f at the grid's kept `nodes`; the returned grid can be reused.
    """
    if grid is not None:
        lam, jac, half = grid.nodes
        ik, err = _gk_sums(f(lam) * jac[:, None], half)
        return ik.sum(axis=0), float(err.sum()), grid

    def g(t):
        lam, jac = _half_line(t, lam_max)
        return f(lam) * jac[:, None]

    total, err, edges = _adaptive(
        g, 0.0, 2.0, quad.abs_tol, quad.rel_tol,
        breakpoints=[b / lam_max for b in breakpoints] + [1.0])
    return total, err, FrequencyGrid(lam_max=lam_max, edges=edges)


# ---------------------------------------------------------------------------
# Per-frequency quantities

#: resolvent residual above which a frequency is a near-singular shift
_RESOLVENT_TOL = 1e-8
#: the InadmissibleError of a node that breaks the spectral condition
_VIOLATED = ("spectral admissibility violated: theta * "
             "lambda_max(Phi tanc(theta Psi)) >= 1 at a quadrature node")
#: the truncation frequency's multiple of the spectral radius
_LAMBDA_MAX_MULTIPLE = 50.0


def default_lambda_max(calA):
    """Truncation frequency: 50x the spectral radius of the system matrix."""
    rho = float(np.max(np.abs(_modes(calA).s)))
    return _LAMBDA_MAX_MULTIPLE * max(rho, 1.0)


def _over_x(fn, x):
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    big = np.abs(x) > 1e-8
    out[big] = fn(x[big]) / x[big]
    return out


def sinhc(x):
    """sinh(x)/x elementwise for real x, with the value 1 near 0."""
    return _over_x(np.sinh, x)


def tanhc(x):
    """tanh(x)/x elementwise for real x, with the value 1 near 0."""
    return _over_x(np.tanh, x)


def _by_columns(op, X):
    """op.reduce(X, axis=1) of a (k, c) array, op np.add or np.maximum,
    taken column by column where c < 8.  numpy spends about three times
    as long on a reduction over a short last axis as on c - 1 elementwise
    calls, and below 8 terms it adds them in column order too, so the
    two agree to the last bit (np.maximum spreads a nan as np.max does);
    from 8 terms on numpy sums pairwise, and the reduction is kept."""
    if X.shape[1] >= 8:
        return op.reduce(X, axis=1)
    out = X[:, 0].copy()
    for j in range(1, X.shape[1]):
        op(out, X[:, j], out=out)
    return out


def _conj_t(X):
    return X.conj().swapaxes(-1, -2)


def _mm(A, B):
    """Stacked A @ B as a sum of broadcast outer products over the inner
    index: for the few-by-few matrices of a sweep this is a handful of
    array operations in place of one BLAS call per matrix."""
    out = A[..., :, :1] * B[..., :1, :]
    for j in range(1, A.shape[-1]):
        out += A[..., :, j:j + 1] * B[..., j:j + 1, :]
    return out


def _eigvalsh(X):
    """Ascending eigenvalues of a stack of Hermitian X: `_jacobi` at
    nu = 2, `np.linalg.eigvalsh` at any other nu."""
    return _jacobi(X)[0] if X.shape[-1] == 2 else np.linalg.eigvalsh(X)


def _jacobi(X):
    """The ascending eigenvalues w = m -/+ r of a stack of 2 x 2 Hermitian
    X = [[a, b], [b*, c]], with the data of their rotation: h = (a - c)/2,
    the lower entry b* and r = hypot(h, |b|).

    One Jacobi rotation diagonalizes X exactly (Golub & Van Loan, Matrix
    Computations, Sec. 8.5), with m = (a + c)/2 and r as above.  Like
    `np.linalg.eigh` it reads the lower triangle, b* = X[1, 0].
    """
    a, c, bc = X[..., 0, 0].real, X[..., 1, 1].real, X[..., 1, 0]
    m, h = 0.5 * (a + c), 0.5 * (a - c)
    r = np.hypot(h, np.abs(bc))
    w = np.empty(X.shape[:-1])
    w[..., 0], w[..., 1] = m - r, m + r
    return w, h, bc, r


def _rotation(h, bc):
    """The unitary U of X = U diag(w) U* from `_jacobi`'s h and b*: the
    rotation angle t = atan2(|b|, h)/2 and the phase p = b*/|b| (1 where
    b = 0) give U = [[-sin t, cos t], [p cos t, p sin t]], unitary to
    rounding also as b -> 0."""
    ab = np.abs(bc)
    t = 0.5 * np.arctan2(ab, h)
    cos, sin = np.cos(t), np.sin(t)
    nz = ab > 0.0
    p = np.where(nz, bc / np.where(nz, ab, 1.0), 1.0)
    U = np.empty(h.shape + (2, 2), dtype=complex)
    U[..., 0, 0], U[..., 0, 1] = -sin, cos
    U[..., 1, 0], U[..., 1, 1] = p * cos, p * sin
    return U


def _log_det_eye_minus(X):
    """ln det(I - X) per node of a stack of Hermitian X; not finite where
    I - X is not positive definite.

    A Cholesky factorization of I - X without square roots (LDL*), column
    by column over the whole stack and kept in the form I - X: the pivot
    of column j is 1 - y_j, and its log is log1p(-y_j), accurate to the
    last digits also where X is small (the 1/lambda tail, whose integrand
    the half-line map scales up by lambda^2).  I - X is positive definite
    exactly where every pivot is positive.
    """
    X = X.copy()
    ld = np.zeros(X.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(X.shape[-1]):
            y = X[:, j, j].real
            ld += np.log1p(-y)
            X[:, j + 1:, j + 1:] += (X[:, j + 1:, j:j + 1]
                                     * X[:, j:j + 1, j + 1:]
                                     / (1.0 - y)[:, None, None])
    return ld


@dataclass(frozen=True)
class SpectralSweep:
    """Theta-free per-frequency quantities, stacked one node per `lams` entry.

    The sweep holds F = calC G calB and the spectral pair (Phi, Psi); the
    eigenvalues d0 of i Psi, the U of i Psi = U diag(d0) U*, W = U* Phi U
    and G are formed once, on first read.  At nu = 2 ln det Delta reads d0
    and three scalars per node (`log_det_delta`), so a sweep that only sums
    the cost never forms U or W; the gradient and `spec1` read them.
    `residual` bounds the largest entry of (i lambda I - calA) G - I: the
    modal bound where it certifies the node, else the exact residual of a
    direct solve.  A node whose residual misses the tolerance is a
    near-singular shift and holds zeros in place of its F and G.
    `resolvent(left, right)` forms left G right, G = (i lambda I - calA)^{-1},
    at every node in the modal basis; the gradient reads G calB and calC G
    from it, and no production path forms the stacked G itself.  `cl` is
    the loop swept: the gradient reuses a sweep only of its own loop.
    """

    lams: np.ndarray
    F: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray
    residual: np.ndarray
    resolvent: Callable = field(default=None, repr=False, compare=False)
    cl: object = field(default=None, repr=False, compare=False)

    @cached_property
    def G(self):
        """The resolvents (i lambda I - calA)^{-1}, stacked by node: the
        reference the tests check the residual bound against."""
        return self.resolvent()

    @cached_property
    def _spectrum(self):
        """d0 with, at nu = 2, its rotation's h, b* and r (`_jacobi`), and
        at any other nu the U of the one `np.linalg.eigh` that gives d0."""
        X = 1j * self.Psi
        return _jacobi(X) if X.shape[-1] == 2 else np.linalg.eigh(X)

    @property
    def d0(self):
        """The ascending eigenvalues of i Psi, stacked by node."""
        return self._spectrum[0]

    @cached_property
    def U(self):
        """The unitaries U of i Psi = U diag(d0) U*, stacked by node."""
        if self.Psi.shape[-1] == 2:
            _, h, bc, _ = self._spectrum
            return _rotation(h, bc)
        return self._spectrum[1]

    @cached_property
    def W(self):
        """W = U* Phi U, stacked by node."""
        return _mm(_mm(_conj_t(self.U), self.Phi), self.U)

    @cached_property
    def _scalars(self):
        """The diagonal W_-- and W_++ of W = U* Phi U, formed without U,
        and det Phi, per node of a nu = 2 sweep.

        With d0 = m -/+ r and h, b* as in `_jacobi`, the spectral
        projectors of i Psi = [[a, b], [b*, c]] are (I -/+ (i Psi - m I) / r)
        / 2, so W_-/+ = (tr Phi -/+ g / r) / 2 with g = tr((i Psi - m I) Phi)
        = h (Phi_00 - Phi_11) + 2 Re(b Phi_10); |g| <= 2 r ||Phi||, and
        g = 0 where r = 0.  det Phi = det(F F*) is the Cauchy-Binet sum of
        the |2 x 2 minors of F|^2, never negative.
        """
        _, h, bc, r = self._spectrum
        Phi, F = self.Phi, self.F
        p00, p11 = Phi[:, 0, 0].real, Phi[:, 1, 1].real
        g = h * (p00 - p11) + 2.0 * (bc.conj() * Phi[:, 1, 0]).real
        half_g = 0.5 * g / np.where(r > 0.0, r, 1.0)
        half_tr = 0.5 * (p00 + p11)
        det = np.zeros(len(F))
        for j, k in combinations(range(F.shape[-1]), 2):
            minor = F[:, 0, j] * F[:, 1, k] - F[:, 0, k] * F[:, 1, j]
            det += (minor * minor.conj()).real
        return half_tr - half_g, half_tr + half_g, det

    @property
    def failed(self):
        """Nodes whose resolvent missed the residual tolerance."""
        return ~(self.residual <= _RESOLVENT_TOL)

    def raise_first(self, inadmissible=None):
        """Raise for the first failing node in node order, if any.

        A failed resolvent is a NumericalError and a set `inadmissible`
        entry an InadmissibleError (`_VIOLATED`); the resolvent comes
        first at a node.
        """
        failed = self.failed
        bad = failed if inadmissible is None else failed | inadmissible
        if not bad.any():
            return
        k = int(np.argmax(bad))
        if failed[k]:
            raise _near_singular(self.lams, self.residual, k)
        raise InadmissibleError(_VIOLATED)

    def _scaled_W(self, theta):
        """s W s = U* sqrt(T) Phi sqrt(T) U, s = sqrt(tanhc(theta d0))."""
        s = np.sqrt(tanhc(theta * self.d0))
        return s[:, :, None] * self.W * s[:, None, :]

    def mu(self, theta):
        """Ascending eigenvalues of sqrt(T) Phi sqrt(T), T = tanc(theta Psi),
        as those of the similar s W s (`_eigvalsh`)."""
        return _eigvalsh(self._scaled_W(theta))

    def spec1(self, theta):
        """theta * lambda_max(Phi tanc(theta Psi)) per node."""
        self.raise_first()
        return theta * self.mu(theta)[:, -1]

    def _log_det_2x2(self, theta):
        """ln det(I - X) per node of a nu = 2 sweep, X = theta s W s; not
        finite where I - X is not positive definite (`log_det_delta`).

        With t = theta tanhc(theta d0), finite for any theta,
        det(I - X) = 1 - tr X + det X, where det X = t- t+ det Phi and
        tr X = t- W_-- + t+ W_++ (`_scalars`), that is
        ((t+ + t-) tr Phi + (t+ - t-) g / r) / 2.  The 2 x 2 Hermitian
        I - X is positive definite where det(I - X) > 0 and tr X < 2, and
        ln det(I - X) = log1p(det X - tr X) keeps its digits where X is
        small.
        """
        w_minus, w_plus, det_phi = self._scalars
        t = theta * tanhc(theta * self.d0)
        tm, tp = t[:, 0], t[:, 1]
        tr = tm * w_minus + tp * w_plus
        arg = tm * tp * det_phi - tr
        ok = (arg > -1.0) & (tr < 2.0)
        return np.log1p(arg, out=np.full_like(arg, np.nan), where=ok)

    def log_det_delta(self, theta):
        """ln det Delta per node, checking theta mu < 1 at every node.

        ln det Delta = sum ln cosh(theta d0) + ln det(I - X), with the
        Hermitian X = theta s W s, s = sqrt(tanhc(theta d0)), positive
        semidefinite with the eigenvalues theta mu: finite exactly where
        I - X is positive definite, that is where theta mu < 1.  At nu = 2
        ln det(I - X) is a closed form in d0 and theta-free scalars
        (`_log_det_2x2`), and U and W are not formed; any other nu factors
        I - X (`_log_det_eye_minus`).  A failed resolvent's node holds
        F = 0 and a finite 0.  The first node in node order that fails
        either way raises (`raise_first`).  ln cosh x is
        log1p(2 sinh^2(x/2)), exact to the last digits also where x is
        small, as in the 1/lambda tail.
        """
        if self.Psi.shape[-1] == 2:
            ld = self._log_det_2x2(theta)
        else:
            ld = _log_det_eye_minus(theta * self._scaled_W(theta))
        self.raise_first(~np.isfinite(ld))
        half = np.sinh(0.5 * theta * self.d0)
        return _by_columns(np.add, np.log1p(2.0 * half * half)) + ld


@dataclass(frozen=True)
class _Modes:
    """calA = V diag(s) V^{-1} and the constants of the residual bound.

    With r = 1 / (i lambda - s) and R = calA V - V diag(s), the algebra
        (i lambda I - calA) V diag(r) V^{-1} - I
            = (V V^{-1} - I) - R diag(r) V^{-1}
    is exact, so the modal resolvent's residual has infinity norm at most
    `inv_err + max|r| (eig_err + rounding |lambda|)`, where `inv_err` is
    ||V V^{-1} - I|| and `eig_err` is ||R|| ||V^{-1}||, each with an
    allowance for the rounding of these products and of G itself.
    """

    s: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    inv_err: float
    eig_err: float
    rounding: float

    def bound(self, lams, r):
        """The residual bound at each frequency, given r per node; the
        max |r| over the 2n modes is taken column by column
        (`_by_columns`)."""
        return self.inv_err + _by_columns(np.maximum, np.abs(r)) * (
            self.eig_err + self.rounding * np.abs(lams))


@lru_cache(maxsize=4)
def _factor(n, data):
    """The _Modes of the n x n matrix whose float64 bytes are `data`.

    The cache, keyed by content, factors each loop's calA once for all
    its sweeps and spectral facts; the arrays it hands out are read-only.
    Where V is singular, s is kept and every node is solved directly.
    The bound's constants read the infinity norms (largest row sums) of
    V, V^{-1}, V V^{-1} - I, R = calA V - V diag(s) and calA, and max |s|
    as that of diag(s): one reduction over the stack of these six
    matrices gives all six, each row summed in the same order as in its
    own matrix, so they equal separate norms to the last bit.
    """
    calA = np.frombuffer(data).reshape(n, n)
    s, V = np.linalg.eig(calA)
    s.flags.writeable = False
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        zero = np.zeros((n, n))
        return _Modes(s, zero, zero, np.inf, 0.0, 0.0)
    for a in (V, Vinv):
        a.flags.writeable = False
    # an overflow here (a nearly defective calA) leaves the bound
    # infinite or nan, which certifies no node
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.zeros((6, n, n), dtype=complex)
        stack[0], stack[1], stack[2] = V, Vinv, V @ Vinv
        stack[2].flat[::n + 1] -= 1.0
        stack[3], stack[4] = calA @ V - V * s, calA
        stack[5].flat[::n + 1] = s
        norms = np.abs(stack).sum(axis=2).max(axis=1).tolist()
        nV, nVinv, nI, nR, nA, s_max = norms
        rounding = 4.0 * n * np.finfo(float).eps * nV * nVinv
        return _Modes(
            s, V, Vinv,
            inv_err=nI + rounding,
            eig_err=nR * nVinv + rounding * (nA + s_max),
            rounding=rounding)


def _modes(calA):
    """The cached _Modes of calA (`_factor`)."""
    calA = np.ascontiguousarray(calA, dtype=float)
    return _factor(calA.shape[0], calA.tobytes())


def _solve(calA, lams):
    """Resolvents by a stacked solve and their exact residuals."""
    eye = np.eye(calA.shape[0])
    shifted = 1j * lams[:, None, None] * eye - calA
    try:
        G = np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))
    except np.linalg.LinAlgError:
        # an exactly singular shift: its pseudo-inverse fails the residual
        G = np.linalg.pinv(shifted)
    return G, np.max(np.abs(shifted @ G - eye), axis=(1, 2))


def _modal_product(r, X, Y):
    """X diag(r[k]) Y for every row k of r, as one matrix product."""
    outer = (X.T[:, :, None] * Y[:, None, :]).reshape(X.shape[1], -1)
    return (r @ outer).reshape(len(r), X.shape[0], Y.shape[1])


def _near_singular(lams, residual, k):
    """The NumericalError of node k's failed resolvent."""
    return NumericalError(f"resolvent residual {residual[k]:.2e} at "
                          f"lambda={lams[k]}: near-singular shift")


def _transfer(cl, lams):
    """F at the frequencies `lams`, each node's residual, and a function
    forming products with the resolvents G (`spectral_sweep`)."""
    modes = _modes(cl.calA)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 / (1j * lams[:, None] - modes.s)
        residual = modes.bound(lams, r)
    direct = np.flatnonzero(~(residual <= _RESOLVENT_TOL))
    r[direct] = 0.0
    G_direct = None
    if len(direct):
        G_direct, residual[direct] = _solve(cl.calA, lams[direct])
        # zeros keep the eigensolves finite; the methods raise for these
        G_direct[~(residual[direct] <= _RESOLVENT_TOL)] = 0.0

    def resolvent(left=None, right=None):
        """left G right at every node, None standing for the identity: in
        the modal basis (left V) diag(r) (V^{-1} right), one product."""
        out = _modal_product(r, modes.V if left is None else left @ modes.V,
                             modes.Vinv if right is None
                             else modes.Vinv @ right)
        if G_direct is not None:
            G = G_direct if left is None else left @ G_direct
            out[direct] = G if right is None else G @ right
        return out

    return resolvent(cl.calC, cl.calB), residual, resolvent


def spectral_sweep(cl, lams):
    """The SpectralSweep of a closed loop at the frequencies `lams`.

    F is formed in the modal basis of calA, (calC V) diag(r) (V^{-1} calB)
    with r = 1 / (i lambda - s), as one product over all nodes.  A node
    whose residual bound exceeds 1e-8 (a defective or ill-conditioned
    calA, or a shift near an eigenvalue) is solved directly instead; an
    exact residual above 1e-8 there marks a near-singular shift, which the
    sweep's methods raise as NumericalError.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    F, residual, resolvent = _transfer(cl, lams)
    Fh = _conj_t(F)
    Phi = _mm(F, Fh)
    # enforce the exact symmetry classes against round-off
    Phi = 0.5 * (Phi + _conj_t(Phi))
    Psi = _mm((F.reshape(-1, F.shape[-1]) @ cl.J).reshape(F.shape), Fh)
    Psi = 0.5 * (Psi - _conj_t(Psi))
    return SpectralSweep(lams=lams, F=F, Phi=Phi, Psi=Psi, residual=residual,
                         resolvent=resolvent, cl=cl)


def delta_matrix(Phi, Psi, theta):
    """Delta = cos(theta Psi) - theta Phi sinc(theta Psi), formed directly."""
    nu = Phi.shape[0]
    if theta == 0.0:
        return np.eye(nu, dtype=complex)
    d, U = np.linalg.eigh(1j * theta * np.asarray(Psi))
    cosm = (U * np.cosh(d)) @ U.conj().T
    sincm = (U * sinhc(d)) @ U.conj().T
    return cosm - theta * np.asarray(Phi) @ sincm


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    """The spectral condition of a Hurwitz loop `cl` at `theta`:
    admissible where it holds.

    `certified` is the verdict of the Hamiltonian test (`_certified`); a
    certified loop is admissible without a sweep.  `spec1_sup`, the
    sampled supremum of the spectral condition (`_spec1_sup` on one sweep
    of the loop's base grid), is summed when first read and kept; any
    other loop is admissible where it lies below 1 - margin.  The cost
    and its gradient need nothing more: both are analytic in Psi wherever
    Delta is invertible, so a singular Psi (rank at most m < nu with
    stacked weights) is admissible like any other.  Reports compare by
    identity, since a loop's arrays do not compare to one truth value.
    """

    cl: object = field(repr=False)
    theta: float
    certified: bool

    #: safety margin on the spectral supremum
    margin: ClassVar[float] = 0.05

    @cached_property
    def spec1_sup(self):
        grid = _admissibility_grid(self.cl)
        return _spec1_sup(self.cl, grid, spectral_sweep(self.cl, grid),
                          self.theta)

    @property
    def admissible(self):
        return self.certified or self.spec1_sup < 1.0 - self.margin


def _admissibility_grid(cl):
    lam_max = default_lambda_max(cl.calA)
    # dense near the resolvent features, sparser in the tail
    rho = lam_max / _LAMBDA_MAX_MULTIPLE
    head = np.linspace(0.0, 5.0 * rho, 241)
    tail = np.geomspace(5.0 * rho, lam_max, 120)
    return np.unique(np.concatenate([head, tail]))


def _spec1_sup(cl, grid, sweep, theta, fine=None):
    """The sampled spectral-condition supremum at theta: the larger of the
    maximum over `grid` (`sweep` is its spectral sweep) and the maximum
    over 90 points between the grid neighbours of its argmax.  The sweeps
    of those 90 points are theta-free: `fine`, a dict, keeps them by
    argmax node for later calls on the same grid."""
    vals = sweep.spec1(theta)
    k = int(np.argmax(vals))
    fine = {} if fine is None else fine
    if k not in fine:
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        fine[k] = spectral_sweep(cl, np.linspace(lo, hi, 90))
    return max(float(np.max(vals)), float(np.max(fine[k].spec1(theta))))


#: an eigenvalue of the Hamiltonian test whose real part is within this
#: multiple of max(1, spectral radius) counts as on the imaginary axis
_AXIS_TOL = 1e-6


def _certified(cl, theta):
    """Whether theta ||F||_inf^2 < 1 - margin, for theta > 0.

    Since tanhc lies in (0, 1], theta lambda_max(Phi tanc(theta Psi)) is at
    most theta sigma_max(F)^2 at every frequency, so this bound certifies
    the spectral condition everywhere.  With gamma^2 = (1 - margin) /
    theta, ||F||_inf < gamma holds exactly when the Hamiltonian
        [[calA, calB calB^T / gamma^2], [-calC^T calC, -calA^T]]
    has no eigenvalue on the imaginary axis (Boyd, Balakrishnan & Kabamba,
    Math. Control Signals Systems 2, 1989).  An eigenvalue within
    _AXIS_TOL of the axis counts as on it, and so does a failed eigensolve:
    a loop near the bound is left to sampling.
    """
    gamma2 = (1.0 - AdmissibilityReport.margin) / theta
    H = np.block([[cl.calA, cl.calB @ cl.calB.T / gamma2],
                  [-cl.calC.T @ cl.calC, -cl.calA.T]])
    try:
        eig = np.linalg.eigvals(H)
    except np.linalg.LinAlgError:
        return False
    scale = max(1.0, float(np.max(np.abs(eig))))
    return bool(np.all(np.abs(eig.real) > _AXIS_TOL * scale))


def check_admissible(cl, theta):
    """Admissibility report for a stabilizing controller.

    A loop that is not Hurwitz raises (`check_loop`).  Admissibility is
    the spectral condition alone.  At theta > 0 one Hamiltonian eigenvalue
    test (`_certified`) first bounds the true supremum below 1 - margin;
    where it does, the report is certified and the loop admissible with
    no sweep, and the sampled supremum (which lies below that bound) is
    summed only when `spec1_sup` is read, so a failed resolvent on its
    grid raises only then.  Any other loop has `spec1_sup` read here, on
    a base grid of at most 361 frequencies, where a narrower peak can be
    missed; a failed resolvent there raises NumericalError from this call.
    """
    check_loop(cl, theta)
    report = AdmissibilityReport(cl, theta,
                                 theta > 0.0 and _certified(cl, theta))
    if not report.certified:
        report.spec1_sup
    return report


#: relative tolerance of theta_for_spec1's root (Brent's rtol)
_THETA_TOL = 1e-4


def theta_for_spec1(cl, target):
    """theta at which the spectral-condition supremum reaches the target.

    The supremum saturates towards 1 from below when the transfer matrix
    is square and invertible, so targets well inside (0, 1) are the
    meaningful way to pin a risk level to this plant.  theta doubles from
    1 until the target is bracketed; Brent's method then roots
    `check_admissible`'s supremum (`_spec1_sup`, on one sweep of its base
    grid and one fine sweep per argmax node) minus the target, and
    returns a theta within a relative `_THETA_TOL` of the root, on either
    side.  A target outside (0, 1) is a ValidationError, a loop that is not
    Hurwitz an InadmissibleError, and a target that 80 doublings of theta
    do not reach a ValidationError naming the supremum reached.
    """
    # scipy.optimize costs a fresh interpreter 0.3 s; only this needs it
    from scipy.optimize import brentq

    check_number("target", target, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    check_loop(cl)
    grid = _admissibility_grid(cl)
    sweep = spectral_sweep(cl, grid)
    fine = {}

    def excess(theta):
        return _spec1_sup(cl, grid, sweep, theta, fine) - target

    lo, hi = 0.0, 1.0
    for _ in range(80):
        if excess(hi) >= 0.0:
            # brentq needs xtol > 0; a tiny one leaves rtol in charge
            return brentq(excess, lo, hi, xtol=1e-300, rtol=_THETA_TOL)
        lo, hi = hi, 2.0 * hi
    raise ValidationError(
        f"spec1 target {target:g} is not reached: the supremum is "
        f"{_spec1_sup(cl, grid, sweep, lo, fine):.6g} at theta={lo:.6g}"
    )


#: eigenvalue margin separating Hurwitz from marginal
HURWITZ_MARGIN = 1e-9


def is_hurwitz(calA):
    """The one stability test: every eigenvalue of calA, read from its
    cached factorization (`_factor`), has real part below -HURWITZ_MARGIN."""
    return bool(np.max(_modes(calA).s.real) < -HURWITZ_MARGIN)


def check_loop(cl, theta=0.0):
    """`check_theta`, then an InadmissibleError unless `is_hurwitz(calA)`;
    every closed-loop entry point rejects an unstable loop through this."""
    check_theta(theta)
    if not is_hurwitz(cl.calA):
        raise InadmissibleError("closed loop is not Hurwitz")


def _loop_integral(cl, f, quad=None, grid=None):
    """`integrate_half_line` of a closed-loop integrand f, for a loop and
    theta that passed `check_loop`; resonances seed only adaptive grids."""
    if grid is not None:
        return integrate_half_line(f, grid.lam_max, quad, grid=grid)
    if quad is None:
        quad = QuadratureConfig()
    lam_max = default_lambda_max(cl.calA)
    return integrate_half_line(f, lam_max, quad,
                               resonance_breakpoints(cl.calA, lam_max))


class GrowthRate(float):
    """A growth rate: a float that also carries its grid and error estimate.

    `grid` is the FrequencyGrid whose panels the value is the sum over
    (None where nothing was integrated, at theta = 0).  Evaluating another
    loop on that grid gives a sum over the same nodes, so the two values
    compare like for like.  `error` is the summed Gauss-Kronrod estimate
    of the value's error on that grid.  On a grid adapted to this loop it
    met the quadrature tolerance, or ended within 100x of it when the
    estimate stalled or the subdivision budget ran out; on a grid
    frozen from another loop it grows as the two loops drift apart, and
    `meets` tells whether the value is still as accurate as an adaptive
    one.  `sweep` is the theta-free SpectralSweep of the value's nodes
    where it was summed in one sweep, on a grid passed in, and None for an
    adaptive sum; the gradient on the same grid reuses it (`chi_matrix`).
    It is not pickled.
    """

    def __new__(cls, value, grid=None, error=0.0, sweep=None):
        rate = super().__new__(cls, value)
        rate.grid = grid
        rate.error = error
        rate.sweep = sweep
        return rate

    def __reduce__(self):
        return GrowthRate, (float(self), self.grid, self.error)

    def meets(self, quad):
        """Whether `error` meets the tolerance of `quad`: the test
        max(abs_tol, rel_tol |total|) that stops the adaptive integral,
        applied to the frequency integral total (-2 pi times the rate)."""
        scale = 2.0 * np.pi
        return scale * self.error <= _tolerance(scale * self, quad.abs_tol,
                                                quad.rel_tol)


def qef_growth_rate(cl, theta, quad=None, grid=None):
    """Growth rate of the quadratic-exponential cost by frequency quadrature.

    Integrates -(1/(2 pi)) ln det Delta over [0, infinity) (the integrand
    is even in lambda after taking the real part, which is exact here).
    Returns a GrowthRate: without `grid` the subdivision is adaptive and
    the value's `grid` is the one it produced; a FrequencyGrid passed in
    (from an earlier value or from `growth_rate_grid`) pins the
    subdivision, which is what comparisons and finite-difference studies
    over nearby controllers need, and the value then carries the one
    sweep of its nodes.
    """
    check_loop(cl, theta)
    if theta == 0.0:
        return GrowthRate(0.0)
    sweep = None

    def f(lams):
        nonlocal sweep
        sweep = spectral_sweep(cl, lams)
        return sweep.log_det_delta(theta)[:, None]

    total, err, summed_on = _loop_integral(cl, f, quad, grid)
    return GrowthRate(-float(total[0]) / (2.0 * np.pi), summed_on,
                      err / (2.0 * np.pi), None if grid is None else sweep)


def growth_rate_grid(cl, theta, quad=None):
    """The adaptive grid of this system's growth rate; None at theta = 0."""
    return qef_growth_rate(cl, theta, quad).grid
