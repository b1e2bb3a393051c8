"""Frechet derivatives of the cost growth rate in the controller matrices.

The per-frequency weight functions are
    phi = sinc(theta Psi) Delta^{-1},
    psi = -kappa'(theta Psi)[phi] - c(theta Psi),
with kappa(Z) = Z cot Z, c(Z) = cot Z - Z^{-1} and f'(A)[E] the Gateaux
derivative of f at A along E.  Both kappa and c are analytic at Z = 0, so
psi is defined for every Psi, singular or zero; it equals the form
    sin'(theta Psi)[X] - cos'(theta Psi)[Delta^{-1}] - sinc(theta Psi) X,
X = Delta^{-1} Phi Psi^{-1}, wherever Psi is invertible.  They are formed
in closed form in the eigenbasis the spectral sweep already holds: with
i Psi = U diag(d0) U*, W = U* Phi U and x = theta d0, theta Psi has the
eigenvalues -i x, and by Daleckii-Krein (Higham, Functions of Matrices,
SIAM 2008, Thm 3.11) f'(theta Psi)[E] = U (L_f o U* E U) U*, where L_f
holds the first divided differences of f on -i x.  With
Delta~ = U* Delta U = diag(cosh x) - theta W diag(sinhc x) = H diag(sinhc x)
with the Hermitian H = diag(x coth x) - theta W, so
    phi = U diag(sinhc x) Delta~^{-1} U* = U H^{-1} U* = U phi~ U*,
    psi = -i U (L o phi~ + diag(c)) U* = U psi~ U*,
where L[j,k] = (kappa(x_j) - kappa(x_k)) / (x_j - x_k) are the real
divided differences of kappa(x) = x coth x (kappa'(x_j) where x_j = x_k)
and c_j = (kappa(x_j) - 1) / x_j is the one at (x_j, 0) (`_coth_dd`), so
kappa(x_j) = 1 + x_j c_j.  The Psi^{-1} form turns into this one on
substituting theta W = (diag(cosh x) - Delta~) diag(1 / sinhc x) into
U* X U.  With T = diag(tanhc x), H = T^{-1/2} (I - theta sqrt(T) W sqrt(T))
T^{-1/2} is congruent to the matrix whose factorization gives ln det Delta,
so H is positive definite exactly where the cost's spectral condition
holds.  Both weights are stacked over the nodes of a quadrature panel.
The gradient matrix is the projected real frequency integral
    chi = (1/(4 pi)) Re int fP([[G calB], [I_m]] M [calC G, I_nu]) dlam,
    M = F^*(phi + phi^*) + J F^*(psi - psi^*)
      = ((F^* U)(phi~ + phi~^*) + J (F^* U)(psi~ - psi~^*)) U^*,
whose blocks are G calB M calC G, G calB M and M calC G; G calB and
calC G are modal products of the sweep (`SpectralSweep.resolvent`), so G
itself is never formed.  The derivatives in (a, b, c) are theta times the
three nontrivial blocks of K1^T chi^T K2^T, where K1 and K2 are the
constant selection matrices relating (a, b, c) variations to variations of
(calA, calB, calC).  With x the plant rows/columns of chi^T, xi the
controller's, z its nu output rows and w its m field columns, those blocks
are
    d/da: chi^T[xi, xi],
    d/db: chi^T[xi, x] C^T + chi^T[xi, w] D^T,
    d/dc: E^T chi^T[x, xi] + K^T chi^T[z, xi].
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

import numpy as np

from qefsyn.errors import InadmissibleError, ValidationError
from qefsyn.freq import (
    _conj_t,
    _eigvalsh,
    _loop_integral,
    _mm,
    check_loop,
    growth_rate_grid,
    qef_growth_rate,
    sinhc,
    spectral_sweep,
)
from qefsyn.model import ControllerParams, assemble_closed_loop

__all__ = [
    "GradReport",
    "GradientCheck",
    "chi_matrix",
    "sandwich_blocks",
    "frechet_derivatives",
    "gradient_check",
    "optimality_residual",
]

#: the Taylor coefficients k_n of x coth x = sum k_n x^(2n), that is
#: 2^(2n) B_2n / (2n)! with B_2n the Bernoulli numbers, rounded once
_COTH = (
    1.0, 0.3333333333333333, -0.022222222222222223,
    0.0021164021164021165, -0.00021164021164021165, 2.1377799155576935e-05,
    -2.1644042808063972e-06, 2.1925947851873778e-07, -2.2214608789979678e-08,
    2.2507846516808994e-09, -2.2805151204592183e-10, 2.3106432599002624e-11,
    -2.3411706819824882e-12, 2.3721017400233653e-13, -2.4034415333307705e-14,
    2.4351954029183367e-15, -2.4673688045172075e-16, 2.499967277122081e-17,
    -2.532996435740635e-18, 2.566461970282629e-19,
)
#: _SERIES_LIMIT[N - 2] is the largest r = max(a^2, b^2) <= 1 at which
#: k_1 ... k_(N-1) give the divided difference to a relative 2^-55: the
#: terms left out sum to at most 1.2 |k_N| N r^(N - 1) (|k_n| falls by
#: about 1/pi^2 a step), against a value of at least 1/4
_SERIES_LIMIT = tuple(
    min(1.0, (2.0**-55 / (4.8 * abs(_COTH[N]) * N)) ** (1.0 / (N - 1)))
    for N in range(2, len(_COTH)))
#: ||a| - |b|| from which a pair off the series takes the direct quotient
_FAR = 0.5


def _coth_dd(a, b):
    """Divided differences (kappa(a) - kappa(b)) / (a - b) of
    kappa(x) = x coth x, elementwise for real arrays of one shape, with the
    confluent value kappa'(a) where a = b.

    kappa is even with kappa(x) = K(x^2), so the quotient is
    (a + b) K[a^2, b^2], and where max(|a|, |b|) <= 1 K[p, q] is the
    divided difference of K's Taylor polynomial, by Horner's rule for the
    quotient (K(p) - K(q)) / (p - q): no difference of nearby values is
    taken, and the polynomial's degree follows max(p, q) (`_SERIES_LIMIT`).
    Any other pair, with u = |a| >= v = |b|, is
    (a + b) / (u + v) times its value at (u, v): the direct quotient where
    u - v >= 1/2 (at least kappa(1) - kappa(1/2) = 0.23 apart), else
    s (sinhc(2s) - sinhc(2h)) / (sinh u sinh v) with s, h = (u +/- v) / 2,
    whose difference is at least sinhc(3/2) - sinhc(1/2) = 0.38.
    """
    p, q = a * a, b * b
    r = np.maximum(p, q)
    series = r <= 1.0
    if series.all():
        return (a + b) * _coth_poly_dd(p, q, float(r.max(initial=0.0)))
    out = np.empty(a.shape)
    if series.any():
        ps, qs = p[series], q[series]
        out[series] = (a[series] + b[series]) * _coth_poly_dd(
            ps, qs, float(r[series].max()))
    a, b = a[~series], b[~series]
    u, v = np.maximum(np.abs(a), np.abs(b)), np.minimum(np.abs(a), np.abs(b))
    far = u - v >= _FAR
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = (u / np.tanh(u) - np.where(v == 0.0, 1.0, v / np.tanh(v))
                  ) / (u - v)
        s, h = 0.5 * (u + v), 0.5 * (u - v)
        near = s * (sinhc(2.0 * s) - sinhc(2.0 * h)) / (np.sinh(u)
                                                          * np.sinh(v))
    out[~series] = (a + b) / (u + v) * np.where(far, direct, near)
    return out


def _coth_poly_dd(p, q, r):
    """K[p, q] for p, q in [0, r], r <= 1, from the Taylor polynomial of
    K(u) = sqrt(u) coth(sqrt(u)) of degree `_SERIES_LIMIT` asks at r:
    synthetic division by (u - p) gives the quotient's coefficients b_n,
    which Horner's rule sums at q."""
    n = bisect_left(_SERIES_LIMIT, r) + 1
    coef = _COTH[n]
    b = np.full(p.shape, coef)
    d = b.copy()
    for coef in _COTH[n - 1:0:-1]:
        b = coef + p * b
        d = b + q * d
    return d


def _weights(sweep, theta):
    """phi~ = U* phi U and psi~ = U* psi U at every node of a sweep,
    theta > 0, stacked by node (module doc).

    phi~ = H^{-1}, H = diag(1 + x c) - theta W, where c and the divided
    differences L of psi~ come from one `_coth_dd` over every pair
    (x_j, x_k) and (x_j, 0).  A node where H is not positive definite
    raises the cost's InadmissibleError, and a failed resolvent its
    NumericalError, for the first failing node in node order, before the
    inverse is formed.  At nu = 2, H = [[a, b*], [b, d]] is positive
    definite where a > 0 and det = a d - |b|^2 > 0, and its inverse is
    adj(H) / det; any other nu tests the smallest eigenvalue
    (`_eigvalsh`) and calls `np.linalg.inv`.
    """
    d0, W = sweep.d0, sweep.W
    k, nu = d0.shape
    x = theta * d0
    # the pairs (x_j, x_k) in the first nu columns, (x_j, 0) in the last
    pairs = np.zeros((2, k, nu, nu + 1))
    pairs[0] = x[:, :, None]
    pairs[1, :, :, :nu] = x[:, None, :]
    L = _coth_dd(pairs[0], pairs[1])
    c = L[:, :, nu]
    diag = np.arange(nu)
    H = -theta * W
    H[:, diag, diag] += 1.0 + x * c
    if nu == 2:
        a, d, b = H[:, 0, 0].real, H[:, 1, 1].real, H[:, 1, 0]
        det = a * d - (b.real * b.real + b.imag * b.imag)
        sweep.raise_first(~((a > 0.0) & (det > 0.0)))
        phit = np.empty_like(H)
        phit[:, 0, 0], phit[:, 0, 1] = d, -b.conj()
        phit[:, 1, 0], phit[:, 1, 1] = -b, a
        phit /= det[:, None, None]
    else:
        sweep.raise_first(~(_eigvalsh(H)[:, 0] > 0.0))
        phit = np.linalg.inv(H)
    psit = L[:, :, :nu] * phit
    psit[:, diag, diag] += c
    psit *= -1j
    return phit, psit


def _chi_integrand(cl, theta, lams, sweep=None):
    """Unprojected gradient integrands, (len(lams), 2n+m, 2n+nu).

    The spectral quantities and the weight functions phi and psi come
    from one sweep over all the frequencies: `sweep` where it is a sweep
    of this loop (`sweep.cl is cl`) at these frequencies, else a new one.
    """
    if (sweep is None or sweep.cl is not cl
            or not np.array_equal(sweep.lams, lams)):
        sweep = spectral_sweep(cl, lams)
    Fh = _conj_t(sweep.F)
    if theta == 0.0:
        sweep.raise_first()
        mid = 2.0 * Fh
    else:
        phit, psit = _weights(sweep, theta)
        FhU = _mm(Fh, sweep.U)
        mid = _mm(_mm(FhU, phit + _conj_t(phit))
                  + _mm(cl.J, _mm(FhU, psit - _conj_t(psit))),
                  _conj_t(sweep.U))
    GB = sweep.resolvent(right=cl.calB)
    CG = sweep.resolvent(left=cl.calC)
    GBM = _mm(GB, mid)
    two_n = GB.shape[1]
    # the bottom-right m x nu block is discarded by the projection; it
    # stays zero so it does not participate in the quadrature error control
    out = np.zeros((len(lams), two_n + cl.m, two_n + cl.nu), dtype=complex)
    out[:, :two_n, :two_n] = _mm(GBM, CG)
    out[:, :two_n, two_n:] = GBM
    out[:, two_n:, :two_n] = _mm(mid, CG)
    return out


def chi_matrix(cl, theta, quad=None, grid=None, sweep=None):
    """Gradient matrix chi by frequency quadrature (theta = 0 gives chi0).

    Without `grid` the subdivision is adaptive; a FrequencyGrid passed in
    (a GrowthRate's) sums chi on its panels, which makes the gradient the
    exact derivative of the growth rate summed on that grid.  `sweep`, a
    SpectralSweep (a frozen-grid GrowthRate's), is reused where it is of
    this loop and its `lams` are the nodes summed, in place of a new sweep.
    """
    check_loop(cl, theta)
    # conjugate evenness in lambda: the full-line integral is twice the
    # real part of the half-line one, so integrate Re per frequency (the
    # imaginary part decays only like 1/lambda and must not be integrated)
    def f(lams):
        return _chi_integrand(cl, theta, lams, sweep).real.reshape(
            len(lams), -1)

    total, err, _ = _loop_integral(cl, f, quad, grid)
    # the integrand's bottom-right m x nu block is zero: chi is projected
    two_n = cl.calA.shape[0]
    return total.reshape(two_n + cl.m, two_n + cl.nu) / (2.0 * np.pi), err


def sandwich_blocks(plant, K_weight, chi):
    """The three nontrivial blocks of K1^T chi^T K2^T (unscaled), read
    straight off chi^T (module doc)."""
    n = plant.n
    chiT = chi.T
    x, xi = slice(0, n), slice(n, 2 * n)
    z = w = slice(2 * n, None)
    return (chiT[xi, xi],
            chiT[xi, x] @ plant.C.T + chiT[xi, w] @ plant.D.T,
            plant.E.T @ chiT[x, xi] + K_weight.T @ chiT[z, xi])


@dataclass(frozen=True)
class GradReport:
    """The three derivatives of the cost in (a, b, c)."""

    dUps_da: np.ndarray
    dUps_db: np.ndarray
    dUps_dc: np.ndarray


def frechet_derivatives(cl, theta, quad=None, grid=None, sweep=None):
    """Analytic derivatives of the cost growth rate in (a, b, c); `grid`
    and `sweep` as in chi_matrix."""
    chi, _ = chi_matrix(cl, theta, quad, grid, sweep)
    da, db, dc = sandwich_blocks(cl.plant, cl.K, chi)
    return GradReport(dUps_da=theta * da, dUps_db=theta * db,
                      dUps_dc=theta * dc)


def optimality_residual(report):
    """Root-sum-square Frobenius norm of the three derivative blocks."""
    return float(np.sqrt(np.sum(report.dUps_da**2)
                         + np.sum(report.dUps_db**2)
                         + np.sum(report.dUps_dc**2)))


#: 8th-order central-difference stencil: sum of c_k (f(kh) - f(-kh)) / h
_STENCIL = ((1, 4.0 / 5.0), (2, -1.0 / 5.0), (3, 4.0 / 105.0),
            (4, -1.0 / 280.0))
#: finite-difference steps; the adjacent pair whose estimates agree best
#: brackets the sweet spot between truncation and evaluation noise
_H_LADDER = (8e-3, 2e-3, 5e-4, 1.25e-4, 3e-5)


@dataclass(frozen=True)
class GradientCheck:
    """Analytic derivatives of the growth rate against finite differences.

    `rows` holds (block, i, j, analytic, fd, rel_err) for every entry of
    a, b and c in turn, row-major.  Errors are |analytic - fd| over the
    largest |entry| among the analytic and the finite-difference values,
    so `max_rel_err` <= 2; at a stationary controller the differences are
    noise, it reads about 1, and `max_abs_err` is the figure to read.
    `invariance_residual` is the largest entry of
    G_a a^T - a^T G_a + G_b b^T - c^T G_c over (largest derivative entry
    times largest controller entry): the similarity (T a T^-1, T b,
    c T^-1) leaves the cost unchanged, so it is zero up to round-off,
    with no finite differences.
    """

    rows: tuple
    max_abs_err: float
    max_rel_err: float
    invariance_residual: float


def _fd_derivative(f):
    """f'(0) from the step ladder: the mean of the adjacent pair of
    estimates that agree best, skipping steps that leave the admissible
    set."""
    estimates = []
    for h in _H_LADDER:
        try:
            estimates.append(sum(ck * (f(k * h) - f(-k * h))
                                 for k, ck in _STENCIL) / h)
        except InadmissibleError:
            estimates.append(None)
    pairs = [(abs(e1 - e2), 0.5 * (e1 + e2))
             for e1, e2 in zip(estimates, estimates[1:])
             if e1 is not None and e2 is not None]
    if not pairs:
        raise InadmissibleError("finite-difference steps leave the "
                                "admissible set")
    return min(pairs)[1]


def gradient_check(cl, theta, quad=None):
    """Check frechet_derivatives of a closed loop against finite differences.

    Every entry of (a, b, c) is differenced with the 8th-order stencil at
    each step of the ladder.  All growth rates are summed on one frozen
    grid, the adaptive subdivision of `cl` at `quad`, so the quadrature
    error is smooth in the controller and cancels in the differences.
    theta must be > 0: at theta = 0 the gradient vanishes identically.
    """
    grid = growth_rate_grid(cl, theta, quad)    # checks theta and the loop
    if theta == 0.0:
        raise ValidationError("the gradient check needs theta > 0")
    report = frechet_derivatives(cl, theta, quad)

    def ups_at(block, i, j, step):
        kw = {f: getattr(cl.ctrl, f).copy() for f in ("a", "b", "c")}
        kw[block][i, j] += step
        cl_ = assemble_closed_loop(cl.plant, (cl.S, cl.K),
                                   ControllerParams(**kw))
        return qef_growth_rate(cl_, theta, quad, grid=grid)

    G = {"a": report.dUps_da, "b": report.dUps_db, "c": report.dUps_dc}
    entries = [(blk, i, j, float(G[blk][i, j]),
                _fd_derivative(partial(ups_at, blk, i, j)))
               for blk in G for i, j in np.ndindex(G[blk].shape)]
    tiny = np.finfo(float).tiny
    scale = max(tiny, *(max(abs(an), abs(fd)) for *_, an, fd in entries))
    rows = tuple((blk, i, j, an, fd, abs(an - fd) / scale)
                 for blk, i, j, an, fd in entries)
    max_abs = max(abs(an - fd) for *_, an, fd in entries)

    a, b, c = cl.ctrl.a, cl.ctrl.b, cl.ctrl.c
    resid = G["a"] @ a.T - a.T @ G["a"] + G["b"] @ b.T - c.T @ G["c"]
    size = max(np.max(np.abs(M)) for M in G.values()) * max(
        np.max(np.abs(M)) for M in (a, b, c))
    return GradientCheck(
        rows=rows, max_abs_err=max_abs, max_rel_err=max_abs / scale,
        invariance_residual=float(np.max(np.abs(resid)) / max(size, tiny)))
