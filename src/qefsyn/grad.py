"""Frechet derivatives of the cost growth rate in the controller matrices.

The per-frequency weight functions are
    phi = sinc(theta Psi) Delta^{-1},
    psi = sin'(theta Psi)[X] - cos'(theta Psi)[Delta^{-1}] - sinc(theta Psi) X,
with X = Delta^{-1} Phi Psi^{-1} and f'(A)[E] the Gateaux derivative of f
at A along E.  They are formed in closed form in the eigenbasis the
spectral sweep already holds: with i Psi = U diag(d0) U*, W = U* Phi U and
x = theta d0, theta Psi has the eigenvalues -i x, and by Daleckii-Krein
(Higham, Functions of Matrices, SIAM 2008, Thm 3.11)
f'(theta Psi)[E] = U (L_f o U* E U) U*, where L_f holds the first divided
differences of f on -i x.  In product form, which stays accurate as
d_j -> d_k,
    L_sin[j,k] = cosh((x_j + x_k)/2) sinhc((x_j - x_k)/2),
    L_cos[j,k] = i sinh((x_j + x_k)/2) sinhc((x_j - x_k)/2).
With Delta~ = U* Delta U = diag(cosh x) - theta W diag(sinhc x),
    phi = U diag(sinhc x) Delta~^{-1} U*,
    X~  = U* X U = Delta~^{-1} W diag(i / d0),
    psi = U (L_sin o X~ - L_cos o Delta~^{-1} - diag(sinhc x) X~) U*,
all stacked over the nodes of a quadrature panel.  The gradient matrix is
the projected real frequency integral
    chi = (1/(4 pi)) Re int fP([[G calB], [I_m]]
              (F^*(phi + phi^*) + J F^*(psi - psi^*)) [calC G, I_nu]) dlam,
and the derivatives in (a, b, c) are theta times the three nontrivial
blocks of K1^T chi^T K2^T, where K1 and K2 are the constant selection
matrices relating (a, b, c) variations to variations of (calA, calB,
calC).  With x the plant rows/columns of chi^T, xi the controller's, z its
nu output rows and w its m field columns, those blocks are
    d/da: chi^T[xi, xi],
    d/db: chi^T[xi, x] C^T + chi^T[xi, w] D^T,
    d/dc: E^T chi^T[x, xi] + K^T chi^T[z, xi].
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from qefsyn.errors import InadmissibleError, ValidationError
from qefsyn.freq import (
    AdmissibilityReport,
    _conj_t,
    _inv_sv,
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

#: condition-number ceilings for Psi^{-1} and Delta^{-1} products
_PSI_COND_MAX = 1.0 / AdmissibilityReport.sigma_threshold
_DELTA_COND_MAX = 1e12


def _weights(sweep, theta):
    """phi and psi at every node of a sweep, theta > 0, stacked by node.

    A failed resolvent, cond(Psi) > 1e8 (one over check_admissible's floor)
    or cond(Delta) > 1e12 raises for the first failing node in node order,
    before any inverse is formed.  i Psi is Hermitian, so cond(Psi) is
    max|d0| / min|d0|; Delta and Delta~ = U* Delta U share their singular
    values.  The extreme singular values and the inverse of Delta~ come
    from `_inv_sv`: closed forms at nu = 2 (adj/det for the inverse),
    `np.linalg.svd` and `inv` at any other nu.
    """
    d0, U, W = sweep.d0, sweep.U, sweep.W
    x = theta * d0
    sx = sinhc(x)
    Dt = (np.cosh(x)[:, :, None] * np.eye(d0.shape[1])
          - theta * W * sx[:, None, :])
    absd = np.abs(d0)
    dmin, dmax = absd.min(axis=1), absd.max(axis=1)
    smax, smin, inverse = _inv_sv(Dt)
    singular = ((dmin == 0.0) | (dmax > _PSI_COND_MAX * dmin)
                | ~(smax <= _DELTA_COND_MAX * smin))
    sweep.raise_first(singular, reason="Psi or Delta is numerically "
                      "singular at a quadrature node (the gradient needs "
                      "det Psi != 0)")
    Dinv = inverse()
    Xt = _mm(Dinv, W) * (1j / d0)[:, None, :]      # U* Delta^-1 Phi Psi^-1 U
    # first divided differences of sin and cos on the eigenvalues -i x
    half_sum = 0.5 * (x[:, :, None] + x[:, None, :])
    dd = sinhc(0.5 * (x[:, :, None] - x[:, None, :]))
    phit = sx[:, :, None] * Dinv
    psit = (np.cosh(half_sum) * dd * Xt - 1j * np.sinh(half_sum) * dd * Dinv
            - sx[:, :, None] * Xt)
    Uh = _conj_t(U)
    return _mm(_mm(U, phit), Uh), _mm(_mm(U, psit), Uh)


def _chi_integrand(cl, theta, lams, sweep=None):
    """Unprojected gradient integrands, (len(lams), 2n+m, 2n+nu).

    The spectral quantities and the weight functions phi and psi come
    from one sweep over all the frequencies: `sweep`, a sweep of this
    loop, where its `lams` are these frequencies, else a new one.
    """
    if sweep is None or not np.array_equal(sweep.lams, lams):
        sweep = spectral_sweep(cl, lams)
    Fh = _conj_t(sweep.F)
    k, nu = len(sweep.lams), cl.nu
    if theta == 0.0:
        sweep.raise_first()
        mid = 2.0 * Fh
    else:
        phi, psi = _weights(sweep, theta)
        mid = (_mm(Fh, phi + _conj_t(phi))
               + _mm(_mm(cl.J, Fh), psi - _conj_t(psi)))
    left = np.concatenate(
        [sweep.G @ cl.calB, np.broadcast_to(np.eye(cl.m), (k, cl.m, cl.m))],
        axis=1)
    right = np.concatenate(
        [cl.calC @ sweep.G, np.broadcast_to(np.eye(nu), (k, nu, nu))],
        axis=2)
    out = left @ mid @ right
    # the bottom-right m x nu block is discarded by the projection; zero it
    # here so it does not participate in the quadrature error control
    out[:, -cl.m:, -nu:] = 0.0
    return out


def chi_matrix(cl, theta, quad=None, grid=None, sweep=None):
    """Gradient matrix chi by frequency quadrature (theta = 0 gives chi0).

    Without `grid` the subdivision is adaptive; a FrequencyGrid passed in
    (a GrowthRate's) sums chi on its panels, which makes the gradient the
    exact derivative of the growth rate summed on that grid.  `sweep`, a
    SpectralSweep of this loop (a frozen-grid GrowthRate's), is reused
    where its `lams` are the nodes summed, in place of a new sweep.
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
