"""Frechet derivatives of the cost growth rate in the controller matrices.

The per-frequency weight functions are
    phi = sinc(theta Psi) Delta^{-1},
    psi = (sin[[theta Psi, 0], [Delta^{-1} Phi Psi^{-1}, theta Psi]]
           - cos[[theta Psi, 0], [Delta^{-1}, theta Psi]])_{21}
          - sinc(theta Psi) Delta^{-1} Phi Psi^{-1},
the bottom-left blocks being Gateaux derivatives of sin/cos evaluated by the
block-triangular construction.  The gradient matrix is the projected real
frequency integral
    chi = (1/(4 pi)) Re int fP([[G calB], [I_m]]
              (F^*(phi + phi^*) + J F^*(psi - psi^*)) [calC G, I_nu]) dlam,
and the derivatives in (a, b, c) are theta times the three nontrivial
blocks of K1^T chi^T K2^T.
"""

from dataclasses import dataclass

import numpy as np

from qefsyn.errors import InadmissibleError
from qefsyn.freq import (
    QuadratureConfig,
    default_lambda_max,
    integrate_half_line,
    resonance_breakpoints,
    sinhc,
    spectral_sweep,
)
from qefsyn.matfun import gateaux_cos, gateaux_sin
from qefsyn.model import is_hurwitz

__all__ = [
    "GradReport",
    "phi_fn",
    "psi_fn",
    "chi_matrix",
    "build_k_factors",
    "sandwich_blocks",
    "frechet_derivatives",
    "optimality_residual",
]

#: condition-number ceiling for Psi^{-1} products
_PSI_COND_MAX = 1e8


def _sinc_of(theta, Psi):
    d, U = np.linalg.eigh(1j * theta * Psi)
    return (U * sinhc(d)) @ U.conj().T


def _right_solve(A, B):
    """A B^{-1} via a linear solve against B."""
    return np.linalg.solve(B.conj().T, A.conj().T).conj().T


def phi_fn(Phi, Psi, Delta, theta):
    """phi = sinc(theta Psi) Delta^{-1}."""
    if np.linalg.cond(Delta) > 1e12:
        raise InadmissibleError("Delta is numerically singular")
    return _right_solve(_sinc_of(theta, Psi), Delta)


def psi_fn(Phi, Psi, Delta, theta):
    """psi per the block-triangular derivative formula; needs Psi invertible."""
    if np.linalg.cond(Psi) > _PSI_COND_MAX:
        raise InadmissibleError(
            "Psi is numerically singular: det Psi != 0 fails"
        )
    if np.linalg.cond(Delta) > 1e12:
        raise InadmissibleError("Delta is numerically singular")
    Dinv = np.linalg.inv(Delta)
    X = _right_solve(Dinv @ Phi, Psi)        # Delta^{-1} Phi Psi^{-1}
    tP = theta * Psi
    return (gateaux_sin(tP, X) - gateaux_cos(tP, Dinv)
            - _sinc_of(theta, Psi) @ X)


def _chi_integrand(cl, theta, lams):
    """Unprojected gradient integrands, (len(lams), 2n+m, 2n+nu).

    The spectral quantities come from one sweep over all the frequencies;
    the weight functions phi and psi are still formed node by node, in
    node order, so the first failing node decides which error is raised.
    """
    sweep = spectral_sweep(cl, lams)
    Fh = sweep.F.conj().swapaxes(1, 2)
    k, nu = len(sweep.lams), cl.nu
    if theta == 0.0:
        sweep.raise_first()
        mid = 2.0 * Fh
    else:
        Delta = sweep.delta(theta)
        mid = np.empty_like(Fh)
        for j in range(k):
            if sweep.failed[j]:
                sweep.raise_first()
            args = (sweep.Phi[j], sweep.Psi[j], Delta[j], theta)
            phi, psi = phi_fn(*args), psi_fn(*args)
            mid[j] = (Fh[j] @ (phi + phi.conj().T)
                      + cl.J @ Fh[j] @ (psi - psi.conj().T))
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


def chi_matrix(cl, theta, quad=None):
    """Gradient matrix chi by frequency quadrature (theta = 0 gives chi0)."""
    if quad is None:
        quad = QuadratureConfig()
    if not is_hurwitz(cl.calA):
        raise InadmissibleError("closed loop is not Hurwitz")
    lam_max = quad.lambda_max or default_lambda_max(cl.calA)

    # conjugate evenness in lambda: the full-line integral is twice the
    # real part of the half-line one, so integrate Re per frequency (the
    # imaginary part decays only like 1/lambda and must not be integrated)
    def f(lams):
        return _chi_integrand(cl, theta, lams).real.reshape(len(lams), -1)

    total, err, _ = integrate_half_line(
        f, lam_max, quad, breakpoints=resonance_breakpoints(cl.calA, lam_max))
    # the integrand's bottom-right m x nu block is zero: chi is projected
    two_n = cl.calA.shape[0]
    return total.reshape(two_n + cl.m, two_n + cl.nu) / (2.0 * np.pi), err


def build_k_factors(plant, K_weight):
    """The constant factors relating (a, b, c) variations to system variations."""
    n, m, d, r = plant.n, plant.m, plant.d, plant.r
    nu = K_weight.shape[0]
    K1 = np.zeros((2 * n + nu, n + d))
    K1[:n, n:] = plant.E
    K1[n:2 * n, :n] = np.eye(n)
    K1[2 * n:, n:] = K_weight
    K2 = np.zeros((n + r, 2 * n + m))
    K2[:n, n:2 * n] = np.eye(n)
    K2[n:, :n] = plant.C
    K2[n:, 2 * n:] = plant.D
    return K1, K2


def sandwich_blocks(plant, K_weight, chi):
    """The three nontrivial blocks of K1^T chi^T K2^T (unscaled)."""
    n, d = plant.n, plant.d
    K1, K2 = build_k_factors(plant, K_weight)
    M = K1.T @ chi.T @ K2.T
    return M[:n, :n], M[:n, n:], M[n:, :n]


@dataclass(frozen=True)
class GradReport:
    """chi and the three derivatives of the cost in (a, b, c)."""

    chi: np.ndarray
    dUps_da: np.ndarray
    dUps_db: np.ndarray
    dUps_dc: np.ndarray
    quad_error: float


def frechet_derivatives(cl, theta, quad=None):
    """Analytic derivatives of the cost growth rate in (a, b, c)."""
    chi, err = chi_matrix(cl, theta, quad)
    da, db, dc = sandwich_blocks(cl.plant, cl.K, chi)
    return GradReport(chi=chi, dUps_da=theta * da, dUps_db=theta * db,
                      dUps_dc=theta * dc, quad_error=err)


def optimality_residual(report):
    """Root-sum-square Frobenius norm of the three derivative blocks."""
    return float(np.sqrt(np.sum(report.dUps_da**2)
                         + np.sum(report.dUps_db**2)
                         + np.sum(report.dUps_dc**2)))
