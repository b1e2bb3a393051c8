"""Independent time-domain evaluation of the finite-horizon exponential cost.

The commutator kernel mho(tau) = calC Lambda(tau) calC^T and covariance
kernel P(tau) of the penalized process are discretized into dense integral
operators on [0, T] by a symmetrized Nystrom rule (trapezoidal weights with
sqrt-weight scaling, which preserves the skew-symmetric / symmetric operator
classes exactly in floating point).  The finite-horizon log-cost is then

    ln Xi_T = -(1/2) Tr(ln cos(theta L_T) + ln(I - theta P_T K_T)),

with K_T = tanc(theta L_T).  L_T is real skew-symmetric, so i L_T has the
eigenvalues +-d, and cos and tanc are even: both matrix functions depend on
L_T only through L_T^T L_T = V diag(d^2) V^T, one real symmetric
eigenproblem.  With D = tanhc(theta d), K_T = V D V^T and the spectrum of
sqrt(K_T) P_T sqrt(K_T) is that of D^(1/2) V^T P_T V D^(1/2).  Apart from
the scalar tanhc helper it shares, this path never touches the
frequency-domain machinery and serves as its validation oracle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from qefsyn.errors import InadmissibleError, ValidationError
from qefsyn.freq import tanhc
from qefsyn.model import is_hurwitz
from qefsyn.gramians import solve_lyapunov

__all__ = [
    "CCRKernel",
    "OracleGrid",
    "ccr_kernel",
    "build_operators",
    "finite_horizon_qef",
    "growth_rate_estimate",
    "default_horizon",
]


@dataclass(frozen=True)
class CCRKernel:
    """Two-point commutation kernel Lambda on a grid of time lags."""

    tau_grid: np.ndarray
    values: np.ndarray        # (len(tau_grid), 2n, 2n)
    n: int

    def lambda11(self, k):
        return self.values[k][:self.n, :self.n]

    def lambda12(self, k):
        return self.values[k][:self.n, self.n:]

    def lambda21(self, k):
        return self.values[k][self.n:, :self.n]


def ccr_kernel(cl, tau_grid):
    """Lambda(tau) = e^{tau calA} Gamma for tau >= 0, Gamma e^{-tau calA^T} else."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    vals = np.empty((len(tau_grid), *cl.Gamma.shape))
    for k, tau in enumerate(tau_grid):
        if tau >= 0:
            vals[k] = scipy.linalg.expm(tau * cl.calA) @ cl.Gamma
        else:
            vals[k] = cl.Gamma @ scipy.linalg.expm(-tau * cl.calA.T)
    return CCRKernel(tau_grid=tau_grid, values=vals, n=cl.n)


@dataclass(frozen=True)
class OracleGrid:
    """Discretized integral operators for one horizon and risk parameter."""

    T: float
    N: int
    theta: float
    times: np.ndarray
    weights: np.ndarray
    L: np.ndarray             # real skew-symmetric commutator operator
    P: np.ndarray             # real symmetric covariance operator
    d: np.ndarray             # |eigenvalues of i L|, ascending
    V: np.ndarray             # L^T L = V diag(d^2) V^T, V real orthogonal

    @property
    def K(self):
        """tanc(theta L) = V diag(tanhc(theta d)) V^T, real symmetric PD."""
        K = (self.V * tanhc(self.theta * self.d)) @ self.V.T
        return 0.5 * (K + K.T)


def _kernel_tables(cl, times):
    """mho(k h) and P(k h) for nonnegative lags on a uniform grid."""
    h = times[1] - times[0]
    Sigma = solve_lyapunov(cl.calA, cl.calB @ cl.calB.T)
    Eh = scipy.linalg.expm(h * cl.calA)
    n_lag = len(times)
    nu = cl.calC.shape[0]
    mho = np.empty((n_lag, nu, nu))
    pk = np.empty((n_lag, nu, nu))
    Ek = np.eye(cl.calA.shape[0])
    for k in range(n_lag):
        mho[k] = cl.calC @ Ek @ cl.Gamma @ cl.calC.T
        pk[k] = cl.calC @ Ek @ Sigma @ cl.calC.T
        Ek = Eh @ Ek
    return mho, pk


def build_operators(cl, theta, T, N):
    """Nystrom discretization of the commutator and covariance operators."""
    if N < 2:
        raise ValidationError("grid needs at least two points")
    if not (np.isfinite(T) and T > 0):
        raise ValidationError(f"horizon must be finite and positive, got {T}")
    if not is_hurwitz(cl.calA):
        raise InadmissibleError("closed loop is not Hurwitz")
    times = np.linspace(0.0, T, N)
    h = times[1] - times[0]
    w = np.full(N, h)
    w[0] = w[-1] = 0.5 * h
    sw = np.sqrt(w)

    mho, pk = _kernel_tables(cl, times)
    nu = cl.calC.shape[0]

    # block-Toeplitz assembly: block (i, j) is sqrt(w_i w_j) K(t_i - t_j)
    idx = np.arange(N)
    lag = idx[:, None] - idx[None, :]
    L_blocks = np.where(lag[:, :, None, None] >= 0,
                        mho[np.abs(lag)],
                        -np.transpose(mho[np.abs(lag)], (0, 1, 3, 2)))
    P_blocks = np.where(lag[:, :, None, None] >= 0,
                        pk[np.abs(lag)],
                        np.transpose(pk[np.abs(lag)], (0, 1, 3, 2)))
    scale = sw[:, None, None, None] * sw[None, :, None, None]
    L = (L_blocks * scale).transpose(0, 2, 1, 3).reshape(N * nu, N * nu)
    P = (P_blocks * scale).transpose(0, 2, 1, 3).reshape(N * nu, N * nu)
    L = 0.5 * (L - L.T)
    P = 0.5 * (P + P.T)

    # each nonzero d appears twice (+-d), and an odd N nu adds an exact zero
    d2, V = np.linalg.eigh(L.T @ L)
    return OracleGrid(T=T, N=N, theta=theta, times=times, weights=w,
                      L=L, P=P, d=np.sqrt(np.clip(d2, 0.0, None)), V=V)


def finite_horizon_qef(grid, theta=None):
    """ln Xi_T for the discretized operators (real scalar)."""
    # the spectrum of the discretized compact operator accumulates at zero;
    # that is harmless, as every spectral function here is even and analytic
    theta = grid.theta if theta is None else theta
    if theta == 0.0:
        return 0.0
    # spectrum of sqrt(K) P sqrt(K), in the eigenbasis V that K shares
    sqrt_t = np.sqrt(tanhc(theta * grid.d))
    s = np.linalg.eigvalsh(sqrt_t[:, None] * (grid.V.T @ grid.P @ grid.V)
                           * sqrt_t)
    if theta * float(np.max(s, initial=0.0)) >= 1.0:
        raise InadmissibleError(
            "theta * lambda_max(P_T K_T) >= 1: finite-horizon formula invalid"
        )
    term_cos = float(np.sum(np.log(np.cosh(theta * grid.d))))
    term_pk = float(np.sum(np.log1p(-theta * np.clip(s, 0.0, None))))
    return -0.5 * (term_cos + term_pk)


def default_horizon(calA, multiple=40.0):
    """Horizon as a multiple of the slowest closed-loop time constant."""
    decay = float(np.abs(np.max(np.linalg.eigvals(calA).real)))
    return multiple / decay


def growth_rate_estimate(cl, theta, T_list, N):
    """(T, ln Xi_T / T) for each horizon; approaches the growth rate."""
    out = []
    for T in T_list:
        grid = build_operators(cl, theta, T, N)
        out.append((float(T), finite_horizon_qef(grid) / T))
    return out
