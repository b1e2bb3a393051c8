"""Independent time-domain evaluation of the finite-horizon exponential cost.

The commutator kernel mho(tau) = calC Lambda(tau) calC^T and covariance
kernel P(tau) of the penalized process are discretized into dense integral
operators on [0, T] by a symmetrized Nystrom rule (trapezoidal weights with
sqrt-weight scaling, which preserves the skew-Hermitian / Hermitian operator
classes exactly in floating point).  The finite-horizon log-cost is then

    ln Xi_T = -(1/2) Tr(ln cos(theta L_T) + ln(I - theta P_T K_T)),

with K_T = tanc(theta L_T), evaluated through the Hermitian eigenproblems
of i L_T and sqrt(K_T) P_T sqrt(K_T).  Apart from the scalar tanhc helper
it shares, this path never touches the frequency-domain machinery and
serves as its validation oracle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
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
    L: np.ndarray             # skew-symmetric commutator operator
    P: np.ndarray             # symmetric covariance operator
    d: np.ndarray             # eigenvalues of i L (real)
    U: np.ndarray             # eigenvectors of i L
    K: np.ndarray             # tanc(theta L), symmetric PD


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

    d, U = np.linalg.eigh(1j * L)
    K = (U * tanhc(theta * d)) @ U.conj().T
    K = 0.5 * (K + K.conj().T).real
    return OracleGrid(T=T, N=N, theta=theta, times=times, weights=w,
                      L=L, P=P, d=d, U=U, K=K)


def finite_horizon_qef(grid, theta=None):
    """ln Xi_T for the discretized operators (real scalar)."""
    # Note: the spectrum of the discretized compact operator accumulates at
    # zero by construction, so near-zero eigenvalues are expected and
    # harmless here (every spectral function involved is analytic and even
    # at 0); only an exact structural kernel would invalidate the formula,
    # and that cannot be distinguished numerically.
    theta = grid.theta if theta is None else theta
    d = grid.d
    if theta == 0.0:
        return 0.0
    if theta != grid.theta:
        K = (grid.U * tanhc(theta * d)) @ grid.U.conj().T
        K = 0.5 * (K + K.conj().T).real
    else:
        K = grid.K
    kvals, kvecs = np.linalg.eigh(K)
    kvals = np.clip(kvals, 0.0, None)
    sqrtK = (kvecs * np.sqrt(kvals)) @ kvecs.T
    s = np.linalg.eigvalsh(sqrtK @ grid.P @ sqrtK)
    if theta * float(np.max(s, initial=0.0)) >= 1.0:
        raise InadmissibleError(
            "theta * lambda_max(P_T K_T) >= 1: finite-horizon formula invalid"
        )
    term_cos = float(np.sum(np.log(np.cosh(theta * d))))
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
