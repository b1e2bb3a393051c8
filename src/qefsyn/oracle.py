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
eigenproblem.  With x = theta d, K_T = V diag(tanhc(x)) V^T and

    ln det(I - theta sqrt(K_T) P_T sqrt(K_T))
        = ln det K_T + ln det(K_T^{-1} - theta P_T),

where K_T^{-1} - theta P_T is positive definite exactly when the
admissibility condition theta lambda_max(P_T K_T) < 1 holds.  One Cholesky
factor R of K_T^{-1} - theta P_T therefore decides admissibility and gives
the log-determinant.  A factor whose smallest squared pivot is at most
N nu eps times the largest diagonal entry of K_T^{-1} (the order of the
matrix times the unit round-off, times the size of the terms whose
difference it is) is taken as no factor: K_T^{-1} - theta P_T is then zero
to rounding, and whether the Cholesky completes turns on the last bits of
Sigma.  Since ln cosh + ln tanhc = ln sinhc,

    ln Xi_T = -(1/2) (sum ln sinhc(x) + 2 sum ln diag R).

Each horizon costs one eigensolve (in `build_operators`) and one Cholesky
(in `finite_horizon_qef`).  Apart from the scalar sinhc/tanhc helpers and
the input checks it shares (`check_theta`, `check_loop`), this path never
touches the frequency-domain machinery and serves as its validation oracle.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from qefsyn.errors import InadmissibleError, NumericalError
from qefsyn.freq import (_modes, check_loop, check_number, check_theta,
                         sinhc, tanhc)
from qefsyn.gramians import solve_lyapunov

# scipy.linalg is imported by the functions that call it, so importing
# qefsyn, the CLI included, loads no scipy

__all__ = [
    "CCRKernel",
    "OracleGrid",
    "ccr_kernel",
    "build_operators",
    "check_grid_size",
    "check_horizon",
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

    def lambda21(self, k):
        return self.values[k][self.n:, :self.n]


def ccr_kernel(cl, tau_grid):
    """Lambda(tau) = e^{tau calA} Gamma for tau >= 0, Gamma e^{-tau calA^T} else."""
    import scipy.linalg
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
    import scipy.linalg
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


def _toeplitz_operator(table, sign, sw):
    """Dense operator with block (i, j) = sw_i sw_j K(t_i - t_j).

    `table` holds K at the nonnegative lags and K(-tau) = sign K(tau)^T.
    """
    N, nu, _ = table.shape
    # by_lag[k] is K at lag k - (N - 1), for lags -(N - 1) ... N - 1
    by_lag = np.concatenate((sign * table[:0:-1].transpose(0, 2, 1), table))
    idx = np.arange(N)
    blocks = by_lag[(N - 1) + idx[:, None] - idx[None, :]]
    blocks *= (sw[:, None] * sw[None, :])[:, :, None, None]
    return blocks.transpose(0, 2, 1, 3).reshape(N * nu, N * nu)


def check_horizon(T):
    """A ValidationError unless the horizon T is finite and positive."""
    check_number("horizon", T)


def check_grid_size(N):
    """A ValidationError unless the grid size N is an integer >= 2."""
    check_number("grid size", N, lambda n: n >= 2, "an integer >= 2",
                 numbers.Integral)


def build_operators(cl, theta, T, N):
    """Nystrom discretization of the commutator and covariance operators;
    a step T / (N - 1) that leaves them non-finite is a NumericalError."""
    check_loop(cl, theta)
    check_grid_size(N)
    check_horizon(T)
    times = np.linspace(0.0, T, N)
    h = times[1] - times[0]
    w = np.full(N, h)
    w[0] = w[-1] = 0.5 * h
    sw = np.sqrt(w)

    mho, pk = _kernel_tables(cl, times)
    L = _toeplitz_operator(mho, -1.0, sw)
    P = _toeplitz_operator(pk, 1.0, sw)
    L = 0.5 * (L - L.T)
    P = 0.5 * (P + P.T)
    if not (np.isfinite(L).all() and np.isfinite(P).all()):
        raise NumericalError(f"oracle operators are not finite at horizon "
                             f"T={T:g} with N={N} grid points")

    # each nonzero d appears twice (+-d), and an odd N nu adds an exact zero
    d2, V = np.linalg.eigh(L.T @ L)
    return OracleGrid(T=T, N=N, theta=theta, times=times, weights=w,
                      L=L, P=P, d=np.sqrt(np.clip(d2, 0.0, None)), V=V)


def finite_horizon_qef(grid, theta=None):
    """ln Xi_T for the discretized operators (real scalar)."""
    # the spectrum of the discretized compact operator accumulates at zero;
    # that is harmless, as every spectral function here is even and analytic
    if theta is None:
        theta = grid.theta
    else:
        check_theta(theta)
    if theta == 0.0:
        return 0.0
    import scipy.linalg
    x = theta * grid.d
    # K^{-1} - theta P = G G^T - theta P by one syrk into the upper triangle,
    # the one the Cholesky reads; the transposes hand BLAS Fortran order.
    # The factor exists iff theta lambda_max(P K) < 1; a pivot at the
    # rounding floor (module doc) counts as a factor that does not exist.
    G = grid.V / np.sqrt(tanhc(x))
    A = scipy.linalg.blas.dsyrk(1.0, G.T, beta=1.0, c=(-theta * grid.P).T,
                                trans=1, overwrite_c=1)
    floor = (A.shape[0] * np.finfo(float).eps
             * np.max(np.diag(A) + theta * np.diag(grid.P)))
    try:
        R = scipy.linalg.cholesky(A, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        R = None
    if R is None or not np.min(np.diag(R)) ** 2 > floor:
        raise InadmissibleError(
            "theta * lambda_max(P_T K_T) >= 1: finite-horizon formula invalid"
        )
    return -0.5 * (float(np.sum(np.log(sinhc(x))))
                   + 2.0 * float(np.sum(np.log(np.diag(R)))))


#: the default horizon in slowest closed-loop time constants
_HORIZON_DECAYS = 40.0


def default_horizon(calA):
    """Horizon of 40 slowest closed-loop time constants (`_HORIZON_DECAYS`)."""
    decay = float(np.abs(np.max(_modes(calA).s.real)))
    return _HORIZON_DECAYS / decay


def growth_rate_estimate(cl, theta, T_list, N):
    """(T, ln Xi_T / T) for each horizon; approaches the growth rate."""
    out = []
    for T in T_list:
        grid = build_operators(cl, theta, T, N)
        out.append((float(T), finite_horizon_qef(grid) / T))
    return out
