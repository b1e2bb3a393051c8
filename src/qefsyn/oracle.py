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
(in `finite_horizon_qef`).  The horizons of a ladder share nothing, so
under a single-threaded BLAS `growth_rate_estimate` runs each on a thread
of its own and holds all their operators at once; it returns the rows in
T order, bit for bit as one horizon after another gives them.  Apart from
the scalar sinhc/tanhc helpers and the input checks it shares
(`check_theta`, `check_loop`), this path never touches the frequency-domain
machinery and serves as its validation oracle.
"""

import numbers
import os
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
    Each block row is copied straight into place, so the operator is the
    one full-size array made here.
    """
    N, nu, _ = table.shape
    # by_lag[:, k] is K at lag (N - 1) - k, for lags N - 1 ... -(N - 1)
    by_lag = np.concatenate(
        (table[::-1], sign * table[1:].transpose(0, 2, 1))).transpose(1, 0, 2)
    op = np.empty((N, nu, N, nu))
    for i in range(N):
        op[i] = by_lag[:, N - 1 - i:2 * N - 1 - i]
    op *= (sw[:, None] * sw[None, :])[:, None, :, None]
    return op.reshape(N * nu, N * nu)


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

    def operator(table, sign):
        M = _toeplitz_operator(table, sign, sw)
        # M <- 0.5 (M + sign M^T) in place; numpy buffers the overlapping M^T
        (np.subtract if sign < 0 else np.add)(M, M.T, out=M)
        M *= 0.5
        if not np.isfinite(M).all():
            raise NumericalError(f"oracle operators are not finite at "
                                 f"horizon T={T:g} with N={N} grid points")
        return M

    mho, pk = _kernel_tables(cl, times)
    L = operator(mho, -1.0)
    # each nonzero d appears twice (+-d), and an odd N nu adds an exact zero
    d2, V = np.linalg.eigh(L.T @ L)
    # P is formed after the eigensolve, so it adds nothing to its peak
    P = operator(pk, 1.0)
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


def _blas_threads():
    """The BLAS thread count that OpenBLAS, numpy's BLAS, takes from the
    environment: the first positive setting in its order, else one thread
    per CPU; never more threads than CPUs."""
    cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return min(n, cpus)
    return cpus


def growth_rate_estimate(cl, theta, T_list, N):
    """(T, ln Xi_T / T) for each horizon; approaches the growth rate.

    The horizons share nothing, and their eigensolves and Cholesky
    factorizations release the GIL, so under a single-threaded BLAS each
    horizon runs on a thread of its own, with all their operators held at
    once.  A threaded BLAS already spreads each horizon over the CPUs, and
    its callers queue for its one pool of threads, so there the horizons
    run one after another on one worker.  Either way the rows come back in
    T order, bit for bit as a loop over T_list gives them, and the first
    failing horizon in T order raises its error.
    """
    from concurrent.futures import ThreadPoolExecutor
    T_list = list(T_list)
    if not T_list:
        return []

    def row(T):
        grid = build_operators(cl, theta, T, N)
        return float(T), finite_horizon_qef(grid) / T

    workers = len(T_list) if _blas_threads() == 1 else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(row, T_list))
