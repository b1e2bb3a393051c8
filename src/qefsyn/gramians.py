"""Lyapunov solver, the mean-square (LQG) cost and its gradient matrix chi0.

The solver is dense Bartels-Stewart (Schur-based) via scipy; solutions are
symmetrized to remove asymmetric round-off before any definiteness check.
For a stabilized closed loop, the controllability Gramian Sigma (equal to
the steady covariance) and the observability Gramian Q solve
    calA Sigma + Sigma calA^T + calB calB^T = 0,
    calA^T Q + Q calA + calC^T calC = 0,
and the small-risk limit of the gradient matrix is
    chi0^T = [[Q Sigma, Q calB], [calC Sigma, 0]],
Q Sigma being the Hankelian.
"""

import numpy as np
import scipy.linalg

from qefsyn.errors import NumericalError, ValidationError
from qefsyn.freq import is_hurwitz

__all__ = ["solve_lyapunov", "lqg_cost", "chi0"]


def solve_lyapunov(A, W):
    """Solve A X + X A^T + W = 0 for Hurwitz A and symmetric W."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if np.max(np.abs(W - W.T)) > 1e-12 * (1.0 + np.max(np.abs(W))):
        raise ValidationError("W must be symmetric")
    if not is_hurwitz(A):
        raise NumericalError("A is not Hurwitz; Lyapunov solution not unique/PSD")
    return _solve(A, W)


def _solve(A, W):
    """solve_lyapunov past its checks: A is known Hurwitz, W symmetric."""
    X = scipy.linalg.solve_continuous_lyapunov(A, -W)
    X = 0.5 * (X + X.T)
    res = np.max(np.abs(A @ X + X @ A.T + W))
    if res > 1e-10 * (1.0 + np.max(np.abs(W))):
        raise NumericalError(f"Lyapunov residual {res:.2e} above tolerance")
    return X


def lqg_cost(cl):
    """Mean-square cost (1/2) Tr(calC Sigma calC^T) in the invariant state."""
    Sigma = solve_lyapunov(cl.calA, cl.calB @ cl.calB.T)
    return 0.5 * float(np.trace(cl.calC @ Sigma @ cl.calC.T))


def chi0(cl):
    """Small-risk limit of the gradient matrix, by the Gramian formula
    (module doc).

    The zero bottom-right block of chi0^T is the image of the projection
    that kills that block in the frequency integral.  calA^T shares the
    spectrum of calA, so the adjoint solve reuses its Hurwitz verdict.
    """
    Sigma = solve_lyapunov(cl.calA, cl.calB @ cl.calB.T)
    Q = _solve(cl.calA.T, cl.calC.T @ cl.calC)
    two_n = cl.calA.shape[0]
    chi0_T = np.zeros((two_n + cl.calC.shape[0], two_n + cl.calB.shape[1]))
    chi0_T[:two_n, :two_n] = Q @ Sigma
    chi0_T[:two_n, two_n:] = Q @ cl.calB
    chi0_T[two_n:, :two_n] = cl.calC @ Sigma
    return chi0_T.T
