"""Lyapunov solvers, Gramians, the quadratic (LQG) cost and its gradient matrix.

All solvers are dense Bartels-Stewart (Schur-based) via scipy; solutions are
symmetrized to remove asymmetric round-off before any definiteness check.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from qefsyn.errors import NumericalError, ValidationError
from qefsyn.freq import is_hurwitz

__all__ = ["GramianSet", "solve_lyapunov", "gramian_set", "lqg_cost", "chi0"]


def solve_lyapunov(A, W):
    """Solve A X + X A^T + W = 0 for Hurwitz A and symmetric W."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if np.max(np.abs(W - W.T)) > 1e-12 * (1.0 + np.max(np.abs(W))):
        raise ValidationError("W must be symmetric")
    if not is_hurwitz(A):
        raise NumericalError("A is not Hurwitz; Lyapunov solution not unique/PSD")
    X = scipy.linalg.solve_continuous_lyapunov(A, -W)
    X = 0.5 * (X + X.T)
    res = np.max(np.abs(A @ X + X @ A.T + W))
    if res > 1e-10 * (1.0 + np.max(np.abs(W))):
        raise NumericalError(f"Lyapunov residual {res:.2e} above tolerance")
    return X


@dataclass(frozen=True)
class GramianSet:
    """Steady covariance, controllability/observability Gramians, Hankelian."""

    Sigma: np.ndarray
    sP: np.ndarray
    sQ: np.ndarray
    sH: np.ndarray


def gramian_set(cl):
    """Gramians of a stabilized closed loop.

    Sigma and sP both solve calA X + X calA^T + calB calB^T = 0 and
    coincide; sQ solves the adjoint equation with calC^T calC; the
    Hankelian is sH = sQ sP.
    """
    W = cl.calB @ cl.calB.T
    Sigma = solve_lyapunov(cl.calA, W)
    sQ = solve_lyapunov(cl.calA.T, cl.calC.T @ cl.calC)
    return GramianSet(Sigma=Sigma, sP=Sigma, sQ=sQ, sH=sQ @ Sigma)


def lqg_cost(cl):
    """Mean-square cost (1/2) Tr(calC Sigma calC^T) in the invariant state."""
    Sigma = solve_lyapunov(cl.calA, cl.calB @ cl.calB.T)
    return 0.5 * float(np.trace(cl.calC @ Sigma @ cl.calC.T))


def chi0(cl):
    """Small-risk limit of the gradient matrix, by the Gramian formula.

    chi0^T = [[sH, sQ calB], [calC sP, 0]]; the zero bottom-right block is
    the image of the projection that kills that block in the frequency
    integral.
    """
    g = gramian_set(cl)
    two_n = cl.calA.shape[0]
    nu = cl.calC.shape[0]
    m = cl.calB.shape[1]
    chi0_T = np.zeros((two_n + nu, two_n + m))
    chi0_T[:two_n, :two_n] = g.sH
    chi0_T[:two_n, two_n:] = g.sQ @ cl.calB
    chi0_T[two_n:, :two_n] = cl.calC @ g.sP
    return chi0_T.T
