"""Lyapunov solver, the mean-square (LQG) cost and its gradient matrix chi0.

The solver diagonalizes A = V diag(s) V^{-1} (the factorization `freq`
caches for its Hurwitz test and sweeps), where A X + X A^T + W = 0 reads
    X = -V ((V^{-1} W V^{-*}) / (s_i + conj(s_j))) V^*,
in O(N^3) for an N x N matrix A.  A badly conditioned V costs accuracy,
so up to _REFINE steps of iterative refinement (the same solve applied to
the residual) follow while the residual is above tolerance.  Solutions
are symmetrized to remove asymmetric round-off before any definiteness
check.
For a stabilized closed loop, the controllability Gramian Sigma (equal to
the steady covariance) and the observability Gramian Q solve
    calA Sigma + Sigma calA^T + calB calB^T = 0,
    calA^T Q + Q calA + calC^T calC = 0,
and the small-risk limit of the gradient matrix is
    chi0^T = [[Q Sigma, Q calB], [calC Sigma, 0]],
Q Sigma being the Hankelian.
"""

import numpy as np

from qefsyn.errors import NumericalError, ValidationError
from qefsyn.freq import _modes, is_hurwitz

__all__ = ["solve_lyapunov", "lqg_cost", "chi0"]

#: refinement steps after the modal solve: of the 1,326 Gramians of 663
#: LQG loops of seeded plants, 213 pass after one step, 8 after two, and
#: none of the 22 that fail after two passes within seven
_REFINE = 2
#: bound on a Lyapunov residual relative to 1 + max|W|
_LYAPUNOV_RTOL = 1e-10


def solve_lyapunov(A, W):
    """Solve A X + X A^T + W = 0 for Hurwitz A and symmetric W."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if np.max(np.abs(W - W.T)) > 1e-12 * (1.0 + np.max(np.abs(W))):
        raise ValidationError("W must be symmetric")
    if not is_hurwitz(A):
        raise NumericalError("A is not Hurwitz; Lyapunov solution not unique/PSD")
    return _solve(A, W)


def _solve(A, W, adjoint=False):
    """solve_lyapunov past its checks: A is known Hurwitz, W symmetric.
    Where `adjoint`, it solves A^T X + X A + W = 0 instead."""
    X, res = _refined(A, W, adjoint)
    if not res <= _LYAPUNOV_RTOL * (1.0 + np.max(np.abs(W))):
        raise NumericalError(f"Lyapunov residual {res:.2e} above tolerance")
    return X


def _refined(A, W, adjoint=False):
    """The modal solve of A X + X A^T + W = 0 (of A^T X + X A + W = 0 where
    `adjoint`, by A^T = V^{-T} diag(s) V^T) and its refinement (module
    doc), with no residual test: (X, max|residual|).

    It needs no stability of A, only s_i + conj(s_j) != 0 for all i, j.
    """
    modes = _modes(A)
    V, Vinv = modes.V, modes.Vinv
    if adjoint:
        A, V, Vinv = A.T, Vinv.T, V.T
    Vh, Vinv_h = V.conj().T, Vinv.conj().T
    with np.errstate(divide="ignore", invalid="ignore"):
        d = -1.0 / (modes.s[:, None] + modes.s.conj())
    tol = _LYAPUNOV_RTOL * (1.0 + np.max(np.abs(W)))
    X, R = np.zeros_like(W), W
    for _ in range(_REFINE + 1):
        Y = (V @ (d * (Vinv @ R @ Vinv_h)) @ Vh).real
        X = X + 0.5 * (Y + Y.T)
        R = A @ X + X @ A.T + W
        res = np.max(np.abs(R))
        if res <= tol:
            break
    return X, res


def lqg_cost(cl):
    """Mean-square cost (1/2) Tr(calC Sigma calC^T) in the invariant state."""
    Sigma = solve_lyapunov(cl.calA, cl.calB @ cl.calB.T)
    return 0.5 * float(np.trace(cl.calC @ Sigma @ cl.calC.T))


def chi0(cl):
    """Small-risk limit of the gradient matrix, by the Gramian formula
    (module doc).

    The zero bottom-right block of chi0^T is the image of the projection
    that kills that block in the frequency integral.  calA^T shares the
    spectrum of calA, so the adjoint solve reuses its Hurwitz verdict and
    its factorization.
    """
    Sigma = solve_lyapunov(cl.calA, cl.calB @ cl.calB.T)
    Q = _solve(cl.calA, cl.calC.T @ cl.calC, adjoint=True)
    two_n = cl.calA.shape[0]
    chi0_T = np.zeros((two_n + cl.calC.shape[0], two_n + cl.calB.shape[1]))
    chi0_T[:two_n, :two_n] = Q @ Sigma
    chi0_T[:two_n, two_n:] = Q @ cl.calB
    chi0_T[two_n:, :two_n] = cl.calC @ Sigma
    return chi0_T.T
