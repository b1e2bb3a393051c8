"""Entire functions of dense square matrices and their Gateaux derivatives.

cos/sin of a general (possibly defective) matrix go through the matrix
exponential of +-iM; the derivative of exp/cos/sin in a direction gamma is
the bottom-left block of the same function applied to the 2x2
block-lower-triangular matrix [[beta, 0], [gamma, beta]].  The gradient
path forms its derivatives of sin/cos in closed form (see `qefsyn.grad`);
these block-triangular routes stay as the independent reference: the tests
check the closed form against them, and the acceptance criteria check them
against finite differences and the trace-adjoint identity.
"""

import numpy as np
import scipy.linalg

from qefsyn.errors import ValidationError

__all__ = [
    "mat_exp",
    "mat_cos",
    "mat_sin",
    "gateaux_exp",
    "gateaux_cos",
    "gateaux_sin",
    "trace_adjoint_check",
]

#: imaginary residue below which a nominally real result is truncated to real
_REAL_CUTOFF = 1e-13


def _as_square(M, name="M"):
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} has non-finite entries")
    return M


def _maybe_real(M, was_real):
    if was_real and np.max(np.abs(M.imag)) <= _REAL_CUTOFF * max(1.0, np.max(np.abs(M.real))):
        return M.real.copy()
    return M


def mat_exp(M):
    """Matrix exponential e^M (scaling-and-squaring with a Pade kernel)."""
    M = _as_square(M)
    return scipy.linalg.expm(M)


def mat_cos(M):
    """Matrix cosine, cos M = (e^{iM} + e^{-iM}) / 2.

    For real input the result is truncated to real once the imaginary
    residue is at round-off level.
    """
    M = _as_square(M)
    was_real = np.isrealobj(M)
    E = scipy.linalg.expm(1j * M)
    Em = scipy.linalg.expm(-1j * M)
    return _maybe_real(0.5 * (E + Em), was_real)


def mat_sin(M):
    """Matrix sine, sin M = (e^{iM} - e^{-iM}) / (2i)."""
    M = _as_square(M)
    was_real = np.isrealobj(M)
    E = scipy.linalg.expm(1j * M)
    Em = scipy.linalg.expm(-1j * M)
    return _maybe_real((E - Em) / 2j, was_real)


def _block_lower(beta, gamma):
    beta = _as_square(beta, "beta")
    gamma = _as_square(gamma, "gamma")
    if beta.shape != gamma.shape:
        raise ValidationError(
            f"dimension mismatch: beta {beta.shape}, gamma {gamma.shape}"
        )
    nu = beta.shape[0]
    dtype = np.result_type(beta.dtype, gamma.dtype)
    blk = np.zeros((2 * nu, 2 * nu), dtype=dtype)
    blk[:nu, :nu] = beta
    blk[nu:, nu:] = beta
    blk[nu:, :nu] = gamma
    return blk, nu


def gateaux_exp(beta, gamma):
    """Gateaux derivative of the matrix exponential at beta along gamma."""
    blk, nu = _block_lower(beta, gamma)
    return mat_exp(blk)[nu:, :nu]


def gateaux_cos(beta, gamma):
    """Gateaux derivative of cos at beta along gamma (block-triangular route)."""
    blk, nu = _block_lower(beta, gamma)
    return mat_cos(blk)[nu:, :nu]


def gateaux_sin(beta, gamma):
    """Gateaux derivative of sin at beta along gamma (block-triangular route)."""
    blk, nu = _block_lower(beta, gamma)
    return mat_sin(blk)[nu:, :nu]


_GATEAUX = {"exp": gateaux_exp, "cos": gateaux_cos, "sin": gateaux_sin}


def trace_adjoint_check(f, alpha, beta, dbeta):
    """Both sides of the trace-adjoint identity for the derivative of f.

    Returns (Tr(alpha * f'(beta)[dbeta]), Tr(f'(beta)[alpha] * dbeta)),
    which must agree for any entire f.  Test utility.
    """
    if f not in _GATEAUX:
        raise ValidationError(f"f must be one of {sorted(_GATEAUX)}, got {f!r}")
    g = _GATEAUX[f]
    lhs = np.trace(np.asarray(alpha) @ g(beta, dbeta))
    rhs = np.trace(g(beta, alpha) @ np.asarray(dbeta))
    return lhs, rhs
