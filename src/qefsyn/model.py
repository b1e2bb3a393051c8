"""Plant construction, physical-realizability checks, closed-loop assembly.

The plant is a multimode open quantum harmonic oscillator with state-space
matrices derived from its physical parameters (commutation matrix, energy
matrix, field/control couplings, measurement matrix).  A classical linear
controller closes the loop; the joint system matrices are affine in the
controller triple (a, b, c).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from qefsyn.errors import ValidationError

__all__ = [
    "PlantSpec",
    "DerivedPlant",
    "ControllerParams",
    "ClosedLoop",
    "build_J",
    "derive_plant",
    "validate_measurement",
    "check_weights",
    "assemble_closed_loop",
]

#: absolute residual tolerance for realizability identities
PR_TOL = 1e-10


def build_J(m):
    """Block antisymmetric orthogonal matrix [[0, I], [-I, 0]] of order m."""
    if m % 2 != 0 or m < 2:
        raise ValidationError(f"field channel count must be even >= 2, got {m}")
    h = m // 2
    J = np.zeros((m, m))
    J[:h, h:] = np.eye(h)
    J[h:, :h] = -np.eye(h)
    return J


def _check_real(name, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} has non-finite entries")
    return M


@dataclass(frozen=True)
class PlantSpec:
    """Physical parameters of the quantum plant.

    Theta is the real antisymmetric commutation matrix of the n plant
    variables, R the symmetric energy matrix, M and N the field and control
    coupling matrices, and D the static measurement matrix acting on the m
    output field channels to produce r commuting observation channels.
    """

    Theta: np.ndarray
    R: np.ndarray
    M: np.ndarray
    N: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("Theta", "R", "M", "N", "D"):
            value = _check_real(name, getattr(self, name))
            object.__setattr__(self, name, value)
        Theta, R, M, N, D = self.Theta, self.R, self.M, self.N, self.D
        n = Theta.shape[0]
        if Theta.shape != (n, n) or n % 2 != 0:
            raise ValidationError("Theta must be square of even order")
        if np.max(np.abs(Theta + Theta.T)) > PR_TOL:
            raise ValidationError("Theta must be antisymmetric")
        if R.shape != (n, n) or np.max(np.abs(R - R.T)) > PR_TOL:
            raise ValidationError("R must be symmetric of the plant order")
        m = M.shape[0]
        if m % 2 != 0 or M.shape != (m, n):
            raise ValidationError("M must have an even number of rows and n columns")
        if N.shape[1] != n:
            raise ValidationError("N must have n columns")
        r = D.shape[0]
        if D.shape != (r, m):
            raise ValidationError("D must have m columns")
        if r > m // 2:
            raise ValidationError(
                f"observation channel count r={r} exceeds m/2={m // 2}: "
                "a commuting measurement needs r <= m/2"
            )
        validate_measurement(D, build_J(m))

    @property
    def n(self):
        return self.Theta.shape[0]

    @property
    def m(self):
        return self.M.shape[0]

    @property
    def d(self):
        return self.N.shape[0]

    @property
    def r(self):
        return self.D.shape[0]


def validate_measurement(D, J):
    """Check full row rank of D and vanishing of D J D^T.

    The first condition makes the observation noise nondegenerate, the
    second makes the observation channels mutually commuting and hence
    simultaneously measurable.
    """
    D = _check_real("D", D)
    DDt = D @ D.T
    if np.min(np.linalg.eigvalsh(DDt)) <= 1e-10:
        raise ValidationError("D D^T is singular: D must have full row rank")
    DJDt = D @ J @ D.T
    if np.max(np.abs(DJDt)) > 1e-12:
        raise ValidationError(
            "D J D^T != 0: observation channels do not commute"
        )


@dataclass(frozen=True)
class DerivedPlant(PlantSpec):
    """A PlantSpec with its state-space matrices (A, B, E, C) and the
    field channels' J, as derived by `derive_plant`."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    C: np.ndarray
    J: np.ndarray

    @cached_property
    def realizability(self):
        """The plant-level blocks of the joint realizability residual
        (`assemble_closed_loop`), formed on first read and kept:
        max |A Theta + Theta A^T + B J B^T|, P2 = Theta C^T + B J D^T and
        P3 = D J D^T.  They are read from this plant's own arrays, so a
        plant made by `dataclasses.replace` forms its own."""
        Theta, J = self.Theta, self.J
        res_a = np.max(np.abs(self.A @ Theta + Theta @ self.A.T
                              + self.B @ J @ self.B.T))
        P2 = Theta @ self.C.T + self.B @ J @ self.D.T
        return res_a, P2, self.D @ J @ self.D.T


def derive_plant(spec):
    """The plant of `spec`: its physical parameters, the same arrays, with
    (A, B, E, C) derived from them and physical realizability verified.

    A = 2 Theta (R + M^T J M), B = 2 Theta M^T, E = 2 Theta N^T,
    C = 2 D J M.  The realizability identities
    A Theta + Theta A^T + B J B^T = 0 and Theta C^T + B J D^T = 0
    hold by construction; their residuals are asserted.
    """
    Theta, R, M, N, D = spec.Theta, spec.R, spec.M, spec.N, spec.D
    J = build_J(spec.m)
    A = 2.0 * Theta @ (R + M.T @ J @ M)
    B = 2.0 * Theta @ M.T
    E = 2.0 * Theta @ N.T
    C = 2.0 * D @ J @ M
    scale = 1.0 + max(np.max(np.abs(A)), np.max(np.abs(B)))
    res_ab = np.max(np.abs(A @ Theta + Theta @ A.T + B @ J @ B.T))
    if res_ab > PR_TOL * scale:
        raise ValidationError(
            f"realizability residual A Theta + Theta A^T + B J B^T = {res_ab:.2e}"
        )
    res_c = np.max(np.abs(Theta @ C.T + B @ J @ D.T))
    if res_c > PR_TOL * scale:
        raise ValidationError(
            f"realizability residual Theta C^T + B J D^T = {res_c:.2e}"
        )
    return DerivedPlant(Theta=Theta, R=R, M=M, N=N, D=D,
                        A=A, B=B, E=E, C=C, J=J)


@dataclass(frozen=True)
class ControllerParams:
    """State-space triple (a, b, c) of the classical controller."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in "abc":
            value = _check_real(name, getattr(self, name))
            object.__setattr__(self, name, value)
        a, b, c = self.a, self.b, self.c
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValidationError("a must be square")
        if b.shape[0] != n or c.shape[1] != n:
            raise ValidationError("b, c must match the controller order")

    def __add__(self, other):
        return ControllerParams(self.a + other.a, self.b + other.b,
                                self.c + other.c)


@dataclass(frozen=True)
class ClosedLoop:
    """Assembled closed-loop system matrices for a plant/controller pair."""

    plant: DerivedPlant
    ctrl: ControllerParams
    S: np.ndarray
    K: np.ndarray
    calA: np.ndarray = field(repr=False, default=None)
    calB: np.ndarray = field(repr=False, default=None)
    calC: np.ndarray = field(repr=False, default=None)
    Gamma: np.ndarray = field(repr=False, default=None)

    @property
    def n(self):
        return self.plant.n

    @property
    def m(self):
        return self.plant.m

    @property
    def nu(self):
        return self.calC.shape[0]

    @property
    def J(self):
        return self.plant.J


def check_weights(plant, weights):
    """The weights (S, K) as finite float matrices, S nu x n and K nu x d
    for the plant's n and d; a ValidationError names the one that is not."""
    S, K = map(_check_real, "SK", weights)
    for name, w, cols, dim in (("S", S, plant.n, "n"), ("K", K, plant.d, "d")):
        if w.shape != (S.shape[0], cols):
            raise ValidationError(f"weight {name} has shape {w.shape}, not "
                                  f"nu x {dim} = {S.shape[0]} x {cols}")
    return S, K


def assemble_closed_loop(plant, weights, ctrl):
    """Assemble the joint system matrices for a plant/controller pair.

    calA = [[A, E c], [b C, a]], calB = [[B], [b D]], calC = [S, K c],
    each filled block by block; the joint commutation matrix is
    Gamma = blockdiag(Theta, 0).  The joint realizability identity
    calA Gamma + Gamma calA^T + calB J calB^T = 0 holds for any (a, b, c)
    of a realizable plant and is asserted in the plant-level form of its
    blocks: with Theta^T = -Theta and J^T = -J they are
        [[A Theta + Theta A^T + B J B^T,  P2 b^T],
         [-b P2^T,                        b P3 b^T]],
    P2 = Theta C^T + B J D^T and P3 = D J D^T, so the residual's largest
    entry is the largest of |A Theta + Theta A^T + B J B^T|, |P2 b^T| and
    |b P3 b^T|, which the plant keeps but for b (`realizability`); no
    2n x 2n product is formed.  The residual may reach
    PR_TOL (1 + max|calA| + max|calB|^2).
    """
    S, K = check_weights(plant, weights)
    n, d, r = plant.n, plant.d, plant.r
    a, b, c = ctrl.a, ctrl.b, ctrl.c
    if a.shape != (n, n) or b.shape != (n, r) or c.shape != (d, n):
        raise ValidationError(
            f"controller shapes {a.shape}, {b.shape}, {c.shape} do not match "
            f"plant dimensions n={n}, r={r}, d={d}"
        )

    calA = np.empty((2 * n, 2 * n))
    calA[:n, :n], calA[:n, n:] = plant.A, plant.E @ c
    calA[n:, :n], calA[n:, n:] = b @ plant.C, a
    calB = np.empty((2 * n, plant.m))
    calB[:n], calB[n:] = plant.B, b @ plant.D
    calC = np.empty((S.shape[0], 2 * n))
    calC[:, :n], calC[:, n:] = S, K @ c
    Gamma = np.zeros((2 * n, 2 * n))
    Gamma[:n, :n] = plant.Theta

    scale = 1.0 + np.abs(calA).max() + np.abs(calB).max() ** 2
    res_a, P2, P3 = plant.realizability
    res = max(res_a, np.abs(P2 @ b.T).max(), np.abs(b @ P3 @ b.T).max())
    if res > PR_TOL * scale:
        raise ValidationError(f"joint realizability residual {res:.2e}")
    return ClosedLoop(plant=plant, ctrl=ctrl, S=S, K=K,
                      calA=calA, calB=calB, calC=calC, Gamma=Gamma)

