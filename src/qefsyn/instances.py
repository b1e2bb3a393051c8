"""Canonical and randomized problem instances for tests and experiments."""

import numpy as np

from qefsyn.errors import NumericalError, ValidationError
from qefsyn.freq import (_modes, check_admissible, is_hurwitz,
                         theta_for_spec1)
from qefsyn.model import (
    ControllerParams,
    PlantSpec,
    assemble_closed_loop,
    derive_plant,
)
from qefsyn.synth import lqg_controller

__all__ = [
    "canonical_plant_spec",
    "canonical_weights_square",
    "canonical_weights_lqg",
    "random_plant_spec",
    "random_stable_instance",
    "random_admissible_instance",
]


def canonical_plant_spec():
    """Single-mode plant: unit commutation matrix, identity energy/coupling."""
    bJ = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return PlantSpec(
        Theta=bJ,
        R=np.eye(2),
        M=np.eye(2),
        N=np.array([[0.5, 0.3]]),
        D=np.array([[1.0, 0.0]]),
    )


def canonical_weights_square():
    """nu = 2 weights with invertible transfer, usable by the gradient path."""
    S = np.eye(2)
    K = np.array([[0.0], [1.0]])
    return S, K


def canonical_weights_lqg():
    """nu = 3 stacked state/control penalty (classical risk-sensitive form)."""
    S = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    K = np.array([[0.0], [0.0], [1.0]])
    return S, K


def random_plant_spec(rng, n=2, m=2, d=1, r=1):
    """Random physical parameters with all realizability invariants satisfied.

    D is drawn as [D1, 0] with D1 full row rank, which makes the
    measurement commutation condition hold identically.
    """
    half = m // 2
    T0 = rng.standard_normal((n, n))
    Theta = T0 - T0.T
    Theta /= max(np.max(np.abs(Theta)), 1e-3)
    R0 = rng.standard_normal((n, n))
    R = 0.5 * (R0 + R0.T)
    M = rng.standard_normal((m, n))
    N = rng.standard_normal((d, n))
    while True:
        D1 = rng.standard_normal((r, half))
        if np.min(np.linalg.svd(D1, compute_uv=False)) > 0.3:
            break
    D = np.hstack([D1, np.zeros((r, half))])
    return PlantSpec(Theta=Theta, R=R, M=M, N=N, D=D)


#: draws before a random instance generator gives up
_MAX_TRIES = 50


def random_stable_instance(rng, weights=None):
    """A random n=2, m=2, d=1, r=1 plant with its LQG controller (hence a
    Hurwitz closed loop); `weights` default to the square canonical ones."""
    if weights is None:
        weights = canonical_weights_square()
    for _ in range(_MAX_TRIES):
        try:
            plant = derive_plant(random_plant_spec(rng))
            ctrl = lqg_controller(plant, weights)
        except (NumericalError, ValidationError):
            continue
        return plant, ctrl, assemble_closed_loop(plant, weights, ctrl)
    raise NumericalError("failed to draw a stabilizable random instance")


def random_admissible_instance(rng, theta_fraction=0.25, perturb=0.05):
    """Random n=2, m=2, r=1, d=1 instance admissible at a safe risk level.

    The controller is the LQG solution plus a small random perturbation
    (so the gradient is not already near zero); theta is the one at which
    `check_admissible`'s spectral supremum reads ``theta_fraction``
    (`theta_for_spec1`), which keeps the integrands well conditioned.
    Instances that fail `check_admissible` at that theta are redrawn.
    """
    weights = canonical_weights_square()
    for _ in range(_MAX_TRIES):
        try:
            plant, ctrl, _ = random_stable_instance(rng, weights=weights)
        except NumericalError:
            continue
        dctrl = ControllerParams(
            a=perturb * rng.standard_normal(ctrl.a.shape),
            b=perturb * rng.standard_normal(ctrl.b.shape),
            c=perturb * rng.standard_normal(ctrl.c.shape),
        )
        ctrl = ctrl + dctrl
        cl = assemble_closed_loop(plant, weights, ctrl)
        if not is_hurwitz(cl.calA):     # factored once, for theta_for_spec1 too
            continue
        # reject nearly undamped loops: their razor-thin resonance peaks
        # make every finite-difference validation ill-conditioned
        eigs = _modes(cl.calA).s
        if np.min(-eigs.real / np.abs(eigs)) < 0.05:
            continue
        theta = theta_for_spec1(cl, theta_fraction)
        report = check_admissible(cl, theta)
        if report.admissible:
            return plant, ctrl, cl, theta
    raise NumericalError("failed to draw an admissible random instance")
