"""Shared fixtures: canonical plant, weight sets, LQG-stabilized loops
and the n = 4 multimode loop."""

import numpy as np
import pytest

from qefsyn.freq import QuadratureConfig
from qefsyn.instances import (
    canonical_plant_spec,
    canonical_weights_lqg,
    canonical_weights_square,
    random_plant_spec,
)
from qefsyn.model import assemble_closed_loop, derive_plant
from qefsyn.synth import lqg_controller


@pytest.fixture(scope="session")
def canonical_spec():
    return canonical_plant_spec()


@pytest.fixture(scope="session")
def canonical_plant(canonical_spec):
    return derive_plant(canonical_spec)


@pytest.fixture(scope="session")
def weights_square():
    return canonical_weights_square()


@pytest.fixture(scope="session")
def weights_lqg():
    return canonical_weights_lqg()


@pytest.fixture(scope="session")
def cl_square(canonical_plant, weights_square):
    """Canonical plant, square (invertible-transfer) weights, LQG controller."""
    ctrl = lqg_controller(canonical_plant, weights_square)
    return assemble_closed_loop(canonical_plant, weights_square, ctrl)


@pytest.fixture(scope="session")
def cl_lqg(canonical_plant, weights_lqg):
    """Canonical plant, stacked state/control weights, LQG controller."""
    ctrl = lqg_controller(canonical_plant, weights_lqg)
    return assemble_closed_loop(canonical_plant, weights_lqg, ctrl)


@pytest.fixture(scope="session")
def cl_multimode():
    """n = 4, m = 4, d = 2, r = 2 plant with S = I_4, K = [0; I_2] and its
    LQG controller."""
    plant = derive_plant(random_plant_spec(np.random.default_rng(0), n=4,
                                           m=4, d=2, r=2))
    weights = (np.eye(4), np.vstack([np.zeros((2, 2)), np.eye(2)]))
    return assemble_closed_loop(plant, weights,
                                lqg_controller(plant, weights))


@pytest.fixture(scope="session")
def quad_fast():
    """Loose quadrature for tests where speed matters more than digits."""
    return QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
