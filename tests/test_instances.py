"""Randomized instance generators used by tests and experiments."""

import numpy as np

import qefsyn.freq as freq
import qefsyn.instances as instances
from qefsyn.freq import check_admissible, is_hurwitz
from qefsyn.instances import (
    random_admissible_instance,
    random_plant_spec,
    random_stable_instance,
)
from qefsyn.oracle import default_horizon


def test_random_plant_spec_valid(rng):
    for _ in range(5):
        spec = random_plant_spec(rng)
        assert spec.n == 2 and spec.m == 2 and spec.d == 1 and spec.r == 1
        assert np.allclose(spec.Theta, -spec.Theta.T)


def test_random_plant_spec_larger_dims(rng):
    spec = random_plant_spec(rng, n=4, m=4, d=2, r=2)
    assert spec.n == 4 and spec.m == 4 and spec.r == 2


def test_random_stable_instance(rng):
    _, _, cl = random_stable_instance(rng)
    assert is_hurwitz(cl.calA)


def test_random_admissible_instance(rng):
    plant, ctrl, cl, theta = random_admissible_instance(rng)
    assert theta > 0
    report = check_admissible(cl, theta)
    assert report.admissible


def test_one_spectrum_per_perturbed_loop(monkeypatch):
    # the Hurwitz and damping tests of each perturbed loop and
    # theta_for_spec1 read one cached factorization, and so does
    # default_horizon; each used to take its own eigvals as well
    spectra, loops = [], []
    for name in ("eig", "eigvals"):
        def counted(a, _fn=getattr(np.linalg, name)):
            spectra.append(np.asarray(a, dtype=float).tobytes())
            return _fn(a)
        monkeypatch.setattr(np.linalg, name, counted)

    def assembled(*args, _fn=instances.assemble_closed_loop):
        cl = _fn(*args)
        loops.append(cl.calA.tobytes())
        return cl

    monkeypatch.setattr(instances, "assemble_closed_loop", assembled)
    freq._factor.cache_clear()
    for seed in (0, 1, 2):
        _, _, cl, _ = random_admissible_instance(np.random.default_rng(seed))
        assert spectra.count(cl.calA.tobytes()) == 1
        n_spectra = len(spectra)
        default_horizon(cl.calA)
        assert len(spectra) == n_spectra
    assert all(spectra.count(calA) <= 1 for calA in loops)
