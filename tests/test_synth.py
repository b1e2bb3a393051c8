"""LQG initializer and the descent loop."""

import numpy as np
import pytest

from qefsyn import synth
from qefsyn.errors import NumericalError, ValidationError
from qefsyn.freq import QuadratureConfig, check_admissible, theta_for_spec1
from qefsyn.instances import random_stable_instance
from qefsyn.model import assemble_closed_loop, is_hurwitz
from qefsyn.synth import SynthesisConfig, lqg_controller, synthesize


def test_lqg_controller_stabilizes(canonical_plant, weights_square):
    ctrl = lqg_controller(canonical_plant, weights_square)
    cl = assemble_closed_loop(canonical_plant, weights_square, ctrl)
    assert is_hurwitz(cl.calA)


def test_lqg_controller_observer_form(canonical_plant, weights_square):
    ctrl = lqg_controller(canonical_plant, weights_square)
    p = canonical_plant
    assert np.allclose(ctrl.a, p.A + p.E @ ctrl.c - ctrl.b @ p.C)


def test_lqg_controller_rejects_degenerate_control_weight(canonical_plant):
    with pytest.raises(NumericalError):
        lqg_controller(canonical_plant, (np.eye(2), np.zeros((2, 1))))


def test_lqg_controller_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(3):
        _, _, cl = random_stable_instance(rng)
        assert is_hurwitz(cl.calA)


def test_synthesis_config_validation():
    with pytest.raises(ValueError):
        SynthesisConfig(theta=-0.1)
    with pytest.raises(ValueError):
        SynthesisConfig(theta=0.1, backtrack_factor=1.5)


def test_synthesize_canonical_reaches_stationarity(canonical_plant,
                                                   weights_square, cl_square):
    theta = theta_for_spec1(cl_square, 0.3)
    cfg = SynthesisConfig(theta=theta, max_iters=50,
                          quad=QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8))
    report = synthesize(canonical_plant, weights_square, cfg)
    assert report.termination == "stationary"
    assert report.residual <= cfg.grad_tol * (1 + abs(report.cost))
    assert report.cost > 0
    # every accepted iterate was admissible
    assert all(a.admissible for a in report.admissibility)
    # the trace never increases
    costs = [u for _, u, _, _ in report.iterates]
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(costs, costs[1:]))


def test_synthesize_final_controller_admissible(canonical_plant,
                                                weights_square, cl_square):
    theta = theta_for_spec1(cl_square, 0.3)
    cfg = SynthesisConfig(theta=theta, max_iters=20,
                          quad=QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8))
    report = synthesize(canonical_plant, weights_square, cfg)
    cl = assemble_closed_loop(canonical_plant, weights_square,
                              report.controller)
    assert check_admissible(cl, theta).admissible


def test_admissible_maps_only_validation_errors(canonical_plant,
                                                weights_square, monkeypatch):
    ctrl = lqg_controller(canonical_plant, weights_square)

    def raise_(exc):
        def assemble(*args):
            raise exc
        return assemble

    monkeypatch.setattr(synth, "assemble_closed_loop",
                        raise_(ValidationError("shape mismatch")))
    assert synth._admissible(canonical_plant, weights_square, ctrl,
                             0.05) == (None, None)
    # anything else is a bug in closed-loop assembly, not inadmissibility
    monkeypatch.setattr(synth, "assemble_closed_loop",
                        raise_(RuntimeError("assembly bug")))
    with pytest.raises(RuntimeError, match="assembly bug"):
        synth._admissible(canonical_plant, weights_square, ctrl, 0.05)
