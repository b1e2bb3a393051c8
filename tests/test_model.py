"""Plant validation, derived state space, realizability, closed-loop assembly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qefsyn.errors import ValidationError
from qefsyn.instances import random_plant_spec
from qefsyn.model import (
    ControllerParams,
    DerivedPlant,
    PlantSpec,
    assemble_closed_loop,
    build_J,
    derive_plant,
    validate_measurement,
)
from qefsyn.synth import lqg_controller


def test_build_j_structure():
    J = build_J(4)
    assert np.allclose(J + J.T, 0)
    assert np.allclose(J @ J, -np.eye(4))


def test_build_j_rejects_odd():
    with pytest.raises(ValidationError):
        build_J(3)


def test_plant_spec_rejects_symmetric_theta():
    with pytest.raises(ValidationError, match="antisymmetric"):
        PlantSpec(Theta=np.eye(2), R=np.eye(2), M=np.eye(2),
                  N=np.zeros((1, 2)), D=np.array([[1.0, 0.0]]))


def test_plant_spec_rejects_too_many_observations():
    # r = 2 > m/2 = 1: no commuting measurement exists
    with pytest.raises(ValidationError, match="r <= m/2"):
        PlantSpec(Theta=np.array([[0.0, 1.0], [-1.0, 0.0]]), R=np.eye(2),
                  M=np.eye(2), N=np.zeros((1, 2)), D=np.eye(2))


def test_measurement_commutation_enforced():
    # D = I_1x2 padded would commute; D touching both quadratures does not
    with pytest.raises(ValidationError, match="commute"):
        validate_measurement(np.array([[1.0, 1.0], [1.0, -1.0]]), build_J(2))


def test_measurement_rank_enforced():
    with pytest.raises(ValidationError, match="full row rank"):
        validate_measurement(np.array([[0.0, 0.0]]), build_J(2))


def test_derive_plant_canonical(canonical_plant, canonical_spec):
    p = canonical_plant
    # one plant record: the spec's fields, then the realization
    assert [f.name for f in dataclasses.fields(DerivedPlant)] == [
        *(f.name for f in dataclasses.fields(PlantSpec)),
        "A", "B", "E", "C", "J"]
    assert not any(isinstance(v, property)
                   for v in vars(DerivedPlant).values())
    assert not hasattr(p, "spec")
    assert isinstance(p, PlantSpec)
    assert all(getattr(p, f.name) is getattr(canonical_spec, f.name)
               for f in dataclasses.fields(PlantSpec))
    assert (p.n, p.m, p.d, p.r) == (2, 2, 1, 1)
    assert np.allclose(p.A, 2.0 * canonical_spec.Theta
                       @ (canonical_spec.R
                          + canonical_spec.M.T @ p.J @ canonical_spec.M))
    assert np.allclose(p.B, 2.0 * canonical_spec.Theta @ canonical_spec.M.T)
    assert np.allclose(p.C, 2.0 * canonical_spec.D @ p.J @ canonical_spec.M)


def test_derived_plant_checks_its_spec(canonical_plant):
    # a DerivedPlant built directly runs PlantSpec's checks
    with pytest.raises(ValidationError, match="R must be symmetric"):
        dataclasses.replace(canonical_plant, R=canonical_plant.Theta)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_realizability_identities_random(seed):
    rng = np.random.default_rng(seed)
    spec = random_plant_spec(rng)
    p = derive_plant(spec)
    res1 = p.A @ spec.Theta + spec.Theta @ p.A.T + p.B @ p.J @ p.B.T
    res2 = spec.Theta @ p.C.T + p.B @ p.J @ spec.D.T
    assert np.max(np.abs(res1)) <= 1e-10
    assert np.max(np.abs(res2)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_joint_realizability_any_controller(seed):
    rng = np.random.default_rng(seed)
    spec = random_plant_spec(rng)
    p = derive_plant(spec)
    ctrl = ControllerParams(a=rng.standard_normal((2, 2)),
                            b=rng.standard_normal((2, 1)),
                            c=rng.standard_normal((1, 2)))
    cl = assemble_closed_loop(p, (np.eye(2), np.zeros((2, 1))), ctrl)
    res = cl.calA @ cl.Gamma + cl.Gamma @ cl.calA.T + cl.calB @ p.J @ cl.calB.T
    assert np.max(np.abs(res)) <= 1e-9


def _blocks(plant, weights, ctrl):
    """calA, calB, calC and Gamma by np.block, without a check."""
    (S, K), (a, b, c), n = weights, (ctrl.a, ctrl.b, ctrl.c), plant.n
    return dict(calA=np.block([[plant.A, plant.E @ c], [b @ plant.C, a]]),
                calB=np.vstack([plant.B, b @ plant.D]),
                calC=np.hstack([S, K @ c]),
                Gamma=np.block([[plant.Theta, np.zeros((n, n))],
                                [np.zeros((n, 2 * n))]]))


def _joint_residual(calA, calB, Gamma, J):
    """calA Gamma + Gamma calA^T + calB J calB^T, formed in full."""
    return calA @ Gamma + Gamma @ calA.T + calB @ J @ calB.T


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_factored_realizability_matches_the_full_product(seed):
    # n = 4, d = r = 2 multimode plants: the joint residual's blocks are
    # the plant-level A Theta + Theta A^T + B J B^T, P2 b^T, -b P2^T and
    # b P3 b^T.  On a realizable plant both forms vanish to rounding; on
    # one whose A and C are moved off the identities the residual is of
    # order one, and the blocks match it to rounding.
    rng = np.random.default_rng(seed)
    p = derive_plant(random_plant_spec(rng, n=4, m=4, d=2, r=2))
    weights = (np.eye(4), np.zeros((4, 2)))
    ctrl = ControllerParams(a=rng.standard_normal((4, 4)),
                            b=rng.standard_normal((4, 2)),
                            c=rng.standard_normal((2, 4)))
    b = ctrl.b
    broken = dataclasses.replace(p, A=p.A + rng.standard_normal((4, 4)),
                                 C=p.C + rng.standard_normal((2, 4)))
    for plant in (p, broken):
        blocks = _blocks(plant, weights, ctrl)
        full = _joint_residual(blocks["calA"], blocks["calB"],
                               blocks["Gamma"], plant.J)
        res_a, P2, P3 = plant.realizability
        factored = max(res_a, np.max(np.abs(P2 @ b.T)),
                       np.max(np.abs(b @ P3 @ b.T)))
        scale = (1.0 + np.max(np.abs(blocks["calA"]))
                 + np.max(np.abs(blocks["calB"])) ** 2)
        tol = 1e-14 * scale * max(1.0, np.max(np.abs(full)))
        assert abs(factored - np.max(np.abs(full))) <= tol
        assert abs(np.max(np.abs(full[:4, :4])) - res_a) <= tol
        for got, want in ((full[:4, 4:], P2 @ b.T), (full[4:, :4], -b @ P2.T),
                          (full[4:, 4:], b @ P3 @ b.T)):
            assert np.max(np.abs(got - want)) <= tol
    # the slices assemble np.block's arrays exactly
    cl = assemble_closed_loop(p, weights, ctrl)
    for name, want in _blocks(p, weights, ctrl).items():
        assert np.array_equal(getattr(cl, name), want)


#: a fixed direction that breaks A Theta + Theta A^T + B J B^T = 0 on the
#: canonical plant: E Theta + Theta E^T is not zero for it
_BREAK_A = np.array([[1.0, 0.0], [0.0, 0.0]])
#: a fixed direction that breaks Theta C^T + B J D^T = 0: Theta is invertible
_BREAK_C = np.array([[1.0, -0.5]])


@pytest.mark.parametrize("field, direction",
                         [("A", _BREAK_A), ("C", _BREAK_C)], ids=["A", "C"])
def test_assembly_rejects_a_plant_that_is_not_realizable(canonical_plant,
                                                         field, direction):
    # a plant edited off its realizability identities after derive_plant;
    # with b != 0 each broken identity shows in the joint residual
    plant = dataclasses.replace(
        canonical_plant,
        **{field: getattr(canonical_plant, field) + 1e-6 * direction})
    ctrl = ControllerParams(a=-np.eye(2), b=np.array([[1.0], [-0.5]]),
                            c=np.ones((1, 2)))
    weights = (np.eye(2), np.zeros((2, 1)))
    with pytest.raises(ValidationError,
                       match="joint realizability residual"):
        assemble_closed_loop(plant, weights, ctrl)
    # with b = 0 the controller reads no measurement: Theta C^T + B J D^T
    # enters no block, and only the broken A is rejected
    quiet = ControllerParams(a=-np.eye(2), b=np.zeros((2, 1)),
                             c=np.ones((1, 2)))
    if field == "A":
        with pytest.raises(ValidationError,
                           match="joint realizability residual"):
            assemble_closed_loop(plant, weights, quiet)
    else:
        assemble_closed_loop(plant, weights, quiet)


def test_closed_loop_block_structure(canonical_plant):
    p = canonical_plant
    ctrl = ControllerParams(a=-np.eye(2), b=np.ones((2, 1)),
                            c=np.ones((1, 2)))
    S, K = np.eye(2), np.zeros((2, 1))
    cl = assemble_closed_loop(p, (S, K), ctrl)
    assert np.allclose(cl.calA[:2, :2], p.A)
    assert np.allclose(cl.calA[:2, 2:], p.E @ ctrl.c)
    assert np.allclose(cl.calA[2:, :2], ctrl.b @ p.C)
    assert np.allclose(cl.calA[2:, 2:], ctrl.a)
    assert np.allclose(cl.calB[2:], ctrl.b @ p.D)
    assert np.allclose(cl.calC, np.hstack([S, K @ ctrl.c]))
    assert np.allclose(cl.Gamma[:2, :2], p.Theta)
    assert np.allclose(cl.Gamma[2:, :], 0)


def test_controller_shape_mismatch(canonical_plant):
    ctrl = ControllerParams(a=-np.eye(3), b=np.ones((3, 1)),
                            c=np.ones((1, 3)))
    with pytest.raises(ValidationError):
        assemble_closed_loop(canonical_plant, (np.eye(2), np.zeros((2, 1))),
                             ctrl)


_S, _K = np.eye(2), np.array([[0.0], [1.0]])


def _assemble(plant, weights):
    return assemble_closed_loop(plant, weights,
                                lqg_controller(plant, (_S, _K)))


@pytest.mark.parametrize("weights, name", [
    pytest.param((np.eye(3), _K), "S", id="S-wrong-columns"),  # was numerical
    pytest.param((np.ones((1, 2, 2)), _K), "S", id="S-three-dimensional"),
    pytest.param((_S, np.ones((2, 2))), "K", id="K-wrong-columns"),
    pytest.param((_S, np.ones((3, 1))), "K", id="K-wrong-rows"),
    pytest.param((np.array([[np.nan, 0.0], [0.0, 1.0]]), _K), "S",
                 id="S-nan"),
    pytest.param((_S, np.array([[0.0], [np.inf]])), "K", id="K-inf"),
])
@pytest.mark.parametrize("entry", [lqg_controller, _assemble],
                         ids=["lqg_controller", "assemble_closed_loop"])
def test_bad_weights_are_a_validation_error(canonical_plant, weights, name,
                                            entry):
    # both read the pair through model.check_weights, which names the weight
    with pytest.raises(ValidationError, match=rf"^(weight )?{name} has"):
        entry(canonical_plant, weights)


def test_controller_params_add():
    c1 = ControllerParams(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    c2 = ControllerParams(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    s = c1 + c2
    assert np.allclose(s.a, 2 * np.eye(2))
    assert np.allclose(s.b, 2 * np.ones((2, 1)))
