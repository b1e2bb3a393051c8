"""Lyapunov solver, Gramians, mean-square cost and its limit gradient matrix."""

import numpy as np
import pytest
import scipy.linalg

from qefsyn import gramians
from qefsyn.errors import NumericalError, ValidationError
from qefsyn.gramians import chi0, lqg_cost, solve_lyapunov
from qefsyn.instances import random_plant_spec
from qefsyn.model import assemble_closed_loop, derive_plant
from qefsyn.synth import lqg_controller


def test_solve_lyapunov_scalar():
    # a x + x a + w = 0 with a = -2, w = 4  ->  x = 1
    X = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
    assert np.isclose(X[0, 0], 1.0)


def test_solve_lyapunov_residual(rng):
    A = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
    W0 = rng.standard_normal((4, 4))
    W = W0 @ W0.T
    X = solve_lyapunov(A, W)
    assert np.max(np.abs(A @ X + X @ A.T + W)) <= 1e-10 * (1 + np.max(np.abs(W)))
    assert np.min(np.linalg.eigvalsh(X)) >= -1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_solve_lyapunov_matches_scipy(n):
    # both Gramians of the LQG loops of seeded plants of order n with
    # seeded nu = 3 weights, the observability one by the adjoint solve on
    # calA's factorization; over seeds 0-9 the largest difference relative
    # to scipy's largest entry measured 2.6e-12 (n = 4, seed 3,
    # cond(calA) 2.4e5)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        plant = derive_plant(random_plant_spec(rng, n=n))
        weights = rng.standard_normal((3, n)), rng.standard_normal((3, 1))
        cl = assemble_closed_loop(plant, weights,
                                  lqg_controller(plant, weights))
        W = cl.calB @ cl.calB.T
        X = solve_lyapunov(cl.calA, W)
        ref = scipy.linalg.solve_continuous_lyapunov(cl.calA, -W)
        assert np.max(np.abs(X - ref)) <= 1e-11 * np.max(np.abs(ref))
        W = cl.calC.T @ cl.calC
        X = gramians._solve(cl.calA, W, adjoint=True)
        ref = scipy.linalg.solve_continuous_lyapunov(cl.calA.T, -W)
        assert np.max(np.abs(X - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [40, 100])
def test_solve_lyapunov_at_large_order(order):
    # the modal solve is O(N^3): order 100 takes about 6 ms, as scipy's
    # Bartels-Stewart does (2-core VM, OPENBLAS_NUM_THREADS=1); over seeds
    # 0-4 the difference measured at most 2e-14 of scipy's largest entry
    rng = np.random.default_rng(order)
    A = rng.standard_normal((order, order)) / np.sqrt(order) - 1.5 * np.eye(
        order)
    B = rng.standard_normal((order, 3))
    X = solve_lyapunov(A, B @ B.T)
    ref = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_refinement_rescues_an_ill_conditioned_loop(monkeypatch):
    # the controllability Gramian of the n = 4 seed 22 loop: the modal
    # solve alone leaves a residual 3.6e5 times the tolerance, and
    # refinement brings it below.  The Kronecker-sum matrix has condition
    # number 3.7e9; against a 40-digit solve of it the refined X measured
    # 7.6e-9 relative error and scipy's 2.9e-9, 4.7e-9 apart
    rng = np.random.default_rng(22)
    plant = derive_plant(random_plant_spec(rng, n=4))
    weights = rng.standard_normal((3, 4)), rng.standard_normal((3, 1))
    cl = assemble_closed_loop(plant, weights, lqg_controller(plant, weights))
    W = cl.calB @ cl.calB.T
    X = solve_lyapunov(cl.calA, W)
    ref = scipy.linalg.solve_continuous_lyapunov(cl.calA, -W)
    assert np.max(np.abs(X - ref)) <= 2e-8 * np.max(np.abs(ref))
    monkeypatch.setattr(gramians, "_REFINE", 0)
    with pytest.raises(NumericalError, match="Lyapunov residual"):
        solve_lyapunov(cl.calA, W)


def test_solve_lyapunov_on_jordan_blocks():
    # a 2 x 2 Jordan block is solved to rounding; at size 3 the modal solve
    # cannot be refined, and the residual test rejects it
    J = np.array([[-1.0, 1.0], [0.0, -1.0]])
    X = solve_lyapunov(J, np.eye(2))
    assert np.allclose(X, scipy.linalg.solve_continuous_lyapunov(
        J, -np.eye(2)), rtol=0, atol=1e-14)
    with pytest.raises(NumericalError, match="Lyapunov residual"):
        solve_lyapunov(-np.eye(3) + np.diag([1.0, 1.0], 1), np.eye(3))


def test_solve_lyapunov_rejects_unstable():
    with pytest.raises(NumericalError):
        solve_lyapunov(np.eye(2), np.eye(2))


def test_solve_lyapunov_rejects_asymmetric_w():
    with pytest.raises(ValidationError):
        solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lqg_cost_positive(cl_square):
    assert lqg_cost(cl_square) > 0


def test_lqg_cost_zero_for_zero_weights(canonical_plant, cl_square):
    from qefsyn.model import assemble_closed_loop
    cl0 = assemble_closed_loop(canonical_plant,
                               (np.zeros((2, 2)), np.zeros((2, 1))),
                               cl_square.ctrl)
    assert lqg_cost(cl0) == 0.0


def test_chi0_block_structure(cl_square):
    # chi0^T = [[Q Sigma, Q calB], [calC Sigma, 0]] with the controllability
    # Gramian Sigma and the observability Gramian Q; Q Sigma is the Hankelian
    calA, calB, calC = cl_square.calA, cl_square.calB, cl_square.calC
    Sigma = solve_lyapunov(calA, calB @ calB.T)
    Q = solve_lyapunov(calA.T, calC.T @ calC)
    assert np.min(np.linalg.eigvalsh(Q)) >= -1e-12
    X = chi0(cl_square).T
    two_n, m, nu = 4, cl_square.m, cl_square.nu
    assert X.shape == (two_n + nu, two_n + m)
    assert np.allclose(X[:two_n, :two_n], Q @ Sigma)
    assert np.allclose(X[:two_n, two_n:], Q @ calB)
    assert np.allclose(X[two_n:, :two_n], calC @ Sigma)
    assert np.allclose(X[two_n:, two_n:], 0)
