"""Lyapunov solver, Gramians, mean-square cost and its limit gradient matrix."""

import numpy as np
import pytest

from qefsyn.errors import NumericalError, ValidationError
from qefsyn.gramians import chi0, lqg_cost, solve_lyapunov


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
