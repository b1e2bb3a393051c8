"""Matrix entire functions and their block-triangular Gateaux derivatives."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qefsyn.errors import ValidationError
from qefsyn.matfun import (
    gateaux_cos,
    gateaux_exp,
    gateaux_sin,
    mat_cos,
    mat_exp,
    mat_sin,
    trace_adjoint_check,
)


def _rand(rng, n, complex_=False):
    M = rng.standard_normal((n, n))
    if complex_:
        M = M + 1j * rng.standard_normal((n, n))
    return M / np.sqrt(n)


def test_exp_identity_and_zero():
    assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_cos_sin_pythagorean(rng):
    # cos(M)^2 + sin(M)^2 = I holds for any square M
    M = _rand(rng, 4)
    C, S = mat_cos(M), mat_sin(M)
    assert np.allclose(C @ C + S @ S, np.eye(4), atol=1e-12)


def test_cos_sin_real_for_real_input(rng):
    M = _rand(rng, 3)
    assert np.isrealobj(mat_cos(M))
    assert np.isrealobj(mat_sin(M))


def test_cos_sin_diagonal_exact():
    d = np.array([0.3, -1.2, 2.5])
    assert np.allclose(mat_cos(np.diag(d)), np.diag(np.cos(d)))
    assert np.allclose(mat_sin(np.diag(d)), np.diag(np.sin(d)))


def test_gateaux_matches_finite_difference(rng):
    beta = _rand(rng, 3)
    gamma = _rand(rng, 3)
    h = 1e-6
    for g, f in ((gateaux_exp, scipy.linalg.expm),
                 (gateaux_cos, mat_cos), (gateaux_sin, mat_sin)):
        fd = (f(beta + h * gamma) - f(beta - h * gamma)) / (2 * h)
        assert np.allclose(g(beta, gamma), fd, atol=1e-8)


def test_gateaux_linearity_in_direction(rng):
    beta = _rand(rng, 3)
    g1, g2 = _rand(rng, 3), _rand(rng, 3)
    lhs = gateaux_cos(beta, 2.0 * g1 - 0.5 * g2)
    rhs = 2.0 * gateaux_cos(beta, g1) - 0.5 * gateaux_cos(beta, g2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_gateaux_shape_mismatch_rejected(rng):
    with pytest.raises(ValidationError):
        gateaux_sin(np.eye(2), np.eye(3))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 5),
       f=st.sampled_from(["exp", "cos", "sin"]))
def test_trace_adjoint_identity(seed, nu, f):
    rng = np.random.default_rng(seed)
    alpha, beta, dbeta = (_rand(rng, nu, complex_=True) for _ in range(3))
    lhs, rhs = trace_adjoint_check(f, alpha, beta, dbeta)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_trace_adjoint_rejects_unknown_function():
    with pytest.raises(ValidationError):
        trace_adjoint_check("tan", np.eye(2), np.eye(2), np.eye(2))
