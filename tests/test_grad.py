"""Gradient matrix: weight functions, dual-route limit, finite differences."""

import numpy as np
import pytest

from qefsyn.errors import InadmissibleError
from qefsyn.freq import (
    QuadratureConfig,
    delta_matrix,
    growth_rate_grid,
    qef_growth_rate,
    spectral_sweep,
    theta_for_spec1,
)
from qefsyn.grad import (
    build_k_factors,
    chi_matrix,
    frechet_derivatives,
    optimality_residual,
    phi_fn,
    psi_fn,
    sandwich_blocks,
)
from qefsyn.gramians import chi0
from qefsyn.model import ControllerParams, assemble_closed_loop


def test_phi_reduces_to_delta_inverse_when_psi_zero():
    Phi = np.diag([0.5, 0.2]).astype(complex)
    Psi = np.zeros((2, 2), dtype=complex)
    theta = 0.3
    Delta = delta_matrix(Phi, Psi, theta)
    phi = phi_fn(Phi, Psi, Delta, theta)
    assert np.allclose(phi, np.linalg.inv(Delta))


def test_psi_fn_rejects_singular_psi(cl_lqg):
    # with stacked nu=3 weights Psi has rank <= 2 and is singular
    sweep = spectral_sweep(cl_lqg, [0.5])
    Phi, Psi = sweep.Phi[0], sweep.Psi[0]
    Delta = delta_matrix(Phi, Psi, 0.05)
    with pytest.raises(InadmissibleError):
        psi_fn(Phi, Psi, Delta, 0.05)


def test_psi_fn_finite_difference():
    # check the block-triangular psi formula against a finite difference of
    # the scalar integrand d/dtheta is not direct; instead verify the two
    # Gateaux blocks via the scalar case where everything is explicit
    Phi = np.array([[0.7]], dtype=complex)
    Psi = np.array([[0.4j]], dtype=complex)
    theta = 0.3
    Delta = delta_matrix(Phi, Psi, theta)
    psi = psi_fn(Phi, Psi, Delta, theta)
    # scalar reduction: psi = sin'(t p) X - cos'(t p) via commutative calculus
    tp = complex(theta * Psi[0, 0])
    dinv = 1.0 / complex(Delta[0, 0])
    X = dinv * complex(Phi[0, 0]) / complex(Psi[0, 0])
    sinc = np.sin(tp) / tp
    expected = np.cos(tp) * X + np.sin(tp) * dinv - sinc * X
    assert np.isclose(complex(psi[0, 0]), expected, atol=1e-12)


def test_chi_zero_theta_matches_gramian_route(cl_square, quad_fast):
    chi_q, err = chi_matrix(cl_square, 0.0, quad_fast)
    chi_g = chi0(cl_square)
    gap = np.linalg.norm(chi_q - chi_g) / np.linalg.norm(chi_g)
    assert gap <= 1e-6


def test_chi_projection_zero_block(cl_square, quad_fast):
    chi, _ = chi_matrix(cl_square, 0.05, quad_fast)
    m, nu = cl_square.m, cl_square.nu
    assert np.allclose(chi[-m:, -nu:], 0.0)


def test_k_factor_shapes(canonical_plant, weights_square):
    K1, K2 = build_k_factors(canonical_plant, weights_square[1])
    n, m, d, r, nu = 2, 2, 1, 1, 2
    assert K1.shape == (2 * n + nu, n + d)
    assert K2.shape == (n + r, 2 * n + m)


def test_frechet_derivatives_finite_difference(canonical_plant,
                                               weights_square, cl_square):
    """One deterministic instance of the central gradient check."""
    pert = ControllerParams(a=0.05 * np.array([[1.0, -0.5], [0.25, 0.75]]),
                            b=0.05 * np.array([[-0.5], [1.0]]),
                            c=0.05 * np.array([[0.5, -0.25]]))
    ctrl = cl_square.ctrl + pert
    cl = assemble_closed_loop(canonical_plant, weights_square, ctrl)
    theta = theta_for_spec1(cl, 0.25)
    quad = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)
    grid = growth_rate_grid(cl, theta, quad)
    report = frechet_derivatives(cl, theta, quad)

    def ups_of(c):
        cl_ = assemble_closed_loop(canonical_plant, weights_square, c)
        return qef_growth_rate(cl_, theta, quad, grid=grid)

    scale = max(np.max(np.abs(report.dUps_da)), np.max(np.abs(report.dUps_db)),
                np.max(np.abs(report.dUps_dc)))
    h = 1e-4
    worst = 0.0
    for name, mat in (("a", report.dUps_da), ("b", report.dUps_db),
                      ("c", report.dUps_dc)):
        base = getattr(ctrl, name)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                def shifted(s):
                    kw = {f: getattr(ctrl, f).copy() for f in ("a", "b", "c")}
                    kw[name][i, j] += s
                    return ControllerParams(**kw)
                fd = (ups_of(shifted(h)) - ups_of(shifted(-h))) / (2 * h)
                worst = max(worst, abs(fd - mat[i, j]) / scale)
    assert worst <= 1e-5


def test_optimality_residual_zero_at_lqg_limit(cl_square):
    # theta -> 0: the LQG controller is stationary for the Gramian gradient
    blocks = sandwich_blocks(cl_square.plant, cl_square.K, chi0(cl_square))
    resid = np.sqrt(sum(np.sum(b**2) for b in blocks))
    assert resid <= 1e-8 * (1 + np.linalg.norm(chi0(cl_square)))


def test_quad_error_reported(cl_square, quad_fast):
    report = frechet_derivatives(cl_square, 0.05, quad_fast)
    assert np.isfinite(report.quad_error)
    assert optimality_residual(report) >= 0.0
