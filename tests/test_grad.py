"""Gradient matrix: closed-form weights against the block-triangular
reference, dual-route limit, finite differences, similarity invariance."""

import dataclasses

import numpy as np
import pytest

from qefsyn import grad
from qefsyn.errors import InadmissibleError
from qefsyn.freq import (
    QuadratureConfig,
    SpectralSweep,
    delta_matrix,
    growth_rate_grid,
    qef_growth_rate,
    sinhc,
    spectral_sweep,
    theta_for_spec1,
)
from qefsyn.grad import (
    _chi_integrand,
    _weights,
    chi_matrix,
    frechet_derivatives,
    sandwich_blocks,
)
from qefsyn.gramians import chi0
from qefsyn.instances import (
    random_admissible_instance,
    random_plant_spec,
    random_stable_instance,
)
from qefsyn.matfun import gateaux_cos, gateaux_sin
from qefsyn.model import ControllerParams, assemble_closed_loop, derive_plant


def _reference_weights(Phi, Psi, theta):
    """phi and psi at one node by the block-triangular Gateaux route."""
    d, U = np.linalg.eigh(1j * theta * Psi)
    sinc = (U * sinhc(d)) @ U.conj().T
    Dinv = np.linalg.inv(delta_matrix(Phi, Psi, theta))
    X = Dinv @ Phi @ np.linalg.inv(Psi)
    tP = theta * Psi
    return sinc @ Dinv, gateaux_sin(tP, X) - gateaux_cos(tP, Dinv) - sinc @ X


def _reference_integrand(cl, theta, lams):
    """The unprojected chi integrand formed node by node from the reference."""
    sweep = spectral_sweep(cl, lams)
    out = []
    for k in range(len(lams)):
        phi, psi = _reference_weights(sweep.Phi[k], sweep.Psi[k], theta)
        Fh = sweep.F[k].conj().T
        mid = (Fh @ (phi + phi.conj().T)
               + cl.J @ Fh @ (psi - psi.conj().T))
        left = np.vstack([sweep.G[k] @ cl.calB, np.eye(cl.m)])
        right = np.hstack([cl.calC @ sweep.G[k], np.eye(cl.nu)])
        node = left @ mid @ right
        node[-cl.m:, -cl.nu:] = 0.0
        out.append(node)
    return np.array(out)


def _synthetic_sweep(d0, Phi_scale=0.3, seed=7):
    """A sweep with prescribed eigenvalues d0 of i Psi, one node per row."""
    d0 = np.asarray(d0, dtype=float)
    k, nu = d0.shape
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((k, nu, nu))
                        + 1j * rng.standard_normal((k, nu, nu)))
    Uh = U.conj().swapaxes(1, 2)
    Psi = -1j * (U * d0[:, None, :]) @ Uh
    B = rng.standard_normal((k, nu, nu)) + 1j * rng.standard_normal((k, nu, nu))
    Phi = Phi_scale * B @ B.conj().swapaxes(1, 2) / nu
    return SpectralSweep(lams=np.arange(k, dtype=float), F=None,
                         Phi=Phi, Psi=Psi, d0=d0, U=U, W=Uh @ Phi @ U,
                         residual=np.zeros(k))


def _max_rel(new, ref):
    """Worst node-wise relative Frobenius gap of two stacks."""
    return float(np.max(np.linalg.norm(new - ref, axis=(1, 2))
                        / np.linalg.norm(ref, axis=(1, 2))))


def test_phi_reduces_to_delta_inverse_when_psi_zero():
    # as Psi -> 0 (kept invertible), sinc(theta Psi) -> I and phi -> Delta^-1
    sweep = _synthetic_sweep([[1e-10, -2e-10, 3e-10]])
    theta = 0.3
    phi, _ = _weights(sweep, theta)
    Delta = delta_matrix(sweep.Phi[0], sweep.Psi[0], theta)
    assert np.allclose(phi[0], np.linalg.inv(Delta), rtol=0, atol=1e-14)


def test_psi_fn_rejects_singular_psi(cl_lqg, quad_fast):
    # with stacked nu=3 weights Psi has rank <= 2 and is singular
    with pytest.raises(InadmissibleError, match="singular"):
        _chi_integrand(cl_lqg, 0.05, [0.5])
    with pytest.raises(InadmissibleError, match="singular"):
        chi_matrix(cl_lqg, 0.05, quad_fast)


def test_psi_fn_finite_difference():
    # the scalar case, where sin'(t p) X - cos'(t p) dinv - sinc(t p) X is
    # explicit by commutative calculus
    Phi = np.array([[[0.7]]], dtype=complex)
    Psi = np.array([[[0.4j]]], dtype=complex)
    theta = 0.3
    sweep = SpectralSweep(lams=np.zeros(1), F=None, Phi=Phi, Psi=Psi,
                          d0=np.array([[-0.4]]), U=np.ones((1, 1, 1)),
                          W=Phi, residual=np.zeros(1))
    _, psi = _weights(sweep, theta)
    tp = complex(theta * Psi[0, 0, 0])
    dinv = 1.0 / complex(delta_matrix(Phi[0], Psi[0], theta)[0, 0])
    X = dinv * complex(Phi[0, 0, 0]) / complex(Psi[0, 0, 0])
    sinc = np.sin(tp) / tp
    expected = np.cos(tp) * X + np.sin(tp) * dinv - sinc * X
    assert np.isclose(complex(psi[0, 0, 0]), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d0", [
    [[0.7, 0.7 + 1e-9, -1.1]],        # nearly equal eigenvalues
    [[-2.0, -2.0 + 1e-12, 0.4]],
    [[0.9, 0.9, -0.5]],               # an exactly repeated eigenvalue
    [[0.7, 0.7 + 1e-5, 1.3], [3.0, -0.2, 0.6]],
])
def test_weights_match_block_triangular_reference(d0):
    sweep = _synthetic_sweep(d0)
    theta = 0.8
    phi, psi = _weights(sweep, theta)
    ref = [_reference_weights(sweep.Phi[k], sweep.Psi[k], theta)
           for k in range(len(sweep.d0))]
    assert _max_rel(phi, np.array([r[0] for r in ref])) <= 1e-12
    assert _max_rel(psi, np.array([r[1] for r in ref])) <= 1e-12


@pytest.mark.parametrize("loop", ["cl_square", "random"])
def test_chi_integrand_matches_block_triangular_reference(loop, request):
    if loop == "random":
        _, _, cl = random_stable_instance(np.random.default_rng(13))
    else:
        cl = request.getfixturevalue(loop)
    theta = theta_for_spec1(cl, 0.4)
    lams = np.concatenate([np.linspace(0.0, 5.0, 41)[1:],
                           np.geomspace(5.0, 1e5, 12)])
    assert _max_rel(_chi_integrand(cl, theta, lams),
                    _reference_integrand(cl, theta, lams)) <= 1e-12


def test_chi_zero_theta_matches_gramian_route(cl_square, quad_fast):
    chi_q, err = chi_matrix(cl_square, 0.0, quad_fast)
    chi_g = chi0(cl_square)
    gap = np.linalg.norm(chi_q - chi_g) / np.linalg.norm(chi_g)
    assert gap <= 1e-6


def test_chi_projection_zero_block(cl_square, quad_fast):
    chi, _ = chi_matrix(cl_square, 0.05, quad_fast)
    m, nu = cl_square.m, cl_square.nu
    assert np.allclose(chi[-m:, -nu:], 0.0)


def _k_factors(plant, K_weight):
    """The zero-padded selection matrices K1 and K2 of the paper."""
    n, m, d, r = plant.n, plant.m, plant.d, plant.r
    nu = K_weight.shape[0]
    K1 = np.zeros((2 * n + nu, n + d))
    K1[:n, n:] = plant.E
    K1[n:2 * n, :n] = np.eye(n)
    K1[2 * n:, n:] = K_weight
    K2 = np.zeros((n + r, 2 * n + m))
    K2[:n, n:2 * n] = np.eye(n)
    K2[n:, :n] = plant.C
    K2[n:, 2 * n:] = plant.D
    return K1, K2


@pytest.mark.parametrize("dims", [None, (4, 4, 2, 2)],
                         ids=["canonical", "n4-m4-d2-r2"])
def test_sandwich_blocks_match_k_factor_product(canonical_plant,
                                                weights_square, dims):
    # the blocks read off chi^T are those of K1^T chi^T K2^T
    rng = np.random.default_rng(5)
    if dims is None:
        plant, K = canonical_plant, weights_square[1]
    else:
        n, m, d, r = dims
        plant = derive_plant(random_plant_spec(rng, n=n, m=m, d=d, r=r))
        K = rng.standard_normal((3, d))
    n, nu = plant.n, K.shape[0]
    chi = rng.standard_normal((2 * n + plant.m, 2 * n + nu))
    K1, K2 = _k_factors(plant, K)
    M = K1.T @ chi.T @ K2.T
    want = (M[:n, :n], M[:n, n:], M[n:, :n])
    for got, ref in zip(sandwich_blocks(plant, K, chi), want):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


#: moves the canonical LQG controller off its stationary point
_PERT = ControllerParams(a=0.05 * np.array([[1.0, -0.5], [0.25, 0.75]]),
                         b=0.05 * np.array([[-0.5], [1.0]]),
                         c=0.05 * np.array([[0.5, -0.25]]))


def test_frechet_derivatives_finite_difference(canonical_plant,
                                               weights_square, cl_square):
    """One deterministic instance of the central gradient check."""
    ctrl = cl_square.ctrl + _PERT
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


@pytest.mark.parametrize("tol", [1e-10, 1e-9])
def test_grid_gradient_matches_adaptive_gradient(tol):
    # criterion 1's loops; the descent sums the gradient on its cost's grid
    rng = np.random.default_rng(2024)
    quad = QuadratureConfig(abs_tol=tol, rel_tol=tol)
    for _ in range(8):
        _, _, cl, theta = random_admissible_instance(rng, perturb=0.2)
        adaptive = frechet_derivatives(cl, theta, quad)
        frozen = frechet_derivatives(cl, theta, quad,
                                     grid=growth_rate_grid(cl, theta, quad))
        blocks = ("dUps_da", "dUps_db", "dUps_dc")
        scale = max(np.max(np.abs(getattr(adaptive, b))) for b in blocks)
        gap = max(np.max(np.abs(getattr(frozen, b) - getattr(adaptive, b)))
                  for b in blocks)
        assert gap <= 1e-9 * scale


@pytest.mark.parametrize("scale", [1.0, 1.01])
def test_gradient_check_sees_a_scaled_gradient(monkeypatch, canonical_plant,
                                               weights_square, cl_square,
                                               scale):
    cl = assemble_closed_loop(canonical_plant, weights_square,
                              cl_square.ctrl + _PERT)
    exact = grad.frechet_derivatives

    def scaled(*args, **kwargs):
        r = exact(*args, **kwargs)
        return dataclasses.replace(r, dUps_da=scale * r.dUps_da,
                                   dUps_db=scale * r.dUps_db,
                                   dUps_dc=scale * r.dUps_dc)

    monkeypatch.setattr(grad, "frechet_derivatives", scaled)
    check = grad.gradient_check(cl, 0.05)
    assert len(check.rows) == 8
    assert (check.max_rel_err > 1e-5) == (scale != 1.0)
    # a uniform scale keeps the similarity invariance: only the finite
    # differences can see it
    assert check.invariance_residual <= 1e-12


def test_optimality_residual_zero_at_lqg_limit(cl_square):
    # theta -> 0: the LQG controller is stationary for the Gramian gradient
    blocks = sandwich_blocks(cl_square.plant, cl_square.K, chi0(cl_square))
    resid = np.sqrt(sum(np.sum(b**2) for b in blocks))
    assert resid <= 1e-8 * (1 + np.linalg.norm(chi0(cl_square)))


@pytest.mark.parametrize("seed", [13, 16, 41])
def test_gradient_similarity_invariance(seed):
    # (T a T^-1, T b, c T^-1) leaves the cost unchanged, so the derivative
    # along T = I + eps E vanishes for every E
    _, ctrl, cl = random_stable_instance(np.random.default_rng(seed))
    report = frechet_derivatives(cl, theta_for_spec1(cl, 0.4))
    Ga, Gb, Gc = report.dUps_da, report.dUps_db, report.dUps_dc
    a, b, c = ctrl.a, ctrl.b, ctrl.c
    resid = Ga @ a.T - a.T @ Ga + Gb @ b.T - c.T @ Gc
    scale = max(np.linalg.norm(Ga) * np.linalg.norm(a),
                np.linalg.norm(Gb) * np.linalg.norm(b),
                np.linalg.norm(Gc) * np.linalg.norm(c))
    assert np.linalg.norm(resid) <= 1e-10 * scale


def _reject_frozen_grid_steps(monkeypatch, cl, above):
    """Make every frozen-grid growth rate whose controller lies more than
    `above` from cl's raise InadmissibleError, as a step out of the
    admissible set would."""
    exact = grad.qef_growth_rate

    def rate(cl_, theta, quad=None, grid=None):
        step = max(np.max(np.abs(getattr(cl_.ctrl, f) - getattr(cl.ctrl, f)))
                   for f in "abc")
        if grid is not None and step > above:
            raise InadmissibleError("step leaves the admissible set")
        return exact(cl_, theta, quad, grid)

    monkeypatch.setattr(grad, "qef_growth_rate", rate)


def test_gradient_check_skips_steps_that_leave_the_admissible_set(
        monkeypatch):
    _, _, cl, theta = random_admissible_instance(np.random.default_rng(0),
                                                 0.25, 0.2)
    # the widest steps of the ladder (above 1e-2) are skipped and the
    # narrower ones still agree (max_abs_err read 2.3e-9, 7.3e-10 with
    # every step)
    _reject_frozen_grid_steps(monkeypatch, cl, 1e-2)
    check = grad.gradient_check(cl, theta)
    assert len(check.rows) == 8
    assert all(np.isfinite(row[4]) for row in check.rows)
    assert check.max_abs_err <= 1e-8

    # with every step rejected no pair of estimates is left
    _reject_frozen_grid_steps(monkeypatch, cl, -1.0)
    with pytest.raises(InadmissibleError,
                       match="finite-difference steps leave the admissible"):
        grad.gradient_check(cl, theta)


def _counted_sweeps(monkeypatch):
    """A list that grows by one for every sweep the gradient makes."""
    calls = []
    sweep = grad.spectral_sweep

    def counted(cl, lams):
        calls.append(len(lams))
        return sweep(cl, lams)
    monkeypatch.setattr(grad, "spectral_sweep", counted)
    return calls


def test_gradient_reuses_the_cost_sweep(monkeypatch):
    # pool plant 16 at spec1 0.4: the sweep its frozen-grid cost carries
    # gives the gradient bit for bit, with no sweep of its own
    _, _, cl = random_stable_instance(np.random.default_rng(16))
    theta = theta_for_spec1(cl, 0.4)
    quad = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    adaptive = qef_growth_rate(cl, theta, quad)
    grid = adaptive.grid
    cost = qef_growth_rate(cl, theta, quad, grid=grid)
    # an adaptive sum carries no sweep, a frozen-grid sum its one sweep
    assert adaptive.sweep is None and cost.sweep is not None
    calls = _counted_sweeps(monkeypatch)
    reused = frechet_derivatives(cl, theta, quad, grid=grid, sweep=cost.sweep)
    assert calls == []
    own = frechet_derivatives(cl, theta, quad, grid=grid)
    assert calls == [len(cost.sweep.lams)]
    for block in ("dUps_da", "dUps_db", "dUps_dc"):
        assert np.array_equal(getattr(reused, block), getattr(own, block))


def test_gradient_ignores_a_sweep_of_other_nodes(monkeypatch, cl_square,
                                                 quad_fast):
    theta = 0.05
    grid = growth_rate_grid(cl_square, theta, quad_fast)
    other = spectral_sweep(cl_square, [0.5, 1.0])
    calls = _counted_sweeps(monkeypatch)
    chi, _ = chi_matrix(cl_square, theta, quad_fast, grid=grid, sweep=other)
    assert len(calls) == 1 and calls[0] > 2
    assert np.array_equal(chi, chi_matrix(cl_square, theta, quad_fast,
                                          grid=grid)[0])
