"""Gradient matrix: closed-form weights against the block-triangular
reference and high-precision evaluations, dual-route limit, finite
differences, similarity invariance, the classical limit."""

import dataclasses
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest
import scipy.linalg

from qefsyn import freq, grad
from qefsyn.errors import InadmissibleError, NumericalError
from qefsyn.freq import (
    QuadratureConfig,
    SpectralSweep,
    default_lambda_max,
    delta_matrix,
    growth_rate_grid,
    qef_growth_rate,
    sinhc,
    spectral_sweep,
    theta_for_spec1,
)
from qefsyn.grad import (
    _chi_integrand,
    _coth_dd,
    _weights,
    chi_matrix,
    frechet_derivatives,
    gradient_check,
    optimality_residual,
    sandwich_blocks,
)
from qefsyn.gramians import chi0
from qefsyn.instances import (
    canonical_weights_lqg,
    random_admissible_instance,
    random_plant_spec,
    random_stable_instance,
)
from qefsyn.matfun import gateaux_cos, gateaux_sin
from qefsyn.model import (
    ClosedLoop,
    ControllerParams,
    assemble_closed_loop,
    derive_plant,
)


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
    """A sweep with prescribed eigenvalues d0 of i Psi, one node per row
    (the sweep holds them in ascending order), and a random square F whose
    Phi = F F* has the largest eigenvalue Phi_scale at every node:
    admissible at every theta < 1 / Phi_scale, as tanhc <= 1."""
    d0 = np.asarray(d0, dtype=float)
    k, nu = d0.shape
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((k, nu, nu))
                        + 1j * rng.standard_normal((k, nu, nu)))
    Psi = -1j * (U * d0[:, None, :]) @ U.conj().swapaxes(1, 2)
    F = (rng.standard_normal((k, nu, nu))
         + 1j * rng.standard_normal((k, nu, nu)))
    F *= np.sqrt(Phi_scale / np.linalg.eigvalsh(
        F @ F.conj().swapaxes(1, 2))[:, -1:, None])
    return _sweep_of(F, Psi)


def _sweep_of(F, Psi):
    """The SpectralSweep of prescribed F and Psi, Phi = F F*."""
    return SpectralSweep(lams=np.arange(len(F), dtype=float), F=F,
                         Phi=F @ F.conj().swapaxes(1, 2), Psi=Psi,
                         residual=np.zeros(len(F)))


def _max_rel(new, ref):
    """Worst node-wise relative Frobenius gap of two stacks."""
    return float(np.max(np.linalg.norm(new - ref, axis=(1, 2))
                        / np.linalg.norm(ref, axis=(1, 2))))


def _full_weights(sweep, theta):
    """phi = U phi~ U* and psi = U psi~ U* from _weights' eigenbasis ones."""
    Uh = sweep.U.conj().swapaxes(1, 2)
    return tuple(sweep.U @ w @ Uh for w in _weights(sweep, theta))


def test_phi_reduces_to_delta_inverse_when_psi_zero():
    # as Psi -> 0 (kept invertible), sinc(theta Psi) -> I and phi -> Delta^-1
    sweep = _synthetic_sweep([[1e-10, -2e-10, 3e-10]])
    theta = 0.3
    phi, _ = _full_weights(sweep, theta)
    Delta = delta_matrix(sweep.Phi[0], sweep.Psi[0], theta)
    assert np.allclose(phi[0], np.linalg.inv(Delta), rtol=0, atol=1e-14)


def _mp_coth_dd(a, b):
    """(kappa(a) - kappa(b)) / (a - b) for kappa(x) = x coth x, kappa'(a)
    where a = b, in arithmetic of 60 digits plus twice the decades by
    which max(|a|, |b|) lies below 1 (kappa - 1 is about x^2 / 3)."""
    size = max(abs(a), abs(b))
    with mpmath.workdps(60 + 2 * max(0, int(-np.log10(size or 1.0)))):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def kappa(x):
            return x * mpmath.coth(x) if x else mpmath.mpf(1)
        if a != b:
            return float((kappa(a) - kappa(b)) / (a - b))
        return float(mpmath.coth(a) - a / mpmath.sinh(a)**2) if a else 0.0


def test_coth_coefficients_are_the_rounded_taylor_coefficients():
    # (x coth x) sinhc(x) = cosh(x): k_n = 1/(2n)! - sum over i < n of
    # k_i / (2(n - i) + 1)!, in exact rational arithmetic
    k = []
    for n in range(len(grad._COTH)):
        k.append(Fraction(1, factorial(2 * n))
                 - sum(ki / factorial(2 * (n - i) + 1)
                       for i, ki in enumerate(k)))
    assert grad._COTH == tuple(float(kn) for kn in k)
    # the degrees reach every |x| <= 1, and grow with it
    assert grad._SERIES_LIMIT[-1] == 1.0
    assert list(grad._SERIES_LIMIT) == sorted(grad._SERIES_LIMIT)


#: pairs (a, b) for the divided differences of x coth x
_COTH_PAIRS = {
    "confluent": [(x, x) for x in (1e-300, 1e-8, 0.03, 0.7, 1.0, 2.5, 30.0)],
    "zero": [(0.0, 0.0), (0.0, 1e-9), (0.2, 0.0), (0.0, -3.0), (-1.0, 0.0)],
    "opposite": [(0.3, -0.3), (0.3, -0.30000003), (-0.9, 0.1), (-2.0, 1.5),
                 (5.0, -5.1), (-1.2, 1.2)],
    "near-tie": [(0.1, 0.1 + 1e-12), (1e-5, 2e-5), (-0.5, -0.5 - 1e-9),
                 (0.99, 1.01), (1.0, 1.4999), (1.0, 1.5001)],
    "large": [(12.0, 12.2), (-20.0, -19.7), (40.0, 3.0), (8.0, 8.0 + 1e-9),
              (-35.0, 0.25), (3.0, 3.75)],
}


@pytest.mark.parametrize("case", sorted(_COTH_PAIRS))
def test_coth_divided_differences_match_high_precision(case):
    # within 3.5e-16 relative where |a|, |b| <= 1 and 7.3e-15 up to 40 when
    # measured on a scan of 6000 pairs; a = -b gives exactly 0
    a, b = np.array(_COTH_PAIRS[case]).T
    got = _coth_dd(a, b)
    for ai, bi, g in zip(a, b, got):
        ref = _mp_coth_dd(ai, bi)
        tol = 1e-15 if max(abs(ai), abs(bi)) <= 1.0 else 3e-14
        assert abs(g - ref) <= tol * abs(ref), (ai, bi, g, ref)


def _mp_weights(d0, W, theta, form):
    """phi~ = U* phi U and psi~ = U* psi U at one node in 60-digit
    arithmetic, from its d0 and W taken as exact.  `form` "inverse" is
    L_sin o X~ - L_cos o Delta~^-1 - diag(sinhc x) X~ with
    X~ = Delta~^-1 W diag(i / d0), the Psi^-1 form; "sinc" is
    theta L_sinc o (Delta~^-1 W) - L_cos o Delta~^-1, which needs no Psi^-1.
    L_f holds the divided differences of f on the eigenvalues -i x."""
    with mpmath.workdps(60):
        nu, th = len(d0), mpmath.mpf(theta)
        z = [-1j * th * mpmath.mpf(v) for v in d0]

        def sinc(w):
            return mpmath.sin(w) / w if w else mpmath.mpf(1)

        def dsinc(w):
            return (w * mpmath.cos(w) - mpmath.sin(w)) / w**2 if w else 0

        def dd(f, df, j, k):
            if z[j] == z[k]:
                return df(z[j])
            return (f(z[j]) - f(z[k])) / (z[j] - z[k])
        Wm = mpmath.matrix([[complex(w) for w in row] for row in W])
        Dt = mpmath.matrix(nu, nu)
        for j in range(nu):
            for k in range(nu):
                Dt[j, k] = ((mpmath.cos(z[j]) if j == k else 0)
                            - th * Wm[j, k] * sinc(z[k]))
        Di = Dt**-1
        Yt = Di * Wm
        phi = np.empty((nu, nu), complex)
        psi = np.empty((nu, nu), complex)
        for j in range(nu):
            for k in range(nu):
                l_cos = dd(mpmath.cos, lambda w: -mpmath.sin(w), j, k)
                if form == "sinc":
                    val = th * dd(sinc, dsinc, j, k) * Yt[j, k]
                else:
                    xt = Yt[j, k] * 1j / mpmath.mpf(d0[k])
                    val = (dd(mpmath.sin, mpmath.cos, j, k) - sinc(z[j])) * xt
                psi[j, k] = complex(val - l_cos * Di[j, k])
                phi[j, k] = complex(sinc(z[j]) * Di[j, k])
        return phi, psi


def _node_rel(new, ref):
    return float(np.linalg.norm(new - ref) / np.linalg.norm(ref))


#: frequencies from near 0 far into the 1/lambda tail
_LAMS = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 28)])


def test_weights_match_the_psi_inverse_form_in_high_precision():
    # nu = 2, criterion 1's loops: the form with Psi^-1, summed in 60
    # digits, agrees to 9.9e-16 per node when measured; in double
    # precision that form lost up to 1e-5 relative in the tail
    rng = np.random.default_rng(2024)
    for _ in range(2):
        _, _, cl, theta = random_admissible_instance(rng, perturb=0.2)
        sweep = spectral_sweep(cl, _LAMS)
        phit, psit = _weights(sweep, theta)
        for k in range(len(_LAMS)):
            phi, psi = _mp_weights(sweep.d0[k], sweep.W[k], theta, "inverse")
            assert _node_rel(phit[k], phi) <= 1e-14
            assert _node_rel(psit[k], psi) <= 1e-14


@pytest.mark.parametrize("loop", ["canonical", "seed0"])
def test_weights_at_a_singular_psi_match_the_sinc_form(loop, cl_lqg):
    # nu = 3 stacked weights: Psi = F J F* has rank 2, one x is zero to
    # rounding, and the Psi^-1 form is undefined; the sinc form
    # theta L_sinc o Delta~^-1 W - L_cos o Delta~^-1 agrees to 1.8e-15 per
    # node when measured
    if loop == "canonical":
        cl, theta = cl_lqg, 0.05
    else:
        _, _, cl = random_stable_instance(np.random.default_rng(0),
                                          canonical_weights_lqg())
        theta = theta_for_spec1(cl, 0.4)
    sweep = spectral_sweep(cl, _LAMS)
    assert np.all(np.min(np.abs(sweep.d0), axis=1)
                  <= 1e-15 * np.max(np.abs(sweep.d0), axis=1))
    phit, psit = _weights(sweep, theta)
    for k in range(len(_LAMS)):
        phi, psi = _mp_weights(sweep.d0[k], sweep.W[k], theta, "sinc")
        assert _node_rel(phit[k], phi) <= 1e-14
        assert _node_rel(psit[k], psi) <= 1e-14


def _psi_inverse_weights(sweep, theta):
    """phi~ and psi~ by the Psi^-1 product form in double precision:
    L_sin o X~ - L_cos o Delta~^-1 - diag(sinhc x) X~,
    X~ = Delta~^-1 W diag(i / d0), with L_sin and L_cos in product form."""
    d0, W = sweep.d0, sweep.W
    x = theta * d0
    sx = sinhc(x)
    Dinv = np.linalg.inv(np.cosh(x)[:, :, None] * np.eye(d0.shape[1])
                         - theta * W * sx[:, None, :])
    Xt = (Dinv @ W) * (1j / d0)[:, None, :]
    half_sum = 0.5 * (x[:, :, None] + x[:, None, :])
    dd = sinhc(0.5 * (x[:, :, None] - x[:, None, :]))
    psit = (np.cosh(half_sum) * dd * Xt - 1j * np.sinh(half_sum) * dd * Dinv
            - sx[:, :, None] * Xt)
    return sx[:, :, None] * Dinv, psit


def _flat_grad(report):
    return np.concatenate([report.dUps_da.ravel(), report.dUps_db.ravel(),
                           report.dUps_dc.ravel()])


def test_gradient_matches_the_psi_inverse_form(monkeypatch):
    # nu = 2, criterion 1's loops, one frozen grid each: within 5.0e-15 of
    # the largest entry when measured on these and the 20 synthesis-pool
    # plants at spec1 0.4
    rng = np.random.default_rng(2024)
    quad = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    for _ in range(4):
        _, _, cl, theta = random_admissible_instance(rng, perturb=0.2)
        grid = growth_rate_grid(cl, theta, quad)
        new = _flat_grad(frechet_derivatives(cl, theta, quad,
                                                    grid=grid))
        with monkeypatch.context() as m:
            m.setattr(grad, "_weights", _psi_inverse_weights)
            old = _flat_grad(frechet_derivatives(cl, theta, quad,
                                                        grid=grid))
        assert np.max(np.abs(new - old)) <= 5e-14 * np.max(np.abs(old))


def test_psi_fn_finite_difference():
    # the scalar case, where sin'(t p) X - cos'(t p) dinv - sinc(t p) X is
    # explicit by commutative calculus
    Phi = np.array([[[0.7]]], dtype=complex)
    Psi = np.array([[[0.4j]]], dtype=complex)
    theta = 0.3
    sweep = SpectralSweep(lams=np.zeros(1), F=None, Phi=Phi, Psi=Psi,
                          residual=np.zeros(1))
    _, psi = _full_weights(sweep, theta)
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
    phi, psi = _full_weights(sweep, theta)
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


def test_chi_integrand_matches_the_reference_at_direct_solve_nodes(
        monkeypatch, cl_multimode):
    # the n = 4 multimode loop: cond(V) is 6.6e4, so the residual bound
    # sends the nodes near its eigenvalues through the stacked solve, whose
    # G calB and calC G come from the solved G; nu = 4 takes the np.linalg
    # branch of the weights; 5.3e-13 when measured
    cl = cl_multimode
    theta = theta_for_spec1(cl, 0.4)
    solved = []
    solve = freq._solve

    def spy(calA, lams):
        solved.extend(lams)
        return solve(calA, lams)
    monkeypatch.setattr(freq, "_solve", spy)
    lams = np.concatenate([np.linspace(0.0, 5.0, 41)[1:],
                           np.geomspace(5.0, 1e5, 12)])
    got = _chi_integrand(cl, theta, lams)
    assert 0 < len(solved) < len(lams)
    assert _max_rel(got, _reference_integrand(cl, theta, lams)) <= 1e-12


def _mp_resolvent_products(cl, lam):
    """G calB and calC G at one frequency in 40-digit arithmetic."""
    with mpmath.workdps(40):
        shifted = (1j * mpmath.mpf(lam) * mpmath.eye(cl.calA.shape[0])
                   - mpmath.matrix(cl.calA.tolist()))
        G = shifted**-1
        return (np.array((G * mpmath.matrix(cl.calB.tolist())).tolist(),
                         dtype=complex),
                np.array((mpmath.matrix(cl.calC.tolist()) * G).tolist(),
                         dtype=complex))


@pytest.mark.parametrize("seed", [21, 41])
def test_resolvent_products_match_high_precision(seed):
    # the synthesis-pool plants with the worst-conditioned eigenvectors
    # (cond(V) 6.4e3 and 1.6e4), on their growth-rate grid at spec1 0.4:
    # the modal G calB and calC G are as accurate as G @ calB and
    # calC @ G (worst 4.3e-13 and 2.8e-13 against 4.3e-13 and 2.9e-13
    # when measured)
    _, _, cl = random_stable_instance(np.random.default_rng(seed))
    theta = theta_for_spec1(cl, 0.4)
    quad = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    sweep = qef_growth_rate(cl, theta, quad,
                            grid=growth_rate_grid(cl, theta, quad)).sweep
    new = (sweep.resolvent(right=cl.calB), sweep.resolvent(left=cl.calC))
    old = (sweep.G @ cl.calB, cl.calC @ sweep.G)
    refs = [_mp_resolvent_products(cl, lam) for lam in sweep.lams]
    for side in range(2):
        ref = np.array([r[side] for r in refs])
        worst_new, worst_old = _max_rel(new[side], ref), _max_rel(old[side],
                                                                  ref)
        assert worst_new <= min(1e-12, 1.1 * worst_old)


@pytest.mark.parametrize("loop", ["seed0", "stacked", "multimode"])
def test_phi_is_the_inverse_of_the_hermitian_h(loop, cl_multimode):
    # phi~ = diag(sinhc x) Delta~^-1 = H^-1 at nu = 2 (adj/det), 3 and 4
    # (np.linalg.inv), at spec1 0.9; within 2.2e-15 when measured
    if loop == "multimode":
        cl = cl_multimode
    else:
        _, _, cl = random_stable_instance(
            np.random.default_rng(0),
            canonical_weights_lqg() if loop == "stacked" else None)
    theta = theta_for_spec1(cl, 0.9)
    lam_max = default_lambda_max(cl.calA)
    sweep = spectral_sweep(cl, np.concatenate([
        np.linspace(0.0, lam_max, 200), lam_max * np.geomspace(1.0, 1e4, 20)]))
    x = theta * sweep.d0
    Dt = (np.cosh(x)[:, :, None] * np.eye(cl.nu)
          - theta * sweep.W * sinhc(x)[:, None, :])
    assert cl.nu == {"seed0": 2, "stacked": 3, "multimode": 4}[loop]
    assert _max_rel(_weights(sweep, theta)[0],
                    sinhc(x)[:, :, None] * np.linalg.inv(Dt)) <= 1e-14


@pytest.mark.parametrize("nu", [2, 3])
def test_weights_raise_at_the_first_failing_node(nu):
    # H = diag(x coth x) - theta W is positive definite exactly where the
    # cost's factorization succeeds; node 2 of 4 is pushed out of the
    # admissible set, and a failed resolvent decides only where it comes
    # first in node order
    d0 = np.tile([0.4, -0.3, 0.2][:nu], (4, 1))
    theta = 0.8
    sweep = _synthetic_sweep(d0)
    F = sweep.F.copy()
    F[2] *= np.sqrt(10.0)
    bad = _sweep_of(F, sweep.Psi)
    with pytest.raises(InadmissibleError, match="spectral admissibility"):
        bad.log_det_delta(theta)
    with pytest.raises(InadmissibleError, match="spectral admissibility"):
        _weights(bad, theta)
    for failed, error, match in ((3, InadmissibleError, "spectral"),
                                 (1, NumericalError, "lambda=1.0")):
        residual = np.zeros(4)
        residual[failed] = 1.0
        with pytest.raises(error, match=match):
            _weights(dataclasses.replace(bad, residual=residual), theta)
    _weights(sweep, theta)


def test_gradient_forms_no_stacked_resolvent(monkeypatch, cl_square,
                                             quad_fast):
    # G calB and calC G are modal products: the k x 2n x 2n G is never read
    theta = 0.05
    grid = growth_rate_grid(cl_square, theta, quad_fast)
    cost = qef_growth_rate(cl_square, theta, quad_fast, grid=grid)
    want = frechet_derivatives(cl_square, theta, quad_fast, grid=grid)

    def formed(sweep):
        raise AssertionError("the stacked resolvent was formed")
    monkeypatch.setattr(SpectralSweep, "G", property(formed))
    for sweep in (None, cost.sweep):
        got = frechet_derivatives(cl_square, theta, quad_fast, grid=grid,
                                  sweep=sweep)
        assert np.array_equal(_flat_grad(got), _flat_grad(want))


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
    # nor a sweep of another loop at the same nodes: the seed-3 loop's
    # sweep, reused for the seed-16 loop, gave an entry of dUps/da of
    # 0.0597 where the loop's own sweep gives -0.0296
    cl = random_stable_instance(np.random.default_rng(16))[2]
    theta = theta_for_spec1(cl, 0.4)
    grid = growth_rate_grid(cl, theta, quad_fast)
    other = qef_growth_rate(random_stable_instance(
        np.random.default_rng(3))[2], theta, quad_fast, grid=grid).sweep
    calls.clear()
    reused = frechet_derivatives(cl, theta, quad_fast, grid=grid, sweep=other)
    assert calls == [len(other.lams)]
    own = frechet_derivatives(cl, theta, quad_fast, grid=grid)
    for block in ("dUps_da", "dUps_db", "dUps_dc"):
        assert np.array_equal(getattr(reused, block), getattr(own, block))


def _perturbed_stacked_loop(seed):
    """The stacked-weight (nu = 3) loop of a seed's plant, with its LQG
    controller moved by 0.05 times a standard normal draw of the same
    generator."""
    rng = np.random.default_rng(seed)
    weights = canonical_weights_lqg()
    plant, ctrl, _ = random_stable_instance(rng, weights)
    ctrl = ctrl + ControllerParams(
        **{f: 0.05 * rng.standard_normal(getattr(ctrl, f).shape)
           for f in "abc"})
    return assemble_closed_loop(plant, weights, ctrl)


@pytest.mark.parametrize("seed", range(6))
def test_gradient_check_on_stacked_weights(seed):
    # Psi has rank 2 at nu = 3; max_rel_err read 5.1e-12 to 2.9e-11 and
    # the invariance residual at most 6.2e-15 on seeds 0-5 when measured
    cl = _perturbed_stacked_loop(seed)
    assert cl.nu == 3
    check = gradient_check(cl, theta_for_spec1(cl, 0.4),
                           QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10))
    assert check.max_rel_err <= 3e-10
    assert check.invariance_residual <= 1e-13


# The classical limit.  With J = 0, Psi = F J F* vanishes and
# Delta = I - theta Phi: the cost is the risk-sensitive (LEQG) cost of the
# equivalent classical system, in closed form by Riccati equations.  J
# enters only Psi and the gradient's J F*, so patching ClosedLoop.J to 0
# gives that system exactly.


@pytest.fixture()
def classical(monkeypatch):
    monkeypatch.setattr(ClosedLoop, "J", property(
        lambda cl: np.zeros((cl.m, cl.m))))


def _central_controller(plant, weights, theta):
    """The central H-infinity controller at gamma^-2 = theta, the minimizer
    of the classical cost (Zhou, Doyle & Glover, Robust and Optimal
    Control, 1996): X and Y solve the control and filter Riccati
    equations with the extra terms theta X B B^T X and theta Y S^T S Y."""
    S, K = weights
    A, B, E, C, D = plant.A, plant.B, plant.E, plant.C, plant.D
    n, w, z = A.shape[0], B.shape[1], S.shape[0]
    X = scipy.linalg.solve_continuous_are(
        A, np.hstack([E, B]), S.T @ S,
        scipy.linalg.block_diag(K.T @ K, -np.eye(w) / theta),
        s=np.hstack([S.T @ K, np.zeros((n, w))]))
    Y = scipy.linalg.solve_continuous_are(
        A.T, np.hstack([C.T, S.T]), B @ B.T,
        scipy.linalg.block_diag(D @ D.T, -np.eye(z) / theta),
        s=np.hstack([B @ D.T, np.zeros((n, z))]))
    F = -np.linalg.solve(K.T @ K, E.T @ X + K.T @ S)
    L = -np.linalg.solve(D @ D.T, C @ Y + D @ B.T).T
    Z = np.linalg.inv(np.eye(n) - theta * Y @ X)
    return ControllerParams(
        a=A + theta * B @ B.T @ X + E @ F + Z @ L @ (C + theta * D @ B.T @ X),
        b=-Z @ L, c=F)


_WEIGHTS = {"square": None, "stacked": canonical_weights_lqg()}


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
@pytest.mark.parametrize("seed", range(4))
def test_classical_growth_rate_is_a_riccati_trace(classical, seed, weights):
    # (theta / 2) tr(calB^T X calB), X the stabilizing solution of
    # calA^T X + X calA + theta X calB calB^T X + calC^T calC = 0; within
    # 2.1e-14 relative at spec1 0.9 when measured
    _, _, cl = random_stable_instance(np.random.default_rng(seed),
                                      _WEIGHTS[weights])
    theta = theta_for_spec1(cl, 0.9)
    X = scipy.linalg.solve_continuous_are(
        cl.calA, cl.calB, cl.calC.T @ cl.calC,
        -np.eye(cl.calB.shape[1]) / theta)
    ref = 0.5 * theta * np.trace(cl.calB.T @ X @ cl.calB)
    ups = qef_growth_rate(cl, theta,
                          QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11))
    assert abs(ups - ref) <= 1e-13 * ref


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
@pytest.mark.parametrize("seed", range(4))
def test_classical_gradient_vanishes_at_the_central_controller(
        classical, seed, weights):
    # Psi = 0 at every node; the residual read at most 8.7e-15 at the
    # central controller and 1.3e-2 to 6.9e-2 at the LQG one when measured
    plant, _, cl_lqg = random_stable_instance(np.random.default_rng(seed),
                                              _WEIGHTS[weights])
    theta = theta_for_spec1(cl_lqg, 0.4)
    cl = assemble_closed_loop(plant, (cl_lqg.S, cl_lqg.K),
                              _central_controller(plant, (cl_lqg.S, cl_lqg.K),
                                                  theta))
    assert not np.any(spectral_sweep(cl, [0.0, 1.0]).d0)
    quad = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    assert optimality_residual(frechet_derivatives(cl, theta, quad)) <= 1e-13
    assert optimality_residual(frechet_derivatives(cl_lqg, theta,
                                                   quad)) >= 1e-2
