"""Quadrature machinery, per-frequency quantities, growth rate, admissibility."""

import itertools
import logging
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
import qefsyn.freq as freq
from qefsyn.freq import (
    AdmissibilityReport,
    QuadratureConfig,
    _adaptive,
    _panels,
    check_admissible,
    default_lambda_max,
    delta_matrix,
    growth_rate_grid,
    integrate_half_line,
    is_hurwitz,
    qef_growth_rate,
    resonance_breakpoints,
    spectral_sweep,
    tanhc,
    theta_for_spec1,
)
from qefsyn.grad import chi_matrix, frechet_derivatives, gradient_check
from qefsyn.gramians import chi0, lqg_cost
from qefsyn.instances import random_plant_spec, random_stable_instance
from qefsyn.model import ControllerParams, assemble_closed_loop, derive_plant
from qefsyn.oracle import build_operators
from qefsyn.synth import lqg_controller


def _vec(f):
    return lambda lams: np.array([[f(lam)] for lam in lams])


def test_half_line_lorentzian():
    # int_0^inf 1/(1+x^2) dx = pi/2; the tail map handles the 1/x^2 decay
    quad = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    val, err, _ = integrate_half_line(_vec(lambda x: 1.0 / (1.0 + x * x)),
                                      10.0, quad)
    assert abs(val[0] - np.pi / 2) <= 1e-10
    assert err <= 1e-10


def test_half_line_exact_tail_decay():
    # f = 1/(1+x)^2 integrates to 1; the u = 1/x substitution is exact-ish
    quad = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    val, _, _ = integrate_half_line(_vec(lambda x: (1.0 + x) ** -2), 5.0, quad)
    assert abs(val[0] - 1.0) <= 1e-10


def test_frozen_grid_reproduces_adaptive():
    quad = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    f = _vec(lambda x: np.exp(-x) * np.cos(3 * x))
    val, _, grid = integrate_half_line(f, 20.0, quad)
    val2, _, grid2 = integrate_half_line(f, 20.0, quad, grid=grid)
    assert grid2 is grid
    assert abs(val[0] - val2[0]) <= 1e-14


def test_breakpoints_seed_subdivision():
    # a spike much narrower than the initial panel is caught only when a
    # breakpoint lands near it
    eps = 1e-2
    spike = _vec(lambda x: 1.0 / (eps**2 + (x - 7.0) ** 2))
    quad = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    val, err, _ = integrate_half_line(spike, 50.0, quad,
                                      breakpoints=(6.99, 7.0, 7.01))
    exact = (np.pi / 2 + np.arctan(7.0 / eps)) / eps
    assert abs(val[0] - exact) <= 1e-6 * exact


def test_resonance_breakpoints_cover_imag_parts(cl_square):
    lam_max = default_lambda_max(cl_square.calA)
    pts = resonance_breakpoints(cl_square.calA, lam_max)
    omegas = {abs(e.imag) for e in np.linalg.eigvals(cl_square.calA)
              if 0 < abs(e.imag) < lam_max}
    for w in omegas:
        assert any(abs(p - w) < 1e-9 for p in pts)


def test_resolvent_identity(cl_square):
    G = spectral_sweep(cl_square, [1.3]).G[0]
    assert np.allclose((1j * 1.3 * np.eye(4) - cl_square.calA) @ G, np.eye(4))


def test_transfer_conjugate_evenness(cl_square):
    # F(-lambda) = conj(F(lambda)) for real state-space matrices
    F1, F2 = spectral_sweep(cl_square, [0.7, -0.7]).F
    assert np.allclose(F2, F1.conj())


def test_spectral_pair_symmetry_classes(cl_square):
    sweep = spectral_sweep(cl_square, [0.9])
    Phi, Psi = sweep.Phi[0], sweep.Psi[0]
    assert np.allclose(Phi, Phi.conj().T)
    assert np.allclose(Psi, -Psi.conj().T)
    assert np.min(np.linalg.eigvalsh(Phi)) >= -1e-12
    # the cached eigenbasis diagonalises i Psi
    U, d0 = sweep.U[0], sweep.d0[0]
    assert np.allclose(U @ np.diag(d0) @ U.conj().T, 1j * Psi)


def test_delta_matrix_theta_zero(cl_square):
    sweep = spectral_sweep(cl_square, [0.4])
    assert np.allclose(delta_matrix(sweep.Phi[0], sweep.Psi[0], 0.0),
                       np.eye(2))


def test_log_det_delta_real_and_matches_direct(cl_square):
    theta = 0.05
    sweep = spectral_sweep(cl_square, [0.8])
    val = sweep.log_det_delta(theta)
    direct = np.linalg.slogdet(delta_matrix(sweep.Phi[0], sweep.Psi[0],
                                            theta))
    assert val.shape == (1,) and val.dtype == float
    assert np.isclose(val[0], direct[1], atol=1e-10)


def test_log_det_delta_inadmissible_at_large_theta():
    # a classical first-order lag (J = 0, so Psi = 0 and theta mu =
    # theta / (1 + lambda^2)): at theta = 2 the spectral condition fails by
    # a clear margin below lambda = 1, not by round-off
    lag = SimpleNamespace(calA=np.array([[-1.0]]), calB=np.array([[1.0]]),
                          calC=np.array([[1.0]]), J=np.zeros((1, 1)))
    lams = np.linspace(0.0, 5.0, 60)
    theta = 2.0
    sweep = spectral_sweep(lag, lams)
    assert np.allclose(sweep.spec1(theta), theta / (1.0 + lams**2))
    with pytest.raises(InadmissibleError):
        sweep.log_det_delta(theta)
    admissible = lams[lams > 1.1]
    assert np.allclose(spectral_sweep(lag, admissible).log_det_delta(theta),
                       np.log1p(-theta / (1.0 + admissible**2)))
    # a single inadmissible node is found wherever it stands
    for lams in ([0.5], [3.0, 0.5], [0.5, 3.0]):
        with pytest.raises(InadmissibleError):
            spectral_sweep(lag, lams).log_det_delta(4.0)


def test_sweep_log_det_matches_direct_on_grid_nodes(cl_square, quad_fast):
    # body nodes and tail nodes (lambda = 1/u) of an adaptive grid, each
    # compared with slogdet of the directly formed Delta
    theta = 0.05
    grid = growth_rate_grid(cl_square, theta, quad_fast)

    def nodes(edges):
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = np.linspace(-0.99, 0.99, 7)
        return (mid[:, None] + half[:, None] * x).ravel()

    for lams in (nodes(grid.body_edges), 1.0 / nodes(grid.tail_edges)):
        sweep = spectral_sweep(cl_square, lams)
        batched = sweep.log_det_delta(theta)
        for k in range(len(lams)):
            sign, logdet = np.linalg.slogdet(
                delta_matrix(sweep.Phi[k], sweep.Psi[k], theta))
            assert sign.real > 0
            assert abs(batched[k] - logdet) <= 1e-12 * (1 + abs(logdet))


def test_sweep_raises_first_failing_node():
    # a classical first-order lag (J = 0, so Psi = 0 and theta mu =
    # theta / (1 + lambda^2)) next to an uncoupled undamped mode whose
    # shift at lambda = 7 is exactly singular
    loop = SimpleNamespace(
        calA=scipy.linalg.block_diag([[-1.0]], [[0.0, 7.0], [-7.0, 0.0]]),
        calB=np.array([[1.0], [0.0], [0.0]]),
        calC=np.array([[1.0, 0.0, 0.0]]),
        J=np.zeros((1, 1)))
    theta, ok, inadmissible, singular = 4.0, 3.0, 0.5, 7.0
    assert list(spectral_sweep(loop, [ok, inadmissible, singular]).failed) \
        == [False, False, True]
    assert np.allclose(spectral_sweep(loop, [ok]).spec1(theta), 0.4)
    # the first failing node decides, whichever way it fails
    with pytest.raises(InadmissibleError):
        spectral_sweep(loop, [ok, inadmissible, singular]).log_det_delta(theta)
    with pytest.raises(NumericalError):
        spectral_sweep(loop, [ok, singular, inadmissible]).log_det_delta(theta)
    with pytest.raises(NumericalError):
        spectral_sweep(loop, [ok, singular]).spec1(theta)
    with pytest.raises(NumericalError):
        spectral_sweep(loop, [singular]).log_det_delta(0.0)


def test_small_product_matches_matmul():
    rng = np.random.default_rng(5)
    for p, q, r in itertools.product([1, 2, 3, 4], repeat=3):
        A = (rng.standard_normal((5, p, q))
             + 1j * rng.standard_normal((5, p, q)))
        B = (rng.standard_normal((5, q, r))
             + 1j * rng.standard_normal((5, q, r)))
        J = rng.standard_normal((p, q))
        for X, Y in ((A, B), (J, B), (A, B.real)):
            # relative to |X| |Y|, the scale of a product's rounding error
            bound = 1e-14 * (np.abs(X) @ np.abs(Y))
            assert np.all(np.abs(freq._mm(X, Y) - X @ Y) <= bound)


_EPS = np.finfo(float).eps


def _hermitian_stack(rng, k):
    """k random 2 x 2 Hermitian matrices at each scale 1e-12 ... 1e3, and
    the edge cases b = 0 (a < c, a > c, a = c), b -> 0 and X = 0."""
    edges = np.array([[[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 1.0]],
                      [[1.5, 0.0], [0.0, 1.5]], [[1.0, 1e-20], [1e-20, 1.0]],
                      [[1.0, 1e-9j], [-1e-9j, 1.0 + 1e-17]],
                      [[0.0, 0.0], [0.0, 0.0]]])
    stacks = []
    for scale in 10.0 ** np.arange(-12, 4):
        A = (rng.standard_normal((k, 2, 2))
             + 1j * rng.standard_normal((k, 2, 2)))
        stacks += [scale * (A + freq._conj_t(A)), scale * edges]
    return np.concatenate(stacks)


def test_closed_form_eigh_matches_lapack():
    # measured: eigenvalues within 5.2 eps ||X||, the reconstruction
    # within 3.7 eps ||X|| and U* U - I within 3.0 eps
    X = _hermitian_stack(np.random.default_rng(11), 500)
    w, h, bc, _ = freq._jacobi(X)
    U = freq._rotation(h, bc)
    ref = np.linalg.eigvalsh(X)
    norm = np.max(np.abs(ref), axis=1)[:, None]
    assert np.all(np.abs(w - ref) <= 16 * _EPS * norm)
    assert np.all(np.diff(w, axis=1) >= 0.0)
    Uh = freq._conj_t(U)
    recon = freq._mm(U * w[:, None, :], Uh) - X
    assert np.all(np.abs(recon) <= 16 * _EPS * norm[:, :, None])
    assert np.all(np.abs(freq._mm(Uh, U) - np.eye(2)) <= 8 * _EPS)
    assert np.array_equal(freq._eigvalsh(X), w)
    zero = np.zeros((1, 2, 2))
    assert np.array_equal(freq._jacobi(zero)[0], [[0.0, 0.0]])


def test_small_factorizations_call_lapack_at_other_nu(cl_lqg, cl_multimode):
    # at nu != 2 `_eigvalsh` and a sweep's d0 and U are np.linalg's own
    # results, bit for bit
    rng = np.random.default_rng(13)
    for nu in (1, 3, 4):
        A = (rng.standard_normal((40, nu, nu))
             + 1j * rng.standard_normal((40, nu, nu)))
        H = A + freq._conj_t(A)
        assert np.array_equal(freq._eigvalsh(H), np.linalg.eigvalsh(H))
    for cl in (cl_lqg, cl_multimode):
        sweep = spectral_sweep(cl, _body_and_tail(cl))
        ref_w, ref_U = np.linalg.eigh(1j * sweep.Psi)
        assert np.array_equal(sweep.d0, ref_w)
        assert np.array_equal(sweep.U, ref_U)


class _LapackCalled(Exception):
    pass


def test_square_loop_kernel_calls_no_small_lapack_factorization(
        monkeypatch, cl_lqg):
    # nu = 2: the growth rate, the certified check, theta_for_spec1 and
    # the gradient take their eigensolves and inverses in closed form;
    # nu = 3 still reaches np.linalg
    _, _, cl = random_stable_instance(np.random.default_rng(0))
    grids = {}
    for loop in (cl, cl_lqg):
        # caches the loop's one modal factorization (`_factor` inverts V)
        grids[loop.nu] = growth_rate_grid(loop, 0.05)

    def raise_called(*args, **kwargs):
        raise _LapackCalled
    for name in ("eigh", "eigvalsh", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, raise_called)

    rep = check_admissible(cl, theta_for_spec1(cl, 0.4))
    assert rep.certified and rep.spec1_sup < 0.95
    qef_growth_rate(cl, 0.05, grid=grids[2])
    frechet_derivatives(cl, 0.05, grid=grids[2])
    assert cl.nu == 2 and cl_lqg.nu == 3
    for call in (lambda: theta_for_spec1(cl_lqg, 0.4),
                 lambda: check_admissible(cl_lqg, 0.05).spec1_sup,
                 lambda: qef_growth_rate(cl_lqg, 0.05, grid=grids[3]),
                 lambda: frechet_derivatives(cl_lqg, 0.05, grid=grids[3])):
        with pytest.raises(_LapackCalled):
            call()


@pytest.mark.parametrize("loop", ["cl_square", "cl_multimode"])
def test_log_det_delta_matches_eigenvalue_form(request, loop):
    # ln det Delta by the factorization of I - theta s W s against
    # sum ln cosh(theta d0) + sum ln(1 - theta mu), mu from eigvalsh
    cl = request.getfixturevalue(loop)
    theta = theta_for_spec1(cl, 0.4)
    lam_max = default_lambda_max(cl.calA)
    lams = np.concatenate([np.linspace(0.0, lam_max, 150),
                           lam_max * np.geomspace(1.0, 1e4, 30)])
    sweep = spectral_sweep(cl, lams)
    ld = sweep.log_det_delta(theta)
    ref = (np.sum(np.log(np.cosh(theta * sweep.d0)), axis=1)
           + np.sum(np.log(1.0 - theta * sweep.mu(theta)), axis=1))
    assert np.all(np.abs(ld - ref) <= 1e-12 * (1.0 + np.abs(ld)))


def test_log_det_delta_keeps_its_digits_in_the_tail(cl_square):
    # in the 1/lambda tail ln det Delta is of order 1e-7 and below, and the
    # half-line map scales it up by lambda^2; ln of the rounded
    # 1 - theta mu, or of the rounded cosh(theta d0), loses digits there
    theta = 0.05
    lams = default_lambda_max(cl_square.calA) * np.geomspace(10.0, 1e5, 9)
    sweep = spectral_sweep(cl_square, lams)
    x = theta * sweep.d0
    accurate = (np.sum(np.log1p(2.0 * np.sinh(0.5 * x) ** 2), axis=1)
                + np.sum(np.log1p(-theta * sweep.mu(theta)), axis=1))
    assert np.all(np.abs(accurate) < 1e-6)
    assert np.allclose(sweep.log_det_delta(theta), accurate, rtol=1e-12,
                       atol=0)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_log_det_eye_minus(nu):
    rng = np.random.default_rng(nu)
    Z = rng.standard_normal((20, nu, nu)) + 1j * rng.standard_normal(
        (20, nu, nu))
    H = Z @ freq._conj_t(Z)
    top = np.linalg.eigvalsh(H)[:, -1:, None]
    eye = np.eye(nu)
    # I - X positive definite: slogdet agrees
    X = 0.9 * H / top
    assert np.allclose(freq._log_det_eye_minus(X),
                       np.linalg.slogdet(eye - X)[1], rtol=1e-13,
                       atol=1e-13)
    # X of order 1e-12, as in the 1/lambda tail: accurate to the last
    # digits, where ln of the rounded 1 - y is off by about 1e-4
    X = 1e-12 * H / top
    series = -np.trace(X + X @ X / 2, axis1=1, axis2=2).real
    assert np.allclose(freq._log_det_eye_minus(X), series, rtol=1e-14,
                       atol=0)
    # the largest eigenvalue of X 1.5 at every other node: not finite there
    X = 1.5 * H / top
    X[::2] *= 0.5
    assert list(np.isfinite(freq._log_det_eye_minus(X))) == [True, False] * 10


def _ldl_log_det(sweep, theta):
    """ln det(I - theta s W s) by the factorization, from U and W."""
    return freq._log_det_eye_minus(theta * sweep._scaled_W(theta))


def _body_and_tail(cl, n_body=120, n_tail=60):
    """Body nodes up to the truncation frequency and 1/lambda-tail nodes
    beyond it, up to lambda = 1e7."""
    lam_max = default_lambda_max(cl.calA)
    return np.concatenate([np.linspace(0.0, lam_max, n_body),
                           np.geomspace(lam_max, 1e7, n_tail)])


def _nu2_m4_loop(seed):
    """A nu = 2 loop of an n = 4, m = 4, d = r = 2 plant: F is 2 x 4, so
    det Phi is a sum of six squared minors, not |det F|^2."""
    plant = derive_plant(random_plant_spec(np.random.default_rng(seed), n=4,
                                           m=4, d=2, r=2))
    weights = (np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
               np.eye(2))
    return assemble_closed_loop(plant, weights,
                                lqg_controller(plant, weights))


@pytest.mark.parametrize("loop", ["seed0", "seed1", "seed2", "m4"])
def test_nu2_log_det_matches_the_factorization(loop):
    # ln det(I - X) from theta-free scalars against the factorization of
    # I - theta s W s, at theta for spec1 0.4, 0.9 and 0.99 and at 1.5 and
    # 3 times that: the same finite/non-finite verdict at every node, and
    # ln det Delta within 1.1e-15 relative at the nodes with spec1 below
    # 0.95 and 7.3e-15 nearer the boundary when measured (3.7e-15 and
    # 2.1e-14 over 40 plants)
    if loop == "m4":
        cl = _nu2_m4_loop(0)
        assert (cl.nu, cl.m) == (2, 4)
    else:
        _, _, cl = random_stable_instance(
            np.random.default_rng(int(loop[-1])))
    sweep = spectral_sweep(cl, _body_and_tail(cl))
    verdicts = set()
    for target in (0.4, 0.9, 0.99):
        theta0 = theta_for_spec1(cl, target)
        for theta in (theta0, 1.5 * theta0, 3.0 * theta0):
            new, ref = sweep._log_det_2x2(theta), _ldl_log_det(sweep, theta)
            assert np.array_equal(np.isfinite(new), np.isfinite(ref))
            verdicts.update(np.isfinite(ref))
            half = np.sinh(0.5 * theta * sweep.d0)
            cosh = np.sum(np.log1p(2.0 * half * half), axis=1)
            spec1 = sweep.spec1(theta)
            for inside, bound in ((spec1 < 0.95, 1e-14), (spec1 < 1.0, 1e-13)):
                gap = np.abs((cosh + new) - (cosh + ref))[inside]
                assert np.all(gap <= bound * np.abs(cosh + ref)[inside])
    assert verdicts == {True, False}


def test_nu2_log_det_delta_matches_slogdet():
    # against ln det Delta formed directly, body and tail nodes and the
    # m = 4 loop: within 1.1e-15 (1 + |ln det|) when measured
    for cl in (random_stable_instance(np.random.default_rng(3))[2],
               _nu2_m4_loop(1)):
        theta = theta_for_spec1(cl, 0.9)
        sweep = spectral_sweep(cl, _body_and_tail(cl, 40, 20))
        ld = sweep.log_det_delta(theta)
        for k in range(len(ld)):
            sign, direct = np.linalg.slogdet(
                delta_matrix(sweep.Phi[k], sweep.Psi[k], theta))
            assert sign.real > 0
            assert abs(ld[k] - direct) <= 1e-14 * (1.0 + abs(direct))


def test_nu2_det_phi_is_the_cauchy_binet_sum():
    # at m = 4 det Phi = sum over the six column pairs j < k of the squared
    # 2 x 2 minors of F, and it is never negative; at m = 2 it is |det F|^2
    # (within 3.1e-14 of det Phi by LU and 5.1e-15 of |det F|^2 when
    # measured)
    cl = _nu2_m4_loop(2)
    sweep = spectral_sweep(cl, _body_and_tail(cl, 40, 20))
    det_phi = sweep._scalars[2]
    assert np.all(det_phi >= 0.0)
    assert np.allclose(det_phi, np.linalg.det(sweep.Phi).real, rtol=1e-12,
                       atol=0)
    assert not np.allclose(det_phi, np.abs(np.linalg.det(sweep.F[:, :, :2]))
                           ** 2, rtol=1e-3, atol=0)
    _, _, cl = random_stable_instance(np.random.default_rng(4))
    sweep = spectral_sweep(cl, _body_and_tail(cl, 40, 20))
    assert np.allclose(sweep._scalars[2], np.abs(np.linalg.det(sweep.F)) ** 2,
                       rtol=1e-13, atol=0)


def test_nu2_W_diagonal_from_the_projectors():
    # the diagonal of W = U* Phi U, formed without U (within 2.2e-16 of
    # its scale when measured), and the zero Psi of a classical loop
    # (r = 0): g / r contributes nothing there, and ln det Delta is within
    # 3.5e-16 of the factorization's
    _, _, cl = random_stable_instance(np.random.default_rng(5))
    sweep = spectral_sweep(cl, _body_and_tail(cl, 40, 20))
    w_minus, w_plus, _ = sweep._scalars
    W = sweep.W
    scale = np.abs(W[:, 0, 0]) + np.abs(W[:, 1, 1])
    assert np.all(np.abs(w_minus - W[:, 0, 0].real) <= 2e-15 * scale)
    assert np.all(np.abs(w_plus - W[:, 1, 1].real) <= 2e-15 * scale)
    classical = SimpleNamespace(calA=cl.calA, calB=cl.calB, calC=cl.calC,
                                J=np.zeros((2, 2)))
    sweep = spectral_sweep(classical, _body_and_tail(cl, 40, 20))
    assert not np.any(sweep.Psi) and not np.any(sweep.d0)
    theta = 0.5 / np.max(np.linalg.eigvalsh(sweep.Phi))
    ld = sweep.log_det_delta(theta)
    assert np.allclose(ld, _ldl_log_det(sweep, theta), rtol=1e-14, atol=0)
    body = np.linalg.slogdet(np.eye(2) - theta * sweep.Phi[:40])[1]
    assert np.all(np.abs(ld[:40] - body) <= 1e-14 * (1.0 + np.abs(body)))


def test_nu2_log_det_delta_raises_at_the_same_first_node():
    # an inadmissible theta raises the factorization's InadmissibleError
    # at its first non-finite node, the nodes running down from the tail:
    # every node before it sums, and that node, or a failed resolvent
    # ahead of it, raises
    _, _, cl = random_stable_instance(np.random.default_rng(6))
    lams = _body_and_tail(cl)[::-1]
    theta = 3.0 * theta_for_spec1(cl, 0.99)
    first = int(np.argmin(np.isfinite(_ldl_log_det(spectral_sweep(cl, lams),
                                                   theta))))
    assert first > 0
    assert np.all(np.isfinite(
        spectral_sweep(cl, lams[:first]).log_det_delta(theta)))
    with pytest.raises(InadmissibleError, match="spectral admissibility "
                       "violated"):
        spectral_sweep(cl, lams[:first + 1]).log_det_delta(theta)
    # two classical lags (Psi = 0, r = 0, theta mu = theta / (1 + lambda^2)
    # and theta / (4 + lambda^2)): at theta = 10 both pass 1 below
    # lambda = 2.4, where det(I - X) > 0 all the same, and one does up to
    # lambda = 3
    lags = SimpleNamespace(calA=np.diag([-1.0, -2.0]), calB=np.eye(2),
                           calC=np.eye(2), J=np.zeros((2, 2)))
    lams = np.linspace(0.05, 4.05, 41)
    sweep = spectral_sweep(lags, lams)
    ld = sweep._log_det_2x2(10.0)
    assert np.array_equal(np.isfinite(ld), lams > 3.0)
    assert np.array_equal(np.isfinite(ld),
                          np.isfinite(_ldl_log_det(sweep, 10.0)))
    with pytest.raises(InadmissibleError):
        spectral_sweep(lags, [0.0]).log_det_delta(10.0)
    # a nu = 2 lag next to an undamped mode (Psi = 0, r = 0): the first
    # failing node decides, whichever way it fails
    loop = SimpleNamespace(
        calA=scipy.linalg.block_diag([[-1.0]], [[0.0, 7.0], [-7.0, 0.0]]),
        calB=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        calC=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        J=np.zeros((2, 2)))
    theta, ok, inadmissible, singular = 4.0, 3.0, 0.5, 7.0
    with pytest.raises(InadmissibleError):
        spectral_sweep(loop, [ok, inadmissible, singular]).log_det_delta(theta)
    with pytest.raises(NumericalError):
        spectral_sweep(loop, [ok, singular, inadmissible]).log_det_delta(theta)
    assert np.allclose(spectral_sweep(loop, [ok]).log_det_delta(theta),
                       np.log1p(-theta / (1.0 + ok**2)))


@pytest.mark.parametrize("loop", ["cl_lqg", "cl_multimode"])
def test_log_det_delta_factors_at_other_nu(request, loop):
    # nu = 3 and 4 keep the factorization of I - theta s W s, bit for bit
    cl = request.getfixturevalue(loop)
    theta = theta_for_spec1(cl, 0.4)
    sweep = spectral_sweep(cl, _body_and_tail(cl))
    half = np.sinh(0.5 * theta * sweep.d0)
    assert np.array_equal(sweep.log_det_delta(theta),
                          np.sum(np.log1p(2.0 * half * half), axis=1)
                          + _ldl_log_det(sweep, theta))


def test_nu2_cost_forms_no_eigenvectors(monkeypatch, cl_square, quad_fast):
    # a frozen-grid and an adaptive nu = 2 cost read neither U nor W; the
    # gradient on the kept grid forms them from the cost's sweep, and
    # reusing that sweep gives the gradient of a fresh one bit for bit
    theta = theta_for_spec1(cl_square, 0.4)
    grid = growth_rate_grid(cl_square, theta, quad_fast)

    def vectors(*args):
        raise AssertionError("eigenvectors formed")

    with monkeypatch.context() as m:
        m.setattr(freq, "_rotation", vectors)
        m.setattr(np.linalg, "eigh", vectors)
        ups = qef_growth_rate(cl_square, theta, quad_fast, grid=grid)
        qef_growth_rate(cl_square, theta, quad_fast)
    assert "U" not in vars(ups.sweep) and "W" not in vars(ups.sweep)
    reused = frechet_derivatives(cl_square, theta, quad_fast, grid=ups.grid,
                                 sweep=ups.sweep)
    assert "U" in vars(ups.sweep) and "W" in vars(ups.sweep)
    fresh = frechet_derivatives(cl_square, theta, quad_fast, grid=ups.grid)
    for f in ("dUps_da", "dUps_db", "dUps_dc"):
        assert np.array_equal(getattr(reused, f), getattr(fresh, f))


@pytest.mark.parametrize("theta", [1e-300, 5e-324])
def test_nu2_growth_rate_at_an_underflowing_theta(cl_square, theta):
    # theta^2 det Phi underflows to 0: the rate is theta times the
    # theta -> 0 slope, finite and positive down to the least subnormal
    rate = qef_growth_rate(cl_square, theta)
    assert np.isfinite(rate) and rate > 0.0


def _norm_inf(X):
    return np.linalg.norm(X, ord=np.inf)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_constants_are_infinity_norms(seed):
    rng = np.random.default_rng(seed)
    n = 2 + 2 * seed
    calA = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    modes = freq._modes(calA)
    V, Vinv, s = modes.V, modes.Vinv, modes.s
    rounding = 4.0 * n * np.finfo(float).eps * _norm_inf(V) * _norm_inf(Vinv)
    inv_err = _norm_inf(V @ Vinv - np.eye(n)) + rounding
    eig_err = (_norm_inf(calA @ V - V * s) * _norm_inf(Vinv)
               + rounding * (_norm_inf(calA) + np.max(np.abs(s))))
    for got, want in ((modes.rounding, rounding), (modes.inv_err, inv_err),
                      (modes.eig_err, eig_err)):
        assert abs(got - want) <= 1e-14 * want


def test_nearly_defective_system_matrix_certifies_no_node():
    # the eigenvectors of this calA are parallel to about 1e-216, so the
    # norms behind the bound overflow; the bound must then certify nothing
    calA = np.array([[-1.0, 1e200], [0.0, -1.0]])
    modes = freq._modes(calA)
    lams = np.linspace(0.0, 10.0, 11)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = modes.bound(lams, 1.0 / (1j * lams[:, None] - modes.s))
    assert not np.any(bound <= 1e-8)


def _axis_bound(modes, lams, r):
    """The residual bound with max |r| as one reduction over r's rows."""
    return modes.inv_err + np.max(np.abs(r), axis=1) * (
        modes.eig_err + modes.rounding * np.abs(lams))


@pytest.mark.parametrize("loop", ["cl_square", "cl_multimode", "cl_lqg"])
def test_column_reductions_match_the_axis_reductions(loop, request):
    # nu = 2, the n = 4 multimode loop (nu = 4, 8 modes) and the stacked
    # nu = 3 loop: the bound's max |r| and ln det Delta's sum of
    # ln cosh over nu, taken column by column, are numpy's axis
    # reductions to the last bit
    cl = request.getfixturevalue(loop)
    lams = _body_and_tail(cl)
    modes = freq._modes(cl.calA)
    r = 1.0 / (1j * lams[:, None] - modes.s)
    assert np.array_equal(modes.bound(lams, r), _axis_bound(modes, lams, r))
    sweep = spectral_sweep(cl, lams)
    # theta sigma_max(F)^2 <= 0.3 at every node: finite everywhere
    theta = 0.3 / float(np.max(np.linalg.eigvalsh(sweep.Phi)))
    if cl.nu == 2:
        ld = sweep._log_det_2x2(theta)
    else:
        ld = _ldl_log_det(sweep, theta)
    half = np.sinh(0.5 * theta * sweep.d0)
    want = np.sum(np.log1p(2.0 * half * half), axis=1) + ld
    assert np.array_equal(sweep.log_det_delta(theta), want)


def test_column_reductions_spread_nan_and_inf(cl_square):
    # rows holding nan or inf: np.maximum spreads a nan as np.max does, so
    # such a node is never certified; on the nearly defective calA of the
    # test above every node's bound is already inf or nan
    lams = np.linspace(0.0, 10.0, 11)
    for modes in (freq._modes(cl_square.calA),
                  freq._modes(np.array([[-1.0, 1e200], [0.0, -1.0]]))):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 1.0 / (1j * lams[:, None] - modes.s)
            r[2, 0], r[4, 1], r[6] = np.nan, np.inf, np.nan
            bound, want = (modes.bound(lams, r),
                           _axis_bound(modes, lams, r))
        assert np.array_equal(bound, want, equal_nan=True)
        assert not np.any(bound[[2, 4, 6]] <= freq._RESOLVENT_TOL)
    # the helper against op.reduce at 1 to 9 columns, with nan and inf
    # entries: from 8 columns on numpy sums pairwise, and the helper keeps
    # the reduction there
    rng = np.random.default_rng(7)
    for cols in range(1, 10):
        X = rng.standard_normal((40, cols)) * 10.0 ** rng.uniform(
            -8, 8, (40, cols))
        X[3, 0], X[5, -1], X[7, :] = np.nan, np.inf, -np.inf
        for op in (np.add, np.maximum):
            with np.errstate(invalid="ignore"):
                got, want = freq._by_columns(op, X), op.reduce(X, axis=1)
            assert np.array_equal(got, want, equal_nan=True)


def _solve_reference(cl, lams):
    """F, Phi and Psi node by node from np.linalg.solve."""
    eye = np.eye(cl.calA.shape[0])
    F = np.array([cl.calC @ np.linalg.solve(1j * lam * eye - cl.calA, eye)
                  @ cl.calB for lam in lams])
    Fh = F.conj().swapaxes(1, 2)
    return F, F @ Fh, F @ cl.J @ Fh


def _worst_rel(new, ref):
    return float(np.max(np.linalg.norm(new - ref, axis=(1, 2))
                        / np.linalg.norm(ref, axis=(1, 2))))


def _sweep_nodes(cl):
    """Frequencies from 0 to far in the tail, with the resonances and
    points just beside them."""
    omegas = np.abs(np.linalg.eigvals(cl.calA).imag)
    return np.unique(np.concatenate([
        np.linspace(0.0, 5.0, 41), np.geomspace(5.0, 1e6, 25),
        omegas, omegas * (1 + 1e-6), omegas * (1 - 1e-3)]))


@pytest.fixture(scope="module", params=["cl_square", 0, 1, 2])
def sweep_loop(request):
    if request.param == "cl_square":
        return request.getfixturevalue("cl_square")
    return random_stable_instance(np.random.default_rng(request.param))[2]


@pytest.fixture()
def solve_nodes(monkeypatch):
    """The frequencies that went through the direct solve, in order."""
    seen = []
    solve = freq._solve

    def spy(calA, lams):
        seen.extend(lams)
        return solve(calA, lams)

    monkeypatch.setattr(freq, "_solve", spy)
    return seen


def test_modal_sweep_matches_solve_reference(sweep_loop, solve_nodes):
    cl = sweep_loop
    lams = _sweep_nodes(cl)
    sweep = spectral_sweep(cl, lams)
    assert solve_nodes == []            # the bound certifies every node
    F, Phi, Psi = _solve_reference(cl, lams)
    assert _worst_rel(sweep.F, F) <= 1e-12
    assert _worst_rel(sweep.Phi, Phi) <= 1e-12
    assert _worst_rel(sweep.Psi, Psi) <= 1e-12
    theta = theta_for_spec1(cl, 0.4)
    ref = np.array([np.linalg.slogdet(delta_matrix(P, S, theta))[1]
                    for P, S in zip(Phi, Psi)])
    assert np.max(np.abs(sweep.log_det_delta(theta) - ref)) \
        <= 1e-12 * np.max(np.abs(ref))


def test_residual_bound_covers_the_modal_resolvent(sweep_loop):
    # the residual of the G the sweep forms, in extended precision
    cl = sweep_loop
    lams = _sweep_nodes(cl)
    sweep = spectral_sweep(cl, lams)
    n = cl.calA.shape[0]
    shifted = (1j * lams[:, None, None] * np.eye(n)
               - cl.calA).astype(np.clongdouble)
    exact = np.max(np.abs(shifted @ sweep.G.astype(np.clongdouble)
                          - np.eye(n)), axis=(1, 2))
    assert not sweep.failed.any()
    assert np.all(sweep.residual >= exact)


def test_defective_system_matrix_takes_the_solve_path(solve_nodes):
    # a Jordan block has no modal form, so every node is solved directly
    jordan = SimpleNamespace(calA=np.array([[-1.0, 1.0], [0.0, -1.0]]),
                             calB=np.array([[1.0, 0.2], [0.0, 1.0]]),
                             calC=np.eye(2), J=np.array([[0.0, 1.0],
                                                         [-1.0, 0.0]]))
    lams = np.linspace(0.0, 5.0, 11)
    sweep = spectral_sweep(jordan, lams)
    assert solve_nodes == list(lams)
    F, Phi, Psi = _solve_reference(jordan, lams)
    assert _worst_rel(sweep.F, F) <= 1e-12
    assert _worst_rel(sweep.Phi, Phi) <= 1e-12
    assert not sweep.failed.any()
    eye = np.eye(2)
    assert np.allclose((1j * lams[:, None, None] * eye - jordan.calA)
                       @ sweep.G, eye, rtol=0, atol=1e-14)


def test_singular_eigenvector_matrix_solves_every_node(monkeypatch,
                                                       solve_nodes):
    # where V^{-1} cannot be formed the factorization keeps s and the
    # sweep solves every node directly
    cl = random_stable_instance(np.random.default_rng(3))[2]
    lams = np.linspace(0.0, 10.0, 50)
    modal = spectral_sweep(cl, lams)
    modal_G = modal.G

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    freq._factor.cache_clear()
    try:
        sweep = spectral_sweep(cl, lams)
        G = sweep.G
        hurwitz = is_hurwitz(cl.calA)
    finally:
        freq._factor.cache_clear()
    assert solve_nodes == list(lams)
    assert _worst_rel(sweep.F, modal.F) <= 1e-12
    assert _worst_rel(G, modal_G) <= 1e-12
    assert np.array_equal(sweep.residual, freq._solve(cl.calA, lams)[1])
    assert np.all(sweep.residual <= 1e-8)
    assert hurwitz


def test_frozen_grid_sum_is_one_sweep(cl_square, quad_fast):
    theta = 0.05
    grid = growth_rate_grid(cl_square, theta, quad_fast)
    calls = []

    def f(lams):
        calls.append(len(lams))
        return spectral_sweep(cl_square, lams).log_det_delta(theta)[:, None]

    total, err, _ = integrate_half_line(f, grid.lam_max, quad_fast,
                                        grid=grid)
    n_nodes = 15 * (len(grid.body_edges) + len(grid.tail_edges) - 2)
    assert calls == [n_nodes]
    body, body_err = _panels(f, grid.body_edges)
    tail, tail_err = _panels(lambda u: f(1.0 / u) / (u**2)[:, None],
                             grid.tail_edges)
    separate = body.sum(axis=0) + tail.sum(axis=0)
    assert abs(total[0] - separate[0]) <= 1e-15 * abs(separate[0])
    assert err == pytest.approx(body_err.sum() + tail_err.sum(), rel=1e-12)


def _mapped(f, lam_max):
    """f mapped onto t in [0, 2] as `integrate_half_line` maps it."""
    def g(t):
        tail = t > 1.0
        s = np.where(tail, 2.0 - t, 1.0)
        lam = lam_max * np.where(tail, 1.0 / s, t)
        return f(lam) * (lam_max / s**2)[:, None]
    return g


def test_frozen_sum_reads_the_grid_nodes(cl_square, quad_fast):
    # a frozen grid keeps its nodes in lambda: the sum of another loop on
    # it is the same, bit for bit, on the warm grid, on a cold copy of its
    # edges and on the grid of a pickled and restored GrowthRate, and it is
    # _panels of the mapped integrand over the grid's edges
    theta = 0.05
    warm = qef_growth_rate(cl_square, theta, quad_fast).grid
    assert "nodes" not in vars(warm)
    loop = assemble_closed_loop(
        cl_square.plant, (cl_square.S, cl_square.K),
        cl_square.ctrl + ControllerParams(1e-3 * np.eye(2), np.zeros((2, 1)),
                                          np.zeros((1, 2))))
    first = qef_growth_rate(loop, theta, grid=warm)
    assert "nodes" in vars(warm)
    cold = freq.FrequencyGrid(warm.lam_max, warm.edges.copy())
    thawed = pickle.loads(pickle.dumps(first)).grid
    for grid in (warm, cold, thawed):
        rate = qef_growth_rate(loop, theta, grid=grid)
        assert float(rate).hex() == float(first).hex()
        assert rate.error.hex() == first.error.hex()
    with pytest.raises(ValueError):
        warm.edges[0] = 1.0

    def f(lams):
        return spectral_sweep(loop, lams).log_det_delta(theta)[:, None]

    total, err, _ = integrate_half_line(f, cold.lam_max, quad_fast,
                                        grid=cold)
    ik, panel_err = _panels(_mapped(f, warm.lam_max), warm.edges)
    assert np.array_equal(total, ik.sum(axis=0))
    assert err == float(panel_err.sum())


def test_sweep_spec1_cache_matches_direct_eigh(cl_square):
    lams = np.linspace(0.0, default_lambda_max(cl_square.calA), 97)
    sweep = spectral_sweep(cl_square, lams)
    for theta in (1e-3, 0.05, 0.7, 12.0):
        direct = []
        for Phi, Psi in zip(sweep.Phi, sweep.Psi):
            d, U = np.linalg.eigh(1j * theta * Psi)
            sqrt_t = U * np.sqrt(tanhc(d))
            mu = np.linalg.eigvalsh(sqrt_t.conj().T @ Phi @ sqrt_t)
            direct.append(theta * np.max(mu))
        cached = sweep.spec1(theta)
        assert np.allclose(cached, direct, rtol=1e-12, atol=1e-15)
        assert abs(np.max(cached) - max(direct)) <= 1e-12 * max(direct)


def test_growth_rate_zero_cases(cl_square, canonical_plant, quad_fast):
    assert qef_growth_rate(cl_square, 0.0) == 0.0
    cl0 = assemble_closed_loop(canonical_plant,
                               (np.zeros((2, 2)), np.zeros((2, 1))),
                               cl_square.ctrl)
    assert abs(qef_growth_rate(cl0, 0.1, quad_fast)) <= 1e-10


def test_growth_rate_monotone_in_theta(cl_square, quad_fast):
    thetas = [0.02, 0.05, 0.1]
    vals = [qef_growth_rate(cl_square, t, quad_fast) for t in thetas]
    assert vals[0] > 0
    # Ups/theta is nondecreasing in theta (exponential penalty convexity)
    rates = [v / t for v, t in zip(vals, thetas)]
    slack = 1e-7 * (1 + rates[0])
    assert rates[0] <= rates[1] + slack <= rates[2] + 2 * slack


def test_growth_rate_exceeds_small_risk_linearization(cl_square, quad_fast):
    theta = 0.1
    assert qef_growth_rate(cl_square, theta, quad_fast) \
        >= theta * lqg_cost(cl_square) * (1 - 1e-8)


def test_growth_rate_grid_reuse(cl_square, quad_fast):
    theta = 0.05
    grid = growth_rate_grid(cl_square, theta, quad_fast)
    v1 = qef_growth_rate(cl_square, theta, quad_fast)
    v2 = qef_growth_rate(cl_square, theta, quad_fast, grid=grid)
    assert abs(v1 - v2) <= 1e-7 * (1 + abs(v1))


def test_growth_rate_carries_its_grid(cl_square, quad_fast):
    theta = 0.05
    grid = growth_rate_grid(cl_square, theta, quad_fast)
    rate = qef_growth_rate(cl_square, theta, quad_fast)
    # the adaptive value's grid is the subdivision it was summed on, and
    # its error estimate meets the tolerance by the test that stopped it
    assert isinstance(rate, float)
    assert np.array_equal(rate.grid.body_edges, grid.body_edges)
    assert np.array_equal(rate.grid.tail_edges, grid.tail_edges)
    assert rate.meets(quad_fast)
    frozen = qef_growth_rate(cl_square, theta, quad_fast, grid=rate.grid)
    assert frozen.grid is rate.grid
    assert abs(frozen - rate) <= 1e-12 * abs(rate)
    assert pickle.loads(pickle.dumps(rate)) == rate
    # the sweep a frozen-grid sum carries is not pickled with it
    assert frozen.sweep is not None
    assert pickle.loads(pickle.dumps(frozen)).sweep is None
    zero = qef_growth_rate(cl_square, 0.0)
    assert zero == 0.0 and zero.grid is None


@pytest.mark.parametrize("spec1", [0.4, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_adaptive_growth_rate_meets_its_tolerance(seed, spec1):
    # the adaptive integral stops on the test GrowthRate.meets applies
    cl = random_stable_instance(np.random.default_rng(seed))[2]
    quad = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    assert qef_growth_rate(cl, theta_for_spec1(cl, spec1), quad).meets(quad)


def test_check_admissible_canonical(cl_square):
    rep = check_admissible(cl_square, 0.05)
    assert rep.admissible
    assert 0 < rep.spec1_sup < 1


def test_spec1_value_zero_theta(cl_square):
    assert spectral_sweep(cl_square, [1.0]).spec1(0.0)[0] == 0.0


def test_theta_for_spec1_hits_target(cl_square):
    target = 0.3
    theta = theta_for_spec1(cl_square, target)
    grid = np.linspace(0.0, default_lambda_max(cl_square.calA), 400)
    sup = np.max(spectral_sweep(cl_square, grid).spec1(theta))
    assert abs(sup - target) <= 0.02


@pytest.mark.parametrize("target", [0.4, 0.9])
def test_check_admissible_reads_theta_for_spec1_near_its_target(target):
    # theta_for_spec1 roots check_admissible's own supremum, so it reads
    # the target to Brent's tolerance (within 2.5e-5 when measured); with
    # a supremum of the base grid alone it read up to 0.24% above (seed 55)
    for seed in range(50, 60):
        _, _, cl = random_stable_instance(np.random.default_rng(seed))
        sup = check_admissible(cl, theta_for_spec1(cl, target)).spec1_sup
        assert abs(sup / target - 1.0) <= 1e-4


@pytest.mark.parametrize("target", [0.4, 0.9])
def test_theta_for_spec1_evaluates_few_suprema(monkeypatch, target):
    # doubling and Brent's method take at most 10 evaluations of the
    # supremum on these loops when measured; bisection took up to 40
    calls = []
    sup = freq._spec1_sup

    def counted(*args):
        calls.append(args[3])           # theta
        return sup(*args)
    monkeypatch.setattr(freq, "_spec1_sup", counted)
    for seed in range(50, 60):
        _, _, cl = random_stable_instance(np.random.default_rng(seed))
        calls.clear()
        theta_for_spec1(cl, target)
        assert 0 < len(calls) <= 12


#: the plants of the benchmark's synthesis pool
_SYNTH_POOL = (13, 16, 17, 21, 41, 45, 47, 60, 72, 81, 91, 135, 156, 158,
               167, 173, 174, 176, 180, 191)


def test_theta_for_spec1_keeps_one_fine_sweep_per_argmax_node(monkeypatch,
                                                              cl_square):
    # the fine sweeps around the argmax node are theta-free: one per
    # distinct node leaves theta bit for bit what a fresh sweep at every
    # evaluation gives (6-8 evaluations on 1-3 nodes when measured)
    sweep_of = freq.spectral_sweep
    fine = []

    def counted(cl, lams):
        if len(lams) == 90:
            fine.append((lams[0], lams[-1]))
        return sweep_of(cl, lams)

    def fresh_sup(cl, grid, sweep, theta, kept=None):
        vals = sweep.spec1(theta)
        k = int(np.argmax(vals))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        lams = np.linspace(lo, hi, 90)
        return max(float(np.max(vals)),
                   float(np.max(counted(cl, lams).spec1(theta))))

    monkeypatch.setattr(freq, "spectral_sweep", counted)
    evaluations = nodes = 0
    pool = [random_stable_instance(np.random.default_rng(j))[2]
            for j in _SYNTH_POOL]
    for cl in [cl_square] + pool:
        fine.clear()
        with monkeypatch.context() as m:
            m.setattr(freq, "_spec1_sup", fresh_sup)
            theta = theta_for_spec1(cl, 0.4)
        distinct, evaluations = set(fine), evaluations + len(fine)
        fine.clear()
        assert theta_for_spec1(cl, 0.4) == theta
        assert sorted(fine) == sorted(distinct)
        nodes += len(fine)
    assert nodes < evaluations


def test_certificate_bounds_the_dense_supremum():
    # wherever the Hamiltonian test certifies theta ||F||^2 < 1 - margin,
    # so does theta times the peak of sigma_max(F)^2 over 20 000 frequencies
    bound = 1.0 - AdmissibilityReport.margin
    certified = 0
    for seed in range(60):
        _, _, cl = random_stable_instance(np.random.default_rng(seed))
        rho = default_lambda_max(cl.calA) / 50.0
        lams = np.concatenate([np.linspace(0.0, 5.0 * rho, 15000),
                               np.geomspace(5.0 * rho, 50.0 * rho, 5000)])
        F, _, _ = freq._transfer(cl, lams)
        peak = np.max(np.linalg.eigvalsh(F @ F.conj().swapaxes(1, 2)))
        for target in (0.25, 0.4, 0.9):
            theta = theta_for_spec1(cl, target)
            for factor in (1.0, 1.05, 1.3):
                if freq._certified(cl, factor * theta):
                    certified += 1
                    assert factor * theta * peak < bound
    assert certified >= 400             # 455 of the 540 when measured


def _light_resonance():
    """A loop whose resonance at lambda = 1 (damping 1e-5) lies midway
    between two base-grid samples, next to a fast real mode that sets the
    grid: its sampled supremum misses the peak."""
    fast = 48.0 / 10.5                  # samples at k fast / 48
    osc = np.array([[-1e-5, 1.0], [-1.0, -1e-5]])
    return SimpleNamespace(
        calA=scipy.linalg.block_diag(osc, -fast * np.eye(2)),
        calB=np.vstack([np.eye(2), np.eye(2)]),
        calC=np.hstack([np.eye(2), np.eye(2)]),
        J=np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_certificate_refuses_a_peak_sampling_misses():
    cl = _light_resonance()
    theta = theta_for_spec1(cl, 0.3)
    rep = check_admissible(cl, theta)
    # sampling reads 0.3 and accepts, as it did before the certificate;
    # the check itself sampled it
    assert not rep.certified and "spec1_sup" in vars(rep)
    assert rep.admissible and abs(rep.spec1_sup - 0.3) <= 1e-4
    # the peak itself breaks the condition, and the certificate sees it
    assert spectral_sweep(cl, [1.0]).spec1(theta)[0] > 0.99
    assert not freq._certified(cl, theta)


def test_certified_supremum_is_summed_when_read(monkeypatch):
    sups = []
    sup = freq._spec1_sup

    def counted(*args):
        sups.append(args[-1])
        return sup(*args)
    monkeypatch.setattr(freq, "_spec1_sup", counted)
    for seed in range(5):
        _, _, cl = random_stable_instance(np.random.default_rng(seed))
        theta = theta_for_spec1(cl, 0.4)
        sups.clear()
        rep = check_admissible(cl, theta)
        assert rep.certified == freq._certified(cl, theta)
        assert rep.certified and rep.admissible and sups == []
        assert "spec1_sup" not in vars(rep)
        grid = freq._admissibility_grid(cl)
        eager = sup(cl, grid, spectral_sweep(cl, grid), theta)
        assert rep.spec1_sup == eager and sups == [theta]
        assert rep.spec1_sup == eager and sups == [theta]   # summed once
        assert "spec1_sup" in vars(rep)
    # theta = 0 skips the certificate and samples a zero supremum in the
    # check itself
    rep = check_admissible(cl, 0.0)
    assert not rep.certified and "spec1_sup" in vars(rep)
    assert rep.spec1_sup == 0.0


class _Swept(Exception):
    pass


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certified_check_makes_no_sweep(monkeypatch, seed):
    # a certified loop is admissible on its Hamiltonian test alone; only
    # reading spec1_sup forms a transfer function or sweeps
    _, _, cl = random_stable_instance(np.random.default_rng(seed))
    theta = theta_for_spec1(cl, 0.4)

    def swept(*args, **kwargs):
        raise _Swept
    for name in ("_transfer", "spectral_sweep"):
        monkeypatch.setattr(freq, name, swept)
    rep = check_admissible(cl, theta)
    assert rep.certified and rep.admissible
    with pytest.raises(_Swept):
        rep.spec1_sup


def test_certified_loop_raises_for_a_failed_base_resolvent(monkeypatch):
    # a certified loop takes no sample to be admissible, so a failed
    # resolvent on the base grid is a NumericalError when spec1_sup is read
    _, _, cl = random_stable_instance(np.random.default_rng(0))
    theta = theta_for_spec1(cl, 0.4)
    assert freq._certified(cl, theta)
    monkeypatch.setattr(freq, "_RESOLVENT_TOL", -1.0)
    rep = check_admissible(cl, theta)
    assert rep.admissible
    with pytest.raises(NumericalError, match="near-singular shift"):
        rep.spec1_sup


def test_uncertified_check_raises_for_a_failed_base_resolvent(monkeypatch,
                                                              cl_square):
    # a loop the Hamiltonian test leaves to sampling has its supremum read
    # by check_admissible, so a failed resolvent raises from the call itself
    theta = theta_for_spec1(cl_square, 0.8)
    assert not freq._certified(cl_square, theta)
    monkeypatch.setattr(freq, "_RESOLVENT_TOL", -1.0)
    for t in (theta, 0.0):
        with pytest.raises(NumericalError, match="near-singular shift"):
            check_admissible(cl_square, t)


def test_theta_for_spec1_rejects_unreachable_target(canonical_plant,
                                                    weights_square):
    # with S = 0 and c = 0 the cost output is zero, so spec1 is zero at
    # every theta and no doubling reaches the target
    S, K = weights_square
    weights = (np.zeros_like(S), K)
    ctrl = lqg_controller(canonical_plant, weights_square)
    ctrl = ControllerParams(a=ctrl.a, b=ctrl.b, c=np.zeros_like(ctrl.c))
    cl = assemble_closed_loop(canonical_plant, weights, ctrl)
    with pytest.raises(ValidationError,
                       match=r"target 0\.3 is not reached: the supremum is 0 "):
        theta_for_spec1(cl, 0.3)


def _unstable_canonical(canonical_plant, weights_square):
    # the controller a = I, b = 0, c = 0 adds two undriven modes at +1
    ctrl = ControllerParams(a=np.eye(2), b=np.zeros((2, 1)),
                            c=np.zeros((1, 2)))
    return assemble_closed_loop(canonical_plant, weights_square, ctrl)


def _unstable_random(canonical_plant, weights_square):
    # closed-loop eigenvalues 1.55 and 10.04 +- 2.85i; theta_for_spec1 used
    # to return a theta of 0.596 for it without an error
    plant, ctrl, cl = random_stable_instance(np.random.default_rng(0))
    ctrl = ControllerParams(a=-ctrl.a + 5.0 * np.eye(plant.n), b=ctrl.b,
                            c=ctrl.c)
    return assemble_closed_loop(plant, (cl.S, cl.K), ctrl)


@pytest.mark.parametrize("loop", [_unstable_canonical, _unstable_random],
                         ids=["canonical", "random"])
@pytest.mark.parametrize("entry", [
    qef_growth_rate, growth_rate_grid, chi_matrix, frechet_derivatives,
    check_admissible,
    theta_for_spec1,                  # its second argument is the target
    gradient_check,
    lambda cl, theta: build_operators(cl, theta, T=5.0, N=20),
], ids=["qef_growth_rate", "growth_rate_grid", "chi_matrix",
        "frechet_derivatives", "check_admissible", "theta_for_spec1",
        "gradient_check", "build_operators"])
def test_entry_points_reject_an_unstable_loop(canonical_plant,
                                              weights_square, loop, entry):
    # every closed-loop entry point rejects it through freq.check_loop;
    # check_admissible used to return a report with spec1_sup = inf
    cl = loop(canonical_plant, weights_square)
    with pytest.raises(InadmissibleError, match="closed loop is not Hurwitz"):
        entry(cl, 0.4)
    # a bad theta (or target) is still a ValidationError, checked first
    with pytest.raises(ValidationError, match="must be"):
        entry(cl, -1.0)


def test_one_factorization_per_loop(monkeypatch):
    # a loop's calA is factored once, by freq._factor, and its Hurwitz
    # test, lambda_max and resonance breakpoints read that factorization;
    # lqg_controller and lqg_cost each used to take their own eigvals, and
    # chi0 used to factor calA^T for its adjoint solve.  The other spectra
    # are the two 2n x 2n Riccati Hamiltonians of lqg_controller (n the
    # plant order) and the 4n x 4n Hamiltonian of check_admissible's
    # certificate (2n the loop order)
    plant, _, cl = random_stable_instance(np.random.default_rng(7))
    calls = {"eig": [], "eigvals": []}
    for name in calls:
        def counted(a, _name=name, _fn=getattr(np.linalg, name)):
            calls[_name].append(np.shape(a))
            return _fn(a)
        monkeypatch.setattr(np.linalg, name, counted)
    freq._factor.cache_clear()
    quad = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)
    lqg_controller(plant, (cl.S, cl.K))
    lqg_cost(cl)
    check_admissible(cl, 0.05)
    chi0(cl)
    theta = theta_for_spec1(cl, 0.3)
    rate = qef_growth_rate(cl, theta, quad)
    chi_matrix(cl, theta, quad, grid=rate.grid)
    two_n = cl.calA.shape[0]
    riccati = (2 * plant.n, 2 * plant.n)
    assert calls == {"eig": [riccati, riccati, (two_n, two_n)],
                     "eigvals": [(2 * two_n, 2 * two_n)]}


def test_is_hurwitz():
    assert is_hurwitz(-np.eye(3))
    assert not is_hurwitz(np.eye(3))
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # marginal
    assert is_hurwitz(np.array([[-1.0, 1.0], [0.0, -1.0]]))  # Jordan block
    assert not is_hurwitz(np.array([[0.0, 1.0], [0.0, 0.0]]))  # nilpotent


@pytest.mark.parametrize("target", ["0.3", 0.0, 1.0, np.nan, None])
def test_theta_for_spec1_rejects_a_bad_target(cl_square, target):
    # a string target used to end in a bare TypeError
    with pytest.raises(ValidationError, match="^target must be in"):
        theta_for_spec1(cl_square, target)


def test_adaptive_stall_logs_a_warning(caplog):
    # a smooth integrand under a 1e-9 evaluation-noise floor: at 1e-11 the
    # error estimate stops shrinking within the 100x stall slack
    def f(x):
        return (np.exp(-x) + 1e-9 * np.sin(1e7 * x))[:, None]

    with caplog.at_level(logging.WARNING, logger="qefsyn.freq"):
        total, err, _ = _adaptive(f, 0.0, 1.0, 1e-11, 1e-15)
    assert 1e-11 < err <= 100 * 1e-11
    assert abs(total[0] - (1.0 - np.exp(-1.0))) <= 1e-9
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.message.startswith(
        "frequency quadrature stalled after 60 subdivisions")
    assert f"error {err:.2e} above the tolerance 1.00e-11" in record.message

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="qefsyn.freq"):
        _, err, _ = _adaptive(f, 0.0, 1.0, 1e-9, 1e-15)
    assert err <= 1e-9
    assert not caplog.records

    # far below the floor the stall is an error that says so; it used to
    # read "did not converge within 60 subdivisions", 60 being the stall
    # count and not the budget
    with pytest.raises(NumericalError, match=(
            r"stalled at error \d\.\d\de-11 after 60 subdivisions: the "
            r"tolerance 1\.00e-13 requested lies below the integrand's "
            r"noise floor")):
        _adaptive(f, 0.0, 1.0, 1e-13, 1e-15)


def test_adaptive_budget_exhaustion_names_the_budget(monkeypatch):
    # a narrow peak that 3 subdivisions cannot resolve
    def f(x):
        return (1.0 / (1.0 + 1e4 * (x - 0.3) ** 2))[:, None]

    monkeypatch.setattr(freq, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(NumericalError,
                       match=r"did not converge within 3 subdivisions"):
        _adaptive(f, 0.0, 1.0, 1e-12, 1e-12)


def test_adaptive_budget_within_the_slack_logs_the_budget(monkeypatch,
                                                         caplog):
    # one split short of converging, the peak spends a budget of 16
    # while its estimate still falls; the warning used to read "stalled
    # after 16 subdivisions"
    def f(x):
        return (1.0 / (1.0 + 1e4 * (x - 0.3) ** 2))[:, None]

    monkeypatch.setattr(freq, "_MAX_SUBDIVISIONS", 16)
    with caplog.at_level(logging.WARNING, logger="qefsyn.freq"):
        _, err, _ = _adaptive(f, 0.0, 1.0, 1e-12, 1e-12)
    assert 1e-12 < err <= 100 * 1e-12
    [record] = caplog.records
    assert record.message == (
        "frequency quadrature did not converge within 16 subdivisions: "
        f"error {err:.2e} above the tolerance 1.00e-12")


def test_adaptive_converged_on_its_last_split_logs_nothing(monkeypatch,
                                                          caplog):
    # the peak converges after exactly 17 splits; with a budget of 17 the
    # convergence test used to be skipped after the last split, and a
    # converged integral was logged as "stalled after 17 subdivisions:
    # error 6.93e-13 above the tolerance 1.00e-12"
    def f(x):
        return (1.0 / (1.0 + 1e4 * (x - 0.3) ** 2))[:, None]

    full = _adaptive(f, 0.0, 1.0, 1e-12, 1e-12)
    assert len(full[2]) == 17 + 2
    monkeypatch.setattr(freq, "_MAX_SUBDIVISIONS", 17)
    with caplog.at_level(logging.WARNING, logger="qefsyn.freq"):
        total, err, edges = _adaptive(f, 0.0, 1.0, 1e-12, 1e-12)
    assert err <= 1e-12
    assert not caplog.records
    assert total[0] == full[0][0] and err == full[1]
    assert np.array_equal(edges, full[2])
    # the grid is the panel table in edge order
    assert np.all(np.diff(edges) > 0)


def test_quadrature_config_validation():
    for bad in (dict(abs_tol=-1.0), dict(abs_tol=np.inf),
                dict(rel_tol=np.inf), dict(abs_tol=np.nan),
                dict(rel_tol="tight"), dict(rel_tol=True),
                dict(abs_tol=10**400)):
        [name] = bad
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            QuadratureConfig(**bad)


@pytest.fixture(scope="module")
def cl_seed13():
    return random_stable_instance(np.random.default_rng(13))[2]


@pytest.mark.parametrize("entry", [
    qef_growth_rate, growth_rate_grid,
    check_admissible, chi_matrix, frechet_derivatives,
])
@pytest.mark.parametrize("theta", [np.nan, np.inf, -1.0, -0.05, "0.1", True])
def test_frequency_entry_points_reject_bad_theta(cl_seed13, entry, theta):
    # nan and inf used to return nan after stall warnings, a negative
    # theta passed check_admissible and gave a gradient, and nan ended in
    # numpy's LinAlgError
    with pytest.raises(ValidationError, match="theta must be finite"):
        entry(cl_seed13, theta)
