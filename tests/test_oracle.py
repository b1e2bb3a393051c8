"""Time-domain kernels and discretized operators of the finite-horizon cost."""

import re
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from qefsyn.errors import InadmissibleError, NumericalError, ValidationError
from qefsyn.freq import tanhc, theta_for_spec1
from qefsyn import freq, oracle
from qefsyn.model import ControllerParams, assemble_closed_loop
from qefsyn.oracle import (
    build_operators,
    ccr_kernel,
    default_horizon,
    finite_horizon_qef,
    growth_rate_estimate,
)
from qefsyn.synth import lqg_controller


def test_ccr_kernel_at_zero_is_gamma(cl_square):
    k = ccr_kernel(cl_square, [0.0])
    assert np.allclose(k.values[0], cl_square.Gamma)


def test_ccr_kernel_antisymmetry(cl_square, rng):
    taus = rng.uniform(-3.0, 3.0, size=8)
    kp = ccr_kernel(cl_square, taus)
    km = ccr_kernel(cl_square, -taus)
    for vp, vm in zip(kp.values, km.values):
        assert np.allclose(vp + vm.T, 0.0, atol=1e-12)


def test_ccr_kernel_ode_residual(cl_square):
    # d/dtau Lambda = calA Lambda for tau > 0, checked by central differences
    h = 1e-5
    taus = np.array([0.5 - h, 0.5, 0.5 + h, 2.0 - h, 2.0, 2.0 + h])
    k = ccr_kernel(cl_square, taus)
    for base in (0, 3):
        dot = (k.values[base + 2] - k.values[base]) / (2 * h)
        resid = dot - cl_square.calA @ k.values[base + 1]
        assert np.max(np.abs(resid)) <= 1e-6


def test_ccr_kernel_block_accessors(cl_square):
    k = ccr_kernel(cl_square, [0.7])
    n = cl_square.n
    assert np.allclose(k.lambda11(0), k.values[0][:n, :n])
    assert np.allclose(k.lambda21(0), k.values[0][n:, :n])


def test_build_operators_symmetry_classes(cl_square):
    grid = build_operators(cl_square, 0.05, T=20.0, N=60)
    assert np.max(np.abs(grid.L + grid.L.T)) <= 1e-12 * max(1, np.max(np.abs(grid.L)))
    assert np.max(np.abs(grid.P - grid.P.T)) <= 1e-12 * max(1, np.max(np.abs(grid.P)))
    pn = np.linalg.norm(grid.P, 2)
    assert np.min(np.linalg.eigvalsh(grid.P)) >= -1e-9 * pn
    kvals = np.linalg.eigvalsh(grid.K)
    assert np.all(kvals > 0.0)
    assert np.max(kvals) <= 1.0 + 1e-12


def test_build_operators_rejects_tiny_grid(cl_square):
    with pytest.raises(ValidationError):
        build_operators(cl_square, 0.05, T=1.0, N=1)


def test_build_operators_rejects_non_integer_grid(cl_square):
    for N in (40.5, "40", True):
        with pytest.raises(ValidationError):
            build_operators(cl_square, 0.05, T=1.0, N=N)


def test_oracle_rejects_bad_theta(cl_square):
    grid = build_operators(cl_square, 0.05, T=5.0, N=40)
    for theta in (-0.1, np.nan, np.inf, "0.1"):
        with pytest.raises(ValidationError):
            build_operators(cl_square, theta, T=5.0, N=40)
        with pytest.raises(ValidationError):
            finite_horizon_qef(grid, theta)


def test_build_operators_matches_blockwise_reference(cl_lqg):
    # block (i, j) = sqrt(w_i w_j) K(t_i - t_j), with mho(-tau) = -mho(tau)^T
    # and P(-tau) = P(tau)^T, each kernel value from its own expm
    N, T = 7, 3.0
    grid = build_operators(cl_lqg, 0.05, T=T, N=N)
    Sigma = scipy.linalg.solve_continuous_lyapunov(
        cl_lqg.calA, -cl_lqg.calB @ cl_lqg.calB.T)
    C = cl_lqg.calC
    nu = C.shape[0]
    assert nu == 3

    def kernels(tau):
        E = scipy.linalg.expm(abs(tau) * cl_lqg.calA)
        mho = C @ E @ cl_lqg.Gamma @ C.T
        pk = C @ E @ Sigma @ C.T
        return (mho, pk) if tau >= 0 else (-mho.T, pk.T)

    L_ref = np.empty((N * nu, N * nu))
    P_ref = np.empty((N * nu, N * nu))
    for i in range(N):
        for j in range(N):
            mho, pk = kernels(grid.times[i] - grid.times[j])
            scale = np.sqrt(grid.weights[i] * grid.weights[j])
            L_ref[i * nu:(i + 1) * nu, j * nu:(j + 1) * nu] = scale * mho
            P_ref[i * nu:(i + 1) * nu, j * nu:(j + 1) * nu] = scale * pk
    assert np.max(np.abs(grid.L - L_ref)) <= 1e-12 * np.max(np.abs(L_ref))
    assert np.max(np.abs(grid.P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))


def test_build_operators_rejects_unstable(canonical_plant, weights_square):
    ctrl = ControllerParams(a=np.eye(2), b=np.zeros((2, 1)),
                            c=np.zeros((1, 2)))
    cl = assemble_closed_loop(canonical_plant, weights_square, ctrl)
    with pytest.raises(InadmissibleError):
        build_operators(cl, 0.05, T=5.0, N=20)


@pytest.mark.parametrize("T", [1e40, 1e290])
def test_build_operators_rejects_non_finite_operators(cl_square, T):
    # at such a step e^{h calA} is not finite, and eigh used to end in
    # numpy's LinAlgError "Eigenvalues did not converge"
    with pytest.raises(NumericalError,
                       match=re.escape(f"horizon T={T:g} with N=10 ")):
        build_operators(cl_square, 0.05, T=T, N=10)


def test_build_operators_rejects_bad_horizon(cl_square):
    # True used to run as a horizon of 1; "5" and None ended in numpy's
    # TypeError
    for T in (-5.0, 0.0, np.nan, np.inf, True, "5", None):
        with pytest.raises(ValidationError, match="horizon must be"):
            build_operators(cl_square, 0.05, T=T, N=20)


def _complex_route(grid, theta):
    """ln Xi_T and K_T by the complex eigh(i L) and an eigh(K) for sqrt(K)."""
    d, U = np.linalg.eigh(1j * grid.L)
    K = (U * tanhc(theta * d)) @ U.conj().T
    K = 0.5 * (K + K.conj().T).real
    kvals, kvecs = np.linalg.eigh(K)
    sqrtK = (kvecs * np.sqrt(np.clip(kvals, 0.0, None))) @ kvecs.T
    s = np.linalg.eigvalsh(sqrtK @ grid.P @ sqrtK)
    value = -0.5 * (np.sum(np.log(np.cosh(theta * d)))
                    + np.sum(np.log1p(-theta * np.clip(s, 0.0, None))))
    return value, K


@pytest.mark.parametrize("N", [40, 41])
def test_real_route_matches_complex_reference(cl_lqg, N):
    # nu = 3, so N nu is even for N = 40 and odd for N = 41, where the
    # skew-symmetric L has an exact zero eigenvalue without a +- partner
    theta = theta_for_spec1(cl_lqg, 0.25)
    grid = build_operators(cl_lqg, theta, T=default_horizon(cl_lqg.calA), N=N)
    assert grid.L.shape == (3 * N, 3 * N)
    d_ref = np.sort(np.abs(np.linalg.eigvalsh(1j * grid.L)))
    assert np.allclose(grid.d**2, d_ref**2, rtol=0.0,
                       atol=1e-12 * d_ref[-1]**2)
    ref, K_ref = _complex_route(grid, theta)
    assert np.max(np.abs(grid.K - K_ref)) <= 1e-12
    assert abs(finite_horizon_qef(grid) - ref) <= 1e-12 * abs(ref)
    ref_other, _ = _complex_route(grid, 0.6 * theta)
    assert (abs(finite_horizon_qef(grid, 0.6 * theta) - ref_other)
            <= 1e-12 * abs(ref_other))


def test_finite_horizon_qef_zero_theta(cl_square):
    grid = build_operators(cl_square, 0.05, T=10.0, N=40)
    assert finite_horizon_qef(grid, theta=0.0) == 0.0


def test_finite_horizon_qef_positive_and_increasing(cl_square):
    v = []
    for T in (5.0, 10.0, 20.0):
        grid = build_operators(cl_square, 0.05, T=T, N=80)
        v.append(finite_horizon_qef(grid))
    assert v[0] > 0
    assert v[0] < v[1] < v[2]


def _perturbed_loop(plant, weights):
    """Criterion 2's loop: the LQG controller plus a fixed perturbation.

    On the LQG loops theta lambda_max(P K) only tends to 1 as theta grows;
    on this loop it crosses 1 for real, at theta* ~ 5.7.
    """
    ctrl = lqg_controller(plant, weights) + ControllerParams(
        a=0.05 * np.array([[1.0, -0.5], [0.25, 0.75]]),
        b=0.05 * np.array([[-0.5], [1.0]]),
        c=0.05 * np.array([[0.5, -0.25]]))
    return assemble_closed_loop(plant, weights, ctrl)


def test_finite_horizon_qef_rejects_excess_risk(canonical_plant, weights_lqg):
    cl = _perturbed_loop(canonical_plant, weights_lqg)
    theta = 20.0
    grid = build_operators(cl, theta, T=20.0, N=60)
    # P K is similar to the symmetric sqrt(K) P sqrt(K): real spectrum
    excess = theta * np.max(np.linalg.eigvals(grid.P @ grid.K).real)
    assert excess > 1.0 + 1e-4
    with pytest.raises(InadmissibleError):
        finite_horizon_qef(grid)


def test_admissibility_boundary_matches_eigenvalue_reference(
        canonical_plant, weights_lqg):
    cl = _perturbed_loop(canonical_plant, weights_lqg)
    grid = build_operators(cl, 0.05, T=default_horizon(cl.calA), N=30)
    VPV = grid.V.T @ grid.P @ grid.V

    # theta* solves theta lambda_max(D^1/2 V^T P V D^1/2) = 1, D = tanhc(theta d)
    def excess(theta):
        sqrt_t = np.sqrt(tanhc(theta * grid.d))
        s = np.linalg.eigvalsh(sqrt_t[:, None] * VPV * sqrt_t)
        return theta * s[-1] - 1.0

    lo, hi = 0.0, theta_for_spec1(cl, 0.25)
    while excess(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
    with pytest.raises(InadmissibleError):
        finite_horizon_qef(grid, hi * (1 + 1e-6))
    assert np.isfinite(finite_horizon_qef(grid, lo * (1 - 1e-6)))


def test_default_horizon_scaling(cl_square):
    decay = abs(np.max(np.linalg.eigvals(cl_square.calA).real))
    assert np.isclose(default_horizon(cl_square.calA), 40.0 / decay)


def test_growth_rate_estimate_returns_rows(cl_square):
    rows = growth_rate_estimate(cl_square, 0.05, [5.0, 10.0], 40)
    assert len(rows) == 2
    assert rows[0][0] == 5.0 and rows[1][0] == 10.0
    assert all(np.isfinite(r) for _, r in rows)


def _serial_rows(cl, theta, T_list, N):
    """The ladder one horizon after another, growth_rate_estimate's
    reference."""
    rows = []
    for T in T_list:
        grid = build_operators(cl, theta, T, N)
        rows.append((float(T), finite_horizon_qef(grid) / T))
    return rows


@pytest.fixture()
def blas_threads(monkeypatch):
    """Sets the BLAS thread count growth_rate_estimate sizes its pool by."""
    return lambda n: monkeypatch.setattr(oracle, "_blas_threads", lambda: n)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("loop", ["square", "perturbed"])
def test_growth_rate_estimate_is_the_serial_loop_bit_for_bit(
        cl_square, canonical_plant, weights_lqg, blas_threads, loop,
        threads):
    # the perturbed loop and theta are criterion 2's, at a small N
    blas_threads(threads)
    if loop == "square":
        cl, theta, N = cl_square, 0.05, 40
    else:
        cl = _perturbed_loop(canonical_plant, weights_lqg)
        theta, N = theta_for_spec1(cl, 0.25), 61
    T = default_horizon(cl.calA)
    T_list = [T / 4, T / 2, T]
    rows = growth_rate_estimate(cl, theta, T_list, N)
    assert rows == _serial_rows(cl, theta, T_list, N)
    assert [T for T, _ in rows] == T_list


def test_horizons_sharing_a_cold_factor_cache_match_the_serial_loop(
        cl_square, blas_threads):
    # the threads share only freq's cache of calA factorizations; six
    # horizons (more than the cores) race to fill it from empty, with a
    # short switch interval
    blas_threads(1)
    T_list = [2.0 + k for k in range(6)]
    serial = _serial_rows(cl_square, 0.05, T_list, 30)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(5):
            freq._factor.cache_clear()
            assert growth_rate_estimate(cl_square, 0.05, T_list, 30) == serial
    finally:
        sys.setswitchinterval(interval)


def test_growth_rate_estimate_of_no_horizons_is_empty(cl_square,
                                                      blas_threads):
    for threads in (1, 2):
        blas_threads(threads)
        assert growth_rate_estimate(cl_square, 0.05, [], 40) == []


def _recording_builds(monkeypatch, wait=None):
    """Patches build_operators to record (thread, T) per call, first
    calling `wait`; returns the record."""
    calls = []
    build = oracle.build_operators

    def recording(cl, theta, T, N):
        calls.append((threading.get_ident(), T))
        if wait is not None:
            wait()
        return build(cl, theta, T, N)

    monkeypatch.setattr(oracle, "build_operators", recording)
    return calls


def test_single_threaded_blas_runs_the_horizons_at_once(
        cl_square, monkeypatch, blas_threads):
    # the barrier breaks unless all three horizons are under way together
    blas_threads(1)
    calls = _recording_builds(monkeypatch,
                              threading.Barrier(3, timeout=30.0).wait)
    growth_rate_estimate(cl_square, 0.05, [5.0, 10.0, 20.0], 40)
    threads = {thread for thread, _ in calls}
    assert len(threads) == 3 and threading.get_ident() not in threads


def test_threaded_blas_runs_the_horizons_in_turn(cl_square, monkeypatch,
                                                 blas_threads):
    # concurrent callers of a threaded OpenBLAS spin while they queue for
    # its threads: on 2 CPUs with 2 BLAS threads, criterion 2's ladder
    # took 9.9 s at once against 5.2 s in turn
    blas_threads(2)
    calls = _recording_builds(monkeypatch)
    growth_rate_estimate(cl_square, 0.05, [5.0, 10.0, 20.0], 40)
    assert [T for _, T in calls] == [5.0, 10.0, 20.0]
    assert len({thread for thread, _ in calls}) == 1


@pytest.mark.parametrize("env, cpus, expected", [
    ({}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, 1),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
    ({"OMP_NUM_THREADS": "1"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "one"}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "8"}, 2, 2),
    ({}, None, 1),
])
def test_blas_threads_reads_the_environment_as_openblas_does(
        monkeypatch, env, cpus, expected):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
    assert oracle._blas_threads() == expected


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("T_list", [
    [5.0, 1e4, 1e40],       # too coarse (InadmissibleError), then non-finite
    [5.0, 1e40, 1e4],       # non-finite (NumericalError), then too coarse
])
def test_growth_rate_estimate_raises_the_first_failing_horizon(
        cl_square, blas_threads, T_list, threads):
    blas_threads(threads)
    with pytest.raises((InadmissibleError, NumericalError)) as serial:
        _serial_rows(cl_square, 0.05, T_list, 10)
    with pytest.raises(type(serial.value), match=re.escape(
            str(serial.value))):
        growth_rate_estimate(cl_square, 0.05, T_list, 10)


def test_first_failing_horizon_wins_when_a_later_one_fails_first(
        cl_square, monkeypatch, blas_threads):
    # the T = 1e4 horizon waits until the T = 1e40 one has raised, so the
    # later horizon in T order is the first to fail in time
    blas_threads(1)
    later_failed = threading.Event()
    build = oracle.build_operators

    def ordered(cl, theta, T, N):
        if T == 1e4:
            assert later_failed.wait(timeout=30.0)
        try:
            return build(cl, theta, T, N)
        except NumericalError:
            later_failed.set()
            raise

    monkeypatch.setattr(oracle, "build_operators", ordered)
    with pytest.raises(InadmissibleError,
                       match=re.escape("theta * lambda_max(P_T K_T) >= 1")):
        growth_rate_estimate(cl_square, 0.05, [5.0, 1e4, 1e40], 10)
    assert later_failed.is_set()
