"""The benchmark's own tests: tiny-size smoke runs and the output checks.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import os

# single-threaded BLAS, as in run.py: threaded OpenBLAS next to another
# busy process can run the small solves here many times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from qefsyn import grad, synth  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# small problems: loose quadrature, a short descent, a coarse oracle grid
TINY = {
    "gradcheck": dict(abs_tol=1e-9, rel_tol=1e-8),
    "synth": dict(max_iters=1),
    "oracle": dict(N=60),
}


def _tiny(name, tmp_path, seed=0):
    wl = workloads.WORKLOADS[name](seed, tmp_path, **TINY[name])
    wl.trace_items = 1
    return wl


def _assert_named_metrics(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert np.isfinite(metrics[m["name"]]["value"])


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(name, tmp_path):
    result, record = harness.run(_tiny(name, tmp_path), seconds=0.1, trace=0)
    assert result["attempted"] >= 1
    _assert_named_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["dims"]["nu"] >= 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    result, record = harness.run(_tiny(name, tmp_path), seconds=0.1, trace=1)
    _assert_named_metrics(result["metrics"], SPEC["per_layer"])
    metrics = result["metrics"]
    # self times of all spans plus the benchmark's own remainder cover the
    # traced wall time exactly
    table = record["self_time_table"]
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(metrics["trace.wall_s"]["value"])
    assert metrics["trace.unattributed_s"]["value"] >= 0.0
    # quadrature nodes are read off the grids: whole GK15 panels
    for key in ("freq.growth_rate_adaptive.nodes", "grad.chi_nodes"):
        assert metrics[key]["value"] % layers.GK_NODES == 0
    if name == "gradcheck":
        grid_nodes = record["items"][0]["info"]["frozen_nodes"]
        calls = metrics["freq.growth_rate_frozen.calls"]["value"]
        busy = metrics["freq.growth_rate_frozen.s"]["value"]
        assert metrics["freq.growth_rate_frozen.us_per_node"]["value"] \
            == pytest.approx(1e6 * busy / (calls * grid_nodes))
    if name == "synth":
        assert metrics["freq.growth_rate_adaptive.nodes"]["value"] > 0
        assert metrics["grad.chi_nodes"]["value"] > 0


def test_wrap_skips_what_the_library_no_longer_has():
    tracer = Tracer()
    tracer.wrap("qefsyn.freq.no_such_function")
    tracer.wrap("qefsyn.no_such_module.f")
    assert tracer.missing == ["qefsyn.freq.no_such_function",
                              "qefsyn.no_such_module.f"]
    assert tracer.spans == []


def _scaled_gradient(monkeypatch, factor):
    orig = grad.frechet_derivatives

    def corrupted(*args, **kwargs):
        rep = orig(*args, **kwargs)
        return dataclasses.replace(rep, dUps_da=factor * rep.dUps_da,
                                   dUps_db=factor * rep.dUps_db,
                                   dUps_dc=factor * rep.dUps_dc)

    monkeypatch.setattr(grad, "frechet_derivatives", corrupted)


def test_gradcheck_passes_then_counts_a_scaled_gradient(monkeypatch, tmp_path):
    result, _ = harness.run(workloads.Gradcheck(0, tmp_path), seconds=0.1,
                            trace=0)
    assert result["correct"] and result["failed"] == 0
    _scaled_gradient(monkeypatch, 1.0 + 1e-3)
    result, record = harness.run(workloads.Gradcheck(0, tmp_path),
                                 seconds=0.1, trace=0)
    assert result["failed"] == result["attempted"] >= 1
    assert record["failed_frac"] == 1.0
    assert not result["correct"]


def test_synth_counts_a_cost_above_lqg(monkeypatch, tmp_path):
    orig = synth.synthesize

    def worse(*args, **kwargs):
        rep = orig(*args, **kwargs)
        rep.cost = rep.iterates[0][1] * (1.0 + 1e-6)
        return rep

    monkeypatch.setattr(synth, "synthesize", worse)
    result, _ = harness.run(_tiny("synth", tmp_path), seconds=0.1, trace=0)
    assert result["failed"] == result["attempted"] >= 1


def test_oracle_counts_a_wrong_time_domain_value(monkeypatch, tmp_path):
    from qefsyn import oracle
    orig = oracle.finite_horizon_qef
    monkeypatch.setattr(oracle, "finite_horizon_qef",
                        lambda grid, theta=None: 1.05 * orig(grid, theta))
    wl = workloads.Oracle(0, tmp_path, N=200)
    result, record = harness.run(wl, seconds=0.1, trace=0)
    assert result["failed"] == result["attempted"] >= 1
    assert record["items"][0]["info"]["exit_code"] == 0


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
