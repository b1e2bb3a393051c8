"""Runs one workload: a timed closed loop, or a traced pass per item.

The host's speed drifts: on the 2-core VM the benchmark was defined on,
the same frozen-grid evaluation took 23 ms in one minute and 42 ms a few
minutes later, a swing that would swamp any change in the library.  The
timed run therefore also times a fixed reference kernel before and after
every item and at pauses inside it (``Region.probe``), and rescales the
item's times to the reference speed of that machine: ``seconds * nominal
/ mean reference seconds`` around the item, and an inner call's by the
two probes around the stretch that holds it.  Each workload names the
kernel that tracks its work (``KERNELS``); both use numpy and scipy
only.  The per-node kernel mirrors the frequency-domain code: small
Hermitian eigen- and LU solves in a Python loop, and one 320x320
Hermitian eigensolve.  The dense kernel is one 600x600 Hermitian
eigendecomposition, like the time-domain oracle's.  Input generation,
which is frequency-domain work (theta bisection, controller design) on
every workload, is rescaled by the per-node kernel timed just before
and after it.  The import part of set-up time is not rescaled: it is
process start and file reads, which neither kernel tracks.  The record
keeps the unscaled figures.
"""

import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.linalg

import layers
from spans import Tracer
from workloads import Outcome, Region

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_REPEATS = 5

_rng = np.random.default_rng(0)


def _hermitian(n):
    a = _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    return a + a.conj().T


_SMALL = [_hermitian(4) for _ in range(512)]
_DENSE = _hermitian(320)
_LARGE = _hermitian(600)


def reference_s():
    """Wall seconds of one run of the per-node reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for m in _SMALL:
        d, u = np.linalg.eigh(m)
        lu = scipy.linalg.lu_factor(m + 10.0 * np.eye(4))
        acc += float(np.sum(np.log(np.cosh(0.1 * d))))
        acc += abs(scipy.linalg.lu_solve(lu, u)[0, 0])
    acc += float(np.linalg.eigvalsh(_DENSE)[-1])
    return time.perf_counter() - start


def dense_reference_s():
    """Wall seconds of one run of the dense reference kernel."""
    start = time.perf_counter()
    np.linalg.eigh(_LARGE)
    return time.perf_counter() - start


#: per kernel name: the timing function and its time (s) on the machine
#: the benchmark was defined on
KERNELS = {"per_node": (reference_s, 0.04),
           "dense": (dense_reference_s, 0.25)}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def time_imports():
    """Wall seconds, per repeat, of a fresh interpreter importing qefsyn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import qefsyn.cli, qefsyn.instances"],
                       cwd=SRC.parent, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def run_item(wl, inp, region):
    """Run one item; an unexpected exception counts it as failed."""
    try:
        out = wl.run_item(inp, region)
    except Exception:  # noqa: BLE001 - the benchmark must report, not stop
        out = Outcome(info={"error": traceback.format_exc()})
    out.wall_s = region.wall_s
    return out


def make_input(wl, gen_times, failures):
    start = time.perf_counter()
    try:
        inp = wl.make_input()
    except Exception:  # noqa: BLE001
        failures.append(traceback.format_exc())
        return None
    gen_times.append(time.perf_counter() - start)
    return inp


def measure(wl, seconds):
    """Closed loop: the next item starts only after the previous one ends.

    A new item starts while the elapsed time plus the median item so far
    stays within ``seconds``; at least one item always runs.  Returns the
    inputs' generation times and the outcomes, each with its scale: for
    generation, from the per-node kernel timed just before and after it;
    for an item, from the workload's kernel timed around and inside it.
    """
    kernel, nominal = KERNELS[wl.kernel]
    gen_nominal = KERNELS["per_node"][1]
    gen_times, gen_scales, failures, outcomes, scales = [], [], [], [], []
    call_scales = []
    dims = None
    reference_s(), kernel()   # the first calls pay one-time loading costs
    start = time.perf_counter()
    spent = []
    while True:
        t0 = time.perf_counter()
        before = reference_s()
        inp = make_input(wl, gen_times, failures)
        if inp is not None:
            gen_scales.append(gen_nominal
                              / statistics.mean([before, reference_s()]))
            dims = dims or wl.dims(inp)
            region = Region(reference=kernel)
            first = kernel()
            out = run_item(wl, inp, region)
            outcomes.append(out)
            refs = [first, *region.refs, kernel()]
            scales.append(nominal / statistics.mean(refs))
            # an inner call is scaled by the two probes around it
            marks = [0, *region.marks, len(out.calls_s)]
            call_scales.append([
                nominal / statistics.mean(refs[k:k + 2])
                for k in range(len(refs) - 1)
                for _ in range(marks[k], marks[k + 1])])
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - start + _median(spent) > seconds:
            break
    return gen_times, gen_scales, failures, outcomes, scales, call_scales, dims


def traced(wl):
    """Each item runs untraced, then traced; set-up is traced as well."""
    tracer = Tracer()
    layers.instrument(tracer)
    gen_times, failures, plain, spanned, dims = [], [], [], [], None
    try:
        for k in range(wl.trace_items):
            with tracer.span("bench.setup", f"setup-{k}"):
                inp = make_input(wl, gen_times, failures)
            if inp is None:
                continue
            dims = dims or wl.dims(inp)
            plain.append(run_item(wl, inp, Region()))
            spanned.append(run_item(wl, inp, Region(tracer, f"item-{k}")))
    finally:
        tracer.unwrap_all()
    return tracer, gen_times, failures, plain, spanned, dims


def _end_to_end(import_times, gen_times, gen_scales, outcomes, scales,
                call_scales):
    """setup_s, item_s and call_ms; each time is multiplied by its scale.

    Import times are not scaled.  ``gen_times``/``gen_scales`` and
    ``outcomes``/``scales`` are aligned per input.
    """
    gens = [g * s for g, s in zip(gen_times, gen_scales)]
    setup = _median(import_times) + _median(gens)
    items = [o.wall_s * s for o, s in zip(outcomes, scales)]
    calls = [c * s for o, cs in zip(outcomes, call_scales)
             for c, s in zip(o.calls_s, cs)]
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "item_s": {"value": _median(items), "unit": "s"},
        "call_ms": {"value": 1e3 * _median(calls), "unit": "ms"},
    }


def run(wl, seconds, trace):
    """Run one workload; returns the result object and the full record."""
    record = {"workload": wl.name, "seconds": seconds, "trace": trace}
    if trace:
        import_times = []
        tracer, gen_times, failures, plain, outcomes, dims = traced(wl)
        metrics = layers.metrics(tracer, plain, outcomes)
        checked = plain + outcomes
        record.update(self_time_table=tracer.table(), spans=tracer.dump(),
                      unwrapped=tracer.missing)
    else:
        import_times = time_imports()
        (gen_times, gen_scales, failures, outcomes, scales, call_scales,
         dims) = measure(wl, seconds)
        checked = outcomes
        metrics = _end_to_end(import_times, gen_times, gen_scales,
                              outcomes, scales, call_scales)
        ones = [1.0] * len(outcomes)
        record.update(
            call=wl.call_unit, scales=scales, gen_scales=gen_scales,
            unscaled=_end_to_end(import_times, gen_times, ones, outcomes,
                                 ones, [[1.0] * len(o.calls_s)
                                        for o in outcomes]))
    attempted = len(checked) + len(failures)
    failed = sum(not o.ok for o in checked) + len(failures)
    record.update(import_s=import_times, dims=dims, gen_s=gen_times,
                  input_failures=failures,
                  items=[{"wall_s": o.wall_s, "ok": o.ok, "info": o.info,
                          "calls": len(o.calls_s)} for o in checked],
                  failed_frac=failed / max(attempted, 1), metrics=metrics)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record
