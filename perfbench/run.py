#!/usr/bin/env python3
"""qefsyn benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload synth --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, and the run fails (exit 2, no result)
when it is missing.  With ``--trace 0`` the run measures end-to-end
metrics for ``--seconds`` seconds; with ``--trace 1`` it runs a fixed
number of items twice, untraced and then traced, and reports per-layer
metrics.  The last line of standard output is the JSON result; the full
record (environment, dimensions, per-item details, spans) is written to
``.bench_out/`` in the checkout.
"""

import os

# single-threaded BLAS, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXIT_NO_SOURCE = 2


def environment(seed):
    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qefsyn" / "__init__.py").is_file():
        print(f"no qefsyn sources under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    sys.path.insert(0, str(SRC))
    import qefsyn
    if Path(qefsyn.__file__).resolve().parent != SRC / "qefsyn":
        print(f"qefsyn imported from {qefsyn.__file__}, not {SRC}",
              file=sys.stderr)
        return EXIT_NO_SOURCE
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    result, record = harness.run(wl, args.seconds, args.trace)
    record["env"] = environment(args.seed)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {record['failed_frac']:.3g}); record {path}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
