#!/usr/bin/env python3
"""L-BFGS synthesis demo on a random plant.

Draws a random plant, initializes with its LQG controller, runs the
L-BFGS descent on the exponential-cost growth rate at a risk level pinned
by the spectral condition, writes the convergence trace to CSV and prints
the termination reason (`termination=stationary` once the gradient test
holds).
"""

import argparse

import numpy as np

from qefsyn.freq import QuadratureConfig, theta_for_spec1
from qefsyn.instances import canonical_weights_square, random_stable_instance
from qefsyn.synth import SynthesisConfig, synthesize


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spec1-target", type=float, default=0.4,
                    help="risk level as a target spectral-condition supremum")
    ap.add_argument("--max-iters", type=int, default=100)
    ap.add_argument("--output", default="trace.csv")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    plant, _, cl = random_stable_instance(rng)
    theta = theta_for_spec1(cl, args.spec1_target)
    print(f"theta={theta:.6g}")
    cfg = SynthesisConfig(theta=theta, max_iters=args.max_iters,
                          quad=QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9))
    report = synthesize(plant, canonical_weights_square(), cfg)

    with open(args.output, "w") as fh:
        fh.write("iter,ups,residual,step\n")
        for it, ups, resid, step in report.iterates:
            fh.write(f"{it},{ups:.17g},{resid:.17g},{step:.17g}\n")
    print(f"termination={report.termination}")
    print(f"ups={report.cost:.12g}  residual={report.residual:.3e}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
