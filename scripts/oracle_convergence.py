#!/usr/bin/env python3
"""Time-domain oracle convergence study on the canonical plant.

Compares ln Xi_T / T from the Nystrom-discretized finite-horizon cost
against the frequency-domain growth rate over a ladder of horizons and
grid resolutions, writing one CSV row per (T, N) pair.  The horizons are
the ladder of `qefsyn oracle-compare`: a quarter, a half and all of the
oracle's default horizon of 40 slowest closed-loop time constants.
"""

import argparse

import numpy as np

from qefsyn.freq import QuadratureConfig, qef_growth_rate, theta_for_spec1
from qefsyn.instances import canonical_plant_spec, canonical_weights_lqg
from qefsyn.model import ControllerParams, assemble_closed_loop, derive_plant
from qefsyn.oracle import build_operators, default_horizon, finite_horizon_qef
from qefsyn.synth import lqg_controller


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="oracle_convergence.csv")
    ap.add_argument("--spec1-target", type=float, default=0.25,
                    help="risk level as a target spectral-condition supremum")
    args = ap.parse_args()

    plant = derive_plant(canonical_plant_spec())
    weights = canonical_weights_lqg()
    ctrl = lqg_controller(plant, weights) + ControllerParams(
        a=0.05 * np.array([[1.0, -0.5], [0.25, 0.75]]),
        b=0.05 * np.array([[-0.5], [1.0]]),
        c=0.05 * np.array([[0.5, -0.25]]),
    )
    cl = assemble_closed_loop(plant, weights, ctrl)
    theta = theta_for_spec1(cl, args.spec1_target)
    ups = qef_growth_rate(cl, theta,
                          QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10))
    T_final = default_horizon(cl.calA)
    print(f"theta={theta:.6g}  ups={ups:.12g}  T={T_final:.6g}")

    with open(args.output, "w") as fh:
        fh.write("T,N,lnXi_over_T,ups_freq,rel_gap\n")
        for T in (T_final / 4, T_final / 2, T_final):
            for N in (200, 400, 800):
                rate = finite_horizon_qef(build_operators(cl, theta, T, N)) / T
                gap = abs(rate - ups) / abs(ups)
                fh.write(f"{T:.17g},{N},{rate:.17g},{ups:.17g},{gap:.17g}\n")
                print(f"T={T:8.3f}  N={N:4d}  gap={gap:.3e}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
