#!/usr/bin/env python3
"""Write a CLI instance file (JSON schema): the canonical test plant, or
the random plant of a seed, at a given theta or at the theta that puts the
spectral supremum of the plant's LQG loop at a target.

Exit codes are the CLI's (0 ok, 2 validation, 3 inadmissible, 4
numerical, 5 io); a rejected flag or an unreachable target writes no file."""

import argparse
import json
import numbers
import sys

import numpy as np

from qefsyn.cli import EXIT_OK, controller_to_json, exit_code
from qefsyn.freq import check_number, check_theta, theta_for_spec1
from qefsyn.instances import (
    canonical_plant_spec,
    canonical_weights_lqg,
    canonical_weights_square,
    random_stable_instance,
)
from qefsyn.model import assemble_closed_loop, derive_plant
from qefsyn.synth import lqg_controller


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("output", help="path of the JSON instance file to write")
    ap.add_argument("--seed", type=int, default=None,
                    help="write the plant of random_stable_instance drawn "
                         "with this seed instead of the canonical plant")
    risk = ap.add_mutually_exclusive_group()
    risk.add_argument("--theta", type=float, default=0.05,
                      help="risk parameter (default 0.05)")
    risk.add_argument("--spec1", type=float, default=None, metavar="TARGET",
                      help="set theta so that the spectral-condition "
                           "supremum of the LQG loop reads TARGET")
    ap.add_argument("--stacked-weights", action="store_true",
                    help="use the nu=3 state/control penalty instead of the "
                         "square nu=2 weights")
    ap.add_argument("--with-controller", action="store_true",
                    help="embed the LQG controller in the instance")
    args = ap.parse_args()
    return exit_code(lambda: write(args))


def write(args):
    check_theta(args.theta)
    if args.seed is not None:
        check_number("seed", args.seed, lambda v: v >= 0, "an integer >= 0",
                     numbers.Integral)
    S, K = (canonical_weights_lqg() if args.stacked_weights
            else canonical_weights_square())
    if args.seed is None:
        plant = derive_plant(canonical_plant_spec())
        ctrl = lqg_controller(plant, (S, K))
    else:
        plant, ctrl, _ = random_stable_instance(
            np.random.default_rng(args.seed), (S, K))
    theta = args.theta
    if args.spec1 is not None:
        theta = theta_for_spec1(assemble_closed_loop(plant, (S, K), ctrl),
                                args.spec1)
    doc = {
        "plant": {"n": plant.n, "m": plant.m, "d": plant.d, "r": plant.r,
                  **{k: getattr(plant, k).ravel().tolist()
                     for k in ("Theta", "R", "M", "N", "D")}},
        "weights": {"S": S.ravel().tolist(), "K": K.ravel().tolist()},
        "theta": theta,
    }
    if args.with_controller:
        doc["controller"] = controller_to_json(ctrl)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
