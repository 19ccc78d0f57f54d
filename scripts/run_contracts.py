#!/usr/bin/env python3
"""Randomized round-contract sweep: many (P, flavor, skew, tau) configs,
each audited for liveness, cross-rank bit-identity, flagged-subset-sum
correctness, NAP >= 1, and tau-bounded gradient staleness.

Exit 0 when every configuration is clean, 3 otherwise.
"""

import argparse
import sys

from eagercoll.harness import contract_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", type=int, default=500)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    bad = 0
    for i, (cfg, r) in enumerate(contract_sweep(args.configs, args.seed)):
        if not r.ok:
            bad += 1
            print(f"config {i}: p={cfg.p} {cfg.flavors[0]} {cfg.delay.kind} "
                  f"tau={cfg.tau}: {r.by_kind()}")
    print(f"{args.configs - bad}/{args.configs} configurations clean")
    return 0 if bad == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
