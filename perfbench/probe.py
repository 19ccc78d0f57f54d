"""Set-up time of one workload in a fresh interpreter.

Prints {"setup_s": ..., "setup_raw_s": ...}: the wall time from interpreter
start-up done to the workload's first handles (and, for training, its
dataset) built, before any simulated event; setup_s is scaled by the speed
reference measured right after (see speed.py).  Run from the repository root:

    python3 perfbench/probe.py --workload bench-wide --seed 1234
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, "src")
import workloads  # noqa: E402  (imports eagercoll)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    built = workloads.setup(args.workload, args.seed)
    elapsed = time.perf_counter() - T0
    del built
    import speed

    sp = speed.Speed(workloads.speed_kind(args.workload))
    ref = sp()
    print(json.dumps({"setup_s": elapsed * sp.scale(ref, ref), "setup_raw_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
