#!/usr/bin/env python3
"""Wall-clock benchmark of eagercoll, run from the repository root.

    python3 perfbench/run.py --workload bench-wide --seed 1234 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of untraced passes; --trace 1
reports per-layer metrics from passes run under perfbench/tracer.py,
alternated with untraced passes to measure the tracing overhead.  Each run
is one fresh interpreter: a warm-up pass, then timed passes until --seconds
have gone by (at least three; two pairs when tracing).  Every pass's outputs
are checked.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it print
the same numbers for people, with the environment stamp.
--workload all runs every workload, each in its own interpreter.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# workloads, speed and tracer import numpy and eagercoll from ./src, so they
# are imported inside the functions that use them, after main() has checked
# that ./src holds eagercoll.
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = Path("src")
PINS = HERE / "pins.json"
NAMES = ("bench-wide", "bench-fat", "train-hyperplane", "audit")
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED = 2
# Largest share by which a traced pass's span self-times may miss its wall
# time; a miss means a span was left open or a wrapper escaped the tracer.
SELF_SUM_TOLERANCE = 0.02

E2E_UNITS = {
    "setup_s": "s",
    "rank_rounds_per_s": "1/s",
    "op_ms.p50": "ms",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_per_round"):
        return "s"
    if name.endswith("us_per_fire"):
        return "us"
    if "bytes" in name:
        return "B"
    if name.endswith(("matches_per_pump", "self_time_share", "overhead")):
        return "ratio"
    return "count"


def median(xs) -> float:
    return statistics.median(list(xs))


# ---------------------------------------------------------------------------
# environment


def stamp(seed: int, passes: int) -> dict:
    import numpy as np

    rev = None
    if Path(".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=30)
            rev = r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    h = hashlib.sha256()
    for f in sorted((SRC / "eagercoll").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"git_rev": rev, "src_sha256": h.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "passes": passes}


def probe_setup(name: str, seed: int) -> list[dict]:
    """Set-up time from SETUP_PROBES fresh interpreters, after one that
    only warms the bytecode cache."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", name,
           "--seed", str(seed)]
    probes = []
    for i in range(SETUP_PROBES + 1):
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            probes.append(json.loads(r.stdout.splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# runs


def _passes_until(run_pass, seconds: float, minimum: int, body) -> None:
    end = time.perf_counter() + seconds
    n = 0
    while n < minimum or time.perf_counter() < end:
        body(run_pass)
        gc.collect()  # pass boundary: cycles from one pass don't pile into the next
        n += 1


def _outcome(name: str, seed: int, all_passes: list, errors: list[str]) -> tuple:
    """(correct, attempted, failed, errors) of a run."""
    import workloads

    ops = [op for ps in all_passes for op in ps.ops]
    errors = errors + [e for ps in all_passes for e in ps.errors]
    outputs = {(ps.digest, json.dumps(ps.virtual, sort_keys=True)) for ps in all_passes}
    if len(outputs) != 1:
        errors.append(f"outputs differ between passes: {sorted(outputs)}")
    first = all_passes[0]
    pins = json.loads(PINS.read_text())
    if seed == workloads.DEFAULT_SEED:
        pin = pins.get(name)
        if pin != {"digest": first.digest, "virtual": first.virtual}:
            errors.append(f"outputs differ from pins.json: got digest {first.digest} "
                          f"virtual {first.virtual}, pinned {pin}")
    failed = sum(not op.ok for op in ops)
    return not errors and not failed, len(ops), failed, errors


def measure(name: str, seed: int, seconds: float) -> dict:
    import speed
    import workloads

    probes = probe_setup(name, seed)
    sp = speed.Speed(workloads.speed_kind(name))
    run_pass = workloads.make_pass(name, seed, OUT, sp)
    warm = run_pass()
    gc.collect()
    timed = []
    _passes_until(run_pass, seconds, MIN_PASSES, lambda f: timed.append(f()))

    def main_ops(ps):
        return [op for op in ps.ops if not op.explore]

    metrics = {
        "setup_s": median(p["setup_s"] for p in probes),
        "rank_rounds_per_s": median(ps.rank_rounds / ps.sim_s() for ps in timed),
        "op_ms.p50": median(op.wall_s * op.scale * 1e3
                            for ps in timed for op in main_ops(ps)),
        "pass_s": median(ps.pass_s() for ps in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = dict(warm.virtual)
    if name == "audit":
        extra["configs_per_s"] = median(len(main_ops(ps)) / ps.sim_s() for ps in timed)
        extra["config_ms.p50"] = metrics["op_ms.p50"]
        extra["config_ms.p90"] = median(
            statistics.quantiles([op.wall_s * op.scale for op in main_ops(ps)], n=10)[8]
            * 1e3 for ps in timed)
        extra["explore_s"] = median(ps.explore_s() for ps in timed)
    # the same figures before scaling, and the scale itself
    extra["raw.setup_s"] = median(p["setup_raw_s"] for p in probes)
    extra["raw.rank_rounds_per_s"] = median(ps.rank_rounds / ps.sim_s(scaled=False)
                                            for ps in timed)
    extra["speed.reference_ms"] = median(sp.samples) * 1e3
    samples = {"setup_probes": len(probes), "ops_per_pass": len(timed[0].ops),
               "speed_samples": len(sp.samples), "speed_reference": sp.kind}
    raw = {"setup": probes, "speed_s": sp.samples,
           "op": [[(op.label, op.wall_s, op.check_s, op.scale) for op in ps.ops]
                  for ps in timed]}
    return {"passes": [warm] + timed, "timed": len(timed), "metrics": metrics,
            "units": dict(E2E_UNITS), "extra": extra, "samples": samples, "raw": raw,
            "errors": []}


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    import speed
    import tracer
    import workloads

    tr = tracer.Tracer()
    # per-layer figures are raw wall time: no speed reference inside traced passes
    run_pass = workloads.make_pass(name, seed, OUT, speed.Speed(None))
    passes = [run_pass()]
    gc.collect()
    plain_walls, traced_walls, layers, errors = [], [], [], []

    def pair(f):
        t0 = time.perf_counter()
        passes.append(f())
        plain_walls.append(time.perf_counter() - t0)
        gc.collect()
        ps, wall = tr.run_pass(f)
        passes.append(ps)
        traced_walls.append(wall)
        layers.append(tracer.layer_metrics(tr, wall))
        miss = abs(tracer.self_time_total(tr) - wall) / wall
        if miss > SELF_SUM_TOLERANCE:
            errors.append(f"span self times miss the traced pass wall by {miss:.1%}")

    _passes_until(run_pass, seconds, MIN_TRACED, pair)
    tr.save(OUT / f"spans-{name}.npz")
    metrics = {k: median(m[k] for m in layers) for k in layers[0]}
    metrics["tracing.overhead"] = median(traced_walls) / median(plain_walls)
    return {"passes": passes, "timed": len(layers), "metrics": metrics,
            "units": {k: per_layer_unit(k) for k in metrics}, "extra": {},
            "samples": {"untraced_passes": len(plain_walls)}, "raw": None,
            "errors": errors}


# ---------------------------------------------------------------------------
# output


def run_one(name: str, seed: int | None, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import eagercoll
    import workloads

    if seed is None:
        seed = workloads.DEFAULT_SEED
    if SRC.resolve() not in Path(eagercoll.__file__).resolve().parents:
        print(f"eagercoll imports from {eagercoll.__file__}, not ./src", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    res = (measure_traced if trace else measure)(name, seed, seconds)
    correct, attempted, failed, errors = _outcome(name, seed, res["passes"], res["errors"])
    st = stamp(seed, res["timed"])

    print(f"perfbench {name}: seed {seed}, trace {int(trace)}, "
          f"{res['timed']} timed passes after 1 warm-up")
    print("  " + "  ".join(f"{k}={v}" for k, v in {**st, **res["samples"]}.items()))
    for k, v in res["metrics"].items():
        print(f"  {k:<40} {v:>16.6g} {res['units'][k]}")
    for k, v in res["extra"].items():
        print(f"  {k:<40} {v:>16.6g}")
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations failed)")
    print(f"  output digest {res['passes'][0].digest}  correct={correct}")
    for e in errors[:10]:
        print(f"  error: {e}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": res["units"][k]}
                          for k, v in res["metrics"].items()}}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {**result, "workload": name, "stamp": st, "samples": res["samples"],
         "extra": res["extra"], "error_rate": failed / attempted,
         "raw": res["raw"], "errors": errors}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        seed = [] if args.seed is None else ["--seed", str(args.seed)]
        r = subprocess.run([sys.executable, __file__, "--workload", name, *seed,
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           capture_output=True, text=True, timeout=900)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if r.returncode or not lines:
            print(r.stderr, file=sys.stderr)
            return r.returncode or 1
        one = json.loads(lines[-1])
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int,
                    help="workload seed (default: the pinned one, 1234)")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "eagercoll" / "__init__.py").is_file():
        print("perfbench: run from the eagercoll repository root (no src/eagercoll here)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
