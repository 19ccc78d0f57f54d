"""Benchmark + training drivers, metrics aggregation, CSV/JSONL, CLI.

Two run modes over the simulated transport:

* bench -- latency/NAP microbenchmark.  Rounds start on a fixed cadence
  (a common virtual-time origin per round, the role a barrier plays in MPI
  latency benchmarks): each rank idles its injected delay from the round
  origin, calls the collective, and the time from call to return is the
  recorded latency.  Without the cadence, slow ranks drift arbitrarily many
  rounds behind and the per-round skew pattern stops being the configured
  one.

* train -- decentralized SGD on the synthetic hyperplane task, one
  free-running simulation per flavor (no cadence: overlapping rounds is the
  behaviour being measured), with per-round loss/NAP/staleness metrics and
  per-epoch validation MSE.

All virtual-time metrics are exact integers of microseconds, so identical
configs produce byte-identical CSV files.  Wall-clock time never enters any
emitted number.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .collectives import MAJORITY, SOLO, SYNC, AllreduceHandle, CollectiveConfig
from .eagersgd import DivergenceError, TrainState, training_process
from .models import LinearModel, gen_dataset
from .trace import TraceRecorder
from .transport import DelayModel, SimTransport, Sleep, inject_delay
from .verify import DeliveryLedger, check_round_contracts, explore_interleavings, track_shadow

BENCH_SCHEMA = "eagercoll-bench-v1"
TRAIN_SCHEMA = "eagercoll-train-v1"
ALL_FLAVORS = (SYNC, SOLO, MAJORITY)

_BENCH_FIELDS = ("flavor", "round", "rank", "latency_us", "nap", "initiator")
_TRAIN_FIELDS = ("flavor", "round", "epoch", "rank", "loss", "nap",
                 "staleness_max", "t_us")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Everything a bench or train run needs; CLI flags and the key=value
    config-file format both map onto these fields 1:1 (delay.* selects the
    injection model)."""

    mode: str = "bench"                    # bench | train
    flavors: tuple[str, ...] = ALL_FLAVORS
    p: int = 8
    rounds: int = 64                       # bench rounds per flavor
    vector_len: int = 64
    delay: DelayModel = field(
        default_factory=lambda: DelayModel("linear_skew", unit_ms=1.0))
    link_latency_us: int = 10
    # training-only knobs
    epochs: int = 8
    steps_per_epoch: int = 8
    dim: int = 64
    n_samples: int = 4096
    batch_per_rank: int = 8
    lr: float = 0.05
    resync_period: int = 10
    tau: int | None = 4
    seed: int = 1234
    data_seed: int = 99
    out: str | None = None                 # output stem -> <stem>.csv/.jsonl

    def __post_init__(self):
        if self.mode not in ("bench", "train"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.flavors:
            raise ConfigError("at least one flavor is required")
        bad = [f for f in self.flavors if f not in ALL_FLAVORS]
        if bad:
            raise ConfigError(f"unknown flavors {bad}")
        if len(set(self.flavors)) != len(self.flavors):
            raise ConfigError("duplicate flavors")
        if self.p < 2:
            raise ConfigError("p must be >= 2")
        for name in ("rounds", "vector_len", "epochs", "steps_per_epoch",
                     "dim", "n_samples", "batch_per_rank"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.link_latency_us < 0:
            raise ConfigError("link_latency_us must be >= 0")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.resync_period < 1:
            raise ConfigError("resync_period must be >= 1")
        if self.tau is not None and self.tau < 1:
            raise ConfigError("tau must be >= 1 (or unset for no guard)")


def _coerce(name: str, raw: str, typ):
    raw = raw.strip()
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {name}: {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment; blank lines ignored."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        pairs[key.strip()] = val.strip()
    return pairs


def config_from_pairs(pairs: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    kw = dataclasses.asdict(base) if base else dataclasses.asdict(RunConfig())
    delay_kw = kw.pop("delay")
    field_types = {"mode": str, "p": int, "rounds": int, "vector_len": int,
                   "link_latency_us": int, "epochs": int, "steps_per_epoch": int,
                   "dim": int, "n_samples": int, "batch_per_rank": int,
                   "lr": float, "resync_period": int, "seed": int,
                   "data_seed": int, "out": str}
    delay_types = {"kind": str, "unit_ms": float, "k": int, "seed": int}
    for key, raw in pairs.items():
        if key == "flavors":
            kw["flavors"] = tuple(f.strip() for f in raw.split(",") if f.strip())
        elif key == "tau":
            kw["tau"] = None if raw.lower() in ("none", "") else _coerce(key, raw, int)
        elif key.startswith("delay."):
            sub = key[len("delay."):]
            if sub not in delay_types:
                raise ConfigError(f"unknown config key {key!r}")
            delay_kw[sub] = _coerce(key, raw, delay_types[sub])
        elif key in field_types:
            kw[key] = _coerce(key, raw, field_types[key])
        else:
            raise ConfigError(f"unknown config key {key!r}")
    kw["flavors"] = tuple(kw["flavors"])
    try:
        kw["delay"] = DelayModel(**delay_kw)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return RunConfig(**kw)


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path) as f:
        return config_from_pairs(parse_config_text(f.read()), base)


# ---------------------------------------------------------------------------
# microbenchmark


@dataclass
class BenchRecord:
    flavor: str
    round: int
    rank: int
    latency_us: int     # virtual time spent inside the collective call
    nap: int
    initiator: int = -1  # designated rank for majority rounds, else -1

    def __post_init__(self):
        if self.latency_us < 0:
            raise ValueError("negative latency")
        if self.nap < 1:
            raise ValueError("nap < 1")


def _bench_delays(cfg: RunConfig) -> np.ndarray:
    d = np.zeros((cfg.p, cfg.rounds), dtype=np.int64)
    for t in range(cfg.rounds):
        for r in range(cfg.p):
            d[r, t] = inject_delay(r, t, cfg.delay, cfg.p)
    return d


def bench_flavor(cfg: RunConfig, flavor: str):
    """One flavor's full bench run.  Returns (records, recorder, sim)."""
    delays = _bench_delays(cfg)
    # Cadence: every round fits in its slot, so the skew pattern per round is
    # exactly the configured one (see module docstring).
    hops = max(1, math.ceil(math.log2(cfg.p)))
    period = int(delays.max()) + (3 * hops + 4) * cfg.link_latency_us + 1000

    sim = SimTransport(cfg.p, link_latency_us=cfg.link_latency_us)
    rec = TraceRecorder()
    ccfg = CollectiveConfig(p=cfg.p, flavor=flavor, vector_len=cfg.vector_len,
                            seed=cfg.seed)
    handles = [AllreduceHandle(ccfg, r, sim, cid=0, recorder=rec)
               for r in range(cfg.p)]

    def body(rank: int):
        vec = np.full(cfg.vector_len, float(rank + 1))
        for t in range(cfg.rounds):
            target = t * period + int(delays[rank, t])
            dt = target - sim.now_us()
            if dt > 0:
                yield Sleep(dt)
            yield from handles[rank].call_round(t, vec)

    for r in range(cfg.p):
        sim.spawn(r, body(r))
    sim.run()

    rounds = rec.rounds_by_key()
    records = []
    for lat in rec.latencies:
        rr = rounds[(lat.rank, lat.rnd)]
        records.append(BenchRecord(flavor, lat.rnd, lat.rank, lat.latency_us,
                                   rr.nap, rr.initiator))
    records.sort(key=lambda b: (b.round, b.rank))
    return records, rec, sim


def bench_collectives(cfg: RunConfig) -> list[BenchRecord]:
    """Per (flavor, round, rank): injected idle, collective call, recorded
    call latency in virtual us plus the round's reduced NAP."""
    out: list[BenchRecord] = []
    for flavor in cfg.flavors:
        records, _, _ = bench_flavor(cfg, flavor)
        out.extend(records)
    return out


# ---------------------------------------------------------------------------
# training runs


@dataclass
class TrainReport:
    rows: list[dict]                 # one per (flavor, rank, round)
    val: dict                        # (flavor, rank, epoch) -> validation MSE
    sim_time_us: dict[str, int]      # flavor -> total virtual time
    speedup_vs_sync: dict[str, float]
    weights: dict                    # (flavor, rank) -> final parameter vector
    ledgers: dict[str, DeliveryLedger]
    recorders: dict[str, TraceRecorder]

    def final_val(self, flavor: str) -> float:
        last = max(e for (f, _, e) in self.val if f == flavor)
        vals = [v for (f, _, e), v in self.val.items()
                if f == flavor and e == last]
        return float(np.mean(vals))


def run_training(cfg: RunConfig) -> TrainReport:
    """Train the linear model under every configured flavor from identical
    initial weights/data, free-running, and report metrics + speedups."""
    ds = gen_dataset(cfg.dim, cfg.n_samples, seed=cfg.data_seed)
    w0 = LinearModel.init(cfg.dim, seed=cfg.seed).w

    def delay_fn(rank, t):
        return inject_delay(rank, t, cfg.delay, cfg.p)

    use_delay = None if cfg.delay.kind == "none" else delay_fn

    rows: list[dict] = []
    val: dict = {}
    sim_time: dict[str, int] = {}
    weights: dict = {}
    ledgers: dict[str, DeliveryLedger] = {}
    recorders: dict[str, TraceRecorder] = {}

    for flavor in cfg.flavors:
        sim = SimTransport(cfg.p, link_latency_us=cfg.link_latency_us)
        rec = TraceRecorder()
        main_cfg = CollectiveConfig(p=cfg.p, flavor=flavor, vector_len=cfg.dim,
                                    seed=cfg.seed)
        sync_cfg = CollectiveConfig(p=cfg.p, flavor=SYNC, vector_len=cfg.dim,
                                    seed=cfg.seed)
        ledger = DeliveryLedger()
        metrics: list[dict] = []
        fval: dict = {}
        states = []
        for r in range(cfg.p):
            handle = AllreduceHandle(main_cfg, r, sim, cid=0, recorder=rec)
            resync = AllreduceHandle(sync_cfg, r, sim, cid=1)
            st = TrainState.fresh(w0, cfg.lr, rank=r,
                                  resync_period=cfg.resync_period, tau=cfg.tau)
            states.append(st)
            sim.spawn(r, training_process(
                r, st, handle, resync, ds,
                epochs=cfg.epochs, steps_per_epoch=cfg.steps_per_epoch,
                batch_per_rank=cfg.batch_per_rank, data_seed=cfg.data_seed,
                delay_fn=use_delay, metrics=metrics, transport=sim,
                ledger=ledger, val_out=fval))
        try:
            sim.run()
        except DivergenceError as e:
            raise DivergenceError(f"flavor {flavor}: {e}") from e

        for row in metrics:
            rows.append({"flavor": flavor, "round": row["round"],
                         "epoch": row["epoch"], "rank": row["rank"],
                         "loss": row["loss"], "nap": row["nap"],
                         "staleness_max": row["staleness_max"],
                         "t_us": row["wall_or_sim_time"]})
        for (r, e), v in fval.items():
            val[(flavor, r, e)] = v
        sim_time[flavor] = sim.now_us()
        for r in range(cfg.p):
            weights[(flavor, r)] = states[r].w.copy()
        ledgers[flavor] = ledger
        recorders[flavor] = rec

    speedup = {}
    if SYNC in sim_time:
        for flavor, t in sim_time.items():
            speedup[flavor] = sim_time[SYNC] / t if t else float("inf")
    rows.sort(key=lambda r: (r["flavor"], r["round"], r["rank"]))
    return TrainReport(rows, val, sim_time, speedup, weights, ledgers, recorders)


# ---------------------------------------------------------------------------
# randomized contract sweep


def random_config(rng: np.random.Generator) -> RunConfig:
    """A small training run with random p, flavor, delay model and tau."""
    p = int(rng.choice([2, 4, 8, 16], p=[0.35, 0.3, 0.2, 0.15]))
    flavor = str(rng.choice([SOLO, MAJORITY, SYNC], p=[0.45, 0.45, 0.1]))
    kind = str(rng.choice(["none", "constant", "linear_skew", "random_subset"]))
    kw = {"kind": kind, "unit_ms": float(rng.uniform(0.05, 2.0))}
    if kind == "random_subset":
        kw["k"] = int(rng.integers(1, p + 1))
        kw["seed"] = int(rng.integers(1 << 30))
    return RunConfig(
        mode="train", flavors=(flavor,), p=p, epochs=2, steps_per_epoch=3,
        dim=4, n_samples=64, batch_per_rank=4, lr=0.02,
        tau=int(rng.choice([1, 2, 4])), resync_period=1000,
        delay=DelayModel(**kw), seed=int(rng.integers(1 << 30)),
        data_seed=int(rng.integers(1 << 30)))


def contract_sweep(n: int, seed: int):
    """Train n random_config runs drawn from `seed` and audit each one for
    liveness, cross-rank bit-identity, flagged-subset-sum correctness,
    NAP >= 1 and tau-bounded staleness.  Yields (config, report) per run."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        cfg = random_config(rng)
        flavor = cfg.flavors[0]
        rep = run_training(cfg)
        rounds = cfg.epochs * cfg.steps_per_epoch
        yield cfg, check_round_contracts(
            rep.recorders[flavor], cfg.p, tau=cfg.tau, ledger=rep.ledgers[flavor],
            expect_rounds=rounds, allow_pending_after=rounds - 1 - cfg.tau)


# ---------------------------------------------------------------------------
# aggregation + serialization


def summarize(records: list[BenchRecord]) -> dict:
    """Mean/stddev latency and mean NAP per flavor, plus sync-relative
    speedup ratios.  Pure recomputation from the records; no hidden state."""
    if not records:
        raise ValueError("summarize: no records")
    out: dict = {"flavors": {}, "speedup_vs_sync": {}}
    by_flavor: dict[str, list[BenchRecord]] = {}
    for b in records:
        by_flavor.setdefault(b.flavor, []).append(b)
    for flavor, recs in sorted(by_flavor.items()):
        lat = np.array([b.latency_us for b in recs], dtype=np.float64)
        nap = np.array([b.nap for b in recs], dtype=np.float64)
        out["flavors"][flavor] = {
            "n": len(recs),
            "mean_latency_us": float(lat.mean()),
            "std_latency_us": float(lat.std()),
            "mean_nap": float(nap.mean()),
        }
    if SYNC in by_flavor:
        base = out["flavors"][SYNC]["mean_latency_us"]
        for flavor in by_flavor:
            own = out["flavors"][flavor]["mean_latency_us"]
            out["speedup_vs_sync"][flavor] = base / own if own else float("inf")
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_bench_csv(records: list[BenchRecord], path: str) -> None:
    with open(path, "w") as f:
        f.write(f"# {BENCH_SCHEMA}\n")
        f.write(",".join(_BENCH_FIELDS) + "\n")
        for b in records:
            f.write(",".join(_fmt(getattr(b, k)) for k in _BENCH_FIELDS) + "\n")


def write_train_csv(rows: list[dict], path: str) -> None:
    with open(path, "w") as f:
        f.write(f"# {TRAIN_SCHEMA}\n")
        f.write(",".join(_TRAIN_FIELDS) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row[k]) for k in _TRAIN_FIELDS) + "\n")


def write_jsonl(path: str, schema: str, dicts: list[dict]) -> None:
    """JSON-lines mirror of a CSV: one header object, then one object per
    row with identical fields and values."""
    with open(path, "w") as f:
        f.write(json.dumps({"schema": schema}, sort_keys=True) + "\n")
        for d in dicts:
            f.write(json.dumps(d, sort_keys=True) + "\n")


def read_bench_csv(path: str) -> list[BenchRecord]:
    with open(path) as f:
        header = f.readline().strip()
        if header != f"# {BENCH_SCHEMA}":
            raise ConfigError(f"{path}: unknown schema {header!r}")
        names = f.readline().strip().split(",")
        if tuple(names) != _BENCH_FIELDS:
            raise ConfigError(f"{path}: unexpected columns {names}")
        out = []
        for line in f:
            vals = line.strip().split(",")
            out.append(BenchRecord(vals[0], int(vals[1]), int(vals[2]),
                                   int(vals[3]), int(vals[4]), int(vals[5])))
    return out


def _emit_bench(cfg: RunConfig, records: list[BenchRecord]) -> None:
    if cfg.out:
        write_bench_csv(records, cfg.out + ".csv")
        write_jsonl(cfg.out + ".jsonl", BENCH_SCHEMA,
                    [dataclasses.asdict(b) for b in records])


# ---------------------------------------------------------------------------
# CLI


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--p", type=int)
    sp.add_argument("--flavors", help="comma-separated subset of sync,solo,majority")
    sp.add_argument("--vector-len", type=int, dest="vector_len")
    sp.add_argument("--link-latency-us", type=int, dest="link_latency_us")
    sp.add_argument("--delay-kind", dest="delay.kind",
                    choices=("none", "constant", "linear_skew", "random_subset"))
    sp.add_argument("--delay-unit-ms", type=float, dest="delay.unit_ms")
    sp.add_argument("--delay-k", type=int, dest="delay.k")
    sp.add_argument("--delay-seed", type=int, dest="delay.seed")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output stem; writes <stem>.csv and <stem>.jsonl")


def _add_train_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--steps-per-epoch", type=int, dest="steps_per_epoch")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--n-samples", type=int, dest="n_samples")
    sp.add_argument("--batch-per-rank", type=int, dest="batch_per_rank")
    sp.add_argument("--lr", type=float)
    sp.add_argument("--resync-period", type=int, dest="resync_period")
    sp.add_argument("--tau")
    sp.add_argument("--data-seed", type=int, dest="data_seed")


def _cfg_from_args(args: argparse.Namespace, mode: str) -> RunConfig:
    base = RunConfig(mode=mode)
    if args.config:
        base = load_config(args.config, base)
        base = dataclasses.replace(base, mode=mode)
    pairs = {}
    for key, v in vars(args).items():
        if key in ("cmd", "config", "fn", "infile", "sweep") or v is None:
            continue
        pairs[key] = str(v)
    return config_from_pairs(pairs, base)


def cmd_bench(args) -> int:
    cfg = _cfg_from_args(args, "bench")
    records = bench_collectives(cfg)
    _emit_bench(cfg, records)
    print(json.dumps(summarize(records), indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    cfg = _cfg_from_args(args, "train")
    try:
        report = run_training(cfg)
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    if cfg.out:
        write_train_csv(report.rows, cfg.out + ".csv")
        write_jsonl(cfg.out + ".jsonl", TRAIN_SCHEMA, report.rows)
    summary = {
        "sim_time_us": report.sim_time_us,
        "speedup_vs_sync": report.speedup_vs_sync,
        "final_val_mse": {f: report.final_val(f) for f in cfg.flavors},
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    """Run the invariant suites at a small scale: the round-contract checker
    over fresh bench traces, exhaustive interleavings, and the reference-
    trajectory drift check over a short training run; --sweep N adds the
    contract sweep over N random training configs drawn from --seed."""
    cfg = _cfg_from_args(args, "bench")
    cfg = dataclasses.replace(cfg, p=min(cfg.p, 8), rounds=min(cfg.rounds, 16))
    failures: dict[str, object] = {}

    for flavor in cfg.flavors:
        _, rec, _ = bench_flavor(cfg, flavor)
        rep = check_round_contracts(rec, cfg.p, tau=None, expect_rounds=cfg.rounds)
        if not rep.ok:
            failures[f"contracts[{flavor}]"] = rep.by_kind()

    free = explore_interleavings()
    if not free.ok:
        failures["interleavings_free"] = free.violations[:5]
    fixed = explore_interleavings(arrivals_first=True)
    if not fixed.ok or fixed.unique_results != 1:
        failures["interleavings_fixed"] = fixed.violations[:5] or "results differ"

    # tau=1 and one straggler per round keep the undelivered backlog a single
    # gradient deep, the regime the operational drift bound is stated for.
    tcfg = dataclasses.replace(
        cfg, mode="train", flavors=(SOLO,), epochs=4, steps_per_epoch=4,
        dim=8, n_samples=256, lr=0.01, tau=1,
        delay=DelayModel("random_subset", unit_ms=1.0, k=1, seed=cfg.seed))
    report = run_training(tcfg)
    shadow = track_shadow(report.recorders[SOLO], tcfg.lr, tcfg.p, tcfg.tau)
    if not shadow.ok:
        failures["shadow_drift"] = {"max_drift": shadow.max_drift,
                                    "bound": shadow.bound}
    # A gradient can only be force-flushed once a round g+tau exists to take
    # it, so the run's trailing tau rounds may leave theirs pending.
    total = tcfg.epochs * tcfg.steps_per_epoch
    audit = report.ledgers[SOLO].audit(
        tau=tcfg.tau, allow_pending_after=total - 1 - tcfg.tau)
    if audit:
        failures["delivery_ledger"] = [dataclasses.asdict(v) for v in audit[:5]]

    if args.sweep:
        bad = [(i, c.p, c.flavors[0], rep.by_kind())
               for i, (c, rep) in enumerate(contract_sweep(args.sweep, cfg.seed))
               if not rep.ok]
        if bad:
            failures["contract_sweep"] = bad

    print(json.dumps({"ok": not failures, "failures": failures},
                     indent=2, sort_keys=True, default=str))
    return 0 if not failures else 3


def cmd_report(args) -> int:
    records = read_bench_csv(args.infile)
    print(json.dumps(summarize(records), indent=2, sort_keys=True))
    return 0


def build_cli() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eagercoll",
        description="partial-collective benchmarks and decentralized-SGD runs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("bench", help="latency/NAP microbenchmark (simulated)")
    _add_common(b)
    b.add_argument("--rounds", type=int)
    b.set_defaults(fn=cmd_bench)

    t = sub.add_parser("train", help="hyperplane-regression training comparison")
    _add_common(t)
    _add_train_flags(t)
    t.set_defaults(fn=cmd_train)

    v = sub.add_parser("verify", help="run the invariant suites")
    _add_common(v)
    v.add_argument("--rounds", type=int)
    v.add_argument("--sweep", type=int, metavar="N",
                   help="also audit N random training configs drawn from --seed")
    _add_train_flags(v)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("report", help="summarize an existing bench CSV")
    r.add_argument("infile", help="CSV produced by `eagercoll bench --out`")
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_cli().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
