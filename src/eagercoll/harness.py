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

from .collectives import FLAVORS, MAJORITY, SOLO, SYNC, CollectiveConfig, RoundOrderError
from .collectives import ceil_log2, initiator_for_round, simulate
from .eagersgd import DivergenceError, TrainState, training_process
from .models import LinearModel, batch_table, gen_dataset
from .trace import TraceRecorder
from .transport import DelayModel, Sleep, delay_table
from .verify import DeliveryLedger, check_round_contracts, explore_interleavings, track_shadow

BENCH_SCHEMA = "eagercoll-bench-v1"
TRAIN_SCHEMA = "eagercoll-train-v1"

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
    flavors: tuple[str, ...] = FLAVORS
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
        bad = [f for f in self.flavors if f not in FLAVORS]
        if bad:
            raise ConfigError(f"unknown flavors {bad}")
        if len(set(self.flavors)) != len(self.flavors):
            raise ConfigError("duplicate flavors")
        if self.p < 2:
            raise ConfigError("p must be >= 2")
        for name in ("rounds", "vector_len", "epochs", "steps_per_epoch",
                     "dim", "batch_per_rank"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_samples < 2:  # gen_dataset's 80/20 split leaves no training sample
            raise ConfigError("n_samples must be >= 2")
        if self.link_latency_us < 0:
            raise ConfigError("link_latency_us must be >= 0")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite")
        if self.resync_period < 1:
            raise ConfigError("resync_period must be >= 1")
        if self.tau is not None and self.tau < 1:
            raise ConfigError("tau must be >= 1 (or unset for no guard)")
        if not 0 <= self.seed < 1 << 64:  # the initiator draw's Philox key is 64-bit
            raise ConfigError("seed must be in [0, 2**64)")
        if self.data_seed < 0:
            raise ConfigError("data_seed must be >= 0")


# The type of each key, from its default; delay.* keys are DelayModel fields.
# flavors, tau (which may be none) and out are parsed apart.
_KEY_TYPES = {
    **{k: type(v) for k, v in vars(RunConfig()).items() if isinstance(v, (str, int, float))},
    **{f"delay.{k}": type(v) for k, v in vars(DelayModel()).items()},
}


def _coerce(name: str, raw: str, typ):
    try:
        return typ(raw.strip())
    except ValueError:
        raise ConfigError(f"bad value for {name}: {raw!r}") from None


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
    """`base` (default RunConfig()) with each `key = value` pair applied.
    Config-file lines and CLI flags both take this path."""
    kw = dataclasses.asdict(base or RunConfig())
    delay_kw = kw.pop("delay")
    for key, raw in pairs.items():
        if key == "flavors":
            kw["flavors"] = tuple(f.strip() for f in raw.split(",") if f.strip())
        elif key == "tau":
            kw["tau"] = None if raw.lower() in ("none", "") else _coerce(key, raw, int)
        elif key == "out":
            kw["out"] = _coerce(key, raw, str)
        elif key in _KEY_TYPES:
            target = delay_kw if key.startswith("delay.") else kw
            target[key.removeprefix("delay.")] = _coerce(key, raw, _KEY_TYPES[key])
        else:
            raise ConfigError(f"unknown config key {key!r}")
    kw["flavors"] = tuple(kw["flavors"])
    try:
        kw["delay"] = DelayModel(**delay_kw)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return RunConfig(**kw)


def _open_input(path: str):
    """open(path) for reading; a file that cannot be opened is a ConfigError."""
    try:
        return open(path)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}") from None


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with _open_input(path) as f:
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


def _round_period(cfg: RunConfig, delays: np.ndarray) -> int:
    """The cadence, in virtual us between round origins: every round fits in
    its slot, so the skew pattern per round is exactly the configured one
    (see module docstring)."""
    hops = max(1, ceil_log2(cfg.p))
    return int(delays.max()) + (3 * hops + 4) * cfg.link_latency_us + 1000


def bench_flavor(cfg: RunConfig, flavor: str):
    """One flavor's full bench run.  Returns (records, recorder, sim)."""
    delays = delay_table(cfg.delay, cfg.p, cfg.rounds)
    period = _round_period(cfg, delays)

    rec = TraceRecorder()
    records: list[BenchRecord] = []

    def body(rank: int, handle):
        now = handle.transport.now_us
        vec = np.full(cfg.vector_len, float(rank + 1))
        for t in range(cfg.rounds):
            target = t * period + int(delays[rank, t])
            dt = target - now()
            if dt > 0:
                yield Sleep(dt)
            t0 = now()
            res = yield from handle.call_round(t, vec)
            if res.rnd != t:
                raise RoundOrderError(f"rank {rank} called round {t} but got round "
                                      f"{res.rnd}; each round must fit its slot")
            init = initiator_for_round(cfg.seed, t, cfg.p) if flavor == MAJORITY else -1
            records.append(BenchRecord(flavor, t, rank, now() - t0, res.nap, init))

    ccfg = CollectiveConfig(p=cfg.p, flavor=flavor, vector_len=cfg.vector_len,
                            seed=cfg.seed)
    _, sim = simulate([ccfg], body, link_latency_us=cfg.link_latency_us, recorder=rec)
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
    weights: dict                    # (flavor, rank) -> final parameter vector
    ledgers: dict[str, DeliveryLedger]
    recorders: dict[str, TraceRecorder]

    @property
    def speedup_vs_sync(self) -> dict[str, float]:
        """flavor -> sync's virtual time over the flavor's; empty without sync."""
        base = self.sim_time_us.get(SYNC)
        return {} if base is None else {
            f: base / t if t else float("inf") for f, t in self.sim_time_us.items()}

    def final_val(self, flavor: str) -> float:
        last = max(e for (f, _, e) in self.val if f == flavor)
        vals = [v for (f, _, e), v in self.val.items()
                if f == flavor and e == last]
        return float(np.mean(vals))


def run_training(cfg: RunConfig) -> TrainReport:
    """Train the linear model under every configured flavor from identical
    initial weights/data, free-running, and report metrics + speedups.
    Each (rank, round)'s minibatch is drawn once and every flavor trains on it."""
    ds = gen_dataset(cfg.dim, cfg.n_samples, seed=cfg.data_seed)
    w0 = LinearModel.init(cfg.dim, seed=cfg.seed).w
    rounds = cfg.epochs * cfg.steps_per_epoch
    delays = delay_table(cfg.delay, cfg.p, rounds)
    batches = batch_table(cfg.data_seed, cfg.p, rounds, cfg.batch_per_rank, ds.n_train)
    # cid 1 is the sync resync collective, built only if some epoch resyncs
    resync_flavors = (SYNC,) if cfg.epochs >= cfg.resync_period else ()

    rows: list[dict] = []
    val: dict = {}
    sim_time: dict[str, int] = {}
    weights: dict = {}
    ledgers: dict[str, DeliveryLedger] = {}
    recorders: dict[str, TraceRecorder] = {}

    for flavor in cfg.flavors:
        rec = TraceRecorder()
        ledger = DeliveryLedger()
        states = [TrainState.fresh(w0, cfg.lr, rank=r, resync_period=cfg.resync_period,
                                   tau=cfg.tau) for r in range(cfg.p)]

        def body(rank: int, handle, resync=None):
            return training_process(
                states[rank], handle, resync, ds, batches[rank], delays[rank],
                epochs=cfg.epochs, steps_per_epoch=cfg.steps_per_epoch,
                metrics=rows, ledger=ledger, val_out=val)

        configs = [CollectiveConfig(p=cfg.p, flavor=f, vector_len=cfg.dim, seed=cfg.seed)
                   for f in (flavor, *resync_flavors)]
        try:
            _, sim = simulate(configs, body, link_latency_us=cfg.link_latency_us,
                              recorder=rec)
        except DivergenceError as e:
            raise DivergenceError(f"flavor {flavor}: {e}") from e

        sim_time[flavor] = sim.now_us()
        for r in range(cfg.p):
            weights[(flavor, r)] = states[r].w.copy()
        ledgers[flavor] = ledger
        recorders[flavor] = rec

    rows.sort(key=lambda r: (r["flavor"], r["round"], r["rank"]))
    return TrainReport(rows, val, sim_time, weights, ledgers, recorders)


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


def _write_csv(path: str, schema: str, fields: tuple[str, ...], rows) -> None:
    with open(path, "w") as f:
        f.write(f"# {schema}\n")
        f.write(",".join(fields) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row[k]) for k in fields) + "\n")


def write_bench_csv(records: list[BenchRecord], path: str) -> None:
    _write_csv(path, BENCH_SCHEMA, _BENCH_FIELDS, map(vars, records))


def write_train_csv(rows: list[dict], path: str) -> None:
    _write_csv(path, TRAIN_SCHEMA, _TRAIN_FIELDS, rows)


def write_jsonl(path: str, schema: str, dicts: list[dict]) -> None:
    """JSON-lines mirror of a CSV: one header object, then one object per
    row with identical fields and values."""
    with open(path, "w") as f:
        f.write(json.dumps({"schema": schema}, sort_keys=True) + "\n")
        for d in dicts:
            f.write(json.dumps(d, sort_keys=True) + "\n")


def read_bench_csv(path: str) -> list[BenchRecord]:
    """The records of a bench CSV; a malformed file raises ConfigError."""
    with _open_input(path) as f:
        header = f.readline().strip()
        if header != f"# {BENCH_SCHEMA}":
            raise ConfigError(f"{path}: unknown schema {header!r}")
        names = f.readline().strip().split(",")
        if tuple(names) != _BENCH_FIELDS:
            raise ConfigError(f"{path}: unexpected columns {names}")
        out = []
        for lineno, line in enumerate(f, 3):
            vals = line.strip().split(",")
            if len(vals) != len(_BENCH_FIELDS):
                raise ConfigError(f"{path}:{lineno}: expected {len(_BENCH_FIELDS)} "
                                  f"fields, got {len(vals)}")
            try:
                out.append(BenchRecord(vals[0], *map(int, vals[1:])))
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: {e}") from None
    if not out:
        raise ConfigError(f"{path}: no records")
    return out


# ---------------------------------------------------------------------------
# CLI


# The config keys each subcommand takes as flags: key a_b or a.b is --a-b.
_COMMON_KEYS = ("p", "flavors", "link_latency_us", "delay.kind",
                "delay.unit_ms", "delay.k", "delay.seed", "seed")
_BENCH_KEYS = _COMMON_KEYS + ("vector_len", "rounds", "out")
_TRAIN_KEYS = _COMMON_KEYS + ("epochs", "steps_per_epoch", "dim", "n_samples",
                              "batch_per_rank", "lr", "resync_period", "tau",
                              "data_seed", "out")
_VERIFY_KEYS = _COMMON_KEYS + ("vector_len", "rounds")
_FLAG_HELP = {"flavors": "comma-separated subset of sync,solo,majority",
              "out": "output stem; writes <stem>.csv and <stem>.jsonl"}


def _add_keys(sp: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    """--config plus one string flag per key; config_from_pairs parses them."""
    sp.add_argument("--config", help="key = value config file")
    for key in keys:
        sp.add_argument("--" + key.replace("_", "-").replace(".", "-"), dest=key,
                        help=_FLAG_HELP.get(key))
    sp.set_defaults(keys=keys)


def _cfg_from_args(args: argparse.Namespace, mode: str, **defaults) -> RunConfig:
    """The subcommand's config: `defaults`, then the --config file, whose
    keys must be ones the subcommand takes (or mode), then the flags."""
    base = RunConfig(mode=mode, **defaults)
    if args.config:
        with _open_input(args.config) as f:
            pairs = parse_config_text(f.read())
        base = dataclasses.replace(config_from_pairs(pairs, base), mode=mode)
        extra = sorted(pairs.keys() - {"mode", *args.keys})
        if extra:
            raise ConfigError(f"{args.config}: {args.cmd} does not take {', '.join(extra)}")
    pairs = {key: v for key in args.keys if (v := getattr(args, key)) is not None}
    return config_from_pairs(pairs, base)


def cmd_bench(args) -> int:
    cfg = _cfg_from_args(args, "bench")
    records = bench_collectives(cfg)
    if cfg.out:
        write_bench_csv(records, cfg.out + ".csv")
        write_jsonl(cfg.out + ".jsonl", BENCH_SCHEMA,
                    [dataclasses.asdict(b) for b in records])
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
    """Run the invariant suites at a small scale: per flavor, the round-
    contract checker over a fresh bench trace and exhaustive interleavings
    of one round at p = min(--p, 3), free and arrivals-first; then the
    reference-trajectory drift check over a short training run.  --sweep N
    adds the contract sweep over N random training configs drawn from
    --seed.  Without flags it checks p=8 and 16 rounds per flavor."""
    cfg = _cfg_from_args(args, "bench", p=8, rounds=16)
    failures: dict[str, object] = {}

    for flavor in cfg.flavors:
        _, rec, _ = bench_flavor(cfg, flavor)
        rep = check_round_contracts(rec, cfg.p, tau=None, expect_rounds=cfg.rounds)
        if not rep.ok:
            failures[f"contracts[{flavor}]"] = rep.by_kind()
        # a free search at p=4 passes the explorer's state cap
        ecfg = CollectiveConfig(p=min(cfg.p, 3), flavor=flavor, vector_len=2, seed=cfg.seed)
        free = explore_interleavings(ecfg)
        if not free.ok:
            failures[f"interleavings_free[{flavor}]"] = [
                dataclasses.asdict(v) for v in free.violations[:5]]
        fixed = explore_interleavings(ecfg, arrivals_first=True)
        if not fixed.ok or fixed.unique_results != 1:
            failures[f"interleavings_fixed[{flavor}]"] = (
                [dataclasses.asdict(v) for v in fixed.violations[:5]] or "results differ")

    # tau=1 and one straggler per round keep the undelivered backlog a single
    # gradient deep, the regime the operational drift bound is stated for.
    tcfg = dataclasses.replace(
        cfg, mode="train", flavors=(SOLO,), epochs=4, steps_per_epoch=4,
        dim=8, n_samples=256, batch_per_rank=8, lr=0.01, resync_period=10,
        tau=1, data_seed=99,
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
    _add_keys(b, _BENCH_KEYS)
    b.set_defaults(fn=cmd_bench)

    t = sub.add_parser("train", help="hyperplane-regression training comparison")
    _add_keys(t, _TRAIN_KEYS)
    t.set_defaults(fn=cmd_train)

    v = sub.add_parser("verify", help="run the invariant suites")
    _add_keys(v, _VERIFY_KEYS)
    v.add_argument("--sweep", type=int, metavar="N",
                   help="also audit N random training configs drawn from --seed")
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
