"""Bench/training harness: analytic latency oracles, config parsing, file IO.

The key bench oracle is tiny and exact: p=4, per-round skew (r+1)*1ms, zero
link latency.  A synchronous round closes when rank 3 arrives, so rank r
waits exactly (3-r) ms inside the call; a solo round is over before anyone
else shows up, so every rank's call returns in 0us.
"""

import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from eagercoll import collectives, harness
from eagercoll.collectives import CollectiveConfig, RoundOrderError, build_allreduce_template
from eagercoll.harness import (
    BenchRecord,
    ConfigError,
    RunConfig,
    bench_collectives,
    bench_flavor,
    config_from_pairs,
    load_config,
    main,
    parse_config_text,
    read_bench_csv,
    run_training,
    summarize,
    write_bench_csv,
    write_jsonl,
)
from eagercoll.schedule import Program
from eagercoll.trace import TraceRecorder
from eagercoll.transport import DelayModel, SimTransport
from eagercoll.verify import (
    DeliveryLedger, InterleavingReport, RoundContractReport, ShadowReport, Violation,
    check_round_contracts,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def bench_cfg(**kw):
    base = dict(mode="bench", p=4, rounds=4, vector_len=8,
                delay=DelayModel("linear_skew", unit_ms=1.0),
                link_latency_us=0, flavors=("sync", "solo", "majority"))
    base.update(kw)
    return RunConfig(**base)


def test_sync_latency_matches_the_arrival_math():
    cfg = bench_cfg(flavors=("sync",))
    records, _, _ = bench_flavor(cfg, "sync")
    for b in records:
        assert b.latency_us == (3 - b.rank) * 1000
        assert b.nap == 4


def test_solo_latency_is_zero_at_zero_link():
    cfg = bench_cfg(flavors=("solo",))
    records, _, _ = bench_flavor(cfg, "solo")
    for b in records:
        assert b.latency_us == 0
        assert b.nap >= 1


def test_solo_nap_is_one_under_strict_skew():
    cfg = bench_cfg(flavors=("solo",), link_latency_us=10)
    records, _, _ = bench_flavor(cfg, "solo")
    by_round = {}
    for b in records:
        by_round.setdefault(b.round, set()).add(b.nap)
    for t, naps in by_round.items():
        assert naps == {1}


def test_majority_latency_tracks_the_initiator():
    """At zero link the round closes when its designated initiator arrives:
    rank r waits (init - r) ms if it came earlier, 0 if later."""
    cfg = bench_cfg(flavors=("majority",), rounds=8)
    records, _, _ = bench_flavor(cfg, "majority")
    for b in records:
        assert b.initiator >= 0
        want = max(0, (b.initiator - b.rank)) * 1000
        assert b.latency_us == want
        assert b.nap == b.initiator + 1


def test_flavor_ordering_under_skew():
    cfg = bench_cfg(rounds=8, link_latency_us=10)
    s = summarize(bench_collectives(cfg))
    lat = {f: s["flavors"][f]["mean_latency_us"] for f in s["flavors"]}
    assert lat["solo"] < lat["majority"] < lat["sync"]
    assert s["speedup_vs_sync"]["solo"] > s["speedup_vs_sync"]["majority"] > 1.0
    assert s["speedup_vs_sync"]["sync"] == 1.0


def test_sync_latency_grows_with_skew_solo_does_not():
    means = {}
    for unit in (1.0, 2.0, 4.0):
        cfg = bench_cfg(rounds=4, delay=DelayModel("linear_skew", unit_ms=unit),
                        link_latency_us=10, flavors=("sync", "solo"))
        s = summarize(bench_collectives(cfg))
        means[unit] = {f: s["flavors"][f]["mean_latency_us"] for f in s["flavors"]}
    assert means[1.0]["sync"] < means[2.0]["sync"] < means[4.0]["sync"]
    solo = [means[u]["solo"] for u in (1.0, 2.0, 4.0)]
    assert max(solo) <= min(solo) * 1.05 + 1.0


def test_summarize_recomputes_from_records():
    records = [
        BenchRecord("sync", 0, 0, 100, 2), BenchRecord("sync", 0, 1, 300, 2),
        BenchRecord("solo", 0, 0, 50, 1), BenchRecord("solo", 0, 1, 50, 1),
    ]
    s = summarize(records)
    assert s["flavors"]["sync"]["mean_latency_us"] == 200.0
    assert s["flavors"]["sync"]["std_latency_us"] == 100.0
    assert s["flavors"]["solo"]["mean_nap"] == 1.0
    assert s["speedup_vs_sync"]["solo"] == 4.0
    with pytest.raises(ValueError):
        summarize([])


def test_bench_record_invariants():
    with pytest.raises(ValueError):
        BenchRecord("sync", 0, 0, -1, 2)
    with pytest.raises(ValueError):
        BenchRecord("sync", 0, 0, 10, 0)


class _KindCount(TraceRecorder):
    """Recorder that counts op fires by label."""

    def __init__(self):
        super().__init__()
        self.fires = Counter()

    def op_fired(self, t, rank, cid, gen, oid, label):
        self.fires[label] += 1


class _CountingSim(SimTransport):
    sends = 0

    def send(self, msg):
        self.sends += 1
        super().send(msg)


def test_a_finished_bench_run_lets_go_of_its_recorder():
    """With the cyclic collector off, the recorder dies as soon as the
    caller drops it, though the run's engines and handles, which live in
    reference cycles, stay alive through the returned sim; those keep no
    payload of the run either (the next test)."""
    gc.disable()
    try:
        _, rec, sim = bench_flavor(bench_cfg(), "solo")
        assert rec.rounds
        dead = weakref.ref(rec)
        del rec
        assert dead() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("flavor", ["sync", "solo"])
def test_a_finished_bench_run_holds_no_payload(flavor):
    """Every recv takes its payload out of its slot as it fires, and a
    replication empties the slots, so once a run with 64 KiB payloads ends
    no engine holds a message's payload: each engine's payload state is its
    arena of acc and the send buffer, the publish buffer of an extra rank
    (p=6 has two) included."""
    cfg = bench_cfg(p=6, rounds=2, vector_len=8200)
    _, _, sim = bench_flavor(cfg, flavor)
    engines = [e for by_cid in sim._engines for e in by_cid.values()]
    nbytes = CollectiveConfig(p=cfg.p, flavor=flavor, vector_len=cfg.vector_len).payload_nbytes
    assert len(engines) == 6
    for eng in engines:
        assert eng._parked == [None] * len(eng.ops), eng.rank
        assert eng._arena.nbytes == 2 * nbytes and eng.buffer("acc").base is eng._arena
        assert eng._publish_buf.base is eng._arena, eng.rank


def test_a_round_that_overruns_its_slot_raises(monkeypatch):
    """With rounds 1 us apart, solo's first rank finishes every round alone
    before rank 1 arrives at 2 ms, so rank 1's call for round 0 returns
    round 3, which bench_flavor refuses.  The real cadence runs clean."""
    cfg = bench_cfg(flavors=("solo",))
    records, rec, _ = bench_flavor(cfg, "solo")
    assert len(records) == cfg.p * cfg.rounds
    assert check_round_contracts(rec, cfg.p, tau=None, expect_rounds=cfg.rounds).ok
    monkeypatch.setattr(harness, "_round_period", lambda cfg, delays: 1)
    with pytest.raises(RoundOrderError, match="rank 1 called round 0 but got round 3; "
                                              "each round must fit its slot"):
        bench_flavor(cfg, "solo")


def test_bench_flavor_compiles_one_program_per_rank_class(monkeypatch):
    """p=12 has three rank classes (base ranks with and without an extra
    partner, extra ranks), so a bench run compiles three Programs, and the
    next run compiles its own three: nothing is cached across runs."""
    built = []

    class CountingProgram(Program):
        def __init__(self, template):
            built.append(template)
            super().__init__(template)

    monkeypatch.setattr(collectives, "Program", CountingProgram)
    for _ in range(2):
        built.clear()
        bench_flavor(RunConfig(p=12, rounds=2), "solo")
        assert len(built) == 3


@pytest.mark.parametrize("flavor, events, sends, fires", [
    ("sync", 236, 128, {"compute": 48, "nop": 96, "recv": 128, "send": 128}),
    ("solo", 240, 176, {"compute": 48, "nop": 100, "recv": 176, "send": 176}),
    ("majority", 255, 176, {"compute": 48, "nop": 100, "recv": 176, "send": 176}),
])
def test_bench_event_and_fire_counts_are_pinned(monkeypatch, flavor, events, sends, fires):
    """The work a bench run does, at a shape with extra ranks (p=12 over a
    butterfly of 8): events processed, messages sent and op fires by kind.
    A faster engine or transport must leave all of them as they are, or
    the event sequence and so the CSVs change.  The one compute op is each
    round's snapshot: every reduction is a recv that adds its payload."""
    monkeypatch.setattr(harness, "TraceRecorder", _KindCount)
    monkeypatch.setattr(collectives, "SimTransport", _CountingSim)
    cfg = RunConfig(p=12, rounds=4)
    _, rec, sim = bench_flavor(cfg, flavor)
    ccfg = CollectiveConfig(p=cfg.p, flavor=flavor, vector_len=cfg.vector_len)
    kinds = {op.label: op.kind for r in range(cfg.p)
             for op in build_allreduce_template(r, ccfg).ops}
    by_kind = Counter()
    for label, n in rec.fires.items():
        by_kind[kinds[label]] += n
    assert (sim.events_processed, sim.sends, dict(by_kind)) == (events, sends, fires)


# ---------------------------------------------------------------------------
# training harness


def test_training_report_shape_and_speedup():
    cfg = RunConfig(mode="train", p=2, flavors=("sync", "solo"),
                    epochs=2, steps_per_epoch=3, dim=8, n_samples=64,
                    batch_per_rank=4, lr=0.05, tau=4, resync_period=100,
                    delay=DelayModel("random_subset", unit_ms=0.5, k=1, seed=3),
                    link_latency_us=10)
    rep = run_training(cfg)
    rounds = 2 * 3
    for flavor in ("sync", "solo"):
        rows = [r for r in rep.rows if r["flavor"] == flavor]
        assert len(rows) == rounds * 2
        assert rep.sim_time_us[flavor] > 0
        assert np.isfinite(rep.final_val(flavor))
        assert rep.weights[(flavor, 0)].shape == (8,)
    assert rep.speedup_vs_sync["sync"] == pytest.approx(1.0)
    assert rep.speedup_vs_sync["solo"] > 1.0
    # sync deliveries are all same-round
    assert max((d - g for _, g, d in rep.ledgers["sync"].entries() if d is not None),
               default=0) == 0


def test_training_is_reproducible():
    cfg = RunConfig(mode="train", p=2, flavors=("solo",), epochs=1,
                    steps_per_epoch=4, dim=4, n_samples=32, batch_per_rank=4,
                    lr=0.05, tau=2, delay=DelayModel("random_subset",
                    unit_ms=0.3, k=1, seed=5), link_latency_us=10)
    a = run_training(cfg)
    b = run_training(cfg)
    assert a.weights[("solo", 0)].tobytes() == b.weights[("solo", 0)].tobytes()
    assert a.rows == b.rows


class _CidRecordingSim(SimTransport):
    cids: list = []  # one cid per engine registered, over every sim built

    def register_engine(self, rank, engine):
        self.cids.append(engine.cid)
        super().register_engine(rank, engine)


@pytest.mark.parametrize("resync_period, resyncs", [(3, False), (2, True)])
def test_only_a_run_that_resyncs_builds_the_resync_collective(monkeypatch, resync_period,
                                                              resyncs):
    """A run of 2 epochs resyncs only if resync_period <= 2, and only then
    registers cid-1 engines.  A run that never resyncs writes the same rows,
    validation MSEs and virtual times as the same run with an idle cid 1."""
    cfg = RunConfig(mode="train", p=4, flavors=("sync", "solo", "majority"), epochs=2,
                    steps_per_epoch=3, dim=4, n_samples=64, batch_per_rank=4,
                    resync_period=resync_period,
                    delay=DelayModel("random_subset", unit_ms=0.3, k=1, seed=5),
                    link_latency_us=10)
    monkeypatch.setattr(collectives, "SimTransport", _CidRecordingSim)
    monkeypatch.setattr(_CidRecordingSim, "cids", [])
    rep = run_training(cfg)
    assert Counter(_CidRecordingSim.cids) == ({0: 12, 1: 12} if resyncs else {0: 12})
    if resyncs:
        return
    simulate = harness.simulate

    def with_idle_resync(configs, body, **kw):
        return simulate(configs + [CollectiveConfig(p=cfg.p, flavor="sync", vector_len=cfg.dim,
                                                    seed=cfg.seed)], body, **kw)

    monkeypatch.setattr(harness, "simulate", with_idle_resync)
    monkeypatch.setattr(_CidRecordingSim, "cids", [])
    idle = run_training(cfg)
    assert Counter(_CidRecordingSim.cids) == {0: 12, 1: 12}
    assert (rep.rows, rep.val, rep.sim_time_us) == (idle.rows, idle.val, idle.sim_time_us)


@pytest.mark.parametrize("flavors", [("solo",), ("sync", "solo", "majority")])
def test_run_training_draws_each_batch_once(monkeypatch, flavors):
    """One batch_table per run however many flavors train on it, and the
    table does not outlive the call."""
    tables = []
    build = harness.batch_table

    def tracked(*args):
        table = build(*args)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(harness, "batch_table", tracked)
    cfg = RunConfig(mode="train", p=4, flavors=flavors, epochs=2, steps_per_epoch=3,
                    dim=4, n_samples=64, batch_per_rank=4)
    run_training(cfg)
    gc.collect()
    assert len(tables) == 1 and tables[0]() is None


# ---------------------------------------------------------------------------
# file formats


def test_bench_csv_roundtrip_and_determinism(tmp_path):
    cfg = bench_cfg(rounds=3)
    records = bench_collectives(cfg)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_bench_csv(records, p1)
    write_bench_csv(bench_collectives(cfg), p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert read_bench_csv(p1) == records


def test_bench_csv_schema_guard(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# some-other-schema\nflavor\n")
    with pytest.raises(ConfigError):
        read_bench_csv(str(path))


def test_jsonl_mirrors_csv_rows(tmp_path):
    records = [BenchRecord("sync", 0, 1, 42, 2, -1)]
    csv_path, jl_path = str(tmp_path / "r.csv"), str(tmp_path / "r.jsonl")
    write_bench_csv(records, csv_path)
    write_jsonl(jl_path, "eagercoll-bench-v1",
                [{"flavor": "sync", "round": 0, "rank": 1, "latency_us": 42,
                  "nap": 2, "initiator": -1}])
    lines = Path(jl_path).read_text().splitlines()
    assert json.loads(lines[0]) == {"schema": "eagercoll-bench-v1"}
    row = json.loads(lines[1])
    csv_rows = read_bench_csv(csv_path)
    assert BenchRecord(**row) == csv_rows[0]


# ---------------------------------------------------------------------------
# config plumbing


def test_parse_config_text_strips_comments_and_blanks():
    pairs = parse_config_text("""
# a comment
p = 8
flavors = solo,sync        # trailing comment
delay.kind = linear_skew
delay.unit_ms = 2.0
""")
    assert pairs == {"p": "8", "flavors": "solo,sync",
                     "delay.kind": "linear_skew", "delay.unit_ms": "2.0"}


def test_config_from_pairs_builds_a_run_config():
    cfg = config_from_pairs({
        "mode": "bench", "p": "8", "rounds": "16", "flavors": "solo,sync",
        "delay.kind": "constant", "delay.unit_ms": "0.5", "tau": "none",
    })
    assert cfg.p == 8 and cfg.rounds == 16
    assert cfg.flavors == ("solo", "sync")
    assert cfg.delay == DelayModel("constant", unit_ms=0.5)
    assert cfg.tau is None


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        config_from_pairs({"not_a_key": "1"})
    with pytest.raises(ConfigError):
        config_from_pairs({"p": "eight"})
    with pytest.raises(ConfigError):
        config_from_pairs({"flavors": "solo,warp"})
    with pytest.raises(ConfigError):
        config_from_pairs({"delay.kind": "sometimes"})


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="bench", p=0)
    with pytest.raises(ConfigError):
        RunConfig(mode="dance")
    with pytest.raises(ConfigError):
        RunConfig(mode="train", lr=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(mode="bench", flavors=())


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mode = bench\np = 4\nrounds = 2\nflavors = sync\n")
    cfg = load_config(str(path))
    assert (cfg.p, cfg.rounds, cfg.flavors) == (4, 2, ("sync",))


def test_every_preset_parses():
    """An unknown or renamed key in a shipped preset fails here, not at use."""
    presets = sorted(CONFIGS.glob("*.conf"))
    assert presets
    for path in presets:
        assert isinstance(load_config(str(path)), RunConfig), path.name


# ---------------------------------------------------------------------------
# CLI


def test_cli_bench_writes_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--p", "4", "--rounds", "2", "--flavors", "sync,solo",
               "--delay-kind", "linear_skew", "--delay-unit-ms", "1.0",
               "--out", str(out)])
    assert rc == 0
    records = read_bench_csv(str(out) + ".csv")
    assert len(records) == 2 * 2 * 4
    text = capsys.readouterr().out
    assert "sync" in text and "solo" in text


def test_cli_rejects_bad_config(capsys):
    assert main(["bench", "--p", "0"]) == 2
    assert main(["bench", "--p", "x"]) == 2
    assert "config error: bad value for p" in capsys.readouterr().err
    for argv, why in [
        (["bench", "--seed", "-1"], "seed must be in [0, 2**64)"),
        (["bench", "--seed", str(1 << 64)], "seed must be in [0, 2**64)"),
        (["train", "--data-seed", "-1"], "data_seed must be >= 0"),
        (["train", "--n-samples", "1"], "n_samples must be >= 2"),
        (["bench", "--delay-kind", "random_subset", "--delay-seed", "-1"],
         "seed must be >= 0"),
        (["bench", "--flavors", "solo,sync,solo"], "duplicate flavors"),
        (["bench", "--rounds", "0"], "rounds must be >= 1"),
        (["bench", "--link-latency-us", "-1"], "link_latency_us must be >= 0"),
        (["train", "--resync-period", "0"], "resync_period must be >= 1"),
        (["train", "--tau", "0"], "tau must be >= 1 (or unset for no guard)"),
    ]:
        assert main(argv) == 2, argv
        assert "config error: " + why in capsys.readouterr().err, argv


def test_cli_config_rejects_keys_the_subcommand_does_not_take(tmp_path, capsys):
    """A config line the subcommand would ignore is an error, as its flag
    would be; every subcommand takes mode, and sets it itself."""
    path = tmp_path / "run.conf"
    for cmd, key, value in [("train", "vector_len", "999"), ("train", "rounds", "3"),
                            ("bench", "dim", "5"), ("verify", "lr", "0.5")]:
        path.write_text(f"p = 4\n{key} = {value}\n")
        assert main([cmd, "--config", str(path)]) == 2, key
        assert f"config error: {path}: {cmd} does not take {key}\n" in capsys.readouterr().err
    path.write_text("mode = bench\np = 4\n")
    cfg = harness._cfg_from_args(harness.build_cli().parse_args(
        ["train", "--config", str(path)]), "train")
    assert (cfg.mode, cfg.p) == ("train", 4)


# A non-default value for every key bench or train takes as a flag.
FLAG_VALUES = {
    "p": "6", "flavors": "solo,sync", "vector_len": "3", "link_latency_us": "7",
    "delay.kind": "random_subset", "delay.unit_ms": "0.25", "delay.k": "2",
    "delay.seed": "5", "seed": "9", "rounds": "5", "out": "stem", "epochs": "2",
    "steps_per_epoch": "3", "dim": "5", "n_samples": "40", "batch_per_rank": "2",
    "lr": "0.125", "resync_period": "4", "tau": "none", "data_seed": "8",
}


def _flag_config(cmd, pairs):
    argv = [cmd]
    for key, value in pairs.items():
        argv += ["--" + key.replace("_", "-").replace(".", "-"), value]
    return harness._cfg_from_args(harness.build_cli().parse_args(argv), cmd)


@pytest.mark.parametrize("cmd", ["bench", "train"])
def test_a_flag_and_a_config_line_build_the_same_config(cmd, tmp_path):
    keys = harness.build_cli().parse_args([cmd]).keys
    path = tmp_path / "run.conf"
    for pairs in [{k: FLAG_VALUES[k]} for k in keys] + [{k: FLAG_VALUES[k] for k in keys}]:
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        from_file = load_config(str(path), RunConfig(mode=cmd))
        assert _flag_config(cmd, pairs) == from_file, pairs
        assert from_file != RunConfig(mode=cmd), pairs


def test_cli_option_strings_are_pinned():
    common = ["--config", "--p", "--flavors", "--link-latency-us",
              "--delay-kind", "--delay-unit-ms", "--delay-k", "--delay-seed", "--seed"]
    want = {
        "bench": common + ["--vector-len", "--rounds", "--out"],
        "train": common + ["--epochs", "--steps-per-epoch", "--dim", "--n-samples",
                           "--batch-per-rank", "--lr", "--resync-period", "--tau",
                           "--data-seed", "--out"],
        "verify": common + ["--vector-len", "--rounds", "--sweep"],
        "report": [],
    }
    sub = next(a for a in harness.build_cli()._actions if a.dest == "cmd")
    got = {cmd: [s for a in sp._actions for s in a.option_strings if s not in ("-h", "--help")]
           for cmd, sp in sub.choices.items()}
    assert got == want


def test_cli_train_rejects_vector_len(capsys):
    """A training run's payload is its model, sized by --dim, so train does
    not take a flag it would ignore."""
    with pytest.raises(SystemExit) as e:
        main(["train", "--vector-len", "4"])
    assert e.value.code == 2
    assert "unrecognized arguments: --vector-len" in capsys.readouterr().err


def test_cli_train_smoke(tmp_path):
    out = tmp_path / "train"
    rc = main(["train", "--p", "2", "--epochs", "1", "--steps-per-epoch", "2",
               "--dim", "4", "--n-samples", "32", "--batch-per-rank", "4",
               "--flavors", "sync", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "train.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_train_divergence_exits_three(capsys):
    """The weights overflow on purpose; the run reports that as a divergence,
    not as a numpy warning."""
    argv = ["train", "--p", "4", "--flavors", "solo", "--epochs", "8",
            "--steps-per-epoch", "8", "--dim", "4", "--n-samples", "64",
            "--batch-per-rank", "4", "--lr", "1e9"]
    assert main(argv) == 3
    assert "divergence: flavor solo:" in capsys.readouterr().err


VERIFY_ARGS = ["verify", "--p", "4", "--flavors", "solo", "--rounds", "6"]


def test_cli_verify_clean_run_exits_zero(capsys):
    rc = main(VERIFY_ARGS)
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out == {"ok": True, "failures": {}}


def test_cli_verify_violation_exits_three(monkeypatch, capsys):
    def one_mismatch(recorder, p, **kw):
        return RoundContractReport([Violation("mismatch", 0, 1, "injected")], 1)

    monkeypatch.setattr(harness, "check_round_contracts", one_mismatch)
    rc = main(VERIFY_ARGS)
    out = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert out["ok"] is False
    assert out["failures"] == {"contracts[solo]": {"mismatch": 1}}

    rc = main(VERIFY_ARGS + ["--sweep", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 3
    sweep = out["failures"]["contract_sweep"]
    assert [row[0] for row in sweep] == [0, 1]
    assert all(row[3] == {"mismatch": 1} for row in sweep)


def test_cli_verify_lists_explorer_violations_as_data(monkeypatch, capsys):
    """Each explorer violation prints as its fields, as the ledger's do."""
    bad = Violation("liveness", 0, 1, "no result returned via ()")
    monkeypatch.setattr(harness, "explore_interleavings",
                        lambda cfg, **kw: InterleavingReport(3, 1, 1, [bad]))
    rc = main(VERIFY_ARGS)
    out = json.loads(capsys.readouterr().out)
    assert rc == 3
    listed = [{"kind": "liveness", "rnd": 0, "rank": 1,
               "detail": "no result returned via ()"}]
    assert out["failures"] == {"interleavings_free[solo]": listed,
                               "interleavings_fixed[solo]": listed}


def test_cli_verify_explores_the_requested_flavors(monkeypatch, capsys):
    """verify model-checks each requested flavor at its --p, capped at 3,
    with free arrivals and with arrivals first."""
    seen = []

    def capture(cfg, *, arrivals_first=False):
        seen.append((cfg, arrivals_first))
        return InterleavingReport(1, 1, 1, [])

    monkeypatch.setattr(harness, "explore_interleavings", capture)
    assert main(["verify", "--p", "5", "--flavors", "majority", "--rounds", "2"]) == 0
    majority = CollectiveConfig(p=3, flavor="majority", vector_len=2, seed=1234)
    assert seen == [(majority, False), (majority, True)]
    seen.clear()
    assert main(["verify", "--p", "2", "--rounds", "2", "--seed", "7"]) == 0
    capsys.readouterr()
    assert seen == [(CollectiveConfig(p=2, flavor=f, vector_len=2, seed=7), first)
                    for f in ("sync", "solo", "majority") for first in (False, True)]


def _shadow_drifts(monkeypatch):
    drifted = ShadowReport(9.0, 1.0, 1.0, 3)
    monkeypatch.setattr(harness, "track_shadow", lambda *args: drifted)
    return {"shadow_drift": {"max_drift": 9.0, "bound": 1.0}}


def _ledger_loses_a_gradient(monkeypatch):
    lost = Violation("undelivered", 2, 1, "gradient never delivered")
    monkeypatch.setattr(DeliveryLedger, "audit", lambda self, *args, **kw: [lost])
    return {"delivery_ledger": [{"kind": "undelivered", "rnd": 2, "rank": 1,
                                 "detail": "gradient never delivered"}]}


@pytest.mark.parametrize("fault", [_shadow_drifts, _ledger_loses_a_gradient],
                         ids=["shadow-drift", "delivery-ledger"])
def test_cli_verify_reports_the_training_checks(monkeypatch, capsys, fault):
    """The training run's drift check and ledger audit each fail verify
    alone, under their own key."""
    failures = fault(monkeypatch)
    rc = main(VERIFY_ARGS)
    out = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert out == {"ok": False, "failures": failures}


def test_cli_verify_checks_the_run_it_was_given(monkeypatch, capsys):
    """--p and --rounds size the checked bench run as given, not clamped to
    p=8 and 16 rounds; without them verify checks exactly that default."""
    seen = []

    def capture(recorder, p, *, tau, expect_rounds):
        seen.append((p, expect_rounds))
        return RoundContractReport([], expect_rounds)

    monkeypatch.setattr(harness, "check_round_contracts", capture)
    assert main(["verify", "--flavors", "solo", "--p", "12", "--rounds", "20"]) == 0
    assert main(["verify", "--flavors", "solo"]) == 0
    capsys.readouterr()
    assert seen == [(12, 20), (8, 16)]


@pytest.mark.parametrize("flags", [["--epochs", "3"], ["--lr", "5"], ["--out", "x"]])
def test_cli_verify_rejects_flags_it_would_ignore(flags, capsys):
    """verify fixes its own training run and writes no file, so it does not
    accept the training flags or --out."""
    with pytest.raises(SystemExit) as e:
        main(["verify", *flags])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--rounds", "1", "--delay-unit-ms", "nan"],
    ["bench", "--rounds", "1", "--delay-unit-ms", "inf"],
    ["train", "--epochs", "1", "--lr", "nan"],
    ["train", "--epochs", "1", "--lr", "inf"],
])
def test_cli_rejects_non_finite_floats(argv, capsys):
    assert main(argv) == 2
    assert "must be" in capsys.readouterr().err


def test_cli_report_bad_files_are_config_errors(tmp_path, capsys):
    good = tmp_path / "good.csv"
    write_bench_csv([BenchRecord("sync", 0, 1, 42, 2, -1)], str(good))
    assert main(["report", str(good)]) == 0
    capsys.readouterr()

    assert main(["report", str(tmp_path / "missing.csv")]) == 2
    assert "missing.csv" in capsys.readouterr().err

    short = tmp_path / "short.csv"
    short.write_text(good.read_text() + "sync,1,1\n")
    assert main(["report", str(short)]) == 2
    assert f"{short}:4:" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text(good.read_text().replace(",42,", ",x,"))
    assert main(["report", str(bad)]) == 2
    assert f"{bad}:3:" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("".join(good.read_text().splitlines(keepends=True)[:2]))
    assert main(["report", str(empty)]) == 2

    columns = tmp_path / "columns.csv"
    columns.write_text(good.read_text().replace(",initiator", ",leader"))
    assert main(["report", str(columns)]) == 2
    assert "unexpected columns" in capsys.readouterr().err

    no_equals = tmp_path / "no_equals.conf"
    no_equals.write_text("p = 4\nrounds 2\n")
    assert main(["bench", "--config", str(no_equals)]) == 2
    assert "line 2: expected key = value" in capsys.readouterr().err

    assert main(["bench", "--config", str(tmp_path / "nope.conf")]) == 2
    assert "nope.conf" in capsys.readouterr().err
