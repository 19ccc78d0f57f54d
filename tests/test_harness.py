"""Bench/training harness: analytic latency oracles, config parsing, file IO.

The key bench oracle is tiny and exact: p=4, per-round skew (r+1)*1ms, zero
link latency.  A synchronous round closes when rank 3 arrives, so rank r
waits exactly (3-r) ms inside the call; a solo round is over before anyone
else shows up, so every rank's call returns in 0us.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from eagercoll import harness
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
from eagercoll.transport import DelayModel
from eagercoll.verify import RoundContractReport, Violation

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
    assert rep.ledgers["sync"].max_staleness() == 0


def test_training_is_reproducible():
    cfg = RunConfig(mode="train", p=2, flavors=("solo",), epochs=1,
                    steps_per_epoch=4, dim=4, n_samples=32, batch_per_rank=4,
                    lr=0.05, tau=2, delay=DelayModel("random_subset",
                    unit_ms=0.3, k=1, seed=5), link_latency_us=10)
    a = run_training(cfg)
    b = run_training(cfg)
    assert a.weights[("solo", 0)].tobytes() == b.weights[("solo", 0)].tobytes()
    assert a.rows == b.rows


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


def test_cli_train_smoke(tmp_path):
    out = tmp_path / "train"
    rc = main(["train", "--p", "2", "--epochs", "1", "--steps-per-epoch", "2",
               "--dim", "4", "--n-samples", "32", "--batch-per-rank", "4",
               "--flavors", "sync", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "train.csv").exists()


VERIFY_ARGS = ["verify", "--p", "4", "--flavors", "solo", "--rounds", "6"]


def test_cli_verify_clean_run_exits_zero(capsys):
    rc = main(VERIFY_ARGS)
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out == {"ok": True, "failures": {}}


def test_cli_verify_violation_exits_three(monkeypatch, capsys):
    def one_mismatch(recorder, p, **kw):
        return RoundContractReport([Violation("mismatch", 0, 1, "injected")], 1, p)

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
