"""End-to-end gate: eleven pinned checks, one printed verdict line each.

Every check here runs the real library end to end at a fixed configuration
and asserts a numeric window plus a wall-clock budget.  The verdict lines
print outside pytest's capture so a plain `pytest -v` run shows them.
"""

import hashlib
import json
import math
import tempfile
import time
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from eagercoll.collectives import CollectiveConfig
from eagercoll.eagersgd import LrBoundParams, max_learning_rate, min_iterations
from eagercoll.harness import (
    RunConfig,
    bench_collectives,
    contract_sweep,
    load_config,
    main,
    run_training,
    summarize,
    write_bench_csv,
    write_train_csv,
)
from eagercoll.models import loss_and_grad, mse
from eagercoll.transport import DelayModel, SimTransport
from eagercoll.verify import explore_interleavings, track_shadow

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_JSON = Path(__file__).resolve().parent / "golden.json"

# SHA-256 of the bench32, hyperplane_run, zero_skew_run, two-collective and
# p=12 bench CSVs.  Any change to a virtual number (latency, NAP, loss,
# simulated time) changes these.
GOLDEN_BENCH_SHA256 = "b4f3fc3a23132459b38ea89385140710d81ac8f02281be009a85b4626987f23f"
GOLDEN_TRAIN_SHA256 = "e5471d1f89e6d62e42571d71c33aecacf27e168ef6942fa3526f1b8a954338e8"
GOLDEN_ZERO_SKEW_SHA256 = "4e1ddb01f7b087d76ca6bd2b1e5c81cf6b7d611b1f2a4b4cc02c6631bb0c59f9"
GOLDEN_TWO_CID_SHA256 = "896477ff66ff987e0fdd539d54e5da5e974a0475eda974e9478f447577bcb6cc"
GOLDEN_P12_BENCH_SHA256 = "22356bdef9d664d6d536aada85d729326369052d4f958bc94fa9cedfa04bac4d"


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# shared runs


ZERO_SKEW = RunConfig(mode="train", p=8, flavors=("sync", "solo", "majority"),
                      epochs=10, steps_per_epoch=5, dim=16, n_samples=256,
                      batch_per_rank=8, lr=0.03, tau=4, resync_period=1000,
                      delay=DelayModel("none"), link_latency_us=10,
                      seed=1234, data_seed=99)


# the other two golden runs (see check_golden_csvs)
TWO_CID = RunConfig(mode="train", p=5, flavors=("sync", "solo", "majority"),
                    epochs=6, steps_per_epoch=4, dim=8, n_samples=256,
                    batch_per_rank=8, lr=0.02, tau=1, resync_period=2,
                    delay=DelayModel("random_subset", unit_ms=0.5, k=2, seed=3),
                    link_latency_us=10, seed=7, data_seed=8)
P12 = RunConfig(mode="bench", flavors=("sync", "solo", "majority"), p=12,
                rounds=16, vector_len=4,
                delay=DelayModel("random_subset", unit_ms=0.5, k=3, seed=21),
                link_latency_us=10, seed=77)


@pytest.fixture(scope="module")
def bench32():
    """P=32, per-round skew 1..32 ms, 64 rounds, all three flavors."""
    cfg = load_config(str(CONFIGS / "microbench.conf"))
    t0 = time.perf_counter()
    records = bench_collectives(cfg)
    elapsed = time.perf_counter() - t0
    return summarize(records), elapsed, records


@pytest.fixture(scope="module")
def zero_skew_run():
    t0 = time.perf_counter()
    rep = run_training(ZERO_SKEW)
    return ZERO_SKEW, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hyperplane_run():
    cfg = load_config(str(CONFIGS / "hyperplane.conf"))
    t0 = time.perf_counter()
    rep = run_training(cfg)
    return cfg, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def drift_runs():
    out = {}
    t0 = time.perf_counter()
    for alpha in (0.01, 0.005):
        cfg = RunConfig(mode="train", p=4, flavors=("solo",), epochs=25,
                        steps_per_epoch=8, dim=16, n_samples=512,
                        batch_per_rank=8, lr=alpha, tau=1, resync_period=1000,
                        delay=DelayModel("random_subset", unit_ms=0.5, k=1, seed=5),
                        link_latency_us=10, seed=42, data_seed=7)
        rep = run_training(cfg)
        out[alpha] = track_shadow(rep.recorders["solo"], alpha, 4, tau=1)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_mean_nap_windows(bench32, capsys):
    s, elapsed, _ = bench32
    solo = s["flavors"]["solo"]["mean_nap"]
    maj = s["flavors"]["majority"]["mean_nap"]
    ok = 1.0 <= solo <= 2.0 and 12.8 <= maj <= 19.2 and elapsed < 10.0
    report(capsys, 1, ok,
           f"mean nap solo {solo:.2f} in [1,2], majority {maj:.2f} "
           f"in [12.8,19.2]; bench took {elapsed:.1f}s < 10s")


def test_criterion_02_latency_ordering(bench32, capsys):
    s, elapsed, _ = bench32
    lat = {f: s["flavors"][f]["mean_latency_us"] for f in s["flavors"]}
    r_solo = s["speedup_vs_sync"]["solo"]
    r_maj = s["speedup_vs_sync"]["majority"]
    ok = (lat["solo"] < lat["majority"] < lat["sync"]
          and r_solo >= 10.0 and 1.5 <= r_maj <= 4.0 and elapsed < 10.0)
    report(capsys, 2, ok,
           f"mean latency us solo {lat['solo']:.0f} < majority "
           f"{lat['majority']:.0f} < sync {lat['sync']:.0f}; sync/solo "
           f"{r_solo:.0f}x >= 10x, sync/majority {r_maj:.2f}x in [1.5,4]")


def test_criterion_03_contract_sweep(capsys):
    n_configs = 500
    t0 = time.perf_counter()
    bad = sum(not r.ok for _, r in contract_sweep(n_configs, seed=2024))
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120.0
    report(capsys, 3, ok,
           f"{n_configs - bad}/{n_configs} randomized configs clean "
           f"(liveness, bit-identity, subset-sum, nap, staleness) "
           f"in {elapsed:.1f}s < 120s")


def test_criterion_04_exhaustive_interleavings(capsys):
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=2)
    t0 = time.perf_counter()
    free = explore_interleavings(cfg)
    fixed = explore_interleavings(cfg, arrivals_first=True)
    one_sided = explore_interleavings(cfg, arrive_ranks=(0,))
    elapsed = time.perf_counter() - t0
    ok = (free.ok and fixed.ok and fixed.unique_results == 1
          and one_sided.ok and one_sided.unique_results == 1
          and elapsed < 60.0)
    report(capsys, 4, ok,
           f"single execution in every order: free arrivals {free.states} "
           f"states 0 violations; fixed arrivals {fixed.states} states -> "
           f"{fixed.unique_results} result; one-sided {one_sided.states} states")


def test_criterion_05_zero_skew_degeneracy(zero_skew_run, capsys):
    cfg, rep, elapsed = zero_skew_run
    rounds = cfg.epochs * cfg.steps_per_epoch
    losses = {}
    for flavor in cfg.flavors:
        losses[flavor] = [(r["rank"], r["round"], r["loss"])
                          for r in rep.rows if r["flavor"] == flavor]
    same_losses = losses["sync"] == losses["solo"] == losses["majority"]
    same_weights = all(
        rep.weights[(f, r)].tobytes() == rep.weights[("sync", r)].tobytes()
        for f in cfg.flavors for r in range(cfg.p))
    full_nap = all(r["nap"] == cfg.p for r in rep.rows)
    ok = (same_losses and same_weights and full_nap
          and len(losses["sync"]) == rounds * cfg.p and elapsed < 30.0)
    report(capsys, 5, ok,
           f"{rounds} zero-skew rounds at p={cfg.p}: solo/majority/sync "
           f"losses and final weights bit-identical, nap always {cfg.p} "
           f"({elapsed:.1f}s < 30s)")


def test_criterion_06_hyperplane_convergence(hyperplane_run, capsys):
    cfg, rep, elapsed = hyperplane_run
    v_sync = rep.final_val("sync")
    v_solo = rep.final_val("solo")
    speedup = rep.speedup_vs_sync["solo"]
    ok = v_solo <= v_sync * 1.05 and speedup >= 1.3 and elapsed < 300.0
    report(capsys, 6, ok,
           f"final val MSE solo {v_solo:.5f} vs sync {v_sync:.5f} "
           f"(ratio {v_solo / v_sync:.3f} <= 1.05) with {speedup:.2f}x >= "
           f"1.3x simulated-time speedup ({elapsed:.0f}s < 300s)")


def test_criterion_07_gradient_conservation(capsys):
    cfg = RunConfig(mode="train", p=4, flavors=("solo",), epochs=25,
                    steps_per_epoch=4, dim=8, n_samples=128, batch_per_rank=4,
                    lr=0.02, tau=1, resync_period=1000,
                    delay=DelayModel("random_subset", unit_ms=0.5, k=1, seed=5),
                    link_latency_us=10, seed=21, data_seed=22)
    rounds = cfg.epochs * cfg.steps_per_epoch
    t0 = time.perf_counter()
    rep = run_training(cfg)
    elapsed = time.perf_counter() - t0
    led = rep.ledgers["solo"]
    violations = led.audit(tau=1, allow_pending_after=rounds - 1 - 1)
    delivered = sum(1 for _, _, d in led.entries() if d is not None)
    max_staleness = max((d - g for _, g, d in led.entries() if d is not None), default=0)
    ok = (not violations and max_staleness <= 1
          and delivered >= (rounds - 2) * cfg.p and elapsed < 30.0)
    report(capsys, 7, ok,
           f"tau=1 guard over {rounds} rounds with one forced laggard per "
           f"round: {delivered}/{rounds * cfg.p} gradients delivered exactly "
           f"once, max staleness {max_staleness}, 0 ledger violations")


def test_criterion_08_drift_bound(drift_runs, capsys):
    reps, elapsed = drift_runs
    r1, r2 = reps[0.01], reps[0.005]
    ratio = r1.max_drift / r2.max_drift
    ok = (r1.ok and r2.ok and 3.0 <= ratio <= 5.0 and elapsed < 120.0)
    report(capsys, 8, ok,
           f"max drift {r1.max_drift:.3e} <= bound*1.5 {r1.bound * 1.5:.3e} "
           f"(alpha .01) and {r2.max_drift:.3e} <= {r2.bound * 1.5:.3e} "
           f"(alpha .005); alpha^2 scaling ratio {ratio:.2f} in [3,5]")


def test_criterion_09_step_size_oracle(capsys):
    getcontext().prec = 60

    def oracle_amax(pr):
        L, M, tau = Decimal(pr.L), Decimal(pr.M), Decimal(pr.tau)
        p, q, eps = Decimal(pr.p), Decimal(pr.q), Decimal(pr.eps)
        t3 = eps / (12 * M * M * L)
        if pr.q == pr.p:
            return t3
        lag = p - q
        t1 = eps.sqrt() * p / (12 * L * L * tau * M * M * lag).sqrt()
        t2 = eps.sqrt() * p / (4 * L * tau * M * M * lag).sqrt()
        return min(t1, t2, t3)

    rng = np.random.default_rng(999)
    worst_rel, worst_it = 0.0, 0
    t0 = time.perf_counter()
    for _ in range(50):
        p = int(rng.integers(2, 64))
        pr = LrBoundParams(
            L=float(10 ** rng.uniform(-1, 1)), M=float(10 ** rng.uniform(-1, 1)),
            tau=int(rng.integers(1, 32)), p=p, q=int(rng.integers(1, p + 1)),
            eps=float(10 ** rng.uniform(-3, 0)), f0_minus_m=float(10 ** rng.uniform(-2, 2)))
        amax = max_learning_rate(pr)
        want = oracle_amax(pr)
        rel = abs(Decimal(amax) - want) / want
        worst_rel = max(worst_rel, float(rel))
        alpha = amax * float(rng.uniform(0.1, 1.0))
        got_T = min_iterations(pr, alpha)
        # exact rational ceil; the float path may land one off at boundaries
        want_T = math.ceil(Fraction(24) * Fraction(pr.f0_minus_m)
                           / (Fraction(alpha) * Fraction(pr.eps)))
        worst_it = max(worst_it, abs(got_T - want_T))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-12 and worst_it <= 1 and elapsed < 1.0
    report(capsys, 9, ok,
           f"50 random parameter sets: max step-size rel err {worst_rel:.1e} "
           f"<= 1e-12 vs 60-digit oracle; iteration counts within "
           f"{worst_it} of the exact rational ceil")


def test_criterion_10_gradient_vs_finite_differences(capsys):
    rng = np.random.default_rng(31337)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        dim = int(rng.integers(1, 17))
        b = int(rng.integers(1, 33))
        x = rng.standard_normal((b, dim))
        y = rng.standard_normal(b)
        w = rng.standard_normal(dim)
        _, grad = loss_and_grad(w, x, y)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1e-6
            fd = (mse(w + e, x, y) - mse(w - e, x, y)) / 2e-6
            worst = max(worst, abs(grad[j] - fd) / max(1.0, abs(fd)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(capsys, 10, ok,
           f"100 random points: max relative error analytic-vs-central-"
           f"difference {worst:.2e} <= 1e-6 ({elapsed:.1f}s < 10s)")


def test_criterion_11_byte_identical_reruns(tmp_path, capsys):
    bcfg = RunConfig(mode="bench", p=8, rounds=16, vector_len=16,
                     delay=DelayModel("linear_skew", unit_ms=1.0),
                     link_latency_us=10, seed=1234,
                     flavors=("sync", "solo", "majority"))
    tcfg = RunConfig(mode="train", p=4, flavors=("sync", "solo"), epochs=2,
                     steps_per_epoch=4, dim=8, n_samples=64, batch_per_rank=4,
                     lr=0.05, tau=2, resync_period=1000,
                     delay=DelayModel("random_subset", unit_ms=0.3, k=1, seed=6),
                     link_latency_us=10, seed=77, data_seed=78)
    paths = []
    for i in range(2):
        bp = tmp_path / f"bench{i}.csv"
        tp = tmp_path / f"train{i}.csv"
        write_bench_csv(bench_collectives(bcfg), str(bp))
        write_train_csv(run_training(tcfg).rows, str(tp))
        paths.append((bp.read_bytes(), tp.read_bytes()))
    ok = paths[0] == paths[1] and len(paths[0][0]) > 100 and len(paths[0][1]) > 100
    report(capsys, 11, ok,
           f"bench and train runs repeated with identical configs/seeds: "
           f"CSV outputs byte-identical ({len(paths[0][0])} + "
           f"{len(paths[0][1])} bytes)")


def check_golden_csvs(bench_records, hyperplane_rows, zero_skew_rows, tmp_path):
    """The pinned runs' CSVs match the digests above, so a change to any
    virtual-time result fails here (criterion 11 only compares two runs of
    the same code).  The two-collective run resyncs every other epoch under
    a tight tau, so the gradient (cid 0) and resync (cid 1) collectives both
    carry traffic on every rank, and the guard holds rounds.  The p=12 bench
    run is not a power of two, so its schedules carry the fold and final ops
    beside the butterfly, and majority's CSV rows record the drawn
    initiator."""
    runs = [
        (write_bench_csv, bench_records, GOLDEN_BENCH_SHA256),
        (write_train_csv, hyperplane_rows, GOLDEN_TRAIN_SHA256),
        (write_train_csv, zero_skew_rows, GOLDEN_ZERO_SKEW_SHA256),
        (write_train_csv, run_training(TWO_CID).rows, GOLDEN_TWO_CID_SHA256),
        (write_bench_csv, bench_collectives(P12), GOLDEN_P12_BENCH_SHA256),
    ]
    for i, (write, rows, want) in enumerate(runs):
        path = tmp_path / f"run{i}.csv"
        write(rows, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, path.name


def test_golden_csv_digests(bench32, hyperplane_run, zero_skew_run, tmp_path):
    check_golden_csvs(bench32[2], hyperplane_run[1].rows, zero_skew_run[1].rows, tmp_path)


# ---------------------------------------------------------------------------
# per-round digests: where a golden run diverged


def _golden_runs() -> dict:
    """name -> (config, run returning its CSV rows, CSV writer) of the five
    golden runs, in the order of check_golden_csvs."""
    train = lambda cfg: run_training(cfg).rows  # noqa: E731
    return {
        "bench32": (load_config(str(CONFIGS / "microbench.conf")), bench_collectives,
                    write_bench_csv),
        "hyperplane": (load_config(str(CONFIGS / "hyperplane.conf")), train, write_train_csv),
        "zero_skew": (ZERO_SKEW, train, write_train_csv),
        "two_cid": (TWO_CID, train, write_train_csv),
        "p12": (P12, bench_collectives, write_bench_csv),
    }


def round_traces(tmp_path: Path) -> dict:
    """Run the five golden configs with every SimTransport.send logged.
    Returns name -> flavour -> (rows, sends): rows maps a round to its CSV
    lines, and sends maps (cid, rnd) to that round's sends, each as
    (now_us, src, dst, cid, rnd, phase, step), in send order.  Each flavour
    runs on a SimTransport of its own, in the config's flavour order."""
    logs: list[tuple[SimTransport, list]] = []  # (transport, its sends)
    send = SimTransport.send

    def logged(self, msg):
        if not logs or logs[-1][0] is not self:
            logs.append((self, []))
        logs[-1][1].append((self.now_us(), *msg[:6]))
        send(self, msg)

    out = {}
    with mock.patch.object(SimTransport, "send", logged):
        for name, (cfg, run, write) in _golden_runs().items():
            logs.clear()
            path = tmp_path / f"{name}.csv"
            write(run(cfg), str(path))
            assert len(logs) == len(cfg.flavors), name
            out[name] = {}
            for flavor, (_, log) in zip(cfg.flavors, logs):
                sends: dict = {}
                for s in log:
                    sends.setdefault((s[3], s[4]), []).append(s)
                out[name][flavor] = ({}, sends)
            for line in path.read_text().splitlines()[2:]:  # past the schema and header
                flavor, rnd, _ = line.split(",", 2)
                out[name][flavor][0].setdefault(int(rnd), []).append(line)
    return out


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:8]


def round_digests(traces: dict) -> dict:
    """name -> flavour -> {"rows": [round r's digest], "sends": {cid: [round
    r's digest]}}, 8 hex digits each: the layout of tests/golden.json."""
    out = {}
    for name, flavors in traces.items():
        out[name] = {}
        for flavor, (rows, sends) in flavors.items():
            by_cid: dict = {}
            for cid, rnd in sorted(sends):
                digests = by_cid.setdefault(str(cid), [])
                assert rnd == len(digests), (name, flavor, cid, rnd)  # no round skipped
                digests.append(_digest(sends[cid, rnd]))
            assert sorted(rows) == list(range(len(rows))), (name, flavor)
            out[name][flavor] = {"rows": [_digest(rows[r]) for r in range(len(rows))],
                                 "sends": by_cid}
    return out


def first_divergence(got: dict, want: dict):
    """The first (name, flavour, round, what) in run order, round by round,
    where the digests differ: what is "rows", or the cid whose sends differ."""
    def at(digests, r):
        return digests[r] if r < len(digests) else None

    for name, flavors in want.items():
        for flavor, pinned in flavors.items():
            now = got[name][flavor]
            cids = sorted(set(pinned["sends"]) | set(now["sends"]))
            n = max([len(pinned["rows"]), len(now["rows"])]
                    + [len(d.get(c, ())) for d in (pinned["sends"], now["sends"]) for c in cids])
            for r in range(n):
                if at(pinned["rows"], r) != at(now["rows"], r):
                    return name, flavor, r, "rows"
                for c in cids:
                    if at(pinned["sends"].get(c, []), r) != at(now["sends"].get(c, []), r):
                        return name, flavor, r, int(c)
    return None


def test_golden_round_and_send_digests(tmp_path):
    """Each golden run's CSV rows and sends, round by round, match
    tests/golden.json, so a change that moves one message by a microsecond
    fails even where no CSV number shows it, and the failure names the first
    (config, flavour, round) that moved.  The whole-file digests above
    stay the primary pin; regenerate this file with
    `PYTHONPATH=src python tests/test_acceptance.py` only with a reason."""
    traces = round_traces(tmp_path)
    where = first_divergence(round_digests(traces), json.loads(GOLDEN_JSON.read_text()))
    if where is not None:
        name, flavor, rnd, what = where
        rows, sends = traces[name][flavor]
        if what == "rows":
            detail = f"its CSV rows differ; now: {rows.get(rnd, [])[:3]}"
        else:
            mine = sends.get((what, rnd), [])
            detail = (f"its cid-{what} sends differ; now {len(mine)} sends, the first "
                      f"(now_us, src, dst, cid, rnd, phase, step): {mine[:1]}")
        pytest.fail(f"golden run {name}, flavour {flavor}, round {rnd}: {detail}")


@pytest.mark.parametrize("cmd, preset, want", [
    ("bench", "microbench.conf", GOLDEN_BENCH_SHA256),
    ("train", "hyperplane.conf", GOLDEN_TRAIN_SHA256),
], ids=["bench", "train"])
def test_cli_preset_run_writes_the_golden_csv(cmd, preset, want, tmp_path, capsys):
    """The same pinned runs through argv: flag parsing, the config file and
    the CSV writer of the CLI path."""
    stem = tmp_path / cmd
    assert main([cmd, "--config", str(CONFIGS / preset), "--out", str(stem)]) == 0
    assert hashlib.sha256(Path(f"{stem}.csv").read_bytes()).hexdigest() == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = round_digests(round_traces(Path(tmp)))
    # one line per (config, flavour), so a re-pin's diff names what moved
    GOLDEN_JSON.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(flavor)}: {json.dumps(d)}" for flavor, d in flavors.items())
        + "\n }" for name, flavors in table.items()) + "\n}\n")
