"""The checkers must catch what they claim to catch: fault-injection tests,
plus the shadow-trajectory tracker and the interleaving explorer."""

import sys
import threading

import numpy as np
import pytest

from eagercoll import schedule
from eagercoll.collectives import (
    AllreduceHandle, CollectiveConfig, run_allreduce, simulate, tree_order_sum,
)
from eagercoll.schedule import Engine
from eagercoll.trace import CollectiveResult, SnapshotRecord, TraceRecorder
from eagercoll.transport import Sleep
from eagercoll.verify import (
    DeliveryLedger,
    EngineStateDrift,
    IncompleteTrace,
    StateSpaceTooLarge,
    check_round_contracts,
    drop_round,
    explore_interleavings,
    tamper_mask,
    tamper_result,
    track_shadow,
)


def clean_trace(p=4, rounds=3, flavor="solo", link=10):
    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=4, seed=2)
    rec = TraceRecorder()
    run_allreduce(cfg, np.random.default_rng(0).standard_normal((p, 4)),
                  rounds=rounds, link_latency_us=link, recorder=rec)
    return rec, p


def test_clean_run_passes():
    for flavor in ("solo", "majority", "sync"):
        rec, p = clean_trace(flavor=flavor)
        rep = check_round_contracts(rec, p, expect_rounds=3)
        assert rep.ok, rep.violations


def test_tampered_result_is_caught():
    rec, p = clean_trace()
    tamper_result(rec, rank=2, rnd=1, delta=1e-6)
    rep = check_round_contracts(rec, p)
    assert not rep.ok
    kinds = rep.by_kind()
    assert "mismatch" in kinds


def test_tampered_mask_is_caught():
    rec, p = clean_trace()
    tamper_mask(rec, rank=0, rnd=0, bit=3)
    rep = check_round_contracts(rec, p)
    assert not rep.ok
    assert "subset-sum" in rep.by_kind() or "mismatch" in rep.by_kind()


def test_dropped_round_is_caught():
    rec, p = clean_trace()
    drop_round(rec, rank=1, rnd=2)
    rep = check_round_contracts(rec, p, expect_rounds=3)
    assert "liveness" in rep.by_kind()


def test_missing_trailing_round_is_caught_via_expect_rounds():
    rec, p = clean_trace(rounds=3)
    rep = check_round_contracts(rec, p, expect_rounds=5)
    assert "liveness" in rep.by_kind()


def test_forged_nap_is_caught():
    rec, p = clean_trace()
    for row in rec.rounds:
        if row.rnd == 1:
            row.nap += 1  # nap must be popcount(included) everywhere
    rep = check_round_contracts(rec, p)
    assert "nap" in rep.by_kind()


def test_missing_snapshot_is_caught_as_liveness():
    rec, p = clean_trace()
    assert check_round_contracts(rec, p, expect_rounds=3).ok
    rec.snapshots = [s for s in rec.snapshots if (s.rnd, s.rank) != (1, 2)]
    rep = check_round_contracts(rec, p, expect_rounds=3)
    assert [(v.kind, v.rnd, v.rank, v.detail) for v in rep.violations] == [
        ("liveness", 1, 2, "no snapshot recorded")]


def test_flipped_fresh_flag_is_caught_as_a_mask_mismatch():
    rec, p = clean_trace()
    assert check_round_contracts(rec, p, expect_rounds=3).ok
    snap = next(s for s in rec.snapshots if (s.rnd, s.rank) == (1, 2))
    assert snap.fresh
    snap.fresh = False
    rep = check_round_contracts(rec, p, expect_rounds=3)
    masks = [v for v in rep.violations if v.detail.startswith("mask ")]
    assert [(v.kind, v.rnd, v.rank) for v in masks] == [("subset-sum", 1, None)]
    assert masks[0].detail == "mask 0xf != consumed-fresh set 0xb"


def _one_ulp_off(rec, p):
    """Every rank gets the same u, one ulp above the tree-order sum / p."""
    for row in rec.rounds:
        if row.rnd == 1:
            row.u = np.nextafter(row.u, np.inf)


def _cancelling_contributions(rec, p):
    """Round 1's contributions cancel, so the tree-order sum that u holds
    has lost the small terms a serial sum keeps."""
    vals = [np.full(4, v) for v in (1e16, 1.0, -1e16, 1.0)]
    for s in rec.snapshots:
        if s.rnd == 1:
            s.data, s.fresh = vals[s.rank], True
    for row in rec.rounds:
        if row.rnd == 1:
            row.u, row.included, row.nap = tree_order_sum(vals) / p, 0b1111, 4


def _no_fresh_contribution(rec, p):
    """Round 1 took every rank's slot empty and published zeros."""
    for s in rec.snapshots:
        if s.rnd == 1:
            s.data, s.fresh = np.zeros(4), False
    for row in rec.rounds:
        if row.rnd == 1:
            row.u, row.included, row.nap = np.zeros(4), 0, 0


@pytest.mark.parametrize("fault, violation", [
    (_one_ulp_off,
     ("subset-sum", 1, None, "u does not equal the tree-ordered contribution sum / p")),
    (_cancelling_contributions,
     ("subset-sum", 1, None, "u*p deviates from the serial contribution sum")),
    (_no_fresh_contribution, ("nap", 1, None, "round completed with no fresh data")),
], ids=["tree-sum", "serial-sum", "no-fresh-data"])
def test_each_sum_and_nap_check_fires_alone(fault, violation):
    rec, p = clean_trace()
    assert check_round_contracts(rec, p, expect_rounds=3).ok
    fault(rec, p)
    rep = check_round_contracts(rec, p, expect_rounds=3)
    assert [(v.kind, v.rnd, v.rank, v.detail) for v in rep.violations] == [violation]


def test_checker_is_idempotent():
    rec, p = clean_trace()
    a = check_round_contracts(rec, p)
    b = check_round_contracts(rec, p)
    assert a.ok and b.ok and a.rounds_checked == b.rounds_checked


def _late_rank1_keeps_its_values(monkeypatch):
    """A snapshot zeroes only the mask words, so a late rank's previous
    value stays in its send buffer and is summed without its mask bit."""
    def leaky_snapshot(self):
        buf = self._snap_buf
        self.on_snapshot(self.generation, buf)
        buf[self.program.mask_offset:] = 0
    monkeypatch.setattr(Engine, "_snapshot_taken", leaky_snapshot)


@pytest.mark.parametrize("flavor", ["solo", "majority"])
def test_stale_value_summed_without_its_mask_bit_is_caught(monkeypatch, flavor):
    """p=4 with rank 1 on time in even rounds and late in odd ones: a stale
    snapshot must be the zeroed send buffer, or the round summed a value
    its mask does not flag."""
    cfg = CollectiveConfig(p=4, flavor=flavor, vector_len=3, seed=2)

    def body(rank, handle):
        now = handle.transport.now_us
        for t in range(6):
            dt = t * 10_000 + (5000 if rank == 1 and t % 2 else 0) - now()
            if dt > 0:
                yield Sleep(dt)
            yield from handle.call_round(t, np.full(3, 10.0 * rank + t + 1))

    def run():
        rec = TraceRecorder()
        simulate([cfg], body, link_latency_us=10, recorder=rec)
        return rec

    rec = run()
    late = {(s.rnd, s.rank) for s in rec.snapshots if not s.fresh}
    assert late and {r for _, r in late} == {1} and all(t % 2 for t, _ in late)
    assert check_round_contracts(rec, 4, expect_rounds=6).ok
    _late_rank1_keeps_its_values(monkeypatch)
    rep = check_round_contracts(run(), 4, expect_rounds=6)
    assert {(v.kind, v.rnd, v.rank) for v in rep.violations} == {
        ("subset-sum", t, r) for t, r in late}, rep.violations


# ---------------------------------------------------------------------------
# recorder: one array per round's result, one per size of late zeros


def _recorded_run(vector_len, p=4, rounds=4, flavor="solo"):
    """Ranks 2 and 3 are late every round, so their snapshots are stale."""
    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=vector_len, seed=2)
    rec = TraceRecorder()
    run_allreduce(cfg, lambda r, t: np.full(vector_len, r + 0.5 * t),
                  rounds=rounds, delay_us=lambda r, t: 3000 if r >= 2 else 0,
                  link_latency_us=10, recorder=rec)
    return rec


def test_recorder_keeps_one_result_per_round_above_a_page():
    rec = _recorded_run(1024)
    for t in range(4):
        rows = [r for r in rec.rounds if r.rnd == t]
        assert len(rows) == 4 and len({id(r.u) for r in rows}) == 1
    assert check_round_contracts(rec, 4, expect_rounds=4).ok


def test_recorder_shares_one_zero_vector_for_late_ranks():
    rec = _recorded_run(1024)
    stale = [s for s in rec.snapshots if not s.fresh]
    assert len(stale) >= 8 and len({id(s.data) for s in stale}) == 1
    assert not stale[0].data.flags.writeable and not stale[0].data.any()
    fresh = [s for s in rec.snapshots if s.fresh]
    assert len({id(s.data) for s in fresh}) == len(fresh)
    # a stale value that is not all-zero bytes (-0.0 is not) is copied
    live = np.zeros(1024)
    live[5] = -0.0
    rec.snapshot(SnapshotRecord(0, 9, live, False))
    kept = rec.snapshots[-1].data
    assert kept is not live and kept is not stale[0].data and np.signbit(kept[5])


def test_recorder_shares_one_array_per_round_across_threads():
    """On sockets every rank's driver thread records into one recorder:
    under a short switch interval, eight threads recording equal results
    and zero snapshots for the same rounds still keep one array each."""
    rec, rounds = TraceRecorder(), 300
    u, zeros = np.arange(1024.0), np.zeros(1024)
    start = threading.Barrier(8)

    def record(rank):
        start.wait(timeout=30)
        for t in range(rounds):
            rec.round_done(CollectiveResult(rank, t, u + t, 1, 1))
            rec.snapshot(SnapshotRecord(rank, t, zeros, False))

    threads = [threading.Thread(target=record, args=(r,)) for r in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(rec.rounds) == len(rec.snapshots) == 8 * rounds
    for t in range(rounds):
        assert len({id(r.u) for r in rec.rounds if r.rnd == t}) == 1
    assert len({id(s.data) for s in rec.snapshots}) == 1


@pytest.mark.parametrize("vector_len, shared", [(64, False), (512, False), (513, True)])
def test_recorder_shares_only_vectors_above_a_page(vector_len, shared):
    """4096 bytes (512 floats) and less are recorded as they come, each in
    its own array, as is every snapshot."""
    rec = _recorded_run(vector_len)
    rows = [r for r in rec.rounds if r.rnd == 1]
    assert len({id(r.u) for r in rows}) == (1 if shared else 4)
    stale = [s for s in rec.snapshots if not s.fresh]
    assert len({id(s.data) for s in stale}) == (1 if shared else len(stale))


def test_recorder_keeps_a_perturbed_result_apart(monkeypatch):
    """The second rank to finish round 1 perturbs its result: it keeps its
    own array, the checker reports it, and the others share the first's.
    The recorder records copies, so the app's results keep their arrays."""
    done_cb = AllreduceHandle._done_cb
    order, app = [], {}

    def perturbed(self, rnd, published):
        if rnd == 1:
            order.append(self.rank)
            if len(order) == 2:
                published = published.copy()
                published[:8].view(np.float64)[0] += 1.0
        done_cb(self, rnd, published)
        app[self.rank, rnd] = self._last

    monkeypatch.setattr(AllreduceHandle, "_done_cb", perturbed)
    rec = _recorded_run(1024)
    rows = {r.rank: r for r in rec.rounds if r.rnd == 1}
    first, bad = order[0], order[1]
    assert rows[bad].u is app[bad, 1].u
    assert all(rows[r].u is rows[first].u for r in order[2:])
    assert all(app[r, 1].u is not rows[first].u for r in order[2:])
    rep = check_round_contracts(rec, 4, expect_rounds=4)
    assert [(v.kind, v.rnd, v.rank) for v in rep.violations] == [("mismatch", 1, bad)]


# ---------------------------------------------------------------------------
# delivery ledger audits


def test_ledger_happy_path():
    led = DeliveryLedger()
    led.generated(0, 0)
    led.generated(1, 0)
    led.delivered(0, 0, 0)
    led.delivered(1, 0, 1)
    assert not led.audit(tau=1)
    assert led.max_staleness() == 1


def test_ledger_catches_each_violation_class():
    led = DeliveryLedger()
    led.generated(0, 0)
    led.delivered(0, 0, 0)
    led.delivered(0, 0, 1)          # second delivery of the same gradient
    led.delivered(3, 9, 9)          # delivery of a never-generated gradient
    led.generated(1, 5)
    led.delivered(1, 5, 4)          # delivered before it was generated
    led.generated(2, 0)             # never delivered at all
    led.generated(2, 0)             # generated twice
    led.generated(4, 1)
    led.delivered(4, 1, 9)          # age 8 with tau=2
    kinds = {v.kind for v in led.audit(tau=2)}
    assert kinds == {"double-delivery", "unknown-gradient", "time-travel",
                     "undelivered", "double-generation", "staleness"}


def test_ledger_trailing_exemption():
    led = DeliveryLedger()
    for g in range(4):
        led.generated(0, g)
    led.delivered(0, 0, 0)
    led.delivered(0, 1, 1)
    # rounds 2 and 3 ended the run still pending
    assert {v.kind for v in led.audit(tau=1)} == {"undelivered"}
    assert not led.audit(tau=1, allow_pending_after=1)
    # the exemption is strict: a pending gradient AT the cutoff still counts
    led.generated(1, 1)
    flagged = led.audit(tau=1, allow_pending_after=1)
    assert [(v.rank, v.rnd) for v in flagged] == [(1, 1)]


# ---------------------------------------------------------------------------
# shadow trajectory


def run_training_trace(p=2, rounds=6, flavor="sync", alpha=0.05, delay_fn=None,
                       tau=None):
    from eagercoll.collectives import simulate
    from eagercoll.eagersgd import TrainState, training_process
    from eagercoll.models import batch_table, gen_dataset

    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=4, seed=3)
    rec = TraceRecorder()
    ds = gen_dataset(dim=4, n=64, seed=6)
    w0 = np.zeros(4)
    rows = batch_table(13, p, rounds, 4, ds.n_train)

    def body(r, handle):
        state = TrainState.fresh(w0, lr=alpha, rank=r, tau=tau)
        return training_process(
            r, state, handle, None, ds, rows[r], epochs=1,
            steps_per_epoch=rounds, delay_fn=delay_fn)

    simulate([cfg], body, link_latency_us=10, recorder=rec)
    return rec


def test_shadow_drift_is_zero_when_nothing_is_ever_late():
    rec = track = run_training_trace(flavor="sync")
    rep = track_shadow(rec, alpha=0.05, p=2, tau=1)
    assert rep.max_drift == 0.0
    assert rep.q_hat == 2
    assert rep.ok


def test_shadow_drift_bounded_with_one_straggler():
    rec = run_training_trace(
        p=4, rounds=8, flavor="solo", alpha=0.02, tau=1,
        delay_fn=lambda r, t: 500 if r == (t % 4) else 0)
    rep = track_shadow(rec, alpha=0.02, p=4, tau=1)
    assert rep.max_drift <= rep.bound * (1 + rep.slack) + 1e-300
    assert rep.m2_hat > 0
    assert rep.q_hat >= 1


def test_shadow_scales_with_alpha_squared():
    """Same run at alpha and alpha/2: the bound shrinks by ~4x."""
    r1 = track_shadow(run_training_trace(p=2, flavor="sync", alpha=0.04),
                      alpha=0.04, p=2, tau=1)
    r2 = track_shadow(run_training_trace(p=2, flavor="sync", alpha=0.02),
                      alpha=0.02, p=2, tau=1)
    assert r1.bound == pytest.approx(4 * r2.bound * (r1.m2_hat / r2.m2_hat), rel=1e-9)


def test_shadow_requires_a_complete_trace():
    rec = run_training_trace()
    del rec.gradients[(0, 2)]
    with pytest.raises(IncompleteTrace):
        track_shadow(rec, alpha=0.05, p=2, tau=1)


def test_shadow_requires_common_start():
    rec = run_training_trace()
    rec.weights[(1, 0)] = rec.weights[(1, 0)] + 1.0
    with pytest.raises(IncompleteTrace):
        track_shadow(rec, alpha=0.05, p=2, tau=1)


# ---------------------------------------------------------------------------
# interleaving explorer


def test_explorer_all_orders_agree_p2():
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=2)
    rep = explore_interleavings(cfg)
    assert rep.ok
    assert rep.states > 1
    assert rep.terminals >= 1
    assert not rep.violations


def test_explorer_fixed_arrivals_single_result():
    """With both contributions aboard before any message moves, every
    delivery order lands on the same bytes."""
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=2)
    rep = explore_interleavings(cfg, arrivals_first=True)
    assert rep.ok
    assert rep.unique_results == 1


def test_explorer_one_sided_arrival():
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=2)
    rep = explore_interleavings(cfg, arrive_ranks=(0,))
    assert rep.ok
    assert rep.unique_results == 1  # only rank 0's data can ever board


def test_explorer_p3_race_of_two_initiators():
    cfg = CollectiveConfig(p=3, flavor="solo", vector_len=1)
    rep = explore_interleavings(cfg, arrive_ranks=(0, 2), arrivals_first=True)
    assert rep.ok
    assert rep.unique_results == 1


@pytest.mark.parametrize("cfg, arrivals_first, counts", [
    (CollectiveConfig(p=3, flavor="solo", vector_len=2, seed=1234), False, (3545, 7, 7)),
    (CollectiveConfig(p=3, flavor="majority", vector_len=2, seed=1234), False, (3545, 7, 7)),
    (CollectiveConfig(p=2, flavor="solo", vector_len=2), False, (45, 3, 3)),
    (CollectiveConfig(p=2, flavor="solo", vector_len=2), True, (16, 1, 1)),
    (CollectiveConfig(p=4, flavor="solo", vector_len=2, seed=1234), True, (20736, 1, 1)),
], ids=["p3-solo", "p3-majority", "p2-free", "p2-arrivals-first", "p4-arrivals-first"])
def test_explorer_counts_are_pinned(cfg, arrivals_first, counts):
    """(states, terminals, unique results): a change to the schedule that
    adds or loses an observable state moves these."""
    rep = explore_interleavings(cfg, arrivals_first=arrivals_first)
    assert rep.ok
    assert (rep.states, rep.terminals, rep.unique_results) == counts


def test_explorer_state_budget():
    cfg = CollectiveConfig(p=3, flavor="solo", vector_len=1)
    with pytest.raises(StateSpaceTooLarge):
        explore_interleavings(cfg, max_states=5)


# Explorer faults: each is patched in for one run, with no source edit, and
# must be reported; the same run without it must be clean.


def _no_mask_or(monkeypatch):
    """Reductions add the values but drop the mask bits."""
    monkeypatch.setattr(schedule, "_bor", lambda *args, **kwargs: None)


def _rank1_never_completes(monkeypatch):
    complete = Engine._complete

    def skip_rank1(self):
        if self.rank != 1:
            complete(self)
    monkeypatch.setattr(Engine, "_complete", skip_rank1)


def _rank1_publishes_other_bytes(monkeypatch):
    complete = Engine._complete

    def flip_then_complete(self):
        if self.rank == 1:
            self.buffer(self.program.publish_from)[0] ^= 1
        complete(self)
    monkeypatch.setattr(Engine, "_complete", flip_then_complete)


@pytest.mark.parametrize("flavor", ["solo", "majority", "sync"])
@pytest.mark.parametrize("fault, reported", [
    (_no_mask_or, "terminal sum does not match its mask"),
    (_rank1_never_completes, "terminal state with incomplete round"),
    (_rank1_publishes_other_bytes, "ranks disagree at terminal"),
], ids=["no-mask-or", "rank1-never-completes", "rank1-publishes-other-bytes"])
def test_explorer_reports_each_fault(monkeypatch, flavor, fault, reported):
    cfg = CollectiveConfig(p=3, flavor=flavor, vector_len=2, seed=1234)
    clean = explore_interleavings(cfg)
    assert clean.ok, clean.violations[:3]
    fault(monkeypatch)
    rep = explore_interleavings(cfg)
    assert not rep.ok
    assert any(v.startswith(reported) for v in rep.violations), rep.violations[:3]


def test_explorer_raises_on_a_state_change_it_did_not_record(monkeypatch):
    """The search re-reads only the engine an event names; a delivery that
    also writes into another engine's arena must be caught, not explored."""
    engines = []
    init, deliver = Engine.__init__, Engine.deliver

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    def leaky_deliver(self, msg):
        deliver(self, msg)
        other = engines[(engines.index(self) + 1) % len(engines)]
        other.buffer(other.program.publish_from)[0] += 1
    monkeypatch.setattr(Engine, "__init__", tracking_init)
    monkeypatch.setattr(Engine, "deliver", leaky_deliver)
    with pytest.raises(EngineStateDrift):
        explore_interleavings(CollectiveConfig(p=2, flavor="solo", vector_len=2))
