"""Eager-SGD mechanics: stale folds, delivery tracking, resync, step-size bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eagercoll.collectives import AllreduceHandle, CollectiveConfig, tree_order_sum
from eagercoll.eagersgd import (
    AlphaTooLarge,
    GradientBuffer,
    LrBoundParams,
    ResyncError,
    TrainState,
    attach_delivery_tracking,
    max_learning_rate,
    min_iterations,
    resync_models,
    resync_step,
    staleness_guard,
    train_step,
    training_process,
)
from eagercoll.models import gen_dataset
from eagercoll.trace import TraceRecorder
from eagercoll.transport import SimTransport, Sleep
from eagercoll.verify import DeliveryLedger


# ---------------------------------------------------------------------------
# gradient stash


def test_gradient_buffer_accumulates_and_resets():
    gb = GradientBuffer.null(3)
    assert gb.is_null
    gb.fold(np.array([1.0, 0.0, 2.0]), 0)
    gb.fold(np.array([0.5, 0.5, 0.5]), 1)
    assert gb.data.tolist() == [1.5, 0.5, 2.5]
    assert gb.pending_rounds == [0, 1]
    gb.reset()
    assert gb.is_null and gb.data.tolist() == [0.0, 0.0, 0.0]


def test_staleness_max_counts_from_oldest_pending():
    st_ = TrainState.fresh(np.zeros(2), lr=0.1)
    st_.t = 5
    assert st_.staleness_max() == 0
    st_.send_buf.fold(np.ones(2), 3)
    st_.send_buf.fold(np.ones(2), 4)
    assert st_.staleness_max() == 2


# ---------------------------------------------------------------------------
# the missed-bus path


def test_missed_round_folds_into_the_next_sum():
    """A rank that misses round 0 delivers BOTH its round-0 and round-1
    gradients in round 1: u_1 * p == g_fast_1 + (g_slow_0 + g_slow_1).

    Timeline (link 200us): round 0 runs at t=0 with only the fast rank;
    the slow rank wakes at 500, folds its missed gradient, and offers the
    stash for round 1 at 800; the fast rank offers at 900, inside the
    window before the activation message crosses the link, so both ranks'
    fresh flags board the same round."""
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=3)
    sim = SimTransport(2, link_latency_us=200)
    handles = [AllreduceHandle(cfg, r, sim) for r in range(2)]
    gf = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]   # fast rank
    gs = [np.array([0.0, 0.0, 4.0]), np.array([8.0, 0.0, 0.0])]   # slow rank
    states = [TrainState.fresh(np.zeros(3), lr=1.0, rank=r) for r in range(2)]
    ledger = DeliveryLedger()
    for r in range(2):
        attach_delivery_tracking(handles[r], states[r], ledger)
    seen = {}

    def offer(rank, t, g):
        ledger.generated(rank, t)
        h = handles[rank]
        with h.engine.lock:
            states[rank].send_buf.fold(g, t)
            offered = (not h.round_done(t)) and h.try_contribute(
                t, states[rank].send_buf.data)
        if offered:
            h.activate(t)

    def fast():
        for t in range(2):
            if t:
                yield Sleep(500)
            offer(0, t, gf[t])
            _, res = yield from handles[0].wait_done(t)
            seen[(0, t)] = res

    def slow():
        yield Sleep(500)  # round 0 completed at t=400; the bus is gone
        for t in range(2):
            if t:
                yield Sleep(300)
            offer(1, t, gs[t])
            _, res = yield from handles[1].wait_done(t)
            seen[(1, t)] = res

    sim.spawn(0, fast())
    sim.spawn(1, slow())
    sim.run()

    r0 = seen[(0, 0)]
    assert r0.included == 0b01 and np.array_equal(r0.u * 2, gf[0])
    for rank in range(2):
        r1 = seen[(rank, 1)]
        assert r1.included == 0b11
        assert np.allclose(r1.u * 2, gf[1] + gs[0] + gs[1], rtol=1e-15)
    # the ledger saw the slow rank's round-0 gradient delivered one round late
    assert ledger.staleness_of(1, 0) == 1
    assert ledger.staleness_of(1, 1) == 0
    assert ledger.staleness_of(0, 0) == 0
    assert not ledger.audit(tau=1)


def test_gradient_conservation_under_random_skew():
    """Every generated gradient is applied exactly once: summed over rounds,
    u_t * p recovers the total of all delivered gradients."""
    p, epochs, steps = 4, 2, 4
    cfg = CollectiveConfig(p=p, flavor="solo", vector_len=6)
    sim = SimTransport(p, link_latency_us=5)
    rec = TraceRecorder()
    handles = [AllreduceHandle(cfg, r, sim, recorder=rec) for r in range(p)]
    ds = gen_dataset(dim=6, n=128, seed=3)
    ledger = DeliveryLedger()
    states = [TrainState.fresh(np.zeros(6), lr=0.05, rank=r, tau=None)
              for r in range(p)]
    rng = np.random.default_rng(8)
    delays = rng.integers(0, 2000, size=(p, epochs * steps))

    for r in range(p):
        sim.spawn(r, training_process(
            r, states[r], handles[r], None, ds, epochs=epochs,
            steps_per_epoch=steps, batch_per_rank=4, data_seed=21,
            delay_fn=lambda rank, t: int(delays[rank, t]), ledger=ledger))
    sim.run()

    by_gen = {}
    for row in rec.rounds:
        by_gen.setdefault(row.rnd, row)
    applied = sum(by_gen[g].u * p for g in by_gen)
    delivered = sum(rec.gradients[(r, g)]
                    for r, g, d in ledger.entries() if d is not None)
    assert np.allclose(applied, delivered, rtol=1e-9)
    # whatever was not delivered is still sitting in some rank's stash,
    # nothing ever vanishes in between
    undelivered = {(r, g) for r, g, d in ledger.entries() if d is None}
    stashed = {(r, g) for r in range(p) for g in states[r].send_buf.pending_rounds}
    assert undelivered == stashed
    total_grad = sum(g for g in rec.gradients.values())
    leftover = sum(states[r].send_buf.data for r in range(p))
    assert np.allclose(applied + leftover, total_grad, rtol=1e-9)


# ---------------------------------------------------------------------------
# resync


def test_resync_models_uses_the_fixed_tree_order():
    ws = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    out = resync_models(ws)
    assert out.tobytes() == (tree_order_sum(ws) / 3).tobytes()


def test_resync_step_restores_bitwise_agreement():
    p = 2
    cfg = CollectiveConfig(p=p, flavor="sync", vector_len=4, seed=1)
    sim = SimTransport(p, link_latency_us=7)
    handles = [AllreduceHandle(cfg, r, sim, cid=1) for r in range(p)]
    # two ranks that drifted apart (as after a stretch of partial rounds)
    states = [TrainState.fresh(np.arange(4.0) * (r + 1), lr=0.1, rank=r)
              for r in range(p)]
    assert np.abs(states[0].w - states[1].w).max() > 0

    def body(r):
        yield from resync_step(states[r], handles[r], 0)

    for r in range(p):
        sim.spawn(r, body(r))
    sim.run()
    assert states[0].w.tobytes() == states[1].w.tobytes()
    want = resync_models([np.arange(4.0), np.arange(4.0) * 2])
    assert states[0].w.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# staleness guard


def _guard_fixture(tau):
    sim = SimTransport(2)
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=2)
    h = AllreduceHandle(cfg, 0, sim)
    s = TrainState.fresh(np.zeros(2), lr=0.1, tau=tau)
    staleness_guard(h, s)
    return h, s


def test_guard_disabled_when_tau_is_none():
    h, _ = _guard_fixture(None)
    assert h.engine.hold_policy is None


def test_guard_holds_rounds_that_would_over_age_the_stash():
    h, s = _guard_fixture(1)
    policy = h.engine.hold_policy
    assert not policy(0)          # nothing pending: let the round run
    s.send_buf.fold(np.ones(2), 0)
    assert not policy(0)          # age 0 <= tau
    assert policy(1)              # delivering round 1 would make age tau+... hold
    s.send_buf.reset()
    s.in_progress = 3
    assert not policy(3)
    assert policy(4)              # a gradient mid-computation counts too


def test_guard_releases_once_this_rank_contributed():
    h, s = _guard_fixture(1)
    s.send_buf.fold(np.ones(2), 0)
    assert h.engine.hold_policy(1)
    ok = h.try_contribute(0, np.ones(2))
    assert ok
    assert not h.engine.hold_policy(0)


# ---------------------------------------------------------------------------
# constant-step-size bound


FROZEN = LrBoundParams(L=1.0, M=1.0, tau=1, p=4, q=3, eps=0.12, f0_minus_m=1.0)


def test_max_learning_rate_frozen_example():
    # straggler terms: sqrt(.12)*4/sqrt(12) = 0.4 and sqrt(.12)*4/sqrt(4) ~ .6928
    # curvature term: .12/12 = 0.01 -> binds
    assert max_learning_rate(FROZEN) == pytest.approx(0.01, rel=1e-12)


def test_min_iterations_frozen_example():
    assert min_iterations(FROZEN, 0.01) == 20000  # ceil(24 * 1 / (0.01 * 0.12))


def test_full_quorum_drops_the_straggler_terms():
    full = LrBoundParams(L=2.0, M=0.5, tau=9, p=4, q=4, eps=0.3, f0_minus_m=1.0)
    assert max_learning_rate(full) == pytest.approx(0.3 / (12 * 0.25 * 2.0), rel=1e-12)


def test_alpha_above_the_bound_is_rejected():
    with pytest.raises(AlphaTooLarge):
        min_iterations(FROZEN, 0.0101)
    min_iterations(FROZEN, 0.01)  # exactly at the bound: fine


@settings(max_examples=60, deadline=None)
@given(tau=st.integers(1, 50), bump=st.integers(1, 50))
def test_amax_never_grows_with_staleness(tau, bump):
    a = max_learning_rate(LrBoundParams(1.0, 1.0, tau, 8, 5, 0.1, 1.0))
    b = max_learning_rate(LrBoundParams(1.0, 1.0, tau + bump, 8, 5, 0.1, 1.0))
    assert b <= a + 1e-15


@settings(max_examples=60, deadline=None)
@given(m=st.floats(0.1, 10.0), bump=st.floats(0.01, 10.0))
def test_amax_never_grows_with_gradient_size(m, bump):
    a = max_learning_rate(LrBoundParams(1.0, m, 2, 8, 5, 0.1, 1.0))
    b = max_learning_rate(LrBoundParams(1.0, m + bump, 2, 8, 5, 0.1, 1.0))
    assert b <= a * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-4, 1.0), st.floats(1.0, 3.0))
def test_iterations_shrink_as_alpha_grows(alpha, factor):
    p = LrBoundParams(1.0, 1.0, 2, 8, 5, 0.1, 1.0)
    amax = max_learning_rate(p)
    a1 = min(alpha, amax)
    a2 = min(alpha * factor, amax)
    assert min_iterations(p, a2) <= min_iterations(p, a1)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        LrBoundParams(L=0.0, M=1.0, tau=1, p=4, q=3, eps=0.1, f0_minus_m=1.0)
    with pytest.raises(ValueError):
        LrBoundParams(L=1.0, M=1.0, tau=0, p=4, q=3, eps=0.1, f0_minus_m=1.0)
    with pytest.raises(ValueError):
        LrBoundParams(L=1.0, M=1.0, tau=1, p=4, q=5, eps=0.1, f0_minus_m=1.0)


# ---------------------------------------------------------------------------
# odds and ends


def test_resync_step_raises_when_the_round_is_already_done():
    cfg = CollectiveConfig(p=1, flavor="sync", vector_len=2)
    h = AllreduceHandle(cfg, 0, SimTransport(1))
    assert h.try_contribute(0, np.ones(2))
    h.activate(0)
    assert h.round_done(0)
    s = TrainState.fresh(np.zeros(2), lr=0.1)
    with pytest.raises(ResyncError):
        next(resync_step(s, h, 0))


def test_train_step_rejects_dimension_mismatch():
    cfg = CollectiveConfig(p=1, flavor="sync", vector_len=3)
    sim = SimTransport(1)
    h = AllreduceHandle(cfg, 0, sim)
    s = TrainState.fresh(np.zeros(3), lr=0.1)
    bad = (np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ValueError):
        next(train_step(s, bad, h))
