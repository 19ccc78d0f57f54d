"""The checkers must catch what they claim to catch: fault-injection tests,
plus the shadow-trajectory tracker and the interleaving explorer."""

import numpy as np
import pytest

from eagercoll.collectives import CollectiveConfig, run_allreduce
from eagercoll.trace import TraceRecorder
from eagercoll.verify import (
    DeliveryLedger,
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


def test_checker_is_idempotent():
    rec, p = clean_trace()
    a = check_round_contracts(rec, p)
    b = check_round_contracts(rec, p)
    assert a.ok and b.ok and a.rounds_checked == b.rounds_checked


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
    from eagercoll.collectives import AllreduceHandle
    from eagercoll.eagersgd import TrainState, training_process
    from eagercoll.models import gen_dataset
    from eagercoll.transport import SimTransport

    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=4, seed=3)
    sim = SimTransport(p, link_latency_us=10)
    rec = TraceRecorder()
    handles = [AllreduceHandle(cfg, r, sim, recorder=rec) for r in range(p)]
    ds = gen_dataset(dim=4, n=64, seed=6)
    w0 = np.zeros(4)
    states = [TrainState.fresh(w0, lr=alpha, rank=r, tau=tau) for r in range(p)]
    for r in range(p):
        sim.spawn(r, training_process(
            r, states[r], handles[r], None, ds, epochs=1,
            steps_per_epoch=rounds, batch_per_rank=4, data_seed=13,
            delay_fn=delay_fn))
    sim.run()
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


def test_explorer_state_budget():
    cfg = CollectiveConfig(p=3, flavor="solo", vector_len=1)
    with pytest.raises(StateSpaceTooLarge):
        explore_interleavings(cfg, max_states=5)
