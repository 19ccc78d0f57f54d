"""Simulated transport: delivery timing, ordering, delay models, deadlock."""

import pytest
from hypothesis import given, settings, strategies as st

from eagercoll.transport import (
    DeadlockError,
    DelayModel,
    Message,
    Recv,
    SimTransport,
    Sleep,
    Tag,
    PHASE_APP,
    UnknownRank,
    delayed_ranks,
    inject_delay,
    match_tag,
)

ANY = (None, None, None, None)


def _msg(src, dst, step=0, payload=b"", rnd=0):
    return Message(src, dst, Tag(0, rnd, PHASE_APP, step), payload)


def test_link_latency_is_the_delivery_time():
    sim = SimTransport(2, link_latency_us=37)
    seen = {}

    def sender():
        sim.send(_msg(0, 1))
        yield Sleep(0)

    def receiver():
        m = yield Recv(ANY)
        seen["t"] = sim.now_us()
        seen["msg"] = m

    sim.spawn(0, sender())
    sim.spawn(1, receiver())
    sim.run()
    assert seen["t"] == 37
    assert seen["msg"].src == 0


def test_sleep_advances_virtual_time_exactly():
    sim = SimTransport(1)
    ts = []

    def body():
        yield Sleep(5)
        ts.append(sim.now_us())
        yield Sleep(12)
        ts.append(sim.now_us())

    sim.spawn(0, body())
    sim.run()
    assert ts == [5, 17]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=20))
def test_fifo_within_a_stream(payloads):
    """Same (src, dst) stream, same tag pattern: arrival order == send order."""
    sim = SimTransport(2, link_latency_us=3)
    got = []

    def sender():
        for i, b in enumerate(payloads):
            sim.send(_msg(0, 1, step=i, payload=bytes([b])))
        yield Sleep(0)

    def receiver():
        for _ in payloads:
            m = yield Recv(ANY)
            got.append(m.payload[0])

    sim.spawn(0, sender())
    sim.spawn(1, receiver())
    sim.run()
    assert got == payloads


def test_recv_matches_by_pattern_not_position():
    """A parked recv with a specific step skips non-matching mail."""
    sim = SimTransport(2)
    order = []

    def sender():
        sim.send(_msg(0, 1, step=9, payload=b"a"))
        sim.send(_msg(0, 1, step=2, payload=b"b"))
        yield Sleep(0)

    def receiver():
        m = yield Recv((None, None, None, 2))
        order.append(m.payload)
        m = yield Recv((None, None, None, 9))
        order.append(m.payload)

    sim.spawn(0, sender())
    sim.spawn(1, receiver())
    sim.run()
    assert order == [b"b", b"a"]


def test_match_tag_callable_and_wildcards():
    t = Tag(1, 4, PHASE_APP, 3)
    assert match_tag((None, 4, None, None), t)
    assert not match_tag((None, 5, None, None), t)
    assert match_tag(lambda tag: tag.step == 3, t)


def test_deadlock_detection():
    sim = SimTransport(1)

    def body():
        yield Recv(ANY)  # nobody will ever send

    sim.spawn(0, body())
    with pytest.raises(DeadlockError):
        sim.run()


def test_unknown_rank_rejected():
    sim = SimTransport(2)
    with pytest.raises(UnknownRank):
        sim.spawn(2, iter(()))
    with pytest.raises(UnknownRank):
        sim.send(_msg(0, 5))


def test_run_until_bound_stops_the_clock():
    sim = SimTransport(1)

    def body():
        yield Sleep(100)
        yield Sleep(100)

    sim.spawn(0, body())
    sim.run(until_us=150)
    assert sim.now_us() == 100
    sim.run()
    assert sim.now_us() == 200


def test_negative_sleep_is_rejected():
    """A process cannot move virtual time backwards."""
    sim = SimTransport(1)

    def body():
        yield Sleep(100)
        yield Sleep(-50)

    sim.spawn(0, body())
    with pytest.raises(ValueError, match="backwards"):
        sim.run()


def test_event_trace_is_deterministic():
    """The same scenario replayed gives the identical (time, payload) log."""

    def run_combined():
        sim = SimTransport(3, link_latency_us=5)
        log = []

        def body(rank):
            for i in range(4):
                yield Sleep(rank + 1)
                sim.send(_msg(rank, (rank + 1) % 3, step=i, payload=bytes([rank, i])))
            for _ in range(4):
                m = yield Recv(ANY)
                log.append((sim.now_us(), rank, m.payload))

        for r in range(3):
            sim.spawn(r, body(r))
        sim.run()
        return tuple(log)

    assert run_combined() == run_combined()


def test_defer_runs_after_same_instant_resumes():
    sim = SimTransport(1)
    log = []

    def body():
        log.append("proc")
        yield Sleep(0)

    sim.defer(lambda: log.append("deferred"))
    sim.spawn(0, body())
    sim.run()
    assert log == ["deferred"] or log == ["proc", "deferred"]
    # the spawn resume and the deferred call share t=0; resume priority wins
    assert log[-1] == "deferred"
    assert "proc" in log


# ---------------------------------------------------------------------------
# delay models


def test_delay_model_analytic_values():
    assert inject_delay(3, 0, DelayModel("none"), 8) == 0
    assert inject_delay(3, 0, DelayModel("constant", unit_ms=2.0), 8) == 2000
    assert inject_delay(0, 5, DelayModel("linear_skew", unit_ms=1.5), 8) == 1500
    assert inject_delay(7, 5, DelayModel("linear_skew", unit_ms=1.5), 8) == 12000


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel("bogus")
    with pytest.raises(ValueError):
        DelayModel("constant", unit_ms=-1.0)
    with pytest.raises(ValueError):
        DelayModel("random_subset", k=-2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 500), st.integers(1, 16), st.integers(1, 16))
def test_random_subset_replay_determinism(seed, rnd, p, k):
    m = DelayModel("random_subset", unit_ms=1.0, k=k, seed=seed)
    first = delayed_ranks(m, rnd, p)
    again = delayed_ranks(m, rnd, p)
    assert first == again
    assert len(first) == min(k, p)
    assert len(set(first)) == len(first)
    assert all(0 <= r < p for r in first)
    for r in range(p):
        want = 1000 if r in first else 0
        assert inject_delay(r, rnd, m, p) == want


def test_random_subset_varies_across_rounds():
    m = DelayModel("random_subset", unit_ms=1.0, k=2, seed=7)
    draws = {delayed_ranks(m, t, 8) for t in range(32)}
    assert len(draws) > 1
