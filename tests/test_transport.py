"""Simulated transport: delivery timing, ordering, routing by collective id,
delay models, deadlock; rank checks on both backends; socket frames that
stay whole and in order under concurrent senders."""

import heapq
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eagercoll import transport
from eagercoll.collectives import AllreduceHandle, CollectiveConfig
from eagercoll.transport import (
    DeadlockError,
    DelayModel,
    Message,
    SimTransport,
    SocketTransport,
    Sleep,
    WaitRound,
    PHASE_RED,
    UnknownRank,
    UnroutedMessage,
    delay_table,
)


class FakeEngine:
    """What the transport drives on delivery: a cid and deliver(), which
    appends to a mailbox and pumps it.  Each pump drains the mailbox into a
    (virtual time, message) log."""

    def __init__(self, sim, cid=0):
        self.sim = sim
        self.cid = cid
        self.mailbox = []
        self.pumps = 0
        self.log = []

    def deliver(self, msg):
        self.mailbox.append(msg)
        self.pump()

    def pump(self):
        self.pumps += 1
        self.log.extend((self.sim.now_us(), m) for m in self.mailbox)
        self.mailbox.clear()


def _msg(src, dst, step=0, payload=b"", cid=0):
    return Message(src, dst, cid, 0, PHASE_RED, step, payload)


def _engines(sim, cid=0):
    engines = [FakeEngine(sim, cid) for _ in range(sim.p)]
    for rank, eng in enumerate(engines):
        sim.register_engine(rank, eng)
    return engines


def test_link_latency_is_the_delivery_time():
    sim = SimTransport(2, link_latency_us=37)
    engines = _engines(sim)

    def sender():
        sim.send(_msg(0, 1))
        yield Sleep(0)

    sim.spawn(0, sender())
    sim.run()
    [(t, m)] = engines[1].log
    assert t == 37
    assert m.src == 0
    assert engines[0].log == []


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
    """Same (src, dst) stream, same phase: arrival order == send order."""
    sim = SimTransport(2, link_latency_us=3)
    engines = _engines(sim)

    def sender():
        for i, b in enumerate(payloads):
            sim.send(_msg(0, 1, step=i, payload=bytes([b])))
        yield Sleep(0)

    sim.spawn(0, sender())
    sim.run()
    assert [m.payload[0] for _, m in engines[1].log] == payloads
    assert engines[1].pumps == len(payloads)  # one pump per delivery


def test_delivery_pumps_only_its_collectives_engine():
    """A message for cid 1 lands in the cid-1 engine's mailbox; the cid-0
    engine on the same rank is neither given it nor pumped."""
    sim = SimTransport(2)
    cid0, cid1 = _engines(sim, cid=0), _engines(sim, cid=1)
    sim.send(_msg(0, 1, payload=b"x", cid=1))
    sim.run()
    assert cid0[1].mailbox == [] and cid0[1].pumps == 0
    assert [m.payload for _, m in cid1[1].log] == [b"x"]
    assert cid1[1].pumps == 1


def test_delivery_without_an_engine_raises():
    sim = SimTransport(2)
    _engines(sim, cid=0)
    sim.send(_msg(0, 1, cid=3))
    with pytest.raises(UnroutedMessage, match="cid 3 at rank 1"):
        sim.run()


def test_second_engine_for_one_collective_rejected():
    sim = SimTransport(1)
    sim.register_engine(0, FakeEngine(sim, cid=2))
    with pytest.raises(ValueError, match="cid 2"):
        sim.register_engine(0, FakeEngine(sim, cid=2))


def test_deadlock_detection():
    """A sync round whose peer never arrives parks the caller on WaitRound
    with nothing left in the queue."""
    sim = SimTransport(2)
    cfg = CollectiveConfig(p=2, flavor="sync", vector_len=1)
    handles = [AllreduceHandle(cfg, r, sim) for r in range(2)]

    def body():
        yield from handles[0].call_round(0, np.ones(1))

    sim.spawn(0, body())  # rank 1 never calls the collective
    with pytest.raises(DeadlockError, match=r"ranks \[0\]"):
        sim.run()


class _NeverPublishes:
    """A WaitRound handle whose round never comes: add_waiter keeps nothing."""

    def add_waiter(self, generation, rank, cb):
        pass


def _raises_at(us=0):
    yield Sleep(us)
    raise ValueError("body failed")


def _sleeps(us):
    yield Sleep(us)


def _waits_forever():
    yield WaitRound(_NeverPublishes(), 0)


def test_a_deadlock_after_a_raise_names_only_the_waiting_ranks():
    """A body raises out of run(); a second run() finishes the other
    ranks, and its DeadlockError names the one rank still waiting on a
    round, not the one whose body raised."""
    sim = SimTransport(3)
    sim.spawn(0, _raises_at(5))
    sim.spawn(1, _sleeps(10))
    sim.spawn(2, _waits_forever())
    with pytest.raises(ValueError, match="body failed"):
        sim.run()
    assert sim.now_us() == 5
    with pytest.raises(DeadlockError, match=r"ranks \[2\] blocked"):
        sim.run()
    assert sim.now_us() == 10


def test_unknown_rank_rejected():
    sim = SimTransport(2)
    with pytest.raises(UnknownRank):
        sim.spawn(2, iter(()))
    with pytest.raises(UnknownRank):
        sim.send(_msg(0, 5))


@pytest.mark.parametrize("backend", [SimTransport, SocketTransport])
@pytest.mark.parametrize("bad", [-1, 2])
def test_both_backends_reject_ranks_outside_the_world(backend, bad):
    """register_engine, and send with either end out of range, raise
    UnknownRank; a refused registration does not take another rank's slot."""
    net = backend(2)
    try:
        with pytest.raises(UnknownRank):
            net.register_engine(bad, FakeEngine(net))
        net.register_engine(1, FakeEngine(net))  # -1 must not have aliased rank 1
        for src, dst in ((bad, 0), (0, bad)):
            with pytest.raises(UnknownRank):
                net.send(_msg(src, dst))
    finally:
        if backend is SocketTransport:
            net.close()


@pytest.mark.parametrize("backend", [SimTransport, SocketTransport])
def test_both_backends_reject_an_empty_world(backend):
    with pytest.raises(ValueError, match="p must be >= 1"):
        backend(0)


def test_spawn_twice_for_one_rank_rejected():
    sim = SimTransport(2)
    sim.spawn(0, iter(()))
    with pytest.raises(ValueError, match="rank 0 already has a process"):
        sim.spawn(0, iter(()))


def _yields_a_non_command():
    yield "sleep"


def test_a_process_yielding_a_non_command_fails_the_sim_run():
    sim = SimTransport(2)
    sim.spawn(0, _yields_a_non_command())
    with pytest.raises(TypeError, match="process yielded 'sleep'"):
        sim.run()


@pytest.mark.parametrize("body", [_raises_at, _yields_a_non_command],
                         ids=["raised", "non-command"])
def test_a_body_that_failed_leaves_its_rank_free(body):
    """A body that raised, or that the transport refused, is gone from
    the world: its rank takes a new process, which runs to its end."""
    sim = SimTransport(1)
    sim.spawn(0, body())
    with pytest.raises((ValueError, TypeError)):
        sim.run()
    sim.spawn(0, _sleeps(3))
    sim.run()
    assert sim.now_us() == 3


def test_a_process_yielding_a_non_command_fails_the_socket_run():
    net = SocketTransport(2)
    try:
        with pytest.raises(RuntimeError, match="rank 0 failed") as info:
            net.run_processes({0: _yields_a_non_command()}, timeout=5)
    finally:
        net.close()
    assert isinstance(info.value.__cause__, TypeError)


def test_socket_run_raises_at_its_timeout():
    """A body still sleeping at the timeout ends the run with TimeoutError,
    and its driver stops with the run rather than at the end of its sleep."""
    def sleeper():
        yield Sleep(10_000_000)

    net = SocketTransport(2)
    try:
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="did not finish within the timeout"):
            net.run_processes({0: sleeper()}, timeout=0.2)
        assert time.monotonic() - t0 < 2.0
    finally:
        net.close()


def test_socket_frames_stay_whole_and_fifo_under_concurrent_senders():
    """Three ranks write to rank 0's one socket at once, with frames up to
    256 KiB (more than a socket buffer holds); rank 0 only serves.  Every
    frame arrives intact and each source's frames arrive in send order."""
    p, n = 4, 100

    def payload(src, i):
        size = (0, 7, 1000, 65536, 256 * 1024)[(i + src) % 5]
        return np.random.default_rng([src, i]).bytes(size)

    net = SocketTransport(p)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-frame included
    try:
        engines = _engines(net)

        def sender(src):
            for i in range(n):
                net.send(_msg(src, 0, step=i, payload=payload(src, i)))
                yield Sleep(0)

        net.run_processes({src: sender(src) for src in range(1, p)}, timeout=10)
    finally:
        sys.setswitchinterval(interval)
        net.close()
    got = {}
    for _, m in engines[0].log:
        got.setdefault(m.src, []).append(m)
    assert sorted(got) == [1, 2, 3]
    for src, msgs in got.items():
        assert [m.step for m in msgs] == list(range(n))
        assert all(m.dst == 0 and m.payload == payload(src, m.step) for m in msgs)


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
        for eng in _engines(sim):
            eng.log = log  # one log in global delivery order

        def body(rank):
            for i in range(4):
                yield Sleep(rank + 1)
                sim.send(_msg(rank, (rank + 1) % 3, step=i, payload=bytes([rank, i])))

        for r in range(3):
            sim.spawn(r, body(r))
        sim.run()
        return tuple((t, m.dst, m.payload) for t, m in log)

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
# event order


@st.composite
def event_programs(draw):
    """p ranks, a link latency, and per rank a list of steps: a Sleep of
    0..3 us, then actions run on resume, each a send to a rank, a defer or
    a wait.  Small times force ties between resumes, deliveries and defers."""
    p = draw(st.integers(1, 3))
    action = st.one_of(st.tuples(st.just("send"), st.integers(0, p - 1)),
                       st.just(("defer",)), st.just(("wait",)))
    step = st.tuples(st.integers(0, 3), st.lists(action, max_size=3))
    return p, draw(st.integers(0, 2)), [draw(st.lists(step, max_size=4)) for _ in range(p)]


class Boom(Exception):
    pass


class EventLog:
    """Runs event programs on a SimTransport and records every event they
    cause twice: when it was pushed, as (due time, priority, push index),
    and when its handler ran.  It is also the engine every delivery pumps,
    and the handle a waiting rank parks on: a "wait" sends to its own rank
    and parks, and the next delivery to the rank wakes it at that instant.
    The raise_at-th defer pushed raises Boom on its first call."""

    cid = 0

    def __init__(self, p, latency, raise_at=None):
        self.sim = SimTransport(p, link_latency_us=latency)
        self.latency = latency
        self.mailbox = []
        self.pushed = []  # indexed by event id
        self.ran = []     # (event id, virtual time), in handler order
        self.trail = []   # ("push" | "run", event id), as they happened
        self.waiting = {}  # rank -> the transport's waker
        self.defers, self.raise_at, self.raise_eid = 0, raise_at, None
        for rank in range(p):
            self.sim.register_engine(rank, self)

    def push(self, t, prio):
        eid = len(self.pushed)
        self.pushed.append((t, prio, eid))
        self.trail.append(("push", eid))
        return eid

    def run_event(self, eid):
        self.ran.append((eid, self.sim.now_us()))
        self.trail.append(("run", eid))

    def check_order(self):
        """Each event ran once, at its due time, and was the least (time,
        priority, push index) of the events pending when it ran."""
        pending = []
        for kind, eid in self.trail:
            if kind == "push":
                heapq.heappush(pending, self.pushed[eid])
            else:
                assert pending and heapq.heappop(pending)[2] == eid
        assert pending == []
        assert all(t == self.pushed[eid][0] for eid, t in self.ran)

    def add_waiter(self, generation, rank, waker):
        self.waiting[rank] = waker

    def deliver(self, msg):
        self.mailbox.append(msg)
        self.pump()
        waker = self.waiting.pop(msg.dst, None)
        if waker is not None:
            waker(msg.dst, self.push(self.sim.now_us(), 0))

    def pump(self):
        for m in self.mailbox:
            self.run_event(int.from_bytes(m.payload, "little"))
        self.mailbox.clear()

    def spawn_all(self, programs, cid=0, negative_at=None):
        for rank, steps in enumerate(programs):
            self.sim.spawn(rank, self._body(rank, steps, self.push(0, 0), cid, negative_at))

    def _send(self, src, dst, cid):
        eid = self.push(self.sim.now_us() + self.latency, 1)
        self.sim.send(Message(src, dst, cid, 0, PHASE_RED, 0, eid.to_bytes(4, "little")))

    def _deferred(self, eid):
        self.run_event(eid)
        if eid == self.raise_eid:
            self.raise_eid = None
            raise Boom

    def _body(self, rank, steps, eid, cid, negative_at):
        sim = self.sim
        self.run_event(eid)
        for i, (us, actions) in enumerate(steps):
            if (rank, i) == negative_at:
                us = -1
            eid = self.push(sim.now_us() + us, 0)
            yield Sleep(us)  # the transport pushes this resume as it yields
            self.run_event(eid)
            for act in actions:
                if act[0] == "send":
                    self._send(rank, act[1], cid)
                elif act[0] == "wait":
                    self._send(rank, rank, cid)  # so a delivery to this rank is due
                    self.run_event((yield WaitRound(self, 0)))  # resumed with its event id
                else:
                    eid = self.push(sim.now_us(), 1)
                    self.defers += 1
                    if self.defers == self.raise_at:
                        self.raise_eid = eid
                    sim.defer(lambda eid=eid: self._deferred(eid))


@settings(max_examples=200, deadline=None)
@given(event_programs())
# a delivery wakes rank 0 while one more delivery is due at that instant
@example((1, 0, [[(0, [("send", 0), ("wait",)])]]))
def test_handlers_run_in_time_priority_push_order(case):
    p, latency, programs = case
    ev = EventLog(p, latency)
    ev.spawn_all(programs)
    ev.sim.run()
    ev.check_order()
    assert ev.sim.events_processed == len(ev.pushed)


@settings(max_examples=100, deadline=None)
@given(event_programs(), st.integers(0, 11))
@example((1, 0, [[(0, [("defer",), ("send", 0), ("defer",)])]]), 0)
def test_a_raise_leaves_no_replayable_event(case, k):
    """A deferred call raises on its first call, out of run().  Run again,
    the queue runs every other event once, in (time, priority, push)
    order: the one that raised was taken off the queue before it ran."""
    p, latency, programs = case
    defers = sum(act == ("defer",) for steps in programs for _, acts in steps for act in acts)
    assume(defers)
    ev = EventLog(p, latency, raise_at=1 + k % defers)
    ev.spawn_all(programs)
    with pytest.raises(Boom):
        ev.sim.run()
    ev.sim.run()
    ev.check_order()
    assert ev.sim.events_processed == len(ev.pushed)


@settings(max_examples=50, deadline=None)
@given(event_programs(), st.data())
def test_event_loop_faults_raise_from_run(case, data):
    """One event over budget, a negative Sleep and a send to an unrouted cid
    each raise out of run()."""
    p, latency, programs = case
    ev = EventLog(p, latency)
    ev.spawn_all(programs)
    ev.sim.run()
    budget = ev.sim.events_processed - 1
    ev = EventLog(p, latency)
    ev.spawn_all(programs)
    with pytest.MonkeyPatch.context() as mp, \
            pytest.raises(RuntimeError, match="event budget"):
        mp.setattr(transport, "_MAX_EVENTS", budget)
        ev.sim.run()

    steps = [(r, i) for r in range(p) for i in range(len(programs[r]))]
    if steps:
        ev = EventLog(p, latency)
        ev.spawn_all(programs, negative_at=data.draw(st.sampled_from(steps)))
        with pytest.raises(ValueError, match="backwards"):
            ev.sim.run()
    if any(act != ("defer",) for steps in programs for _, acts in steps for act in acts):
        ev = EventLog(p, latency)
        ev.spawn_all(programs, cid=7)
        with pytest.raises(UnroutedMessage, match="cid 7"):
            ev.sim.run()


# ---------------------------------------------------------------------------
# delay models


def test_delay_model_analytic_values():
    assert not delay_table(DelayModel("none"), 8, 6).any()
    assert (delay_table(DelayModel("constant", unit_ms=2.0), 8, 6) == 2000).all()
    skew = delay_table(DelayModel("linear_skew", unit_ms=1.5), 8, 6)
    assert skew[0, 5] == 1500 and skew[7, 5] == 12000
    assert (skew == skew[:, :1]).all()


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel("bogus")
    with pytest.raises(ValueError):
        DelayModel("constant", unit_ms=-1.0)
    with pytest.raises(ValueError):
        DelayModel("random_subset", k=-2)


def _oracle(model, p, rounds):
    """The delay model stated per (rank, round): the table's oracle."""
    def delay(rank, rnd):
        if model.kind == "constant":
            return int(round(model.unit_ms * 1000))
        if model.kind == "linear_skew":
            return int(round((rank + 1) * model.unit_ms * 1000))
        if model.kind == "random_subset":
            rng = np.random.default_rng([model.seed, rnd])
            if rank in rng.choice(p, size=min(model.k, p), replace=False):
                return int(round(model.unit_ms * 1000))
        return 0
    return [[delay(r, t) for t in range(rounds)] for r in range(p)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 40), st.integers(1, 16), st.integers(0, 20))
def test_random_subset_replay_determinism(seed, rounds, p, k):
    m = DelayModel("random_subset", unit_ms=1.0, k=k, seed=seed)
    table = delay_table(m, p, rounds)
    for t in range(rounds):
        col = table[:, t]
        assert ((col == 0) | (col == 1000)).all()
        assert np.count_nonzero(col) == min(k, p)
    # a round's column does not depend on how many rounds were drawn
    for r in range(rounds + 1):
        assert delay_table(m, p, r).tobytes() == table[:, :r].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["none", "constant", "linear_skew", "random_subset"]),
       st.floats(0.0, 5.0), st.integers(0, 20), st.integers(0, 2**31),
       st.integers(1, 16), st.integers(0, 12))
@example("random_subset", 1.0, 0, 3, 4, 5)     # k = 0
@example("random_subset", 1.0, 20, 3, 4, 5)    # k > p
@example("random_subset", 0.0, 2, 3, 4, 5)     # unit_ms = 0
@example("linear_skew", 1.5, 1, 0, 4, 0)       # rounds = 0
@example("random_subset", 1.0, 2, 3, 4, 0)     # rounds = 0
def test_delay_table_matches_the_per_rank_draw(kind, unit_ms, k, seed, p, rounds):
    m = DelayModel(kind, unit_ms=unit_ms, k=k, seed=seed)
    table = delay_table(m, p, rounds)
    assert table.shape == (p, rounds) and table.dtype == np.int64
    assert table.tolist() == _oracle(m, p, rounds)


def test_random_subset_varies_across_rounds():
    m = DelayModel("random_subset", unit_ms=1.0, k=2, seed=7)
    table = delay_table(m, 8, 32)
    assert len({col.tobytes() for col in table.T}) > 1
