"""Schedule DAG semantics: consumable ops, dep logic, replication, validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eagercoll.schedule import (
    CycleError,
    DuplicateOpError,
    Engine,
    K_COMPUTE,
    K_NOP,
    K_RECV,
    K_SEND,
    OpSpec,
    ScheduleError,
    ScheduleTemplate,
)
from eagercoll.transport import Message, Tag, PHASE_ACT, PHASE_RED


class FireLog:
    """Recorder that keeps the oid of every op fire, in order."""

    def __init__(self):
        self.oids = []

    def op_fired(self, now, rank, cid, gen, oid, label):
        self.oids.append(oid)


def make_engine(tpl, sent=None, rank=0):
    send_fn = (lambda m: sent.append(m)) if sent is not None else (lambda m: None)
    return Engine(tpl, rank, 0, send_fn, lambda: 0)


def deliver(eng, *msgs):
    """Append messages to the engine's mailbox and pump it, as a transport
    delivery does."""
    eng.mailbox.extend(msgs)
    eng.pump()


def chain_template():
    """N0 -> send(step 0) -> recv(step 1) -> compute -> publishing NOP."""
    buffers = {"acc": 16, "inbox": 16}
    ops = [
        OpSpec(0, K_NOP, entry=True, label="N0"),
        OpSpec(1, K_SEND, deps=(0,), peer=1, phase=PHASE_RED, step=0, send_buf="acc"),
        OpSpec(2, K_RECV, deps=(1,), peer=1, phase=PHASE_RED, step=1, recv_buf="inbox"),
        OpSpec(3, K_COMPUTE, deps=(2,), src_buf="inbox", dst_buf="acc"),
        OpSpec(4, K_NOP, deps=(3,), publish=True, label="done"),
    ]
    return ScheduleTemplate(ops=ops, buffers=buffers, mask_offset=16,
                            publish_from="acc")


def test_entry_waits_for_activation():
    sent = []
    eng = make_engine(chain_template(), sent)
    eng.commit()
    assert eng.done_generation == -1
    assert sent == []
    eng.activate_internal()
    assert len(sent) == 1 and sent[0].tag.step == 0


def test_chain_runs_to_completion_on_matching_recv():
    sent = []
    eng = make_engine(chain_template(), sent)
    eng.commit()
    eng.activate_internal()
    payload = np.arange(2, dtype=np.float64).tobytes()
    deliver(eng, Message(1, 0, Tag(0, 0, PHASE_RED, 1), payload))
    assert eng.done_generation == 0
    acc = eng.buffer("acc").view(np.float64)
    assert acc.tolist() == [0.0, 1.0]


def test_compute_fns():
    """One fire adds the f8 values below mask_offset and ors the mask
    bytes from there on."""
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_COMPUTE, deps=(0,), src_buf="b", dst_buf="a"),
        OpSpec(2, K_NOP, deps=(1,), publish=True),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={"a": 24, "b": 24}, mask_offset=16,
                           publish_from="a")
    eng = make_engine(tpl)
    eng.commit()
    eng.buffer("a")[:16].view(np.float64)[:] = [1.0, 2.0]
    eng.buffer("b")[:16].view(np.float64)[:] = [10.0, 20.0]
    eng.buffer("a")[16:].view(np.uint64)[:] = 0b0101
    eng.buffer("b")[16:].view(np.uint64)[:] = 0b0011
    eng.activate_internal()
    assert eng.buffer("a")[:16].view(np.float64).tolist() == [11.0, 22.0]
    assert eng.buffer("a")[16:].view(np.uint64)[0] == 0b0111


def test_bor_on_integer_view():
    """With mask_offset 0 the whole buffer is mask bytes: the reduce op is
    a plain bitwise or, with no float prefix to add."""
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_COMPUTE, deps=(0,), src_buf="b", dst_buf="a"),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={"a": 8, "b": 8}, mask_offset=0)
    eng = make_engine(tpl)
    eng.commit()
    eng.buffer("a").view(np.uint64)[:] = 0b0101
    eng.buffer("b").view(np.uint64)[:] = 0b0011
    eng.activate_internal()
    assert eng.buffer("a").view(np.uint64)[0] == 0b0111


def test_fire_twice_is_silent_noop():
    sent = []
    eng = make_engine(chain_template(), sent)
    eng.commit()
    eng.activate_internal()
    eng.activate_internal()  # racing second initiator
    assert len(sent) == 1
    assert eng.consumed[0] == 1 and eng.consumed[1] == 1


def test_refiring_a_consumed_op_raises():
    """The single-firing contract is enforced by a real exception, not an
    assert, so it holds under python -O too."""
    eng = make_engine(chain_template(), [])
    eng.commit()
    eng.activate_internal()
    with pytest.raises(ScheduleError, match="fired twice"):
        eng._fire(1)  # the send already fired on activation
    deliver(eng, Message(1, 0, Tag(0, 0, PHASE_RED, 1), b"\0" * 16))
    with pytest.raises(ScheduleError, match="fired twice"):
        eng._fire_recv(2, b"\0" * 16)


def test_state_restore_round_trip():
    eng = make_engine(chain_template(), [])
    eng.commit()
    before = eng.state()
    eng.buffer("acc").view(np.float64)[:] = 2.0
    eng.activate_internal()
    deliver(eng, Message(1, 0, Tag(0, 0, PHASE_RED, 1), np.full(2, 3.0).tobytes()))
    assert eng.done_generation == 0
    after = eng.state()
    eng.restore(before)
    assert eng.state() == before and eng.done_generation == -1
    assert not any(eng.consumed)
    eng.restore(after)
    assert eng.state() == after
    assert eng.buffer("acc").view(np.float64)[0] == 5.0


def test_or_logic_fires_on_first_dep():
    """An or-op needs any single consumed dependency, not all of them."""
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_NOP, deps=(0,)),
        OpSpec(2, K_RECV, peer=1, phase=PHASE_ACT, step=0),
        OpSpec(3, K_NOP, logic="or", deps=(1, 2), publish=True),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={})
    eng = make_engine(tpl)
    eng.commit()
    eng.activate_internal()  # fires 0 -> 1 -> (or) 3; recv 2 never fires
    assert eng.done_generation == 0
    assert eng.consumed[2] == 0


def test_persistent_replication_resets_state_and_buffers():
    buffers = {"acc": 8, "keep": 8}
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_NOP, deps=(0,), publish=True),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers=buffers, persistent=True,
                           snapshot_src="keep")
    eng = make_engine(tpl)
    eng.commit()
    eng.buffer("acc").view(np.float64)[:] = 3.5
    eng.buffer("keep").view(np.float64)[:] = 9.0
    eng.activate_internal()
    assert eng.done_generation == 0
    # persistent schedules replicate on completion: generation already bumped
    assert eng.generation == 1
    assert eng.buffer("acc").view(np.float64)[0] == 0.0   # scratch zeroed
    assert eng.buffer("keep").view(np.float64)[0] == 9.0  # snapshot source survives
    assert bytes(eng.consumed) == b"\0\0"
    eng.activate_internal()
    assert eng.done_generation == 1


@pytest.mark.parametrize("sizes", [
    {"send": 24, "acc": 24, "land_fold": 24, "land0": 24, "land1": 24},  # allreduce, p=5
    {"a": 5, "send": 3, "b": 16, "c": 1, "d": 0},  # odd sizes, so slices pad
])
def test_replication_zeroes_every_scratch_buffer_and_keeps_send(sizes):
    """Scratch buffers share one arena: each holds its own bytes, and a
    replication zeroes all of them but leaves the snapshot source alone.
    state()/restore() brings back every byte, in the arena (padding
    included) and in the snapshot source outside it."""
    ops = [OpSpec(0, K_NOP, entry=True), OpSpec(1, K_NOP, deps=(0,), publish=True)]
    tpl = ScheduleTemplate(ops=ops, buffers=sizes, persistent=True,
                           snapshot_src="send")
    eng = make_engine(tpl)
    eng.commit()
    for i, name in enumerate(sizes):
        eng.buffer(name)[:] = 0x11 * (i + 1)
    filled = {name: bytes([0x11 * (i + 1)]) * size for i, (name, size) in enumerate(sizes.items())}
    for name in sizes:
        assert eng.buffer(name).tobytes() == filled[name]
    before = eng.state()
    eng.activate_internal()
    assert eng.generation == 1
    for name in sizes:
        want = filled[name] if name == "send" else bytes(sizes[name])
        assert eng.buffer(name).tobytes() == want
    eng.buffer("send")[:] = 0xEE
    eng.restore(before)
    assert eng.state() == before and eng.generation == 0
    for name in sizes:
        assert eng.buffer(name).tobytes() == filled[name]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_bor_matches_a_word_wise_or(offset_words, data):
    """The engine ors the mask bytes from mask_offset on; the bits match
    np.bitwise_or over the same uint64 words, and the f8 values below the
    offset are added."""
    words = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)
    a = np.array(data.draw(words), dtype=np.uint64)
    b = np.array(data.draw(st.lists(st.integers(0, 2**64 - 1),
                                    min_size=len(a), max_size=len(a))), dtype=np.uint64)
    off = 8 * offset_words
    size = off + a.nbytes
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_COMPUTE, deps=(0,), src_buf="b", dst_buf="a"),
    ]
    eng = make_engine(ScheduleTemplate(ops=ops, buffers={"a": size, "b": size},
                                       mask_offset=off))
    eng.commit()
    eng.buffer("a")[:off].view(np.float64)[:] = np.arange(offset_words)
    eng.buffer("b")[:off].view(np.float64)[:] = 0.5
    eng.buffer("a")[off:].view(np.uint64)[:] = a
    eng.buffer("b")[off:].view(np.uint64)[:] = b
    eng.activate_internal()
    assert eng.buffer("a")[off:].view(np.uint64).tolist() == np.bitwise_or(a, b).tolist()
    assert eng.buffer("a")[:off].view(np.float64).tolist() == [
        i + 0.5 for i in range(offset_words)]


def test_future_generation_messages_wait_in_mailbox():
    """A message tagged for generation 1 does nothing while gen 0 runs."""
    tpl = chain_template()
    tpl.persistent = True
    eng = make_engine(tpl, [])
    eng.commit()
    deliver(eng, Message(1, 0, Tag(0, 1, PHASE_RED, 1), b"\0" * 16))
    assert eng.done_generation == -1
    assert len(eng.mailbox) == 1  # still parked
    eng.activate_internal()
    deliver(eng, Message(1, 0, Tag(0, 0, PHASE_RED, 1), b"\0" * 16))
    assert eng.done_generation == 0
    assert eng.generation == 1
    assert len(eng.mailbox) == 1  # now current, but generation 1 is not yet activated


def test_stale_activation_is_ignored():
    ops = [OpSpec(0, K_NOP, entry=True), OpSpec(1, K_NOP, deps=(0,), publish=True)]
    tpl = ScheduleTemplate(ops=ops, buffers={}, persistent=True)
    eng = make_engine(tpl)
    eng.commit()
    eng.activate_internal(expected_generation=0)
    assert (eng.done_generation, eng.generation) == (0, 1)
    eng.activate_internal(expected_generation=0)  # late initiator for gen 0
    assert (eng.done_generation, eng.generation) == (0, 1)


def test_hold_policy_defers_activation_messages():
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_RECV, logic="or", deps=(), peer=1, phase=PHASE_ACT, step=0),
        OpSpec(2, K_NOP, logic="or", deps=(0, 1), publish=True),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={})
    eng = make_engine(tpl)
    eng.commit()
    held = {"on": True}
    eng.hold_policy = lambda gen: held["on"]
    deliver(eng, Message(1, 0, Tag(0, 0, PHASE_ACT, 0), b""))
    assert eng.done_generation == -1 and len(eng.mailbox) == 1
    held["on"] = False
    eng.pump()
    assert eng.done_generation == 0 and not eng.mailbox


# ---------------------------------------------------------------------------
# template validation


def test_validate_rejects_duplicate_ids():
    ops = [OpSpec(0, K_NOP, entry=True), OpSpec(0, K_NOP)]
    with pytest.raises(DuplicateOpError):
        ScheduleTemplate(ops=ops, buffers={}).validate()


def test_validate_rejects_cycles():
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_NOP, deps=(2,)),
        OpSpec(2, K_NOP, deps=(1,)),
    ]
    with pytest.raises(CycleError):
        ScheduleTemplate(ops=ops, buffers={}).validate()


def test_validate_rejects_missing_entry_and_double_publish():
    with pytest.raises(ScheduleError):
        ScheduleTemplate(ops=[OpSpec(0, K_NOP)], buffers={}).validate()
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_NOP, deps=(0,), publish=True),
        OpSpec(2, K_NOP, deps=(0,), publish=True),
    ]
    with pytest.raises(ScheduleError):
        ScheduleTemplate(ops=ops, buffers={}).validate()


def test_validate_rejects_bad_views():
    for src, dst, sizes, mask_offset, why in [
        ("b", "zz", {"a": 8, "b": 8}, 0, "unknown buffer"),
        (None, "a", {"a": 8, "b": 8}, 0, "unknown buffer"),
        ("b", "a", {"a": 8, "b": 16}, 0, "sizes differ"),
        ("b", "a", {"a": 16, "b": 16}, 4, "multiple of 8"),    # misaligned
        ("b", "a", {"a": 16, "b": 16}, 24, "multiple of 8"),   # past the end
        ("b", "a", {"a": 16, "b": 16}, -8, "multiple of 8"),   # before the start
    ]:
        ops = [
            OpSpec(0, K_NOP, entry=True),
            OpSpec(1, K_COMPUTE, deps=(0,), src_buf=src, dst_buf=dst),
        ]
        with pytest.raises(ScheduleError, match=why):
            ScheduleTemplate(ops=ops, buffers=sizes, mask_offset=mask_offset).validate()


def test_two_recvs_on_one_stream_rejected():
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_RECV, deps=(0,), peer=1, phase=PHASE_RED, step=0),
        OpSpec(2, K_RECV, deps=(0,), peer=2, phase=PHASE_RED, step=0),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={})
    with pytest.raises(ScheduleError):
        make_engine(tpl)


# ---------------------------------------------------------------------------
# dependency counters against the readiness rule they replace


class ReferenceCascade:
    """One generation of a schedule under the readiness rule the engine used
    before it counted dependencies: an op is ready when all (and-logic) or
    any (or-logic) of its deps are consumed, re-checked at every pop of a
    LIFO stack.  Recv matching rescans the mailbox from the front after
    every match, as the engine's pump does."""

    def __init__(self, tpl):
        self.ops = sorted(tpl.ops, key=lambda o: o.oid)
        self.entry = next(op.oid for op in tpl.ops if op.entry)
        self.consumed = [0] * len(self.ops)
        self.dependents = [[] for _ in self.ops]
        for op in self.ops:
            for d in op.deps:
                self.dependents[d].append(op.oid)
        self.recvs = {(op.phase, op.step): op.oid for op in self.ops if op.kind == K_RECV}
        self.box = []
        self.fired = []
        self.sent = []

    def ready(self, op):
        if not op.deps:
            return True
        hits = (self.consumed[d] for d in op.deps)
        return any(hits) if op.logic == "or" else all(hits)

    def cascade(self, seeds):
        stack = list(seeds)
        while stack:
            op = self.ops[stack.pop()]
            if self.consumed[op.oid] or op.kind == K_RECV or not self.ready(op):
                continue
            self.fire(op)
            stack.extend(self.dependents[op.oid])

    def fire(self, op):
        self.consumed[op.oid] = 1
        self.fired.append(op.oid)
        if op.kind == K_SEND:
            self.sent.append((op.peer, op.phase, op.step))

    def commit(self):
        self.cascade([op.oid for op in self.ops
                      if not (op.deps or op.entry or op.kind == K_RECV)])
        self.pump()

    def activate(self):
        self.cascade([self.entry])
        self.pump()

    def deliver(self, phase, step):
        self.box.append((phase, step))
        self.pump()

    def pump(self):
        box = self.box
        progressed = True
        while progressed:
            progressed = False
            i = 0
            while i < len(box):
                oid = self.recvs.get(box[i])
                if oid is None:
                    i += 1
                elif self.consumed[oid]:
                    box.pop(i)
                elif not self.ready(self.ops[oid]):
                    i += 1
                else:
                    box.pop(i)
                    self.fire(self.ops[oid])
                    self.cascade(self.dependents[oid])
                    progressed = True
                    break


_KIND_CHOICES = (K_SEND, K_RECV, K_COMPUTE, K_NOP)


@st.composite
def random_schedules(draw):
    """A valid one-generation schedule, its ops listed in a random order: an
    entry NOP, then ops of every kind with and/or deps on earlier ops only,
    then a publishing NOP; plus the events to feed it (activation, one
    message per recv, some duplicates and a message no recv matches) in a
    random order."""
    n = draw(st.integers(2, 12))
    buffers = {"a": 8, "b": 8}
    ops = [OpSpec(0, K_NOP, entry=True)]
    streams = []
    for oid in range(1, n + 1):
        deps = tuple(draw(st.sets(st.integers(0, oid - 1), max_size=3)))
        logic = draw(st.sampled_from(("and", "or")))
        kind = K_NOP if oid == n else draw(st.sampled_from(_KIND_CHOICES))
        if oid == n:
            ops.append(OpSpec(oid, K_NOP, logic=logic, deps=deps or (oid - 1,),
                              publish=True))
        elif kind == K_SEND:
            ops.append(OpSpec(oid, K_SEND, logic=logic, deps=deps, peer=oid,
                              phase=draw(st.sampled_from((PHASE_ACT, PHASE_RED))),
                              step=oid, send_buf=draw(st.sampled_from((None, "a")))))
        elif kind == K_RECV:
            phase = draw(st.sampled_from((PHASE_ACT, PHASE_RED)))
            ops.append(OpSpec(oid, K_RECV, logic=logic, deps=deps, peer=1, phase=phase,
                              step=oid, recv_buf=draw(st.sampled_from((None, "b")))))
            streams.append((phase, oid))
        elif kind == K_COMPUTE:
            ops.append(OpSpec(oid, K_COMPUTE, logic=logic, deps=deps,
                              src_buf="b", dst_buf="a"))
        else:
            ops.append(OpSpec(oid, K_NOP, logic=logic, deps=deps))
    # listed in any order: the engine compiles the oid order regardless
    tpl = ScheduleTemplate(ops=draw(st.permutations(ops)), buffers=buffers,
                           mask_offset=draw(st.sampled_from((0, 8))))
    dups = draw(st.lists(st.sampled_from(streams), max_size=2)) if streams else []
    events = [("activate",)] + [("msg", ph, stp) for ph, stp in streams + dups]
    events.append(("msg", PHASE_RED, n + 1))  # matches no recv: waits forever
    events = draw(st.permutations(events))
    return tpl, events, draw(st.integers(0, len(events)))


def _payload(tpl, step):
    op = next(op for op in tpl.ops if op.kind == K_RECV and op.step == step)
    return b"" if op.recv_buf is None else np.float64(step).tobytes()


def _apply(eng, tpl, event):
    if event[0] == "activate":
        eng.activate_internal()
    else:
        _, phase, step = event
        known = any(op.kind == K_RECV and op.step == step for op in tpl.ops)
        deliver(eng, Message(1, 0, Tag(0, 0, phase, step),
                             _payload(tpl, step) if known else b""))


@settings(max_examples=300, deadline=None)
@given(random_schedules())
def test_counters_fire_what_the_reference_fires(case):
    """The engine's dependency counters fire the same ops in the same order,
    with the same sends, as re-checking all/any over consumed; state() and
    restore() mid-generation replay to the same end state."""
    tpl, events, cut = case
    sent, log = [], FireLog()
    eng = Engine(tpl, 0, 0, sent.append, lambda: 0, recorder=log)
    ref = ReferenceCascade(tpl)
    eng.commit()
    ref.commit()
    mid = None
    for i, event in enumerate(events):
        if i == cut:
            mid = (eng.state(), len(log.oids), len(sent))
        _apply(eng, tpl, event)
        if event[0] == "activate":
            ref.activate()
        else:
            ref.deliver(event[1], event[2])
        assert log.oids == ref.fired
    assert [(m.dst, m.tag.phase, m.tag.step) for m in sent] == ref.sent
    assert bytes(eng.consumed) == bytes(ref.consumed)
    assert eng.done_generation == (0 if ref.consumed[-1] else -1)

    if mid is None:
        return
    end = eng.state()
    state, n_fired, n_sent = mid
    eng.restore(state)
    assert eng.state() == state
    for event in events[cut:]:
        _apply(eng, tpl, event)
    assert eng.state() == end
    assert log.oids[len(ref.fired):] == ref.fired[n_fired:]
    assert [(m.dst, m.tag.phase, m.tag.step) for m in sent[len(ref.sent):]] == ref.sent[n_sent:]
