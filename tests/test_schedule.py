"""Schedule DAG semantics: consumable ops, dep logic, replication, validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eagercoll.collectives import CollectiveConfig, rank_programs
from eagercoll.schedule import (
    CycleError,
    DuplicateOpError,
    Engine,
    K_COMPUTE,
    K_NOP,
    K_RECV,
    K_SEND,
    OpSpec,
    Program,
    ScheduleError,
    ScheduleTemplate,
)
from eagercoll.transport import Message, PHASE_ACT, PHASE_RED


class FireLog:
    """Recorder that keeps (generation, oid) of every op fire, in order."""

    def __init__(self):
        self.fires = []

    def op_fired(self, now, rank, cid, gen, oid, label):
        self.fires.append((gen, oid))


def make_engine(tpl, sent=None, rank=0):
    send_fn = (lambda m: sent.append(m)) if sent is not None else (lambda m: None)
    return Engine(Program(tpl), rank, 0, send_fn, lambda: 0)


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
    assert len(sent) == 1 and sent[0].step == 0


def test_chain_runs_to_completion_on_matching_recv():
    sent = []
    eng = make_engine(chain_template(), sent)
    eng.commit()
    eng.activate_internal()
    payload = np.arange(2, dtype=np.float64).tobytes()
    eng.deliver(Message(1, 0, 0, 0, PHASE_RED, 1, payload))
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
    eng.deliver(Message(1, 0, 0, 0, PHASE_RED, 1, b"\0" * 16))
    with pytest.raises(ScheduleError, match="fired twice"):
        eng._fire_recv(2, b"\0" * 16)


def test_state_restore_round_trip():
    eng = make_engine(chain_template(), [])
    eng.commit()
    before = eng.state()
    eng.buffer("acc").view(np.float64)[:] = 2.0
    eng.activate_internal()
    eng.deliver(Message(1, 0, 0, 0, PHASE_RED, 1, np.full(2, 3.0).tobytes()))
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


_NOPS = [OpSpec(0, K_NOP, entry=True), OpSpec(1, K_NOP, deps=(0,), publish=True)]
# a recv landing in "land", which this generation never fires
_RECV_LAND = _NOPS + [OpSpec(2, K_RECV, phase=PHASE_RED, step=0, recv_buf="land")]
_LAND_SIZES = {"send": 16, "land": 16, "acc": 16, "out": 16}


@pytest.mark.parametrize("ops, sizes, kept", [
    (_NOPS, {"send": 24, "acc": 24, "land_fold": 24, "land0": 24, "land1": 24},  # allreduce, p=5
     {"send"}),
    (_NOPS, {"a": 5, "send": 3, "b": 16, "c": 1, "d": 0}, {"send"}),  # odd sizes, so slices pad
    # every reader of land depends on its recv, so land keeps its bytes
    (_RECV_LAND + [OpSpec(3, K_COMPUTE, deps=(2,), src_buf="land", dst_buf="acc"),
                   OpSpec(4, K_SEND, deps=(2, 3), peer=1, phase=PHASE_RED, step=1,
                          send_buf="land"),
                   OpSpec(5, K_COMPUTE, deps=(2, 0), src_buf="out", dst_buf="land")],
     _LAND_SIZES, {"send", "land"}),
    # one reader lacks the dependency, so land is zeroed like the rest
    (_RECV_LAND + [OpSpec(3, K_COMPUTE, deps=(2,), src_buf="land", dst_buf="acc"),
                   OpSpec(4, K_COMPUTE, deps=(1,), src_buf="land", dst_buf="out")],
     _LAND_SIZES, {"send"}),
], ids=["sizes0", "sizes1", "land-kept", "land-zeroed"])
def test_replication_zeroes_every_scratch_buffer_and_keeps_send(ops, sizes, kept):
    """Scratch buffers share one arena: each holds its own bytes, and a
    replication zeroes all of them but the snapshot source and the landing
    buffers, which a recv overwrites before any op reads them.
    state()/restore() brings back every byte, in the arena (padding
    included) and in the snapshot source outside it."""
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
        want = filled[name] if name in kept else bytes(sizes[name])
        assert eng.buffer(name).tobytes() == want
    eng.buffer("send")[:] = 0xEE
    eng.restore(before)
    assert eng.state() == before and eng.generation == 0
    for name in sizes:
        assert eng.buffer(name).tobytes() == filled[name]


@pytest.mark.parametrize("p", [2, 4, 5, 7])
def test_allreduce_zeroes_only_its_accumulator_on_replication(p):
    """In every rank class of the allreduce, each land* buffer has one recv
    and readers that wait for it, so a replication zeroes acc alone."""
    for rank, program in enumerate(rank_programs(CollectiveConfig(p, "solo", 3))):
        assert program.start["acc"] == 0, rank
        assert program.zero_nbytes == program.buffers["acc"], rank


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
    eng.deliver(Message(1, 0, 0, 1, PHASE_RED, 1, b"\0" * 16))
    assert eng.done_generation == -1
    assert len(eng.mailbox) == 1  # still parked
    eng.activate_internal()
    eng.deliver(Message(1, 0, 0, 0, PHASE_RED, 1, b"\0" * 16))
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
    eng.deliver(Message(1, 0, 0, 0, PHASE_ACT, 0, b""))
    assert eng.done_generation == -1 and len(eng.mailbox) == 1
    held["on"] = False
    eng.pump()
    assert eng.done_generation == 0 and not eng.mailbox


def test_deliver_drops_or_parks_what_it_cannot_fire():
    """Each early exit of deliver()'s direct path, into an empty mailbox: a
    stale message and a duplicate for a consumed recv are dropped; a future
    generation's message and a held activation message wait in the
    mailbox.  None of them fires an op or sends."""
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_RECV, phase=PHASE_ACT, step=0),
        OpSpec(2, K_SEND, logic="or", deps=(0, 1), peer=1, phase=PHASE_RED, step=0),
        OpSpec(3, K_RECV, phase=PHASE_RED, step=1, recv_buf="inbox"),
        OpSpec(4, K_NOP, deps=(2, 3), publish=True),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={"inbox": 8}, persistent=True)
    red = Message(1, 0, 0, 0, PHASE_RED, 1, b"\1" * 8)

    def engine():
        sent = []
        eng = make_engine(tpl, sent)
        eng.commit()
        return eng, sent

    eng, sent = engine()
    eng.deliver(red)  # fires the recv directly; op 4 still waits for op 2
    assert (bytes(eng.consumed), eng.mailbox, sent) == (b"\0\0\0\1\0", [], [])
    eng.deliver(red)  # duplicate
    assert (bytes(eng.consumed), eng.mailbox, sent) == (b"\0\0\0\1\0", [], [])
    early = red._replace(rnd=1)
    eng.deliver(early)  # future generation
    assert (bytes(eng.consumed), eng.mailbox, sent) == (b"\0\0\0\1\0", [early], [])

    eng, sent = engine()
    eng.activate_internal()
    eng.deliver(red)  # completes generation 0; generation 1 begins
    assert (eng.generation, len(sent)) == (1, 1)
    eng.deliver(red)  # stale
    assert (bytes(eng.consumed), eng.mailbox, len(sent)) == (bytes(5), [], 1)

    eng, sent = engine()
    asked = []
    eng.hold_policy = lambda gen: asked.append(gen) or True
    act = Message(1, 0, 0, 0, PHASE_ACT, 0, b"")
    eng.deliver(act)  # held: the policy is asked once, and no rescan asks again
    assert (bytes(eng.consumed), eng.mailbox, sent, asked) == (bytes(5), [act], [], [0])


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


@pytest.mark.parametrize("snapshot, why", [
    ({"snapshot_src": "nope"}, "snapshot_src names unknown buffer"),
    ({"snapshot_src": "send", "snapshot_last": 9}, "snapshot_last names missing op 9"),
    ({"snapshot_last": 0}, "snapshot_last needs a snapshot_src"),
], ids=["unknown-src", "missing-last", "last-without-src"])
def test_validate_rejects_bad_snapshot(snapshot, why):
    tpl = ScheduleTemplate(ops=[OpSpec(0, K_NOP, entry=True)], buffers={"send": 8},
                           **snapshot)
    with pytest.raises(ScheduleError, match=why):
        tpl.validate()


_WIDE = [OpSpec(i, K_NOP, deps=(0,)) for i in range(1, 257)]


@pytest.mark.parametrize("ops, extra, why", [
    ([OpSpec(2, K_NOP, deps=(0,))], {}, "op ids must be dense"),
    ([OpSpec(1, "warp", deps=(0,))], {}, "unknown op kind 'warp'"),
    ([OpSpec(1, K_NOP, logic="xor", deps=(0,))], {}, "unknown dep logic 'xor'"),
    ([OpSpec(1, K_NOP, deps=(5,))], {}, "op 1 depends on missing op 5"),
    ([OpSpec(1, K_SEND, deps=(0,), peer=1, phase=PHASE_RED, step=0, send_buf="nope")], {},
     "send op 1 names unknown buffer"),
    ([OpSpec(1, K_RECV, peer=1, phase=PHASE_RED, step=0, recv_buf="nope")], {},
     "recv op 1 names unknown buffer"),
    ([], {"publish_from": "nope"}, "publish_from names unknown buffer"),
    (_WIDE + [OpSpec(257, K_NOP, deps=tuple(range(1, 257)))], {},
     "op 257 has more than 255 and-dependencies"),
], ids=["sparse-ids", "unknown-kind", "unknown-logic", "missing-dep", "send-buffer",
        "recv-buffer", "publish-from", "256-and-deps"])
def test_program_rejects_a_malformed_template(ops, extra, why):
    tpl = ScheduleTemplate(ops=[OpSpec(0, K_NOP, entry=True), *ops], buffers={"buf": 8},
                           **extra)
    with pytest.raises(ScheduleError, match=why):
        Program(tpl)


def test_engine_checks_its_lifecycle_and_recv_lengths():
    eng = make_engine(chain_template(), [])
    with pytest.raises(ScheduleError, match="activate before commit"):
        eng.activate_internal()
    eng.commit()
    with pytest.raises(ScheduleError, match="already committed"):
        eng.commit()
    eng.activate_internal()
    with pytest.raises(ScheduleError, match="recv 2 payload 8B != buffer 16B"):
        eng.deliver(Message(1, 0, 0, 0, PHASE_RED, 1, b"\0" * 8))


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
    """A schedule run under the readiness rule the engine used before it
    counted dependencies, compiled chains or delivered straight into a
    ready recv: an op is ready when all (and-logic) or any (or-logic) of
    its deps are consumed, re-checked at every pop of a LIFO stack, and
    every delivery appends to the mailbox and rescans it from the front
    after every match.  Messages of past generations are dropped, those of
    future generations wait, and activation-phase messages wait while the
    hold flag is up.  A persistent schedule replicates when its publishing
    op fires: the generation bumps, every op resets and the seeds fire."""

    def __init__(self, tpl):
        self.ops = sorted(tpl.ops, key=lambda o: o.oid)
        self.entry = next(op.oid for op in tpl.ops if op.entry)
        self.persistent = tpl.persistent
        self.seeds = [op.oid for op in self.ops
                      if not (op.deps or op.entry or op.kind == K_RECV)]
        self.dependents = [[] for _ in self.ops]
        for op in self.ops:
            for d in op.deps:
                self.dependents[d].append(op.oid)
        self.recvs = {(op.phase, op.step): op.oid for op in self.ops if op.kind == K_RECV}
        self.generation, self.done_generation = 0, -1
        self.consumed = [0] * len(self.ops)
        self.held = False
        self.box = []    # (rnd, phase, step)
        self.fired = []  # (generation, oid)
        self.sent = []   # (generation, peer, phase, step)

    def ready(self, op):
        if not op.deps:
            return True
        hits = (self.consumed[d] for d in op.deps)
        return any(hits) if op.logic == "or" else all(hits)

    def cascade(self, seeds):
        gen = self.generation
        stack = list(seeds)
        while stack and self.generation == gen:
            op = self.ops[stack.pop()]
            if self.consumed[op.oid] or op.kind == K_RECV or not self.ready(op):
                continue
            self.fire(op)
            stack.extend(self.dependents[op.oid])

    def fire(self, op):
        self.consumed[op.oid] = 1
        self.fired.append((self.generation, op.oid))
        if op.kind == K_SEND:
            self.sent.append((self.generation, op.peer, op.phase, op.step))
        if op.publish:
            self.done_generation = self.generation
            if self.persistent:
                self.generation += 1
                self.consumed = [0] * len(self.ops)
                self.cascade(self.seeds)

    def commit(self):
        self.cascade(self.seeds)
        self.pump()

    def activate(self):
        self.cascade([self.entry])
        self.pump()

    def deliver(self, rnd, phase, step):
        self.box.append((rnd, phase, step))
        self.pump()

    def hold(self, on):
        self.held = on
        if not on:
            self.pump()

    def pump(self):
        box = self.box
        progressed = True
        while progressed:
            progressed = False
            i = 0
            while i < len(box):
                rnd, phase, step = box[i]
                oid = self.recvs.get((phase, step))
                if rnd < self.generation:
                    box.pop(i)
                elif rnd > self.generation or oid is None:
                    i += 1
                elif self.consumed[oid]:
                    box.pop(i)
                elif phase == PHASE_ACT and self.held or not self.ready(self.ops[oid]):
                    i += 1
                else:
                    box.pop(i)
                    gen = self.generation
                    self.fire(self.ops[oid])
                    if self.generation == gen:
                        self.cascade(self.dependents[oid])
                    progressed = True
                    break


_KIND_CHOICES = (K_SEND, K_RECV, K_COMPUTE, K_NOP)


def _unprompted(ops):
    """The ops that fire from the seeds alone, with no activation and no
    message."""
    fired: set = set()
    grew = True
    while grew:
        grew = False
        for op in ops:
            if op.oid in fired or op.entry or op.kind == K_RECV:
                continue
            hits = [d in fired for d in op.deps]
            if not op.deps or (any(hits) if op.logic == "or" else all(hits)):
                fired.add(op.oid)
                grew = True
    return fired


@st.composite
def random_schedules(draw):
    """A valid schedule, its ops listed in a random order: an entry NOP,
    then ops of every kind with and/or deps on earlier ops only, often on
    the op before alone, so straight-line chains form; one of them, inside
    a chain or not, publishes.  Persistent unless the publisher would fire
    with no activation and no message.  Plus the events to feed it in a
    random order: an activation and one message per recv for each of its
    generations (two when persistent, so the second generation's messages
    arrive early), some duplicates, perhaps a message no recv matches, and
    perhaps a hold on activation messages and its release."""
    n = draw(st.integers(2, 12))
    buffers = {"a": 8, "b": 8}
    publisher = draw(st.integers(1, n))
    ops = [OpSpec(0, K_NOP, entry=True)]
    streams = []
    for oid in range(1, n + 1):
        if draw(st.booleans()):
            deps = (oid - 1,)
        else:
            deps = tuple(draw(st.sets(st.integers(0, oid - 1), max_size=3)))
        logic = draw(st.sampled_from(("and", "or")))
        kind = draw(st.sampled_from(_KIND_CHOICES))
        mark = {"publish": oid == publisher}
        if kind == K_SEND:
            ops.append(OpSpec(oid, K_SEND, logic=logic, deps=deps, peer=oid,
                              phase=draw(st.sampled_from((PHASE_ACT, PHASE_RED))),
                              step=oid, send_buf=draw(st.sampled_from((None, "a"))), **mark))
        elif kind == K_RECV:
            phase = draw(st.sampled_from((PHASE_ACT, PHASE_RED)))
            ops.append(OpSpec(oid, K_RECV, logic=logic, deps=deps, peer=1, phase=phase,
                              step=oid, recv_buf=draw(st.sampled_from((None, "b"))), **mark))
            streams.append((phase, oid))
        elif kind == K_COMPUTE:
            ops.append(OpSpec(oid, K_COMPUTE, logic=logic, deps=deps,
                              src_buf="b", dst_buf="a", **mark))
        else:
            ops.append(OpSpec(oid, K_NOP, logic=logic, deps=deps, **mark))
    persistent = draw(st.booleans()) and publisher not in _unprompted(ops)
    # listed in any order: the engine compiles the oid order regardless
    tpl = ScheduleTemplate(ops=draw(st.permutations(ops)), buffers=buffers,
                           mask_offset=draw(st.sampled_from((0, 8))), persistent=persistent)
    dups = draw(st.lists(st.sampled_from(streams), max_size=2)) if streams else []
    gens = (0, 1) if persistent else (0,)
    events = [("activate",) for _ in gens]
    events += [("msg", rnd, ph, stp) for rnd in gens for ph, stp in streams + dups]
    if draw(st.booleans()):
        events.append(("msg", 0, PHASE_RED, n + 1))  # matches no recv: waits forever
    hold = draw(st.booleans())
    if hold:
        events += [("hold",), ("release",)]
    events = draw(st.permutations(events))
    return tpl, hold, events, draw(st.integers(0, len(events)))


def _payload(tpl, step):
    op = next(op for op in tpl.ops if op.kind == K_RECV and op.step == step)
    return b"" if op.recv_buf is None else np.float64(step).tobytes()


def _apply(eng, tpl, held, event):
    if event[0] == "activate":
        eng.activate_internal()
    elif event[0] in ("hold", "release"):
        held[0] = event[0] == "hold"
        if not held[0]:
            eng.pump()
    else:
        _, rnd, phase, step = event
        known = any(op.kind == K_RECV and op.step == step for op in tpl.ops)
        eng.deliver(Message(1, 0, 0, rnd, phase, step,
                            _payload(tpl, step) if known else b""))


def _apply_ref(ref, event):
    if event[0] == "activate":
        ref.activate()
    elif event[0] in ("hold", "release"):
        ref.hold(event[0] == "hold")
    else:
        ref.deliver(*event[1:])


def _sends(sent):
    return [(m.rnd, m.dst, m.phase, m.step) for m in sent]


@settings(max_examples=400, deadline=None)
@given(random_schedules())
def test_counters_fire_what_the_reference_fires(case):
    """The engine's dependency counters, fused chains and direct delivery
    fire the same ops in the same order, with the same sends, as
    re-checking all/any over consumed and pumping every message, across
    generations and hold policies; state() and restore() mid-run replay to
    the same end state."""
    tpl, hold, events, cut = case
    sent, log = [], FireLog()
    eng = Engine(Program(tpl), 0, 0, sent.append, lambda: 0, recorder=log)
    held = [False]
    if hold:
        eng.hold_policy = lambda gen: held[0]
    ref = ReferenceCascade(tpl)
    eng.commit()
    ref.commit()
    mid = None
    for i, event in enumerate(events):
        if i == cut:
            mid = (eng.state(), held[0], len(log.fires), len(sent))
        _apply(eng, tpl, held, event)
        _apply_ref(ref, event)
        assert log.fires == ref.fired
    assert _sends(sent) == ref.sent
    assert bytes(eng.consumed) == bytes(ref.consumed)
    assert (eng.generation, eng.done_generation) == (ref.generation, ref.done_generation)
    assert [(m.rnd, m.phase, m.step) for m in eng.mailbox] == ref.box

    if mid is None:
        return
    end = eng.state()
    state, held[0], n_fired, n_sent = mid
    eng.restore(state)
    assert eng.state() == state
    for event in events[cut:]:
        _apply(eng, tpl, held, event)
    assert eng.state() == end
    assert log.fires[len(ref.fired):] == ref.fired[n_fired:]
    assert _sends(sent[len(ref.sent):]) == ref.sent[n_sent:]
