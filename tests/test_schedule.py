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
    return ScheduleTemplate(ops=ops, buffers=buffers, publish_from="acc")


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


def _adding_template(persistent=False):
    """N0 -> send acc (step 0) -> recv (step 0) adding into acc -> publish:
    one butterfly step, whose recv waits for its own send."""
    ops = [
        OpSpec(0, K_NOP, entry=True, label="N0"),
        OpSpec(1, K_SEND, deps=(0,), peer=1, phase=PHASE_RED, step=0, send_buf="acc"),
        OpSpec(2, K_RECV, deps=(1,), peer=1, phase=PHASE_RED, step=0, dst_buf="acc"),
        OpSpec(3, K_NOP, deps=(2,), publish=True, label="done"),
    ]
    return ScheduleTemplate(ops=ops, buffers={"acc": 16}, publish_from="acc",
                            persistent=persistent)


def test_an_early_payload_parks_and_fires_from_the_cascade():
    """A message that comes before its recv's send has fired parks its
    payload in the recv's slot, not in the mailbox; a duplicate of it
    drops.  The send that counts the recv down to 0 fires it from the slot
    in the same cascade: the send carries acc as it was, and the recv adds
    the payload into acc, all bits of both, with one add."""
    sent, log = [], FireLog()
    eng = Engine(Program(_adding_template()), 0, 0, sent.append, lambda: 0, recorder=log)
    eng.commit()
    acc = eng.buffer("acc").view(np.float64)
    acc[:] = [1.5, 2.0 ** 51]
    payload = np.array([2.25, 2.0 ** 50]).tobytes()
    msg = Message(1, 0, 0, 0, PHASE_RED, 0, payload)
    eng.deliver(msg)
    assert (bytes(eng.consumed), eng.mailbox, log.fires) == (bytes(4), [], [])
    assert eng._parked[2] is payload and eng._waiting[2] == 1
    eng.deliver(msg)  # a duplicate for the parked recv
    assert eng.mailbox == [] and eng._parked[2] is payload
    eng.activate_internal()
    assert log.fires == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert [m.payload for m in sent] == [np.array([1.5, 2.0 ** 51]).tobytes()]
    assert acc.tolist() == [3.75, 2.0 ** 51 + 2.0 ** 50]
    assert eng.done_generation == 0 and eng._parked == [None] * 4


def test_a_replication_drops_what_its_generation_left_parked():
    """A payload parked when its generation publishes is dropped with the
    generation: the replication empties every slot.  Here the send counts
    the parked recv down to 0, but the publishing NOP, its other ready
    dependent, fires first and replicates."""
    ops = [OpSpec(0, K_NOP, entry=True),
           OpSpec(1, K_SEND, deps=(0,), peer=1, phase=PHASE_RED, step=0, send_buf="acc"),
           OpSpec(2, K_RECV, deps=(1,), peer=1, phase=PHASE_RED, step=0, dst_buf="acc"),
           OpSpec(3, K_NOP, deps=(1,), publish=True)]
    eng = make_engine(ScheduleTemplate(ops=ops, buffers={"acc": 8}, publish_from="acc",
                                       persistent=True))
    eng.commit()
    eng.deliver(Message(1, 0, 0, 0, PHASE_RED, 0, np.float64(4.0).tobytes()))
    assert eng._parked[2] is not None
    eng.activate_internal()
    assert (eng.generation, eng.done_generation) == (1, 0)
    assert eng._parked == [None] * 4 and bytes(eng.consumed) == bytes(4)
    assert eng.buffer("acc").view(np.float64).tolist() == [0.0]


def test_state_restore_round_trip_with_a_parked_payload():
    """state() holds a parked payload as it came, so it stays a hashable
    value, and restore() puts it back: the run then goes on as the
    uninterrupted one did."""
    eng = make_engine(_adding_template(persistent=True), [])
    eng.commit()
    payload = np.array([1.0, 2.0]).tobytes()
    eng.deliver(Message(1, 0, 0, 0, PHASE_RED, 0, payload))
    parked = eng.state()
    assert hash(parked) and parked[4][2] is payload
    eng.activate_internal()
    done = eng.state()
    assert done[4] == (None,) * 4 and eng.buffer("acc").view(np.float64).tolist() == [0, 0]
    eng.restore(parked)
    assert eng.state() == parked and eng._parked[2] is payload and eng.generation == 0
    eng.activate_internal()
    assert eng.state() == done


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
# a recv copying into "land", which this generation never fires, and
# computes reading it
_LAND_SIZES = {"send": 16, "land": 16, "acc": 16, "out": 16}
_LAND_ZEROED = _NOPS + [
    OpSpec(2, K_RECV, phase=PHASE_RED, step=0, recv_buf="land"),
    OpSpec(3, K_COMPUTE, deps=(2,), src_buf="land", dst_buf="acc"),
    OpSpec(4, K_COMPUTE, deps=(1,), src_buf="land", dst_buf="out")]


@pytest.mark.parametrize("ops, sizes, kept", [
    (_NOPS, {"send": 24, "acc": 24, "a": 24, "b": 24, "c": 24}, {"send"}),
    (_NOPS, {"a": 5, "send": 3, "b": 16, "c": 1, "d": 0}, {"send"}),  # odd sizes, so slices pad
    # a recv's buffer is zeroed like the rest
    (_LAND_ZEROED, _LAND_SIZES, {"send"}),
], ids=["sizes0", "sizes1", "land-zeroed"])
def test_replication_zeroes_every_scratch_buffer_and_keeps_send(ops, sizes, kept):
    """Scratch buffers share one arena: each holds its own bytes, and a
    replication zeroes all of them but the snapshot source, the arena's
    last slice.  state()/restore() brings back every byte of the arena,
    padding included."""
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
    """In every rank class of the allreduce the arena holds acc and then
    the send buffer, its last slice, and nothing else: every recv adds into
    acc or copies into it, so a replication zeroes acc alone."""
    cfg = CollectiveConfig(p, "solo", 3)
    for rank, program in enumerate(rank_programs(cfg)):
        assert program.start == {"acc": 0, "send": cfg.payload_nbytes}, rank
        assert program.zero_nbytes == cfg.payload_nbytes, rank
        assert program.arena_nbytes == 2 * cfg.payload_nbytes, rank


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
    # now current, but generation 1 is not yet activated: it parks at its recv
    assert eng.mailbox == [] and eng._parked[2] is not None and not eng.consumed[2]


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


@pytest.mark.parametrize("op, sizes, why", [
    (OpSpec(1, K_COMPUTE, deps=(0,), src_buf="b", dst_buf="zz"), {"a": 8, "b": 8},
     "compute op 1 names unknown buffer"),
    (OpSpec(1, K_COMPUTE, deps=(0,), dst_buf="a"), {"a": 8, "b": 8},
     "compute op 1 names unknown buffer"),
    (OpSpec(1, K_COMPUTE, deps=(0,), src_buf="b", dst_buf="a"), {"a": 8, "b": 16},
     "compute op 1 buffer sizes differ"),
    (OpSpec(1, K_COMPUTE, deps=(0,), src_buf="b", dst_buf="a"), {"a": 12, "b": 12},
     "compute op 1 adds into 'a', which is not a known buffer of whole float64 words"),
    (OpSpec(1, K_RECV, phase=PHASE_RED, step=0, dst_buf="a"), {"a": 4},
     "recv op 1 adds into 'a', which is not"),
    (OpSpec(1, K_RECV, phase=PHASE_RED, step=0, dst_buf="zz"), {"a": 8},
     "recv op 1 adds into 'zz', which is not"),
    (OpSpec(1, K_RECV, phase=PHASE_RED, step=0, recv_buf="a", dst_buf="a"), {"a": 8},
     "recv op 1 both copies and adds its payload"),
    (OpSpec(1, K_RECV, logic="or", deps=(0, 0), phase=PHASE_RED, step=0), {},
     "recv op 1 has or-logic over 2 deps: its counter also counts its message"),
], ids=["compute-unknown-dst", "compute-no-src", "compute-sizes-differ",
        "compute-not-whole-words", "recv-adds-not-whole-words", "recv-adds-unknown",
        "recv-copies-and-adds", "recv-or-over-two-deps"])
def test_validate_rejects_bad_views(op, sizes, why):
    with pytest.raises(ScheduleError, match=why):
        ScheduleTemplate(ops=[OpSpec(0, K_NOP, entry=True), op], buffers=sizes).validate()


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
    # only the entry NOP and recvs may go without deps: nothing would fire it
    ([OpSpec(1, K_SEND, peer=1, phase=PHASE_RED, step=0)], {},
     "send op 1 has no dependencies"),
    ([OpSpec(1, K_COMPUTE, src_buf="buf", dst_buf="buf")], {},
     "compute op 1 has no dependencies"),
    ([OpSpec(1, K_NOP, deps=(0,)), OpSpec(2, K_NOP)], {}, "nop op 2 has no dependencies"),
], ids=["sparse-ids", "unknown-kind", "unknown-logic", "missing-dep", "send-buffer",
        "recv-buffer", "publish-from", "256-and-deps", "send-without-deps",
        "compute-without-deps", "nop-without-deps"])
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
    its deps are consumed, and a recv also once its message has parked,
    re-checked at every pop of a LIFO stack; every delivery appends to the
    mailbox and rescans it from the front after every fire.  Messages of
    past generations are dropped, those of future generations wait, and
    activation-phase messages wait while the hold flag is up.  A current
    one parks at its recv, and fires it at once if the recv's deps are
    met, or drops if the recv has fired or holds a parked one.  A
    persistent schedule replicates when its publishing op fires: the
    generation bumps, every op resets and every parked message drops."""

    def __init__(self, tpl):
        self.ops = sorted(tpl.ops, key=lambda o: o.oid)
        self.entry = next(op.oid for op in tpl.ops if op.entry)
        self.persistent = tpl.persistent
        self.dependents = [[] for _ in self.ops]
        for op in self.ops:
            for d in op.deps:
                self.dependents[d].append(op.oid)
        self.recvs = {(op.phase, op.step): op.oid for op in self.ops if op.kind == K_RECV}
        self.generation, self.done_generation = 0, -1
        self.consumed = [0] * len(self.ops)
        self.parked = set()  # recvs holding their message
        self.held = False
        self.box = []    # (rnd, phase, step)
        self.fired = []  # (generation, oid)
        self.sent = []   # (generation, peer, phase, step)

    def ready(self, op):
        if not op.deps:
            return True
        hits = (self.consumed[d] for d in op.deps)
        return any(hits) if op.logic == "or" else all(hits)

    def cascade(self, heads):
        gen = self.generation
        stack = list(heads)
        while stack and self.generation == gen:
            op = self.ops[stack.pop()]
            if (self.consumed[op.oid] or not self.ready(op)
                    or op.kind == K_RECV and op.oid not in self.parked):
                continue
            self.fire(op)
            stack.extend(self.dependents[op.oid])

    def fire(self, op):
        self.consumed[op.oid] = 1
        self.parked.discard(op.oid)
        self.fired.append((self.generation, op.oid))
        if op.kind == K_SEND:
            self.sent.append((self.generation, op.peer, op.phase, op.step))
        if op.publish:
            self.done_generation = self.generation
            if self.persistent:
                self.generation += 1
                self.consumed = [0] * len(self.ops)
                self.parked.clear()

    def commit(self):
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
                elif self.consumed[oid] or oid in self.parked:
                    box.pop(i)
                elif phase == PHASE_ACT and self.held:
                    i += 1
                else:
                    box.pop(i)
                    self.parked.add(oid)
                    if self.ready(self.ops[oid]):
                        gen = self.generation
                        self.fire(self.ops[oid])
                        if self.generation == gen:
                            self.cascade(self.dependents[oid])
                        progressed = True
                        break


_KIND_CHOICES = (K_SEND, K_RECV, K_COMPUTE, K_NOP)


@st.composite
def random_schedules(draw):
    """A valid schedule, its ops listed in a random order: an entry NOP,
    then ops of every kind with and/or deps on earlier ops only, often on
    the op before alone, so straight-line chains form, and none but a recv
    without deps; one of them, inside a chain or not, publishes.  Plus the
    events to feed it in a random order: an activation and one message per
    recv for each of its generations (a recv copies into b or adds into a,
    either may be publish_from, and a may be the snapshot source) (two when persistent,
    so the second generation's messages arrive early), some duplicates,
    perhaps a message no recv matches, and perhaps a hold on activation
    messages and its release."""
    n = draw(st.integers(2, 12))
    buffers = {"a": 8, "b": 8}
    publisher = draw(st.integers(1, n))
    ops = [OpSpec(0, K_NOP, entry=True)]
    streams = []
    for oid in range(1, n + 1):
        kind = draw(st.sampled_from(_KIND_CHOICES))
        if draw(st.booleans()):
            deps = (oid - 1,)
        else:
            deps = tuple(draw(st.sets(st.integers(0, oid - 1),
                                      min_size=0 if kind == K_RECV else 1, max_size=3)))
        logic = draw(st.sampled_from(("and", "or")))
        if kind == K_RECV and len(deps) > 1:
            logic = "and"  # validate rejects an or over several: the message counts too
        mark = {"publish": oid == publisher}
        if kind == K_SEND:
            ops.append(OpSpec(oid, K_SEND, logic=logic, deps=deps, peer=oid,
                              phase=draw(st.sampled_from((PHASE_ACT, PHASE_RED))),
                              step=oid, send_buf=draw(st.sampled_from((None, "a"))), **mark))
        elif kind == K_RECV:
            phase = draw(st.sampled_from((PHASE_ACT, PHASE_RED)))
            buf = draw(st.sampled_from((None, "b", "a+")))  # a+ adds into a
            ops.append(OpSpec(oid, K_RECV, logic=logic, deps=deps, peer=1, phase=phase,
                              step=oid, recv_buf=buf if buf == "b" else None,
                              dst_buf="a" if buf == "a+" else None, **mark))
            streams.append((phase, oid))
        elif kind == K_COMPUTE:
            ops.append(OpSpec(oid, K_COMPUTE, logic=logic, deps=deps,
                              src_buf="b", dst_buf="a", **mark))
        else:
            ops.append(OpSpec(oid, K_NOP, logic=logic, deps=deps, **mark))
    persistent = draw(st.booleans())
    snapshot_last = draw(st.sampled_from((None, *range(n + 1))))
    # listed in any order: the engine compiles the oid order regardless
    tpl = ScheduleTemplate(ops=draw(st.permutations(ops)), buffers=buffers, persistent=persistent,
                           publish_from=draw(st.sampled_from((None, "a", "b"))),
                           snapshot_last=snapshot_last,
                           snapshot_src=None if snapshot_last is None else "a")
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
    return b"" if op.recv_buf is None and op.dst_buf is None else np.float64(step).tobytes()


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
    """The engine's dependency counters, fused chains, parking slots and
    direct delivery fire the same ops in the same order, with the same
    sends, as re-checking all/any over consumed and pumping every message,
    across generations and hold policies; state() and restore() mid-run
    replay to the same end state, buffer bytes included."""
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
