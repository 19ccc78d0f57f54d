"""Schedule DAG semantics: consumable ops, dep logic, replication, validation."""

import numpy as np
import pytest

from eagercoll.schedule import (
    BufView,
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
        OpSpec(3, K_COMPUTE, deps=(2,), fn="sum",
               dst=BufView("acc", "f8", 0, 2), src=BufView("inbox", "f8", 0, 2)),
        OpSpec(4, K_NOP, deps=(3,), publish=True, label="done"),
    ]
    return ScheduleTemplate(ops=ops, buffers=buffers, entry_id=0,
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
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_COMPUTE, deps=(0,), fn="sum",
               dst=BufView("a", "f8", 0, 2), src=BufView("b", "f8", 0, 2)),
        OpSpec(2, K_NOP, deps=(1,), publish=True),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={"a": 16, "b": 16}, entry_id=0,
                           publish_from="a")
    eng = make_engine(tpl)
    eng.commit()
    eng.buffer("a").view(np.float64)[:] = [1.0, 2.0]
    eng.buffer("b").view(np.float64)[:] = [10.0, 20.0]
    eng.activate_internal()
    assert eng.buffer("a").view(np.float64).tolist() == [11.0, 22.0]


def test_bor_on_integer_view():
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_COMPUTE, deps=(0,), fn="bor",
               dst=BufView("a", "u8", 0, 1), src=BufView("b", "u8", 0, 1)),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={"a": 8, "b": 8}, entry_id=0)
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
    assert eng.recv_buffer.view(np.float64)[0] == 5.0


def test_or_logic_fires_on_first_dep():
    """An or-op needs any single consumed dependency, not all of them."""
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_NOP, deps=(0,)),
        OpSpec(2, K_RECV, peer=1, phase=PHASE_ACT, step=0),
        OpSpec(3, K_NOP, logic="or", deps=(1, 2), publish=True),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={}, entry_id=0)
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
    tpl = ScheduleTemplate(ops=ops, buffers=buffers, entry_id=0,
                           persistent=True, preserve=("keep",))
    eng = make_engine(tpl)
    eng.commit()
    eng.buffer("acc").view(np.float64)[:] = 3.5
    eng.buffer("keep").view(np.float64)[:] = 9.0
    eng.activate_internal()
    assert eng.done_generation == 0
    # persistent schedules replicate on completion: generation already bumped
    assert eng.generation == 1
    assert eng.buffer("acc").view(np.float64)[0] == 0.0   # scratch zeroed
    assert eng.buffer("keep").view(np.float64)[0] == 9.0  # preserved survives
    assert bytes(eng.consumed) == b"\0\0"
    eng.activate_internal()
    assert eng.done_generation == 1


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
    tpl = ScheduleTemplate(ops=ops, buffers={}, entry_id=0, persistent=True)
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
    tpl = ScheduleTemplate(ops=ops, buffers={}, entry_id=0)
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
        ScheduleTemplate(ops=ops, buffers={}, entry_id=0).validate()


def test_validate_rejects_cycles():
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_NOP, deps=(2,)),
        OpSpec(2, K_NOP, deps=(1,)),
    ]
    with pytest.raises(CycleError):
        ScheduleTemplate(ops=ops, buffers={}, entry_id=0).validate()


def test_validate_rejects_missing_entry_and_double_publish():
    with pytest.raises(ScheduleError):
        ScheduleTemplate(ops=[OpSpec(0, K_NOP)], buffers={}, entry_id=0).validate()
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_NOP, deps=(0,), publish=True),
        OpSpec(2, K_NOP, deps=(0,), publish=True),
    ]
    with pytest.raises(ScheduleError):
        ScheduleTemplate(ops=ops, buffers={}, entry_id=0).validate()


def test_validate_rejects_bad_views():
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_COMPUTE, deps=(0,), fn="sum",
               dst=BufView("a", "f8", 0, 4), src=BufView("a", "f8", 0, 4)),
    ]
    with pytest.raises(ScheduleError):  # 32 bytes of view in an 8-byte buffer
        ScheduleTemplate(ops=ops, buffers={"a": 8}, entry_id=0).validate()
    ops_bor = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_COMPUTE, deps=(0,), fn="bor",
               dst=BufView("a", "f8", 0, 1), src=BufView("a", "f8", 0, 1)),
    ]
    with pytest.raises(ScheduleError):  # bitwise-or needs an integer dtype
        ScheduleTemplate(ops=ops_bor, buffers={"a": 8}, entry_id=0).validate()


def test_two_recvs_on_one_stream_rejected():
    ops = [
        OpSpec(0, K_NOP, entry=True),
        OpSpec(1, K_RECV, deps=(0,), peer=1, phase=PHASE_RED, step=0),
        OpSpec(2, K_RECV, deps=(0,), peer=2, phase=PHASE_RED, step=0),
    ]
    tpl = ScheduleTemplate(ops=ops, buffers={}, entry_id=0)
    with pytest.raises(ScheduleError):
        make_engine(tpl)
