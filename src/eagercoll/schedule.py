"""Dependency-DAG communication schedules and the engine that executes them.

A schedule is a static DAG of consumable ops: send, recv, compute, nop.
Each op carries and/or dependency logic over its predecessors and fires at
most once per generation; firing an already-consumed op is a silent no-op,
which is what lets several concurrent initiators race on one schedule
without double-executing anything.

The one compute op is a reduction, as in a triggered-op schedule: it
combines a payload buffer into an accumulator of the same size, adding the
float64 values below the template's mask_offset and or-ing the mask bytes
from there on (or-ing bytes gives the same bits as or-ing 64-bit words).

A Program validates a template once and compiles it into a flat program
in the manner of an offloaded NIC's triggered operations: each op has a
counter of dependencies it still waits for (its dep count under and-logic,
1 under or-logic, 0 with none), firing an op counts down its dependents,
and an op is ready when its counter reaches 0.  The data each fire needs
(headers, the seeds of a fresh generation, chain successors) is resolved then
too, into one fire record per op.  Ranks whose templates differ only in
their peers share one Program; each Engine binds its own buffer views and
send peers into the records that name them, and compiles nothing.  Where an op
is the only cascade target of its one dependency, the two always fire back
to back, so the dependency's record names it as its successor: a
straight-line chain (a reduce and the next step's send, the last reduce and
the publishing NOP) fires as one unit, a superoperator, as a NIC runs a
triggered recv -> reduce -> send chain.  Each op of a chain is still marked
consumed, counted down and reported to the recorder on its own, in order.
One fire loop, _cascade, fires every op, recvs included: it binds the
program to locals once, follows each chain, goes straight on to a ready
cascade target and keeps the others on a LIFO stack, until the stack
empties or the generation moves on.  Every buffer but the snapshot source
is a slice of one byte arena, and the arena plus the snapshot source is
the engine's whole payload state.  The landing buffers go last, and a
replication zeroes the rest with a single fill: a recv overwrites a landing
buffer whole before any op reads it, so it keeps the last generation's
bytes until then.  No payload is copied to hand it out: the owner reads the
send buffer in on_snapshot and the publish buffer in on_done, where the
chain left them, before the engine reuses them.

The engine is passive and single-threaded: it is driven by whoever owns
its rank (the simulator's event loop, the rank's socket driver thread, or
the interleaving explorer), which hands each message for this engine's
collective to deliver().  Every message meets one matching rule, _match:
it fires a ready recv of the current generation, drops, or waits in the
mailbox.  Into an empty mailbox a message meets it once, and into a
non-empty one it is appended and pumped.  The engine sends through an
injected callable.  A persistent schedule replicates itself on
completion: the generation counter bumps, op states and the scratch
buffers other than the landing ones reset, and messages tagged with a
future generation wait in the mailbox until their generation is current.

Internal activation fires the entry NOP locally.  External activation is a
message arriving on an activation-phase recv.  A hold policy, when set,
defers matching of activation-phase messages for generations it rejects;
this is the hook the staleness guard uses to degrade a round to synchronous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .transport import Message, PHASE_ACT

K_SEND, K_RECV, K_COMPUTE, K_NOP = "send", "recv", "compute", "nop"
_KINDS = (K_SEND, K_RECV, K_COMPUTE, K_NOP)
_new, _add, _bor = tuple.__new__, np.add, np.bitwise_or
_DROP, _WAIT = -1, -2  # Engine._match's verdicts besides a recv oid


class ScheduleError(Exception):
    pass


class CycleError(ScheduleError):
    pass


class DuplicateOpError(ScheduleError):
    pass


class OpSpec(NamedTuple):
    oid: int
    kind: str
    logic: str = "and"             # "and" | "or"
    deps: tuple[int, ...] = ()
    label: str = ""
    # send/recv
    peer: int | None = None
    phase: int | None = None
    step: int | None = None
    send_buf: str | None = None    # None sends an empty payload
    recv_buf: str | None = None
    # compute: reduce src_buf into dst_buf
    src_buf: str | None = None
    dst_buf: str | None = None
    # markers
    entry: bool = False
    publish: bool = False


@dataclass
class ScheduleTemplate:
    """Static description of one rank's schedule.

    The op flagged entry is the one activation fires.  snapshot_src is the
    one buffer whose contents survive replication (the contribution send
    buffer: it belongs to the application, not to any one generation).
    Everything else zeroes when the schedule replicates, except the landing
    buffers (see _landing_buffers), whose stale bytes no op reads.
    """

    ops: list[OpSpec]
    buffers: dict[str, int]              # name -> size in bytes
    mask_offset: int = 0                 # reductions add f8 below, or bytes from here
    publish_from: str | None = None
    snapshot_last: int | None = None     # op after which the send buffer is consumed
    snapshot_src: str | None = None      # the send buffer name
    persistent: bool = False

    def validate(self) -> list[list[int]]:
        """Raise ScheduleError on a malformed template; return each op's
        dependents in oid order, the map a Program compiles from."""
        ids = [op.oid for op in self.ops]
        if len(set(ids)) != len(ids):
            raise DuplicateOpError("duplicate op ids")
        if sorted(ids) != list(range(len(ids))):
            raise ScheduleError("op ids must be dense 0..n-1")
        oids = range(len(ids))
        entries = [op for op in self.ops if op.entry]
        if len(entries) != 1 or entries[0].kind != K_NOP:
            raise ScheduleError("schedule needs exactly one entry NOP")
        bufs, mo = self.buffers, self.mask_offset
        # one unpack of each OpSpec is much cheaper than its field lookups
        for (oid, kind, logic, deps, _, _, _, _, send_buf, recv_buf, src_buf, dst_buf,
             _, _) in self.ops:
            if kind not in _KINDS:
                raise ScheduleError(f"unknown op kind {kind!r}")
            if logic not in ("and", "or"):
                raise ScheduleError(f"unknown dep logic {logic!r}")
            for d in deps:
                if d not in oids:
                    raise ScheduleError(f"op {oid} depends on missing op {d}")
            if kind == K_SEND and send_buf is not None and send_buf not in bufs:
                raise ScheduleError(f"send op {oid} names unknown buffer")
            if kind == K_RECV and recv_buf is not None and recv_buf not in bufs:
                raise ScheduleError(f"recv op {oid} names unknown buffer")
            if kind == K_COMPUTE:
                if src_buf not in bufs or dst_buf not in bufs:
                    raise ScheduleError(f"compute op {oid} names unknown buffer")
                size = bufs[dst_buf]
                if bufs[src_buf] != size:
                    raise ScheduleError(f"compute op {oid} buffer sizes differ")
                if mo % 8 or not 0 <= mo <= size:
                    raise ScheduleError(
                        f"mask_offset {mo} is not a multiple of 8 "
                        f"within compute op {oid}'s {size}B buffers")
        # Kahn's algorithm: every op must be reachable through its deps
        byid = sorted(self.ops)  # by oid alone: the oids are distinct
        dependents: list[list[int]] = [[] for _ in oids]
        for op in byid:
            for d in op.deps:
                dependents[d].append(op.oid)
        indeg = [len(op.deps) for op in byid]
        frontier = [o for o in oids if indeg[o] == 0]
        seen = 0
        while frontier:
            o = frontier.pop()
            seen += 1
            for nxt in dependents[o]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    frontier.append(nxt)
        if seen != len(self.ops):
            raise CycleError("dependency cycle in schedule")
        if self.publish_from is not None and self.publish_from not in self.buffers:
            raise ScheduleError("publish_from names unknown buffer")
        if self.snapshot_src is not None and self.snapshot_src not in self.buffers:
            raise ScheduleError("snapshot_src names unknown buffer")
        if self.snapshot_last is not None:
            if self.snapshot_last not in oids:
                raise ScheduleError(f"snapshot_last names missing op {self.snapshot_last}")
            if self.snapshot_src is None:
                raise ScheduleError("snapshot_last needs a snapshot_src")
        publishers = [op for op in self.ops if op.publish]
        if len(publishers) > 1:
            raise ScheduleError("at most one publishing op")
        return dependents


def _landing_buffers(template: ScheduleTemplate) -> set[str]:
    """The buffers a replication need not zero.  Each is written by exactly
    one recv, whole (_fire_recv checks the length), and every op that reads
    it depends on that recv under and-logic: a compute naming it as src or
    dst, a send naming it as send_buf, the publishing op when it is
    publish_from.  So no read of one precedes its generation's write, and
    until that write it holds the last generation's bytes."""
    writers: dict[str, list[int]] = {}
    for op in template.ops:
        if op.kind == K_RECV and op.recv_buf is not None:
            writers.setdefault(op.recv_buf, []).append(op.oid)
    landing = {b for b, oids in writers.items() if len(oids) == 1} - {template.snapshot_src}
    for op in template.ops:
        reads = ((op.src_buf, op.dst_buf) if op.kind == K_COMPUTE
                 else (op.send_buf,) if op.kind == K_SEND else ())
        if op.publish:
            reads += (template.publish_from,)
        for b in reads:
            if b in landing and not (op.logic == "and" and writers[b][0] in op.deps):
                landing.discard(b)
    return landing


class Program:
    """A template validated and compiled once into what the fire loop reads
    that names no buffer view and no peer, shared by every engine running it.

    Each op compiles to a fire record (dependents, label, send, reduce,
    tail, targets, then).  Here send is (template peer, phase, step, buffer
    name or None) and reduce is (dst name, src name), which an Engine binds
    to its own peer and views; `bound` lists those ops.  tail has bit 1 set
    if the op takes the snapshot and bit 2 if it publishes, and targets are
    the dependents a cascade may go on to, all but the recvs.  An op X whose
    only target is an op Y depending on X alone makes Y ready exactly when
    X fires: X's `then` is Y (else -1), so a maximal straight-line chain
    runs from its head as one unit, with no readiness check or stack
    between its ops.

    The arena holds the landing buffers last, from zero_nbytes on; a
    replication zeroes only the bytes before them.
    """

    def __init__(self, template: ScheduleTemplate):
        dependents = template.validate()
        ops = self.ops = sorted(template.ops)  # by oid alone: the oids are distinct
        self.buffers, self.mask_offset = template.buffers, template.mask_offset
        self.snapshot_last, self.snapshot_src = template.snapshot_last, template.snapshot_src
        self.publish_from, self.persistent = template.publish_from, template.persistent
        # every buffer but the snapshot source is an 8-byte-aligned slice of
        # one arena, the landing buffers last
        landing = _landing_buffers(template)
        scratch = [n for n in template.buffers if n != template.snapshot_src]
        start, end = {}, 0
        for name in [n for n in scratch if n not in landing] + [n for n in scratch if n in landing]:
            start[name], end = end, end + -(-template.buffers[name] // 8) * 8
        self.zero_nbytes = min((start[n] for n in landing), default=end)
        self.start, self.arena_nbytes = start, end
        waiting0 = bytearray(len(ops))
        seeds = self.seeds = []
        recv_index = self.recv_index = {}            # (phase, step) -> recv oid
        recv_bufs = self.recv_bufs = []              # (recv oid, buffer name)
        bound = self.bound = []
        recvs = {op.oid for op in ops if op.kind == K_RECV}
        records = self.records = []
        # one unpack of each OpSpec is much cheaper than its field lookups
        for (oid, kind, logic, deps, label, peer, phase, step, send_buf, recv_buf,
             src_buf, dst_buf, entry, publish), ds in zip(ops, dependents):
            if deps:
                need = 1 if logic == "or" else len(deps)
                if need > 255:
                    raise ScheduleError(f"op {oid} has more than 255 and-dependencies")
                waiting0[oid] = need
            elif not (entry or kind == K_RECV):
                seeds.append(oid)
            if entry:
                self.entry = oid
            send = reduce = None
            if kind == K_RECV:
                key = (phase, step)
                if key in recv_index:
                    raise ScheduleError(f"two recvs on the same (phase, step) {key}")
                recv_index[key] = oid
                if recv_buf is not None:
                    recv_bufs.append((oid, recv_buf))
            elif kind == K_SEND:
                send = (peer, phase, step, send_buf)
                bound.append(oid)
            elif kind == K_COMPUTE:
                reduce = (dst_buf, src_buf)
                bound.append(oid)
            tail = (oid == template.snapshot_last) | (publish << 1)
            # a recv fires only when a delivery matches it, so no cascade goes to one
            ds = tuple(ds)
            targets = ds if recvs.isdisjoint(ds) else tuple([d for d in ds if d not in recvs])
            then = targets[0] if len(targets) == 1 and len(ops[targets[0]].deps) == 1 else -1
            records.append((ds, label, send, reduce, tail, targets, then))
        self.waiting0 = bytes(waiting0)


class Engine:
    """Executes one committed schedule for one rank.

    Readiness is a per-op counter of unmet dependencies, reset from the
    Program's start values on every replication and carried by state().
    The engine neither validates nor compiles: it allocates its buffers and
    binds them, and its own send peers, into the Program's fire records.
    peers maps a send's (phase, step) to this rank's peer (default: the
    peers of the template the Program was compiled from).  A replication
    zeroes the arena up to the Program's zero_nbytes, so the landing
    buffers keep the last generation's bytes and state() includes them: a
    search over several generations tells apart states that differ only in
    bytes no op reads.

    Public surface: commit(), activate_internal(), deliver(), which a
    transport calls with each of this collective's messages, pump(), which
    matches what waits in the mailbox, buffer(), state()/restore(), plus
    read-only state (program, generation, done_generation, consumed,
    mailbox).  on_snapshot(generation, send buffer) and on_done(generation,
    publish buffer) get live views that are valid only during the call: a
    callback that keeps the bytes copies them.  Nothing here locks: one
    thread, the owner of the engine's rank, makes every call.
    """

    def __init__(self, program: Program, rank: int, cid: int,
                 send_fn, now_fn, recorder=None,
                 on_snapshot=None, on_done=None, *, peers=None):
        self.program = program
        self.ops = program.ops
        self.rank = rank
        self.cid = cid
        self.send_fn = send_fn
        self.now_fn = now_fn
        self.recorder = recorder
        self.on_snapshot = on_snapshot
        self.on_done = on_done
        self.hold_policy = None      # callable(generation) -> bool, or None
        self.mailbox: list[Message] = []
        # When set (simulated transport), a rescan after an in-pump
        # replication is handed to the scheduler instead of running inline,
        # so same-instant application resumes observe the new generation
        # before held-back messages are matched against it.
        self.defer_fn = None

        start = program.start
        self._arena = np.zeros(program.arena_nbytes, dtype=np.uint8)
        self._zeroed = self._arena[:program.zero_nbytes]  # what a replication zeroes
        bufs = self._buf = {
            name: (self._arena[start[name]:start[name] + size] if name in start
                   else np.zeros(size, dtype=np.uint8))
            for name, size in program.buffers.items()
        }
        records = list(program.records)
        mo = program.mask_offset
        for oid in program.bound:
            ds, label, send, reduce, tail, targets, then = records[oid]
            if send is not None:
                peer, phase, step, name = send
                send = (peer if peers is None else peers[phase, step], phase, step,
                        None if name is None else bufs[name])
            else:
                dst, src = bufs[reduce[0]], bufs[reduce[1]]
                reduce = (dst[:mo].view(np.float64), src[:mo].view(np.float64),
                          dst[mo:], src[mo:])
            records[oid] = (ds, label, send, reduce, tail, targets, then)
        self._program = records
        self._recv_dst: list[np.ndarray | None] = [None] * len(records)
        for oid, name in program.recv_bufs:
            self._recv_dst[oid] = bufs[name]
        self._recv_index = program.recv_index
        self._snap_buf = bufs[program.snapshot_src] if program.snapshot_src else None
        self._publish_buf = bufs[program.publish_from] if program.publish_from else None
        self.consumed = bytearray(len(records))
        self._waiting = bytearray(program.waiting0)
        self.generation = 0
        self.done_generation = -1
        self.committed = False

    def buffer(self, name: str) -> np.ndarray:
        return self._buf[name]

    def state(self) -> tuple:
        """Everything a run changes (op states and dependency counters,
        generations, the arena and the send buffer, the mailbox) as a
        hashable value; restore() puts it back.  The arena includes the
        landing buffers' bytes from past generations."""
        snap = self._snap_buf
        return (bytes(self.consumed) + self._waiting,
                self.generation, self.done_generation, self._arena.tobytes(),
                b"" if snap is None else snap.tobytes(), tuple(self.mailbox))

    def restore(self, state: tuple) -> None:
        ops, self.generation, self.done_generation, arena, snap, box = state
        n = len(self.ops)
        self.consumed = bytearray(ops[:n])
        self._waiting = bytearray(ops[n:])
        self.mailbox[:] = box
        self._arena.data[:] = arena
        if self._snap_buf is not None:
            self._snap_buf.data[:] = snap

    # -- lifecycle ----------------------------------------------------------

    def commit(self) -> None:
        """Arm the schedule: dependency-free ops fire immediately, except the
        entry NOP, which waits for activation, and recvs, which fire on
        message arrival."""
        if self.committed:
            raise ScheduleError("schedule already committed")
        self.committed = True
        self._cascade(list(self.program.seeds))
        self.pump()

    def activate_internal(self, expected_generation: int | None = None) -> None:
        """Fire the entry NOP.  Silent no-op if this generation is already
        activated (several initiators may race), or if the schedule has moved
        past `expected_generation`."""
        if not self.committed:
            raise ScheduleError("activate before commit")
        if expected_generation is not None and self.generation != expected_generation:
            return
        self._cascade([self.program.entry])
        self.pump()

    def _replicate(self) -> None:
        self.generation += 1
        self.consumed = bytearray(len(self.ops))
        self._waiting = bytearray(self.program.waiting0)
        self._zeroed.fill(0)
        if self.program.seeds:
            self._cascade(list(self.program.seeds))

    # -- firing -------------------------------------------------------------

    def _cascade(self, stack: list[int], head: int = -1) -> None:
        """The one fire loop: fire `head`, if given, which the caller has
        found unconsumed and ready; then pop an op and, if it is unconsumed
        and ready, fire it; LIFO, until the stack empties or the generation
        moves on.  Takes ownership of `stack`.

        Firing an op marks it consumed, counts down its dependents, tells
        the recorder, sends or reduces and runs its tail.  Then the loop
        goes on to the op's chain successor, which is ready; at a chain's
        end, to the last of its targets that is ready, pushing the other
        ready ones, which is the order pushing all of them and popping
        gives.  A target that is not ready when its predecessor fires would
        be skipped when popped, or found consumed after a later fire made
        it ready and pushed it again, so it is never pushed.  Only a tail's
        callbacks can move the generation."""
        epoch = self.generation
        # a replication swaps these arrays, but then the epoch check returns
        consumed, waiting, program = self.consumed, self._waiting, self._program
        send_fn, rank, cid = self.send_fn, self.rank, self.cid
        op_fired = None if self.recorder is None else self.recorder.op_fired
        if op_fired is not None:
            now = self.now_fn()  # virtual time cannot move inside a cascade
        oid = head
        while True:
            while oid < 0:
                if not stack:
                    return
                oid = stack.pop()
                if consumed[oid] or waiting[oid]:
                    oid = -1
            dependents, label, send, reduce, tail, targets, then = program[oid]
            consumed[oid] = 1
            for d in dependents:
                if waiting[d]:
                    waiting[d] -= 1
            if op_fired is not None:
                op_fired(now, rank, cid, epoch, oid, label)
            if send is not None:
                peer, phase, step, buf = send
                # tuple.__new__ skips the NamedTuple's Python-level __new__
                send_fn(_new(Message, (rank, peer, cid, epoch, phase, step,
                                       b"" if buf is None else buf.tobytes())))
            elif reduce is not None:
                dst, src, dst_mask, src_mask = reduce
                _add(dst, src, out=dst)
                _bor(dst_mask, src_mask, out=dst_mask)
            if tail:
                if tail & 1:
                    self._snapshot_taken()
                if tail & 2:
                    self._complete()
                if self.generation != epoch:
                    return  # replicated; the old frontier is void
            oid = then  # the chain goes on: its next op is ready now
            if oid < 0:
                for d in targets:
                    if not (consumed[d] or waiting[d]):
                        if oid >= 0:
                            stack.append(oid)
                        oid = d

    def _snapshot_taken(self) -> None:
        buf = self._snap_buf
        if self.on_snapshot is not None:
            self.on_snapshot(self.generation, buf)
        buf[:] = 0  # contribution consumed; the stash starts empty again

    def _complete(self) -> None:
        g = self.done_generation = self.generation
        if self.on_done is not None:
            self.on_done(g, self._publish_buf)
        if self.program.persistent:
            self._replicate()

    # -- message matching ---------------------------------------------------

    def _fire_recv(self, oid: int, payload: bytes) -> None:
        if self.consumed[oid]:
            raise ScheduleError("op fired twice in one generation")
        dst = self._recv_dst[oid]
        if dst is not None:
            if len(payload) != len(dst):
                raise ScheduleError(
                    f"recv {oid} payload {len(payload)}B != buffer {len(dst)}B")
            dst.data[:] = payload  # a memoryview copy, cheaper than numpy's
        self._cascade([], oid)

    def _match(self, msg: Message) -> int:
        """The one rule every message meets, in this order: a past generation
        drops; a future generation, or a stream with no recv, waits; a
        consumed recv drops (a duplicate for a consumable op); an activation
        the hold policy holds waits, and so does a recv still waiting on its
        dependencies.  Returns the recv oid to fire, or _DROP or _WAIT."""
        _, _, _, rnd, phase, step, _ = msg
        gen = self.generation
        if rnd < gen:
            return _DROP
        oid = self._recv_index.get((phase, step))
        if rnd > gen or oid is None:
            return _WAIT
        if self.consumed[oid]:
            return _DROP
        if phase == PHASE_ACT and self.hold_policy is not None and self.hold_policy(gen):
            return _WAIT
        return _WAIT if self._waiting[oid] else oid

    def deliver(self, msg: Message) -> None:
        """Take one message for this engine's collective: the call a
        transport makes for every message it delivers.

        Into an empty mailbox of a committed engine the message meets
        _match once and fires, drops or waits in the mailbox, with no pump:
        a lone message that cannot match now cannot match on a rescan, and
        nothing a cascade does appends to the mailbox.  Into a non-empty
        mailbox it is appended and pumped, so it waits its turn.
        """
        box = self.mailbox
        if box or not self.committed:
            box.append(msg)
            self.pump()
            return
        oid = self._match(msg)
        if oid >= 0:
            self._fire_recv(oid, msg.payload)
        elif oid == _WAIT:
            box.append(msg)

    def pump(self) -> None:
        """Match the mailbox's messages, front to back, through _match:
        each one fires, drops or waits.  The scan restarts from the front
        after every fire, until a scan fires nothing: one fire can complete
        the generation and replicate, making waiting messages current.
        """
        box = self.mailbox
        if not (box and self.committed):
            return
        gen = self.generation
        i = 0
        while i < len(box):
            oid = self._match(box[i])
            if oid == _WAIT:
                i += 1
            elif oid == _DROP:
                del box[i]
            else:
                self._fire_recv(oid, box.pop(i).payload)
                if self.generation != gen:
                    if self.defer_fn is not None:
                        # an empty mailbox needs no rescan: whatever deliver()
                        # takes later meets the new generation
                        if box:
                            self.defer_fn(self.pump)
                        return
                    gen = self.generation
                i = 0
