"""Dependency-DAG communication schedules and the engine that executes them.

A schedule is a static DAG of consumable ops: send, recv, compute, nop.
Each op carries and/or dependency logic over its predecessors and fires at
most once per generation; firing an already-consumed op is a silent no-op,
which is what lets several concurrent initiators race on one schedule
without double-executing anything.

Buffers are float64 words, and every reduction is one np.add over a whole
buffer, as a NIC's triggered atomic adds an arriving payload into its
target: a recv may add its message's payload into a buffer (or copy it in),
and the one compute op adds a buffer into another of the same size.

A Program validates a template once and compiles it into a flat program
in the manner of an offloaded NIC's triggered operations: each op has a
counter of dependencies it still waits for (its dep count under and-logic,
1 under or-logic, 0 with none, and for a recv one more: its message), firing
an op counts down its dependents, and an op is ready when its counter
reaches 0.  The data each fire needs (headers, chain successors) is
resolved then too, into one fire record per op.  Ranks whose templates
differ only in their peers share one Program; each Engine puts its own
buffer views and send peers into the records that name them, and compiles
nothing.  Where an op other than a recv is the only dependent of its one
dependency, the two always fire back to back, so the dependency's record
names it as its successor: a straight-line chain (a recv that adds and the
next step's send, the last recv and the publishing NOP) fires as one unit,
a superoperator, as a NIC runs a triggered recv -> send chain.  Each op of
a chain is still marked consumed, counted down and reported to the
recorder on its own, in order.  One fire loop, _cascade, fires every op,
recvs included: it loads the program into locals once, follows each chain,
goes straight on to a ready dependent and keeps the others on a LIFO stack,
until the stack empties or the generation moves on.

A message that comes before its recv is ready parks its payload in the
recv's slot, MPI's unexpected-message queue with one entry per recv, and
the cascade that counts the recv down to 0 fires it from there.  Every
buffer is a slice of one byte arena, the snapshot source last, and a
replication zeroes the rest with a single fill and empties the slots.  The
arena and the slots are the engine's whole payload state.  No payload is
copied to hand it out: the owner reads the send buffer in on_snapshot and
the publish buffer in on_done, where the chain left them, before the
engine reuses them.

The engine is passive and single-threaded: it is driven by whoever owns
its rank (the simulator's event loop, the rank's socket driver thread, or
the interleaving explorer), which hands each message for this engine's
collective to deliver().  Every message meets one matching rule, _match:
its recv takes it (fires or parks), it drops, or it waits in the mailbox.
Into an empty mailbox a message meets it once, and into a non-empty one it
is appended and pumped.  The engine sends through an injected callable.  A
persistent schedule replicates itself on completion: the generation counter
bumps, op states, slots and scratch buffers reset, and messages tagged with
a future generation wait in the mailbox until their generation is current.

An op fires only on activation or a message, or as what they cascade to:
validate() rejects any other op with no deps.  Internal activation fires
the entry NOP locally.  External activation is a message arriving on an
activation-phase recv.  A hold policy, when set, defers matching of
activation-phase messages for generations it rejects; this is the hook
the staleness guard uses to degrade a round to synchronous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .transport import Message, PHASE_ACT

K_SEND, K_RECV, K_COMPUTE, K_NOP = "send", "recv", "compute", "nop"
_KINDS = (K_SEND, K_RECV, K_COMPUTE, K_NOP)
_new, _add, _frombuffer, _f8 = tuple.__new__, np.add, np.frombuffer, np.float64
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
    recv_buf: str | None = None    # a recv copies its payload in
    # compute: add src_buf into dst_buf; recv: add its payload into dst_buf
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
    Everything else zeroes when the schedule replicates.
    """

    ops: list[OpSpec]
    buffers: dict[str, int]              # name -> size in bytes
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
        bufs = self.buffers
        # one unpack of each OpSpec is much cheaper than its field lookups
        for (oid, kind, logic, deps, _, _, _, _, send_buf, recv_buf, src_buf, dst_buf,
             entry, _) in self.ops:
            if kind not in _KINDS:
                raise ScheduleError(f"unknown op kind {kind!r}")
            if not (deps or entry or kind == K_RECV):
                raise ScheduleError(f"{kind} op {oid} has no dependencies: nothing fires it")
            if logic not in ("and", "or"):
                raise ScheduleError(f"unknown dep logic {logic!r}")
            for d in deps:
                if d not in oids:
                    raise ScheduleError(f"op {oid} depends on missing op {d}")
            if kind == K_SEND and send_buf is not None and send_buf not in bufs:
                raise ScheduleError(f"send op {oid} names unknown buffer")
            if kind == K_RECV:
                if recv_buf is not None and recv_buf not in bufs:
                    raise ScheduleError(f"recv op {oid} names unknown buffer")
                if recv_buf is not None and dst_buf is not None:
                    raise ScheduleError(f"recv op {oid} both copies and adds its payload")
                if logic == "or" and len(deps) > 1:
                    raise ScheduleError(f"recv op {oid} has or-logic over {len(deps)} deps: "
                                        "its counter also counts its message")
            if kind == K_COMPUTE and (src_buf not in bufs or dst_buf not in bufs):
                raise ScheduleError(f"compute op {oid} names unknown buffer")
            if kind == K_COMPUTE and bufs[src_buf] != bufs[dst_buf]:
                raise ScheduleError(f"compute op {oid} buffer sizes differ")
            if dst_buf is not None and (dst_buf not in bufs or bufs[dst_buf] % 8):
                raise ScheduleError(f"{kind} op {oid} adds into {dst_buf!r}, which is "
                                    "not a known buffer of whole float64 words")
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


class Program:
    """A template validated and compiled once into what the fire loop reads
    that names no buffer view and no peer, shared by every engine running it.

    Each op compiles to a fire record (dependents, label, send, recv,
    reduce, tail, then).  Here send is (template peer, phase, step, buffer
    name or None), recv is (buffer name or None, whether the payload adds
    into it rather than copies) and reduce is (dst name, src name), which
    an Engine resolves to its own peer and views; `per_engine` lists those
    ops.  tail has bit 1 set if the op takes the snapshot and bit 2 if it
    publishes.  An op X whose only dependent is an op Y depending on X
    alone, and not a recv, which waits for its message too, makes Y ready
    exactly when X fires: X's `then` is Y (else -1), so a maximal
    straight-line chain runs from its head as one unit, with no readiness
    check or stack between its ops.

    Every buffer is an 8-byte-aligned slice of one arena, the snapshot
    source last, which survives replication: a replication zeroes the
    zero_nbytes bytes before it.
    """

    def __init__(self, template: ScheduleTemplate):
        dependents = template.validate()
        ops = self.ops = sorted(template.ops)  # by oid alone: the oids are distinct
        self.buffers = template.buffers
        self.snapshot_last, self.snapshot_src = template.snapshot_last, template.snapshot_src
        self.publish_from, self.persistent = template.publish_from, template.persistent
        start, end = {}, 0
        for name in sorted(template.buffers, key=lambda n: n == template.snapshot_src):
            start[name], end = end, end + -(-template.buffers[name] // 8) * 8
        self.zero_nbytes = start.get(template.snapshot_src, end)
        self.start, self.arena_nbytes = start, end
        waiting0 = bytearray(len(ops))
        recv_index = self.recv_index = {}            # (phase, step) -> recv oid
        per_engine = self.per_engine = []
        records = self.records = []
        # one unpack of each OpSpec is much cheaper than its field lookups
        for (oid, kind, logic, deps, label, peer, phase, step, send_buf, recv_buf,
             src_buf, dst_buf, entry, publish), ds in zip(ops, dependents):
            need = (1 if logic == "or" else len(deps)) if deps else 0
            need += kind == K_RECV  # a recv waits for its message too
            if need > 255:
                raise ScheduleError(f"op {oid} has more than 255 and-dependencies")
            waiting0[oid] = need
            if entry:
                self.entry = oid
            send = recv = reduce = None
            if kind == K_RECV:
                key = (phase, step)
                if key in recv_index:
                    raise ScheduleError(f"two recvs on the same (phase, step) {key}")
                recv_index[key] = oid
                recv = (recv_buf, False) if dst_buf is None else (dst_buf, True)
            elif kind == K_SEND:
                send = (peer, phase, step, send_buf)
            elif kind == K_COMPUTE:
                reduce = (dst_buf, src_buf)
            if kind != K_NOP:
                per_engine.append(oid)
            tail = (oid == template.snapshot_last) | (publish << 1)
            ds = tuple(ds)
            then = (ds[0] if len(ds) == 1 and len(ops[ds[0]].deps) == 1
                    and ops[ds[0]].kind != K_RECV else -1)
            records.append((ds, label, send, recv, reduce, tail, then))
        self.waiting0 = bytes(waiting0)


class Engine:
    """Executes one committed schedule for one rank.

    Readiness is a per-op counter of unmet dependencies, a recv's message
    among them, reset from the Program's start values on every replication
    and carried by state().  The engine neither validates nor compiles: it
    allocates its buffers and puts their views, and its own send peers, into the
    Program's fire records.  peers maps a send's (phase, step) to this
    rank's peer (default: the peers of the template the Program was
    compiled from).  A replication zeroes the arena up to the Program's
    zero_nbytes and empties every recv's slot; state() includes the arena,
    so the send buffer too, whose contribution outlives a replication, and
    the slots' parked payloads.

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
        bufs = self._buf = {name: self._arena[start[name]:start[name] + size]
                            for name, size in program.buffers.items()}
        records = list(program.records)
        for oid in program.per_engine:
            ds, label, send, recv, reduce, tail, then = records[oid]
            if send is not None:
                peer, phase, step, name = send
                send = (peer if peers is None else peers[phase, step], phase, step,
                        None if name is None else bufs[name])
            elif recv is not None:
                # an adding recv's f8 view; a copying one's memoryview, whose
                # slice assignment copies more cheaply than numpy's
                name, adds = recv
                recv = (None if name is None else bufs[name].view(_f8) if adds
                        else bufs[name].data, adds)
            else:
                reduce = (bufs[reduce[0]].view(_f8), bufs[reduce[1]].view(_f8))
            records[oid] = (ds, label, send, recv, reduce, tail, then)
        self._program = records
        self._recv_index = program.recv_index
        self._snap_buf = bufs[program.snapshot_src] if program.snapshot_src else None
        self._publish_buf = bufs[program.publish_from] if program.publish_from else None
        self.consumed = bytearray(len(records))
        self._waiting = bytearray(program.waiting0)
        self._parked: list = [None] * len(records)  # each recv's early payload, or None
        self.generation = 0
        self.done_generation = -1
        self.committed = False

    def buffer(self, name: str) -> np.ndarray:
        return self._buf[name]

    def state(self) -> tuple:
        """Everything a run changes (op states and dependency counters,
        generations, the arena, the parked payloads, the mailbox) as a
        value; restore() puts it back.  The arena holds the send buffer.  A
        parked payload is held as it came, with no copy: for bytes, as the
        simulated and explorer payloads are, the value is hashable; a socket
        payload is a bytearray, so a socket engine's parked one is not."""
        return (bytes(self.consumed) + self._waiting,
                self.generation, self.done_generation, self._arena.tobytes(),
                tuple(self._parked), tuple(self.mailbox))

    def restore(self, state: tuple) -> None:
        ops, self.generation, self.done_generation, arena, parked, box = state
        n = len(self.ops)
        self.consumed = bytearray(ops[:n])
        self._waiting = bytearray(ops[n:])
        self._parked[:] = parked
        self.mailbox[:] = box
        self._arena.data[:] = arena

    # -- lifecycle ----------------------------------------------------------

    def commit(self) -> None:
        """Arm the schedule: from now on activation fires the entry NOP and
        messages fire recvs, starting with those that came before it."""
        if self.committed:
            raise ScheduleError("schedule already committed")
        self.committed = True
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
        self._parked[:] = [None] * len(self.ops)
        self._zeroed.fill(0)

    # -- firing -------------------------------------------------------------

    def _cascade(self, stack: list[int], head: int = -1) -> None:
        """The one fire loop: fire `head`, if given, which the caller has
        found unconsumed and ready; then pop an op and, if it is unconsumed
        and ready, fire it; LIFO, until the stack empties or the generation
        moves on.  Takes ownership of `stack`.

        Firing an op marks it consumed, counts down its dependents, tells
        the recorder, sends, takes its parked payload (a recv) or reduces,
        and runs its tail.  Then the loop goes on to the op's chain
        successor, which is ready; at a chain's end, to the last of its
        dependents that is ready, pushing the other ready ones, which is
        the order pushing all of them and popping gives.  A dependent that
        is not ready when its predecessor fires would be skipped when
        popped, or found consumed after a later fire made it ready and
        pushed it again, so it is never pushed.  A recv is ready only once
        its message has parked, so the fire that counts a parked recv down
        to 0 goes on to it.  Only a tail's callbacks can move the
        generation."""
        epoch = self.generation
        # a replication swaps these arrays, but then the epoch check returns
        consumed, waiting, program = self.consumed, self._waiting, self._program
        parked, add = self._parked, _add
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
            dependents, label, send, recv, reduce, tail, then = program[oid]
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
            elif recv is not None:
                dst, adds = recv
                payload, parked[oid] = parked[oid], None
                if adds:
                    add(dst, _frombuffer(payload, _f8), out=dst)
                elif dst is not None:
                    dst[:] = payload
            elif reduce is not None:
                dst, src = reduce
                add(dst, src, out=dst)
            if tail:
                if tail & 1:
                    self._snapshot_taken()
                if tail & 2:
                    self._complete()
                if self.generation != epoch:
                    return  # replicated; the old frontier is void
            oid = then  # the chain goes on: its next op is ready now
            if oid < 0:
                for d in dependents:
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
        """Give recv `oid` its message's payload: check the payload's length
        against the recv's buffer and park it in the recv's slot, which
        counts the recv down; fire the recv now if that makes it ready,
        else the cascade that counts it down to 0 fires it."""
        if self.consumed[oid] or self._parked[oid] is not None:
            raise ScheduleError("op fired twice in one generation")
        dst = self._program[oid][3][0]
        if dst is not None and len(payload) != dst.nbytes:
            raise ScheduleError(f"recv {oid} payload {len(payload)}B != buffer {dst.nbytes}B")
        self._parked[oid] = payload
        self._waiting[oid] -= 1
        if not self._waiting[oid]:
            self._cascade([], oid)

    def _match(self, msg: Message) -> int:
        """The one rule every message meets, in this order: a past generation
        drops; a future generation, or a stream with no recv, waits; a
        consumed recv drops, and so does one that holds a parked payload (a
        duplicate for a consumable op); an activation the hold policy holds
        waits.  Returns the recv oid to give the payload to (it fires or
        parks there), or _DROP or _WAIT."""
        _, _, _, rnd, phase, step, _ = msg
        gen = self.generation
        if rnd < gen:
            return _DROP
        oid = self._recv_index.get((phase, step))
        if rnd > gen or oid is None:
            return _WAIT
        if self.consumed[oid] or self._parked[oid] is not None:
            return _DROP
        if phase == PHASE_ACT and self.hold_policy is not None and self.hold_policy(gen):
            return _WAIT
        return oid

    def deliver(self, msg: Message) -> None:
        """Take one message for this engine's collective: the call a
        transport makes for every message it delivers.

        Into an empty mailbox of a committed engine the message meets
        _match once and fires or parks, drops or waits in the mailbox, with
        no pump: a lone message that cannot match now cannot match on a
        rescan, and nothing a cascade does appends to the mailbox.  Into a
        non-empty mailbox it is appended and pumped, so it waits its turn.
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
        each one fires or parks, drops or waits.  The scan restarts from
        the front after every fire, until a scan fires nothing: one fire
        can complete the generation and replicate, making waiting messages
        current.  A park changes nothing a waiting message meets, so the
        scan goes on after it.
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
                elif not self.consumed[oid]:
                    continue  # parked
                i = 0
