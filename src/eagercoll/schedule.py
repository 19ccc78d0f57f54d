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

The engine compiles its template once, at construction, into a flat program
in the manner of an offloaded NIC's triggered operations: each op has a
counter of dependencies it still waits for (its dep count under and-logic,
1 under or-logic, 0 with none), firing an op counts down its dependents,
and an op is ready when its counter reaches 0.  The data each fire needs
(peers, tags, the value and mask views of a reduction, the seeds of a fresh
generation) is resolved then too, so the hot path reads only flat per-op
arrays.  One fire loop, _cascade, fires every op, recvs included: it binds
those arrays to locals once and runs a LIFO stack of candidates until it
empties or the generation moves on.  Every buffer but the snapshot source
is a slice of one byte arena, so a replication zeroes them all with a
single fill, and the arena plus the snapshot source is the engine's whole
payload state.  No payload is copied to hand it out: the owner reads the
send buffer in on_snapshot and the publish buffer in on_done, where the
chain left them, before the engine zeroes them.

The engine is passive and single-threaded: it is driven by whoever owns
its rank (the simulator's event loop, the rank's socket driver thread, or
the interleaving explorer), which appends each message for this engine's
collective to its mailbox and pumps it.  It sends through an injected
callable.  A persistent schedule replicates itself on completion: the
generation counter bumps, op states and scratch buffers reset, and messages
tagged with a future generation wait in the mailbox until their generation
is current.

Internal activation fires the entry NOP locally.  External activation is a
message arriving on an activation-phase recv.  A hold policy, when set,
defers matching of activation-phase messages for generations it rejects;
this is the hook the staleness guard uses to degrade a round to synchronous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .transport import Message, Tag, PHASE_ACT

K_SEND, K_RECV, K_COMPUTE, K_NOP = "send", "recv", "compute", "nop"
_KINDS = (K_SEND, K_RECV, K_COMPUTE, K_NOP)


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
    Everything else zeroes when the schedule replicates.
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
        dependents in oid order, the map the engine compiles from."""
        ids = [op.oid for op in self.ops]
        if len(set(ids)) != len(ids):
            raise DuplicateOpError("duplicate op ids")
        if sorted(ids) != list(range(len(ids))):
            raise ScheduleError("op ids must be dense 0..n-1")
        oids = range(len(ids))
        entries = [op for op in self.ops if op.entry]
        if len(entries) != 1 or entries[0].kind != K_NOP:
            raise ScheduleError("schedule needs exactly one entry NOP")
        for op in self.ops:
            if op.kind not in _KINDS:
                raise ScheduleError(f"unknown op kind {op.kind!r}")
            if op.logic not in ("and", "or"):
                raise ScheduleError(f"unknown dep logic {op.logic!r}")
            for d in op.deps:
                if d not in oids:
                    raise ScheduleError(f"op {op.oid} depends on missing op {d}")
            if op.kind == K_SEND and op.send_buf is not None and op.send_buf not in self.buffers:
                raise ScheduleError(f"send op {op.oid} names unknown buffer")
            if op.kind == K_RECV and (op.recv_buf is not None) and op.recv_buf not in self.buffers:
                raise ScheduleError(f"recv op {op.oid} names unknown buffer")
            if op.kind == K_COMPUTE:
                if op.src_buf not in self.buffers or op.dst_buf not in self.buffers:
                    raise ScheduleError(f"compute op {op.oid} names unknown buffer")
                size = self.buffers[op.dst_buf]
                if self.buffers[op.src_buf] != size:
                    raise ScheduleError(f"compute op {op.oid} buffer sizes differ")
                if self.mask_offset % 8 or not 0 <= self.mask_offset <= size:
                    raise ScheduleError(
                        f"mask_offset {self.mask_offset} is not a multiple of 8 "
                        f"within compute op {op.oid}'s {size}B buffers")
        # Kahn's algorithm: every op must be reachable through its deps
        byid = sorted(self.ops, key=lambda op: op.oid)
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
        publishers = [op for op in self.ops if op.publish]
        if len(publishers) > 1:
            raise ScheduleError("at most one publishing op")
        return dependents


class Engine:
    """Executes one committed schedule for one rank.

    Readiness is a per-op counter of unmet dependencies, reset from a
    precomputed start value on every replication and carried by state().
    The data each fire needs is compiled here, once, from the template
    (see _compile); edits to the template after construction are not seen.

    Public surface: commit(), activate_internal(), pump(), buffer(),
    state()/restore(), the mailbox the transport appends this collective's
    messages to, plus read-only state (generation, done_generation,
    consumed).  on_snapshot(generation, send buffer) and
    on_done(generation, publish buffer) get live views that are valid only
    during the call: a callback that keeps the bytes copies them.  Nothing
    here locks: one thread, the owner of the engine's rank, makes every call.
    """

    def __init__(self, template: ScheduleTemplate, rank: int, cid: int,
                 send_fn, now_fn, recorder=None,
                 on_snapshot=None, on_done=None):
        dependents = template.validate()
        self.template = template
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

        # every buffer but the snapshot source is an 8-byte-aligned slice of
        # one arena, so a replication zeroes them all with one fill
        start, end = {}, 0
        for name, size in template.buffers.items():
            if name != template.snapshot_src:
                start[name], end = end, end + -(-size // 8) * 8
        self._arena = np.zeros(end, dtype=np.uint8)
        self._buf: dict[str, np.ndarray] = {
            name: (self._arena[start[name]:start[name] + size] if name in start
                   else np.zeros(size, dtype=np.uint8))
            for name, size in template.buffers.items()
        }
        self._compile(template, dependents)
        self.consumed = bytearray(len(self.ops))
        self._waiting = bytearray(self._waiting0)
        self.generation = 0
        self.done_generation = -1
        self.committed = False

    def _compile(self, tpl: ScheduleTemplate, dependents: list[list[int]]) -> None:
        """Flatten the template into the per-op arrays the hot path reads."""
        ops = self.ops = sorted(tpl.ops, key=lambda o: o.oid)
        n = len(ops)
        bufs = self._buf
        waiting0 = bytearray(n)
        recv_deps = False
        seeds: list[int] = []
        recv_index: dict[tuple[int, int], int] = {}
        recv_dst: list[np.ndarray | None] = [None] * n
        sends: list[tuple | None] = [None] * n     # (peer, phase, step, buffer)
        computes: list[tuple | None] = [None] * n  # (dst f8, src f8, dst mask, src mask)
        mo = tpl.mask_offset
        tails = bytearray(n)  # bit 1: takes the snapshot; bit 2: publishes
        for op in ops:
            oid, kind = op.oid, op.kind
            if op.deps:
                need = 1 if op.logic == "or" else len(op.deps)
                if need > 255:
                    raise ScheduleError(f"op {oid} has more than 255 and-dependencies")
                waiting0[oid] = need
                recv_deps |= kind == K_RECV
            elif not (op.entry or kind == K_RECV):
                seeds.append(oid)
            if kind == K_RECV:
                key = (op.phase, op.step)
                if key in recv_index:
                    raise ScheduleError(f"two recvs on the same (phase, step) {key}")
                recv_index[key] = oid
                if op.recv_buf is not None:
                    recv_dst[oid] = bufs[op.recv_buf]
            elif kind == K_SEND:
                sends[oid] = (op.peer, op.phase, op.step,
                              bufs[op.send_buf] if op.send_buf else None)
            elif kind == K_COMPUTE:
                dst, src = bufs[op.dst_buf], bufs[op.src_buf]
                computes[oid] = (dst[:mo].view(np.float64), src[:mo].view(np.float64),
                                 dst[mo:], src[mo:])
            tails[oid] = (oid == tpl.snapshot_last) | (op.publish << 1)
        self._entry = next(op.oid for op in ops if op.entry)
        self._labels = [op.label for op in ops]
        self._seeds = seeds
        self._recv_index = recv_index
        self._recv_dst = recv_dst
        self._send = sends
        self._compute = computes
        self._tail = bytes(tails)
        self._waiting0 = bytes(waiting0)
        self._dependents = [tuple(ds) for ds in dependents]
        # a recv fires only when the pump matches it, so no cascade pushes one
        self._cascade_to = self._dependents if not recv_deps else [
            tuple(d for d in ds if ops[d].kind != K_RECV) for ds in dependents]
        self._snap_buf = bufs[tpl.snapshot_src] if tpl.snapshot_src else None
        self._publish_buf = bufs[tpl.publish_from] if tpl.publish_from else None
        self._persistent = tpl.persistent

    def buffer(self, name: str) -> np.ndarray:
        return self._buf[name]

    def state(self) -> tuple:
        """Everything a run changes (op states and dependency counters,
        generations, the arena and the send buffer, the mailbox) as a
        hashable value; restore() puts it back."""
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
        self._cascade(list(self._seeds))
        self.pump()

    def activate_internal(self, expected_generation: int | None = None) -> None:
        """Fire the entry NOP.  Silent no-op if this generation is already
        activated (several initiators may race), or if the schedule has moved
        past `expected_generation`."""
        if not self.committed:
            raise ScheduleError("activate before commit")
        if expected_generation is not None and self.generation != expected_generation:
            return
        self._cascade([self._entry])
        self.pump()

    def _replicate(self) -> None:
        self.generation += 1
        self.consumed = bytearray(len(self.ops))
        self._waiting = bytearray(self._waiting0)
        self._arena.fill(0)
        self._cascade(list(self._seeds))

    # -- firing -------------------------------------------------------------

    def _cascade(self, stack: list[int]) -> None:
        """The one fire loop: pop an op, fire it if it is unconsumed and
        ready, push its dependents; LIFO, until the stack empties or the
        generation moves on.  Takes ownership of `stack`."""
        epoch = self.generation
        # a replication swaps these arrays, but then the epoch check returns
        consumed, waiting = self.consumed, self._waiting
        dependents, cascade_to = self._dependents, self._cascade_to
        sends, computes, tails = self._send, self._compute, self._tail
        add, bor = np.add, np.bitwise_or
        send_fn, rank, cid = self.send_fn, self.rank, self.cid
        op_fired = None if self.recorder is None else self.recorder.op_fired
        if op_fired is not None:
            labels = self._labels
            now = self.now_fn()  # virtual time cannot move inside a cascade
        while stack:
            if self.generation != epoch:
                return  # replicated underneath us; the old frontier is void
            oid = stack.pop()
            if consumed[oid] or waiting[oid]:
                continue
            consumed[oid] = 1
            for d in dependents[oid]:
                if waiting[d]:
                    waiting[d] -= 1
            if op_fired is not None:
                op_fired(now, rank, cid, epoch, oid, labels[oid])
            send = sends[oid]
            if send is not None:
                peer, phase, step, buf = send
                # tuple.__new__ skips the NamedTuples' Python-level __new__
                send_fn(tuple.__new__(Message, (
                    rank, peer, tuple.__new__(Tag, (cid, epoch, phase, step)),
                    b"" if buf is None else buf.tobytes())))
            else:
                compute = computes[oid]
                if compute is not None:
                    dst, src, dst_mask, src_mask = compute
                    add(dst, src, out=dst)
                    bor(dst_mask, src_mask, out=dst_mask)
            tail = tails[oid]
            if tail:
                if tail & 1:
                    self._snapshot_taken()
                if tail & 2:
                    self._complete()
            stack.extend(cascade_to[oid])

    def _fire(self, oid: int) -> None:
        if self.consumed[oid]:
            raise ScheduleError("op fired twice in one generation")
        self._cascade([oid])

    def _snapshot_taken(self) -> None:
        buf = self._snap_buf
        if buf is None:
            return
        if self.on_snapshot is not None:
            self.on_snapshot(self.generation, buf)
        buf[:] = 0  # contribution consumed; the stash starts empty again

    def _complete(self) -> None:
        g = self.done_generation = self.generation
        if self.on_done is not None:
            self.on_done(g, self._publish_buf)
        if self._persistent:
            self._replicate()

    # -- message matching ---------------------------------------------------

    def _fire_recv(self, oid: int, payload: bytes) -> None:
        dst = self._recv_dst[oid]
        if dst is not None:
            if len(payload) != len(dst):
                raise ScheduleError(
                    f"recv {oid} payload {len(payload)}B != buffer {len(dst)}B")
            dst.data[:] = payload  # a memoryview copy, cheaper than numpy's
        self._fire(oid)

    def pump(self) -> None:
        """Match the mailbox's messages against this generation's recvs.

        Messages for past generations are dropped, future generations wait,
        duplicates of consumed ops are discarded, and activation-phase
        messages are skipped while the hold policy rejects the current
        generation.  The scan restarts from the front after every match,
        until a scan matches nothing: one match can complete the generation
        and replicate, making held-back messages current.
        """
        if not self.committed:
            return
        box = self.mailbox
        recv_index = self._recv_index
        gen = self.generation
        i = 0
        while i < len(box):
            _, _, (_, rnd, phase, step), payload = box[i]
            if rnd < gen:
                del box[i]
                continue
            if rnd > gen:
                i += 1
                continue
            oid = recv_index.get((phase, step))
            if oid is None:
                i += 1
                continue
            if self.consumed[oid]:
                del box[i]  # duplicate for a consumable op: ignore
                continue
            if (phase == PHASE_ACT and self.hold_policy is not None
                    and self.hold_policy(gen)):
                i += 1
                continue
            if self._waiting[oid]:
                i += 1
                continue
            del box[i]
            self._fire_recv(oid, payload)
            if self.generation != gen:
                if self.defer_fn is not None:
                    self.defer_fn(self.pump)
                    return
                gen = self.generation
            i = 0
