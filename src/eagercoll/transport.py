"""Point-to-point message transport with two interchangeable backends.

The simulated backend runs logical processes as generators over a virtual
clock (integer microseconds) and delivers messages through a single global
event queue, so a run is a deterministic function of its inputs.  The socket
backend runs the same process bodies over one kernel socketpair and one
reader thread per rank, created with the transport (so it must be closed),
and one driver thread per rank that alone delivers that rank's messages; it
demonstrates that nothing in the upper layers depends on simulation.

A logical process is a generator that yields command objects:

    Sleep(us)            suspend for a duration (virtual or wall time)
    WaitRound(handle, t) block until `handle` has completed round >= t; the
                         process resumes with the CollectiveResult of the
                         latest round the handle has published

Processes never receive messages themselves.  Each message goes to the
schedule engine registered for (dst, cid): the delivery calls that
engine's deliver() and touches no other engine.  Messages of one stream,
a (src, dst, cid, phase, step) key, are delivered in FIFO order; the
simulated backend runs simultaneous events by (time, priority, push order)
with process resumption ahead of message delivery, which keeps zero-skew
runs exactly synchronous.  Its queue orders only the distinct due times:
each instant has two FIFO queues, its resumes and its deliveries (messages
and deferred calls), and each entry is bare.
"""

from __future__ import annotations

import contextlib
from collections import deque
import heapq
import math
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import key_pcg64, key_states

# A rank is a plain int in [0, p).  Validated at the transport boundary.
Rank = int

# Message phases used by the collective layer.
PHASE_ACT = 0
PHASE_RED = 1


class Message(NamedTuple):
    """One point-to-point message, flat: its first six fields are the
    socket frame's header (_FRAME), in order.  cid names the collective,
    rnd the generation, and (phase, step) the stream within it."""

    src: Rank
    dst: Rank
    cid: int
    rnd: int
    phase: int
    step: int
    payload: bytes


@dataclass
class Sleep:
    us: int


@dataclass
class WaitRound:
    handle: object
    generation: int


class TransportClosed(RuntimeError):
    pass


class UnknownRank(ValueError):
    pass


class DeadlockError(RuntimeError):
    """Raised when the event queue drains while processes are still blocked."""


class UnroutedMessage(LookupError):
    """A message arrived for a (rank, cid) that has no registered engine."""


# ---------------------------------------------------------------------------
# delay models


DELAY_KINDS = ("none", "constant", "linear_skew", "random_subset")


@dataclass(frozen=True)
class DelayModel:
    """Per-round injected computation delay.

    kind:
      none           no delay anywhere
      constant       every rank sleeps unit_ms each round
      linear_skew    rank r sleeps (r + 1) * unit_ms each round
      random_subset  k distinct ranks, drawn per round from `seed`, sleep
                     unit_ms; everyone else runs undelayed
    """

    kind: str = "none"
    unit_ms: float = 0.0
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DELAY_KINDS:
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if not 0 <= self.unit_ms < math.inf:
            raise ValueError("unit_ms must be finite and >= 0")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def delay_table(model: DelayModel, p: int, rounds: int) -> np.ndarray:
    """Every rank's delay in microseconds for every round, as int64
    table[rank, rnd]: the one statement of the delay model.

    A random_subset column t is drawn from default_rng([seed, t]) alone, so
    replaying a round re-draws the same set, and the first r columns do not
    depend on how many rounds are drawn. The keys are hashed together
    (models.key_states), so each column's bytes equal default_rng's, which a
    test holds to the installed numpy."""
    us = round(model.unit_ms * 1000)
    table = np.zeros((p, rounds), dtype=np.int64)
    if model.kind == "constant":
        table[:] = us
    elif model.kind == "linear_skew":
        table[:] = [[round((r + 1) * model.unit_ms * 1000)] for r in range(p)]
    elif model.kind == "random_subset":
        for t, state in enumerate(key_states(model.seed, np.arange(rounds))):
            rng = np.random.Generator(key_pcg64(state))
            table[rng.choice(p, size=min(model.k, p), replace=False), t] = us
    return table


# ---------------------------------------------------------------------------
# rank checks and engine routing (both backends)


def _check_ranks(p: int, *ranks: Rank) -> None:
    for rank in ranks:
        if not 0 <= rank < p:
            raise UnknownRank(f"rank {rank} outside [0, {p})")


def _add_engine(engines: list[dict], rank: Rank, engine) -> None:
    _check_ranks(len(engines), rank)
    if engine.cid in engines[rank]:
        raise ValueError(f"rank {rank} already has an engine for cid {engine.cid}")
    engines[rank][engine.cid] = engine


def _unrouted(msg: Message) -> UnroutedMessage:
    return UnroutedMessage(f"no engine for cid {msg.cid} at rank {msg.dst}")


# ---------------------------------------------------------------------------
# simulated backend

_MAX_EVENTS = 50_000_000  # a run past this many events is taken for a livelock


class SimTransport:
    """Deterministic discrete-event transport.

    Every send is delivered after `link_latency_us`; there is no loss and no
    reordering within a stream.  A delivery goes to the one engine
    registered for (dst, cid), so schedules make progress without any
    process being scheduled.

    The queue is a heap of the distinct due times and, per due time, a
    (resumes, deliveries) pair of deques in push order.  A resume is a
    (rank, value) pair, a delivery a Message or a deferred callable.  At an
    instant, every pending resume runs before the next delivery, so a
    process woken by a delivery runs before the deliveries still due then.
    """

    def __init__(self, p: int, link_latency_us: int = 0):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self.link_latency_us = int(link_latency_us)
        self._now_us = 0
        self._times: list[int] = []  # heap of the due times that have a slot
        self._slots: dict[int, tuple[deque, deque]] = {}
        self._engines: list[dict] = [{} for _ in range(p)]
        self._procs: dict[int, object] = {}  # the live bodies, each sleeping or blocked
        self.events_processed = 0

    # -- time ---------------------------------------------------------------

    def now_us(self) -> int:
        return self._now_us

    # -- wiring -------------------------------------------------------------

    def register_engine(self, rank: Rank, engine) -> None:
        _add_engine(self._engines, rank, engine)
        engine.defer_fn = self.defer

    def defer(self, fn) -> None:
        """Run fn at the current virtual time, after any pending same-time
        process resumes (delivery priority)."""
        self._slot(self._now_us)[1].append(fn)

    def spawn(self, rank: Rank, proc) -> None:
        _check_ranks(self.p, rank)
        if rank in self._procs:
            raise ValueError(f"rank {rank} already has a process")
        self._procs[rank] = proc
        self._slot(self._now_us)[0].append((rank, None))

    def _slot(self, t: int) -> tuple[deque, deque]:
        """The (resumes, deliveries) deques of due time t.  Every slot is due
        at or after now, so only a new one can be in the past."""
        slot = self._slots.get(t)
        if slot is None:
            if t < self._now_us:  # e.g. a process yielded a negative Sleep
                raise ValueError("clock may not move backwards")
            slot = self._slots[t] = (deque(), deque())
            heapq.heappush(self._times, t)
        return slot

    # -- sending ------------------------------------------------------------

    def send(self, msg: Message) -> None:
        src, dst = msg.src, msg.dst
        if not (0 <= src < self.p and 0 <= dst < self.p):
            _check_ranks(self.p, src, dst)
        t = self._now_us + self.link_latency_us
        (self._slots.get(t) or self._slot(t))[1].append(msg)

    # -- event loop ---------------------------------------------------------

    def run(self) -> None:
        """Drain the event queue, one instant at a time.

        An entry is taken off its deque before it runs, so a raise leaves
        in the queue only the events that have not run, and a body that
        raised leaves the world.  Raises DeadlockError if the queue empties
        while processes are still blocked on WaitRound: with no pending
        events nothing can ever wake them, and every body still live then
        is one of them.
        """
        times, slots, engines, step = self._times, self._slots, self._engines, self._step_proc
        events, budget = self.events_processed, _MAX_EVENTS
        try:
            while times:
                t = times[0]
                self._now_us = t
                resumes, later = slots[t]
                while True:
                    while resumes:
                        rank, value = resumes.popleft()
                        events += 1
                        if events > budget:
                            raise RuntimeError("event budget exceeded; likely livelock")
                        step(rank, value)
                    if not later:
                        break
                    e = later.popleft()
                    events += 1
                    if events > budget:
                        raise RuntimeError("event budget exceeded; likely livelock")
                    if type(e) is Message:
                        eng = engines[e.dst].get(e.cid)
                        if eng is None:
                            raise _unrouted(e)
                        eng.deliver(e)
                    else:
                        e()
                heapq.heappop(times)
                del slots[t]
        finally:
            self.events_processed = events
        if self._procs:
            raise DeadlockError(f"ranks {sorted(self._procs)} blocked with no pending events")

    def _step_proc(self, rank: Rank, value) -> None:
        proc = self._procs.pop(rank)  # back only once it sleeps or blocks
        try:
            cmd = proc.send(value)
        except StopIteration:
            return
        if isinstance(cmd, Sleep):
            self._slot(self._now_us + int(cmd.us))[0].append((rank, None))
        elif isinstance(cmd, WaitRound):
            cmd.handle.add_waiter(cmd.generation, rank, self._wake_round)
        else:
            raise TypeError(f"process yielded {cmd!r}")
        self._procs[rank] = proc

    def _wake_round(self, rank: Rank, result) -> None:
        self._slot(self._now_us)[0].append((rank, result))


# ---------------------------------------------------------------------------
# socket backend

_FRAME = struct.Struct("<iiiqiiI")  # Message's fields up to payload, then its length
_JOIN_TIMEOUT_S = 2.0  # a join of a thread set waits no longer than this in all


def _join_all(threads) -> None:
    deadline = time.monotonic() + _JOIN_TIMEOUT_S
    for th in threads:
        th.join(max(0.0, deadline - time.monotonic()))


class SocketTransport:
    """The same process bodies on threads over kernel byte streams.

    Each rank gets a socketpair, a lock and a reader thread that parses the
    frames on it onto the rank's inbox, all made by the constructor: a
    SocketTransport runs p reader threads from then on and must be closed.
    send() writes each frame from the calling thread, under the destination's
    lock.  Only a rank's driver thread (see run_processes) hands its inbox to
    its engines, so every engine has one owner thread and needs no lock.
    Timing comes from the wall clock, so nothing here is deterministic.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self._t0 = time.monotonic_ns()
        self._engines: list[dict] = [{} for _ in range(p)]
        self._inbox = [queue.SimpleQueue() for _ in range(p)]
        pairs = [socket.socketpair() for _ in range(p)]
        self._tx = [w for w, _ in pairs]
        self._socks = [s for pair in pairs for s in pair]
        # Holding dst's lock across sendall keeps frames whole and each stream
        # FIFO, and cannot deadlock: a blocked sendall waits only on dst's
        # reader, which takes no lock and blocks only on its own socket.
        self._locks = [threading.Lock() for _ in range(p)]
        self._sent = [0] * p  # frames sent per destination, counted before the write
        self._delivered = 0  # frames handed to an engine, under run_processes' condition
        self._threads = [threading.Thread(target=self._reader, args=(r, inbox), daemon=True)
                         for (_, r), inbox in zip(pairs, self._inbox)]
        for th in self._threads:
            th.start()
        self._open = True

    def now_us(self) -> int:
        return (time.monotonic_ns() - self._t0) // 1000

    def register_engine(self, rank: Rank, engine) -> None:
        _add_engine(self._engines, rank, engine)

    @classmethod
    def _reader(cls, conn: socket.socket, inbox: queue.SimpleQueue) -> None:
        with contextlib.suppress(OSError):  # close() shut the socket down
            while (header := cls._read_exact(conn, _FRAME.size)) is not None:
                *head, n = _FRAME.unpack(header)
                payload = cls._read_exact(conn, n)
                if payload is None:
                    return
                inbox.put(Message(*head, payload))

    @staticmethod
    def _read_exact(conn: socket.socket, n: int) -> bytearray | None:
        """The next n bytes of the stream, in the buffer they were read
        into, or None at end-of-stream."""
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            k = conn.recv_into(view[got:])
            if not k:
                return None
            got += k
        return buf

    def send(self, msg: Message) -> None:
        if not self._open:
            raise TransportClosed("send on closed transport")
        _check_ranks(self.p, msg.src, msg.dst)
        dst = msg.dst
        header = _FRAME.pack(*msg[:6], len(msg.payload))
        with self._locks[dst]:
            self._sent[dst] += 1  # before the reader can see the frame
            self._tx[dst].sendall(header)
            self._tx[dst].sendall(msg.payload)

    def run_processes(self, bodies: dict[int, object], timeout: float = 60.0) -> None:
        """Drive generator process bodies to completion, one driver thread
        per rank of the world; a rank with no body only serves.

        A rank's driver is the only thread that hands its messages to its
        engines: it delivers the rank's inbox while the body sleeps, while
        it waits for a round and, once the body has finished, until the run
        stops.  The run stops when every body has finished and every frame
        sent has been handed over (counted once its deliver() has returned,
        so after the frames that delivery sent), when a driver fails (an
        UnroutedMessage, say) or at the timeout; all drivers are joined
        before it returns."""
        _check_ranks(self.p, *bodies)
        errors: list = []
        finished: list = []
        progress = threading.Condition()
        stopped = threading.Event()

        def deliver(rank: int, done, deadline: float = math.inf) -> None:
            """Deliver rank's inbox until done() holds, the deadline passes
            or the run stops."""
            engines, inbox = self._engines[rank], self._inbox[rank]
            while not (done() or stopped.is_set()):
                wait = deadline - time.monotonic()
                if wait <= 0:
                    return
                try:
                    msg = inbox.get(timeout=None if wait == math.inf else wait)
                except queue.Empty:
                    return
                if msg is None:  # a None only wakes this loop up
                    continue
                try:
                    eng = engines.get(msg.cid)
                    if eng is None:
                        raise _unrouted(msg)
                    eng.deliver(msg)
                finally:  # one that raised counts too, or a later run would wait on it
                    with progress:
                        self._delivered += 1
                        if len(finished) == self.p:
                            progress.notify_all()

        def driver(rank: int, proc) -> None:
            value = None
            try:
                while not stopped.is_set():
                    try:
                        cmd = proc.send(value)
                    except StopIteration:
                        break
                    value = None
                    if isinstance(cmd, Sleep):
                        deliver(rank, lambda: False, time.monotonic() + cmd.us / 1e6)
                    elif isinstance(cmd, WaitRound):
                        woken: list = []
                        cmd.handle.add_waiter(cmd.generation, rank,
                                              lambda _, res: woken.append(res))
                        deliver(rank, lambda: woken)
                        value = woken[0] if woken else None
                    else:
                        raise TypeError(f"process yielded {cmd!r}")
                with progress:
                    finished.append(rank)
                    progress.notify_all()
                deliver(rank, lambda: False)
            except Exception as e:  # surfaced after join
                with progress:
                    errors.append((rank, e))
                    progress.notify_all()

        threads = [threading.Thread(target=driver, daemon=True,
                                    args=(rank, bodies.get(rank, (_ for _ in ()))))
                   for rank in range(self.p)]
        for th in threads:
            th.start()
        with progress:
            ended = progress.wait_for(
                lambda: errors or (len(finished) == self.p
                                   and sum(self._sent) == self._delivered), timeout)
        stopped.set()
        for inbox in self._inbox:
            inbox.put(None)
        _join_all(threads)
        if errors:
            rank, err = errors[0]
            raise RuntimeError(f"rank {rank} failed: {err!r}") from err
        if not ended:
            raise TimeoutError("run did not finish within the timeout")

    def close(self) -> None:
        """Refuse further sends, shut every socket down, which wakes a
        blocked sendall or recv, join the readers, then close the sockets."""
        self._open = False
        for s in self._socks:
            with contextlib.suppress(OSError):
                s.shutdown(socket.SHUT_RDWR)
        _join_all(self._threads)
        for s in self._socks:
            s.close()
