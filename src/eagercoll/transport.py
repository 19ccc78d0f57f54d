"""Point-to-point message transport with two interchangeable backends.

The simulated backend runs logical processes as generators over a virtual
clock (integer microseconds) and delivers messages through a single global
event queue, so a run is a deterministic function of its inputs.  The socket
backend runs the same process bodies on OS threads over kernel socketpairs,
one link with its own writer queue per directed rank pair, and is used to
demonstrate that nothing in the upper layers depends on simulation.

A logical process is a generator that yields command objects:

    Sleep(us)            suspend for a duration (virtual or wall time)
    WaitRound(handle, t) block until `handle` has completed round >= t

Processes never receive messages themselves.  Each message goes to the
schedule engine registered for (dst, tag.cid): the delivery appends it to
that engine's mailbox and pumps that engine alone.  Messages between one
(src, dst, tag-stream) triple are delivered in FIFO order; the simulated
backend orders simultaneous events by (time, priority, sequence) with
process resumption ahead of message delivery, which keeps zero-skew runs
exactly synchronous.  Each of its events is a heap entry (time, priority,
sequence, handler, arg) that carries its own handler, which the event loop
calls as handler(arg); the sequence number is unique, so handlers are never
compared.
"""

from __future__ import annotations

import contextlib
import heapq
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# A rank is a plain int in [0, p).  Validated at the transport boundary.
Rank = int

# Tag phases used by the collective layer.
PHASE_ACT = 0
PHASE_RED = 1


class Tag(NamedTuple):
    """Stream identifier: (collective id, round, phase, step)."""

    cid: int
    rnd: int
    phase: int
    step: int


class Message(NamedTuple):
    src: Rank
    dst: Rank
    tag: Tag
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
        if self.unit_ms < 0:
            raise ValueError("unit_ms must be >= 0")
        if self.k < 0:
            raise ValueError("k must be >= 0")


def delayed_ranks(model: DelayModel, rnd: int, p: int) -> tuple[int, ...]:
    """The set of ranks a random_subset model delays in round `rnd`.

    Pure function of (seed, rnd, p): replaying a round re-draws the same set.
    """
    k = min(model.k, p)
    rng = np.random.default_rng([model.seed, rnd])
    return tuple(int(r) for r in rng.choice(p, size=k, replace=False))


def inject_delay(rank: Rank, rnd: int, model: DelayModel, p: int) -> int:
    """Delay in microseconds for `rank` in round `rnd` under `model`."""
    if model.kind == "none":
        return 0
    if model.kind == "constant":
        return int(round(model.unit_ms * 1000))
    if model.kind == "linear_skew":
        return int(round((rank + 1) * model.unit_ms * 1000))
    if model.kind == "random_subset":
        if rank in delayed_ranks(model, rnd, p):
            return int(round(model.unit_ms * 1000))
        return 0
    raise ValueError(model.kind)


# ---------------------------------------------------------------------------
# engine routing (both backends)


def _add_engine(engines: dict, rank: Rank, engine) -> None:
    if engine.cid in engines:
        raise ValueError(f"rank {rank} already has an engine for cid {engine.cid}")
    engines[engine.cid] = engine


def _engine_for(engines: dict, msg: Message):
    eng = engines.get(msg.tag.cid)
    if eng is None:
        raise UnroutedMessage(f"no engine for cid {msg.tag.cid} at rank {msg.dst}")
    return eng


# ---------------------------------------------------------------------------
# simulated backend

_PRIO_RESUME = 0  # process resumptions run before message deliveries
_PRIO_DELIVER = 1


def _call(fn) -> None:
    fn()


class SimTransport:
    """Deterministic discrete-event transport.

    Every send is delivered after `link_latency_us`; there is no loss and no
    reordering within a (src, dst, tag-stream).  A delivery pumps the one
    engine registered for (dst, cid), so schedules make progress without
    any process being scheduled.
    """

    def __init__(self, p: int, link_latency_us: int = 0):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self.link_latency_us = int(link_latency_us)
        self._now_us = 0
        self._heap: list = []
        self._seq = 0
        self._engines: list[dict] = [{} for _ in range(p)]
        self._procs: dict[int, object] = {}
        self._parked_round: dict[int, tuple] = {}
        self._open = True
        self.events_processed = 0

    # -- time ---------------------------------------------------------------

    def now_us(self) -> int:
        return self._now_us

    # -- wiring -------------------------------------------------------------

    def register_engine(self, rank: Rank, engine) -> None:
        self._check_rank(rank)
        _add_engine(self._engines[rank], rank, engine)
        engine.defer_fn = self.defer

    def defer(self, fn) -> None:
        """Run fn at the current virtual time, after any pending same-time
        process resumes (delivery priority)."""
        self._push(self._now_us, _PRIO_DELIVER, _call, fn)

    def spawn(self, rank: Rank, proc) -> None:
        self._check_rank(rank)
        if rank in self._procs:
            raise ValueError(f"rank {rank} already has a process")
        self._procs[rank] = proc
        self._push(self._now_us, _PRIO_RESUME, self._step_proc, (rank, None))

    def _check_rank(self, rank: Rank) -> None:
        if not (0 <= rank < self.p):
            raise UnknownRank(f"rank {rank} outside [0, {self.p})")

    def _push(self, t: int, prio: int, handler, arg) -> None:
        heapq.heappush(self._heap, (t, prio, self._seq, handler, arg))
        self._seq += 1

    # -- sending ------------------------------------------------------------

    def send(self, msg: Message) -> None:
        if not self._open:
            raise TransportClosed("send on closed transport")
        src, dst = msg.src, msg.dst
        if not (0 <= src < self.p and 0 <= dst < self.p):
            self._check_rank(src)
            self._check_rank(dst)
        heapq.heappush(self._heap, (self._now_us + self.link_latency_us, _PRIO_DELIVER,
                                    self._seq, self._deliver, msg))
        self._seq += 1

    # -- event loop ---------------------------------------------------------

    def run(self, until_us: int | None = None, max_events: int = 50_000_000) -> None:
        """Drain the event queue (optionally up to a virtual time bound).

        Raises DeadlockError if the queue empties while processes are still
        blocked on WaitRound: with no pending events nothing can ever wake
        them.
        """
        heap, pop = self._heap, heapq.heappop
        while heap:
            if until_us is not None and heap[0][0] > until_us:
                return
            t, _, _, handler, arg = pop(heap)
            if t < self._now_us:  # e.g. a process yielded a negative Sleep
                raise ValueError("clock may not move backwards")
            self._now_us = t
            self.events_processed += 1
            if self.events_processed > max_events:
                raise RuntimeError("event budget exceeded; likely livelock")
            handler(arg)
        if self._parked_round:
            raise DeadlockError(
                f"ranks {sorted(self._parked_round)} blocked with no pending events")

    def _deliver(self, msg: Message) -> None:
        eng = self._engines[msg.dst].get(msg.tag.cid)
        if eng is None:
            _engine_for(self._engines[msg.dst], msg)  # raises UnroutedMessage
        eng.mailbox.append(msg)
        eng.pump()

    def _step_proc(self, resume: tuple) -> None:
        rank, value = resume
        proc = self._procs.get(rank)
        if proc is None:
            return
        try:
            cmd = proc.send(value)
        except StopIteration:
            del self._procs[rank]
            return
        if isinstance(cmd, Sleep):
            self._push(self._now_us + int(cmd.us), _PRIO_RESUME, self._step_proc, (rank, None))
        elif isinstance(cmd, WaitRound):
            h, g = cmd.handle, cmd.generation
            if h.done_generation >= g:
                self._push(self._now_us, _PRIO_RESUME, self._step_proc,
                           (rank, h.latest_result()))
            else:
                self._parked_round[rank] = (h, g)
                h.add_waiter(g, rank, self._wake_round)
        else:
            raise TypeError(f"process yielded {cmd!r}")

    def _wake_round(self, rank: Rank, result) -> None:
        if rank in self._parked_round:
            del self._parked_round[rank]
            self._push(self._now_us, _PRIO_RESUME, self._step_proc, (rank, result))

    def close(self) -> None:
        self._open = False


# ---------------------------------------------------------------------------
# socket backend

_FRAME = struct.Struct("<iiiqiiI")  # src, dst, cid, rnd, phase, step, paylen
_JOIN_TIMEOUT_S = 2.0  # a join of a thread set waits no longer than this in all


def _join_all(threads) -> None:
    deadline = time.monotonic() + _JOIN_TIMEOUT_S
    for th in threads:
        th.join(max(0.0, deadline - time.monotonic()))


class SocketTransport:
    """The same process bodies on threads over kernel byte streams.

    Each directed (src, dst) pair gets a link on its first send: a socketpair,
    a queue, a writer thread that sendalls the queued frames in order and a
    reader thread that delivers them.  send() only enqueues, so no engine lock
    is held across socket I/O, and one queue per writer keeps streams FIFO.
    Timing comes from the wall clock, so nothing here is deterministic.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self._t0 = time.monotonic_ns()
        self._engines: list[dict] = [{} for _ in range(p)]
        self._queues: dict[tuple[int, int], queue.SimpleQueue] = {}
        self._socks: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._link_lock = threading.Lock()
        self._reader_errors: list = []  # (rank, error) of each reader an error stopped
        self._progress = threading.Condition()  # reader errors, finished drivers
        self._open = True

    def now_us(self) -> int:
        return (time.monotonic_ns() - self._t0) // 1000

    def register_engine(self, rank: Rank, engine) -> None:
        _add_engine(self._engines[rank], rank, engine)

    def _link(self, src: Rank, dst: Rank) -> queue.SimpleQueue:
        with self._link_lock:
            q = self._queues.get((src, dst))
            if q is None:
                if not self._open:
                    raise TransportClosed("send on closed transport")
                q = self._queues[(src, dst)] = queue.SimpleQueue()
                w, r = socket.socketpair()
                self._socks += (w, r)
                for target, args in ((self._writer, (w, q)), (self._reader, (dst, r))):
                    th = threading.Thread(target=target, args=args, daemon=True)
                    th.start()
                    self._threads.append(th)
            return q

    @staticmethod
    def _writer(sock: socket.socket, q: queue.SimpleQueue) -> None:
        with contextlib.suppress(OSError):  # close() shut the socket down
            for frame in iter(q.get, None):  # close() enqueues None
                sock.sendall(frame)

    def _reader(self, rank: int, conn: socket.socket) -> None:
        try:
            while True:
                hdr = self._read_exact(conn, _FRAME.size)
                if hdr is None:
                    return
                src, dst, cid, rnd, phase, step, n = _FRAME.unpack(hdr)
                payload = self._read_exact(conn, n)
                if payload is None:
                    return
                msg = Message(src, dst, Tag(cid, rnd, phase, step), payload)
                eng = _engine_for(self._engines[dst], msg)
                with eng.lock:
                    eng.mailbox.append(msg)
                    eng.pump()
        except OSError:
            return
        except Exception as e:  # e.g. UnroutedMessage; run_processes raises it
            with self._progress:
                self._reader_errors.append((rank, e))
                self._progress.notify_all()

    @staticmethod
    def _read_exact(conn: socket.socket, n: int) -> bytes | None:
        """The next n bytes of the stream, or None at end-of-stream."""
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            k = conn.recv_into(view[got:])
            if not k:
                return None
            got += k
        return bytes(buf)

    def send(self, msg: Message) -> None:
        if not self._open:
            raise TransportClosed("send on closed transport")
        if not (0 <= msg.dst < self.p):
            raise UnknownRank(str(msg.dst))
        q = self._queues.get((msg.src, msg.dst)) or self._link(msg.src, msg.dst)
        t = msg.tag
        q.put(_FRAME.pack(msg.src, msg.dst, t.cid, t.rnd, t.phase, t.step,
                          len(msg.payload)) + msg.payload)

    def run_processes(self, bodies: dict[int, object], timeout: float = 60.0) -> None:
        """Drive generator process bodies to completion, one thread per rank.

        A rank parked on WaitRound registers a waiter on its handle, as in the
        simulator, under the engine's lock that readers publish rounds under.
        A reader error or the timeout fails the run and wakes every parked
        rank, so all drivers are joined before the error is raised."""
        errors: list = []
        finished: list = []
        inbox = {rank: queue.SimpleQueue() for rank in bodies}
        failed = threading.Event()

        def wake(rank: int, result) -> None:
            inbox[rank].put(result)

        def driver(rank: int, proc) -> None:
            value = None
            try:
                while not failed.is_set():
                    try:
                        cmd = proc.send(value)
                    except StopIteration:
                        return
                    if isinstance(cmd, Sleep):
                        failed.wait(cmd.us / 1e6)
                        value = None
                    elif isinstance(cmd, WaitRound):
                        h, g = cmd.handle, cmd.generation
                        with h.engine.lock:
                            if h.done_generation >= g:
                                wake(rank, h.latest_result())
                            else:
                                h.add_waiter(g, rank, wake)
                        value = inbox[rank].get()
                    else:
                        raise TypeError(f"process yielded {cmd!r}")
            except Exception as e:  # surfaced after join
                errors.append((rank, e))
            finally:
                with self._progress:
                    finished.append(rank)
                    self._progress.notify_all()

        threads = [threading.Thread(target=driver, args=item, daemon=True)
                   for item in bodies.items()]
        for th in threads:
            th.start()
        with self._progress:
            self._progress.wait_for(
                lambda: len(finished) == len(threads) or self._reader_errors, timeout)
            stuck = len(finished) < len(threads)
        if stuck:
            failed.set()
            for q in inbox.values():
                q.put(None)
        _join_all(threads)
        if self._reader_errors:
            rank, err = self._reader_errors[0]
            raise RuntimeError(f"reader for rank {rank} failed: {err!r}") from err
        if stuck:
            raise TimeoutError("process thread did not finish")
        if errors:
            rank, err = errors[0]
            raise RuntimeError(f"rank {rank} failed: {err!r}") from err

    def close(self) -> None:
        """Stop the writers, shut every socket down, which wakes a blocked
        sendall or recv, join the link threads, then close the sockets."""
        with self._link_lock:
            self._open = False
        for q in self._queues.values():
            q.put(None)
        for s in self._socks:
            with contextlib.suppress(OSError):
                s.shutdown(socket.SHUT_RDWR)
        _join_all(self._threads)
        for s in self._socks:
            s.close()
