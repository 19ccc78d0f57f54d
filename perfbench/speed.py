"""Machine-speed reference for scaling wall times.

The machines this benchmark runs on share their cores with other tenants,
and the speed a process gets drifts by 20-50% over seconds to minutes (on
the 2-CPU box the benchmark was tuned on, a fixed simulation pass took
anywhere from 0.13 s to 0.31 s within two minutes).  A median over one run
cannot remove a drift that lasts the whole run.  So a fixed reference
computation runs before and after every timed operation, and the
operation's wall time is multiplied by
``(NOMINAL_S[kind] / reference time) ** EXPONENT``, with the mean of
the two samples as the reference time.  Both slow down together, so the
product swings less than the raw wall time: over two sets of ten runs of
bench-wide, the spread (interquartile range over median) of
rank_rounds_per_s was 7% and 6% scaled against 19% and 11% raw, and the
scaled median moved 3% between the sets where the raw one moved 21%.

There are two references because the drift hits interpreter-bound and
memory-bound code differently:

* ``interpreter``: a small discrete-event loop (heap, generators, frozen
  dataclasses, small numpy adds), the instruction mix of the simulator's
  control path;
* ``memory``: adds and byte copies of a 4 MiB array, the instruction mix of
  the payload path.

The references never change with the library, so a faster library shows up
as a smaller scaled time.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass

import numpy as np

# Reference times on an idle 2-CPU x86-64 box; they only fix the scale.
NOMINAL_S = {"interpreter": 0.040, "memory": 0.045}
# How an operation's time follows its reference's: time ~ reference**EXPONENT.
# On that box the fitted exponent ranged from 0.5 (bench-wide against the
# interpreter reference, 10 s segments over 90 s, correlation 0.92) to about
# 1 (bench-fat against the memory reference) and moved with the neighbours'
# load; 0.75 gave the smallest worst spread over two sets of five runs of
# every workload.
EXPONENT = 0.75


@dataclass(frozen=True)
class _Msg:
    src: int
    dst: int
    tag: tuple
    payload: bytes


def _proc(rank: int, rounds: int, box: list, buf: np.ndarray):
    for t in range(rounds):
        yield (rank * 7 + t) % 13
        buf += 1.0
        box.append(_Msg(rank, (rank + 1) % 16, (0, t, 1, t & 3), buf.tobytes()))


def _interpreter() -> None:
    for _ in range(4):
        heap, seq = [], 0
        boxes = [[] for _ in range(16)]
        bufs = [np.zeros(8) for _ in range(16)]
        procs = {r: _proc(r, 150, boxes[r], bufs[r]) for r in range(16)}
        for r in procs:
            heapq.heappush(heap, (0, seq, r))
            seq += 1
        while heap:
            t, _, r = heapq.heappop(heap)
            try:
                dt = procs[r].send(None)
            except StopIteration:
                continue
            heapq.heappush(heap, (t + dt, seq, r))
            seq += 1
            box = boxes[r]
            if len(box) > 4:
                m = box.pop(0)
                np.add(bufs[r], np.frombuffer(m.payload), out=bufs[r])


_BIG = np.arange(1 << 19, dtype=np.float64)


def _memory() -> None:
    b = _BIG.copy()
    for _ in range(40):
        np.add(b, _BIG, out=b)
        b.tobytes()


_REFERENCES = {"interpreter": _interpreter, "memory": _memory}


class Speed:
    """Reference sampler.  Call it between operations; ``scale(before,
    after)`` turns the samples that bracket an operation into the factor for
    its wall time.  ``Speed(None)`` runs no reference and scales by 1."""

    def __init__(self, kind: str | None):
        self.kind = kind
        self.samples: list[float] = []   # reference wall times, seconds

    def __call__(self) -> float:
        if self.kind is None:
            return 0.0
        # A collection here would scan whatever the library left alive and
        # tie the reference's time to the library's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _REFERENCES[self.kind]()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        return dt

    def scale(self, before: float, after: float) -> float:
        if self.kind is None:
            return 1.0
        return (NOMINAL_S[self.kind] / ((before + after) / 2)) ** EXPONENT
