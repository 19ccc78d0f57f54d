"""In-memory run traces: per-round results and contribution snapshots.

The verifier consumes these records directly.  A vector larger than one
page (_SHARE_NBYTES) that equals one the recorder already holds is not
kept twice: a round's later results whose bytes equal its first one share
that round's first array, a fresh snapshot whose bytes equal its rank's
last kept fresh one shares that array, and a stale snapshot of all-zero
bytes shares one read-only zero vector of its size.  Bytes are compared as
uint64, so -0.0 and +0.0 are kept apart.  Smaller vectors are recorded as
they come.  So a recorded array must not be mutated: replace it instead,
as the tamper helpers in tests/test_verify.py do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SHARE_NBYTES = 4096  # only vectors larger than one page are shared


@dataclass
class CollectiveResult:
    """One rank's outcome of one round, as the call returns it; its nap is
    derived from included, never stored.  The trace keeps it as it is, or a
    copy sharing the round's first u (see the module docstring)."""

    rank: int
    rnd: int
    u: np.ndarray        # reduced vector, divided by p
    included: int        # bitmask: bit r set iff rank r's fresh value is in u

    @property
    def nap(self) -> int:  # the number of actual participants
        return self.included.bit_count()


@dataclass
class SnapshotRecord:
    rank: int
    rnd: int
    data: np.ndarray       # contribution consumed from the send buffer
    fresh: bool            # the rank offered a value for rnd before the snapshot


@dataclass
class TraceRecorder:
    """Collects everything a run produces that the checkers need.

    round_done and snapshot may be called from every rank's thread at
    once (the socket backend); each decides what it shares with one
    dict.setdefault, so two threads never keep different first vectors,
    or through a key only one thread writes: a rank's last fresh snapshot,
    which only that rank's driver thread records."""

    rounds: list[CollectiveResult] = field(default_factory=list)
    snapshots: list[SnapshotRecord] = field(default_factory=list)
    # training-side records, keyed (rank, round)
    gradients: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    # what is shared: round -> its first u, rank -> its last kept fresh
    # snapshot, and nbytes -> read-only zeros
    _first_u: dict = field(default_factory=dict, init=False, repr=False)
    _last_fresh: dict = field(default_factory=dict, init=False, repr=False)
    _zeros: dict = field(default_factory=dict, init=False, repr=False)

    def op_fired(self, t: int, rank: int, cid: int, gen: int, oid: int, label: str) -> None:
        """Called by the engine on every op firing; records nothing."""

    def round_done(self, rec: CollectiveResult) -> None:
        """Keep rec, or a copy of it sharing the round's first u when its
        u's bytes equal those (compared as uint64, so -0.0 != 0.0)."""
        u = rec.u
        if u.nbytes > _SHARE_NBYTES:
            first = self._first_u.setdefault(rec.rnd, u)
            if first is not u and np.array_equal(first.view(np.uint64), u.view(np.uint64)):
                rec = CollectiveResult(rec.rank, rec.rnd, first, rec.included)
        self.rounds.append(rec)

    def snapshot(self, rec: SnapshotRecord) -> None:
        """Keep rec with its data, which may be a live view, replaced: by
        the rank's last kept fresh array for a fresh snapshot of equal
        bytes, by the shared zero vector of its size for a stale snapshot
        of all-zero bytes, else by a copy."""
        data = rec.data
        big = data.nbytes > _SHARE_NBYTES
        if big and rec.fresh:
            last = self._last_fresh.get(rec.rank)
            if last is None or not np.array_equal(last.view(np.uint64), data.view(np.uint64)):
                last = self._last_fresh[rec.rank] = data.copy()
            rec.data = last
        elif big and not np.count_nonzero(data.view(np.uint64)):
            zero = self._zeros.get(data.nbytes)
            if zero is None:
                zero = np.zeros_like(data)
                zero.flags.writeable = False
                zero = self._zeros.setdefault(data.nbytes, zero)
            rec.data = zero
        else:
            rec.data = data.copy()
        self.snapshots.append(rec)
