"""In-memory run traces: per-round results and contribution snapshots.

The verifier consumes these records directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CollectiveResult:
    """One rank's outcome of one round, as the call returns it and the trace keeps it."""

    rank: int
    rnd: int
    u: np.ndarray        # reduced vector, divided by p
    included: int        # bitmask: bit r set iff rank r's fresh value is in u
    nap: int             # popcount of included


@dataclass
class SnapshotRecord:
    rank: int
    rnd: int
    data: np.ndarray       # contribution consumed from the send buffer
    fresh: bool            # own-rank flag bit was set


@dataclass
class TraceRecorder:
    """Collects everything a run produces that the checkers need."""

    rounds: list[CollectiveResult] = field(default_factory=list)
    snapshots: list[SnapshotRecord] = field(default_factory=list)
    # training-side records, keyed (rank, round)
    gradients: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)

    def op_fired(self, t: int, rank: int, cid: int, gen: int, oid: int, label: str) -> None:
        """Called by the engine on every op firing; records nothing."""

    def round_done(self, rec: CollectiveResult) -> None:
        self.rounds.append(rec)

    def snapshot(self, rec: SnapshotRecord) -> None:
        self.snapshots.append(rec)
