"""In-memory run traces: per-round results, contribution snapshots, latencies.

The verifier consumes these records directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RoundRecord:
    rank: int
    rnd: int
    u: np.ndarray          # already divided by p
    included: int          # bitmask of contributing ranks
    nap: int
    flavor: str
    initiator: int         # -1 when the flavor has no designated initiator
    t_done: int


@dataclass
class SnapshotRecord:
    rank: int
    rnd: int
    data: np.ndarray       # contribution consumed from the send buffer
    fresh: bool            # own-rank flag bit was set
    t: int


@dataclass
class LatencyRecord:
    rank: int
    rnd: int
    t_enter: int
    t_exit: int

    @property
    def latency_us(self) -> int:
        return self.t_exit - self.t_enter


@dataclass
class TraceRecorder:
    """Collects everything a run produces that the checkers need."""

    rounds: list[RoundRecord] = field(default_factory=list)
    snapshots: list[SnapshotRecord] = field(default_factory=list)
    latencies: list[LatencyRecord] = field(default_factory=list)
    # training-side records, keyed (rank, round)
    gradients: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)

    def op_fired(self, t: int, rank: int, cid: int, gen: int, oid: int, label: str) -> None:
        """Called by the engine on every op firing; records nothing."""

    def round_done(self, rec: RoundRecord) -> None:
        self.rounds.append(rec)

    def snapshot(self, rec: SnapshotRecord) -> None:
        self.snapshots.append(rec)

    def latency(self, rec: LatencyRecord) -> None:
        self.latencies.append(rec)

    def rounds_by_key(self) -> dict:
        return {(r.rank, r.rnd): r for r in self.rounds}
