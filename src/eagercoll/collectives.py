"""Allreduce in three flavors on top of dependency schedules.

sync      every rank contributes, result includes all P contributions.
solo      wait-free: the first-arriving rank activates everyone's reduction
          immediately; late ranks find the round already finished.
majority  one rank per round, drawn by a counter-based PRNG every rank can
          evaluate locally, is the only one allowed to activate internally;
          on average half the ranks have contributed by the time it arrives.

The wire payload is the float64 value vector followed by an inclusion
bitmask (one bit per rank, packed in 64-bit words at byte 8*vector_len);
write_payload and parse_payload are its only writer and parser, and the
template states the split once, as its mask_offset.  Each reduction step is
one schedule op that combines payloads elementwise: sum over the vector,
bitwise-or over the mask, so the result always says exactly which ranks'
fresh contributions it contains.

The reduction is a recursive-doubling butterfly over the largest power of
two p2 <= p; ranks beyond p2 fold their contribution into a base partner
first and get the finished result back at the end.  Combination order is
identical block-aligned pairing at every rank, so for a given contribution
set the result is bit-identical everywhere.  Division by p happens at result
read-out and always divides by the full world size, included or not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .schedule import (
    Engine, K_COMPUTE, K_NOP, K_RECV, K_SEND, OpSpec, Program, ScheduleTemplate,
)
from .trace import CollectiveResult, SnapshotRecord, TraceRecorder
from .transport import PHASE_ACT, PHASE_RED, Sleep, SimTransport, WaitRound

SOLO, MAJORITY, SYNC = "solo", "majority", "sync"
FLAVORS = (SOLO, MAJORITY, SYNC)


class RoundOrderError(RuntimeError):
    """The application offered a value for, or got the result of, a round
    other than the one it drives."""


@dataclass(frozen=True)
class CollectiveConfig:
    p: int
    flavor: str
    vector_len: int
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.vector_len < 1:
            raise ValueError("vector_len must be >= 1")

    @property
    def mask_words(self) -> int:
        return (self.p + 63) // 64

    @property
    def payload_nbytes(self) -> int:
        return 8 * self.vector_len + 8 * self.mask_words


def write_payload(buf: np.ndarray, cfg: CollectiveConfig, rank: int,
                  vec: np.ndarray) -> None:
    """Store `vec` as rank's fresh contribution in the payload bytes `buf`:
    the values, plus rank's bit in the inclusion mask."""
    np.copyto(buf[:8 * cfg.vector_len].view(np.float64), vec)
    mask = buf[8 * cfg.vector_len:].view(np.uint64)
    mask[rank // 64] |= np.uint64(1 << (rank % 64))


def parse_payload(raw: np.ndarray, cfg: CollectiveConfig) -> tuple[np.ndarray, int]:
    """(values, inclusion mask as an int) of the payload bytes `raw`; the
    values are a view into raw."""
    mask = int.from_bytes(raw[8 * cfg.vector_len:].tobytes(), "little")
    return raw[:8 * cfg.vector_len].view(np.float64), mask


def initiator_for_round(seed: int, t: int, p: int) -> int:
    """Designated initiator for round t: uniform over ranks, reproducible.

    Implemented as a counter-based generator (philox4x64) keyed by the shared
    seed with the round number as the counter, so any rank can evaluate any
    round's choice locally without communication and without sequential state.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return _initiator_draw(seed, t, p)


@functools.lru_cache(maxsize=4096)
def _initiator_draw(seed: int, t: int, p: int) -> int:
    # every rank draws the same (seed, t, p), and a Philox build costs ~30 us
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[np.uint64(t), 0, 0, 0])
    return int(np.random.Generator(bitgen).integers(0, p))


def ceil_log2(p: int) -> int:
    return 0 if p <= 1 else (p - 1).bit_length()


def floor_pow2(p: int) -> int:
    return 1 << (p.bit_length() - 1)


def allreduce_peers(rank: int, cfg: CollectiveConfig) -> dict[tuple[int, int], int]:
    """(phase, step) -> peer for each send of rank's schedule: the one
    statement of whom a rank sends to.  Every send of the template builder
    takes its peer from here, so a rank's template is any same-class rank's
    template with these peers in place (see rank_programs)."""
    p = cfg.p
    p2 = floor_pow2(p)
    m2 = p2.bit_length() - 1
    # activation hops, which only the partial flavors' templates send on
    peers = {(PHASE_ACT, k): (rank + (1 << k)) % p for k in range(ceil_log2(p))}
    # reduction-phase steps: 0..m2-1 butterfly, m2 fold, m2 + 1 final
    if rank >= p2:
        peers[PHASE_RED, m2] = rank - p2
    else:
        peers.update(((PHASE_RED, k), rank ^ (1 << k)) for k in range(m2))
        if rank + p2 < p:
            peers[PHASE_RED, m2 + 1] = rank + p2
    return peers


def build_allreduce_template(rank: int, cfg: CollectiveConfig) -> ScheduleTemplate:
    """One rank's schedule for a single allreduce generation.

    Layout: entry NOP -> (activation tree for partial flavors) -> snapshot of
    the contribution buffer -> fold/butterfly/final -> publishing NOP.
    """
    p, nbytes = cfg.p, cfg.payload_nbytes
    peers = allreduce_peers(rank, cfg)
    ops: list[OpSpec] = []
    buffers: dict[str, int] = {"send": nbytes, "acc": nbytes}

    def add(kind: str, **kw) -> int:
        oid = len(ops)
        ops.append(OpSpec(oid, kind, **kw))
        return oid

    n0 = add(K_NOP, entry=True, label="N0")

    partial = cfg.flavor in (SOLO, MAJORITY) and p > 1
    if partial:
        # Union of p binomial trees: the initiator's entry NOP fires sends to
        # rank+2^k for every k; a rank activated through its distance-2^j recv
        # forwards only the shorter hops k < j.  Duplicate arrivals from
        # overlapping trees land on consumed ops and are dropped.
        m = ceil_log2(p)
        recvs = [add(K_RECV, phase=PHASE_ACT, step=k, label=f"Ra{k}") for k in range(m)]
        for k in range(m):
            deps = (n0,) + tuple(recvs[j] for j in range(k + 1, m))
            add(K_SEND, logic="or", deps=deps, peer=peers[PHASE_ACT, k],
                phase=PHASE_ACT, step=k, label=f"Aa{k}")
        gate = add(K_NOP, logic="or", deps=(n0, *recvs), label="N1")
    else:
        gate = n0

    snap = add(K_COMPUTE, deps=(gate,), src_buf="send", dst_buf="acc", label="snap")

    p2 = floor_pow2(p)
    m2 = p2.bit_length() - 1
    fold_step, final_step = m2, m2 + 1  # after the butterfly's steps 0..m2-1
    if rank >= p2:
        # fold into the base partner, then wait for the finished result
        buffers["land_final"] = nbytes
        fold = add(K_SEND, deps=(snap,), peer=peers[PHASE_RED, fold_step], phase=PHASE_RED,
                   step=fold_step, send_buf="acc", label="fold_send")
        fin = add(K_RECV, phase=PHASE_RED, step=final_step,
                  recv_buf="land_final", label="final_recv")
        add(K_NOP, deps=(fold, fin), publish=True, label="done")
        publish_from = "land_final"
    else:
        prev = snap
        has_extra = rank + p2 < p
        if has_extra:
            buffers["land_fold"] = nbytes
            rf = add(K_RECV, phase=PHASE_RED, step=fold_step,
                     recv_buf="land_fold", label="fold_recv")
            prev = add(K_COMPUTE, deps=(rf, prev), src_buf="land_fold", dst_buf="acc",
                       label="fold_reduce")
        for k in range(m2):
            buffers[f"land{k}"] = nbytes
            sk = add(K_SEND, deps=(prev,), peer=peers[PHASE_RED, k], phase=PHASE_RED, step=k,
                     send_buf="acc", label=f"bf_send{k}")
            rk = add(K_RECV, phase=PHASE_RED, step=k, recv_buf=f"land{k}",
                     label=f"bf_recv{k}")
            prev = add(K_COMPUTE, deps=(rk, sk), src_buf=f"land{k}", dst_buf="acc",
                       label=f"bf_reduce{k}")
        if has_extra:
            fin = add(K_SEND, deps=(prev,), peer=peers[PHASE_RED, final_step],
                      phase=PHASE_RED, step=final_step, send_buf="acc", label="final_send")
            add(K_NOP, deps=(prev, fin), publish=True, label="done")
        else:
            add(K_NOP, deps=(prev,), publish=True, label="done")
        publish_from = "acc"

    return ScheduleTemplate(
        ops=ops, buffers=buffers, mask_offset=8 * cfg.vector_len,
        publish_from=publish_from, snapshot_last=snap, snapshot_src="send",
        persistent=True,
    )


def rank_programs(cfg: CollectiveConfig) -> list[Program]:
    """Each rank's compiled schedule, one Program per rank class: base
    ranks with an extra partner, base ranks without one, and extra ranks.
    Ranks of one class have the same template up to its peers, so an engine
    binds its Program with allreduce_peers(rank, cfg).  Nothing is kept
    between calls."""
    p, p2 = cfg.p, floor_pow2(cfg.p)
    # each rank's class representative: the class's lowest rank
    reps = [0 if r < p - p2 else p - p2 if r < p2 else p2 for r in range(p)]
    programs = {r: Program(build_allreduce_template(r, cfg)) for r in sorted(set(reps))}
    return [programs[r] for r in reps]


class AllreduceHandle:
    """Per-rank handle on a persistent allreduce schedule.

    The application drives rounds in order: try_contribute(t, vec) offers a
    value (refused once round t's snapshot has consumed the buffer), then
    activate(t) starts the round per the flavor's rule, then wait_done(t)
    (a generator step) parks until round >= t has published and returns
    the latest published round's CollectiveResult.  The engine itself runs
    passively under transport deliveries, so the schedule serves rounds this
    rank never actively joins; each published round's result also goes to
    the recorder, if there is one.  `program` is rank's entry of
    rank_programs(cfg); a handle given none compiles its own.
    """

    def __init__(self, cfg: CollectiveConfig, rank: int, transport, cid: int = 0,
                 recorder: TraceRecorder | None = None, program: Program | None = None):
        self.cfg = cfg
        self.rank = rank
        self.transport = transport
        self.recorder = recorder
        # callable(rnd, data, fresh); data is a view valid only during the call
        self.user_snapshot_cb = None
        self.contributed_round = -1
        self._last: CollectiveResult | None = None
        self._waiters: list[tuple[int, int, object]] = []
        program = program or Program(build_allreduce_template(rank, cfg))
        self.engine = Engine(program, rank, cid, transport.send, transport.now_us,
                             recorder=recorder, on_snapshot=self._snap_cb,
                             on_done=self._done_cb, peers=allreduce_peers(rank, cfg))
        transport.register_engine(rank, self.engine)
        self.engine.commit()

    # -- engine callbacks ---------------------------------------------------

    def _snap_cb(self, rnd: int, taken: np.ndarray) -> None:
        data, mask = parse_payload(taken, self.cfg)
        fresh = bool((mask >> self.rank) & 1)
        if self.recorder is not None:
            self.recorder.snapshot(SnapshotRecord(self.rank, rnd, data, fresh))
        if self.user_snapshot_cb is not None:
            self.user_snapshot_cb(rnd, data, fresh)

    def _done_cb(self, rnd: int, published: np.ndarray) -> None:
        data, mask = parse_payload(published, self.cfg)
        res = CollectiveResult(self.rank, rnd, data / self.cfg.p, mask, mask.bit_count())
        self._last = res
        if self.recorder is not None:
            self.recorder.round_done(res)
        if self._waiters:
            ready = [w for w in self._waiters if w[0] <= rnd]
            self._waiters = [w for w in self._waiters if w[0] > rnd]
            for _, wrank, cb in ready:
                cb(wrank, res)

    # -- app protocol -------------------------------------------------------

    @property
    def done_generation(self) -> int:
        return self.engine.done_generation

    def add_waiter(self, generation: int, rank: int, cb) -> None:
        """cb(rank, result) runs once a round >= `generation` has published:
        at once if one already has, with the latest published round's result."""
        if self.engine.done_generation >= generation:
            cb(rank, self._last)
        else:
            self._waiters.append((generation, rank, cb))

    def try_contribute(self, t: int, vec: np.ndarray) -> bool:
        """Offer this rank's value for round t.  False once the round's
        snapshot has already consumed the buffer (the value missed the bus)."""
        eng = self.engine
        if eng.done_generation >= t:
            return False
        if eng.generation != t:
            raise RoundOrderError(
                f"rank {self.rank} offered round {t} while round "
                f"{eng.generation} is current; rounds must be driven in order")
        if eng.consumed[eng.program.snapshot_last]:
            return False
        write_payload(eng.buffer("send"), self.cfg, self.rank, vec)
        self.contributed_round = t
        eng.pump()
        return True

    def activate(self, t: int) -> None:
        """Start round t per the flavor's rule.  solo/sync: always; majority:
        only the round's designated initiator activates internally."""
        if (self.cfg.flavor == MAJORITY
                and self.rank != initiator_for_round(self.cfg.seed, t, self.cfg.p)):
            return
        self.engine.activate_internal(expected_generation=t)

    def wait_done(self, t: int):
        """Generator step: parks until some round >= t has published, then
        returns the CollectiveResult of the latest published round, whose
        rnd exceeds t when later rounds published before this rank woke."""
        if self.engine.done_generation >= t:
            return self._last
        return (yield WaitRound(self, t))

    def call_round(self, t: int, vec: np.ndarray):
        """One full round, bench's and train_step's: start the round only if
        the offer boarded, then wait for the result.  Returns this round's
        result (or the latest one, if the schedule has already moved past t)."""
        if self.try_contribute(t, vec):
            self.activate(t)
        return (yield from self.wait_done(t))


def simulate(configs, body, *, link_latency_us: int = 0,
             recorder: TraceRecorder | None = None):
    """Run one process per rank over a fresh simulated transport.

    configs: one CollectiveConfig per collective, all of one world size;
    config i gets cid i, and only cid 0's rounds go to `recorder`.  Each
    config's schedule is compiled once per rank class (rank_programs), for
    this call alone.  Each rank runs body(rank, *its handles, one per
    config), a generator process.

    Returns (handles, sim) where handles[i][rank] is config i's handle.
    """
    p = configs[0].p
    sim = SimTransport(p, link_latency_us=link_latency_us)
    handles = [[AllreduceHandle(cfg, r, sim, cid=cid,
                                recorder=recorder if cid == 0 else None, program=prog)
                for r, prog in enumerate(rank_programs(cfg))]
               for cid, cfg in enumerate(configs)]
    for r in range(p):
        sim.spawn(r, body(r, *(hs[r] for hs in handles)))
    sim.run()
    return handles, sim


def run_allreduce(cfg: CollectiveConfig, contributions, *, rounds: int = 1,
                  delay_us=None, link_latency_us: int = 0,
                  recorder: TraceRecorder | None = None):
    """Run `rounds` allreduce rounds over a fresh simulated transport.

    contributions: array (p, vector_len), or callable (rank, t) -> vector.
    delay_us: optional callable (rank, t) -> microseconds slept before the
    rank joins round t.

    Returns (results, handles, sim) where results[(rank, t)] is the
    CollectiveResult the application observed for its round t call.
    """
    results: dict[tuple[int, int], CollectiveResult] = {}

    def contribution(rank: int, t: int) -> np.ndarray:
        if callable(contributions):
            return np.asarray(contributions(rank, t))
        return np.asarray(contributions[rank])

    def body(rank: int, handle: AllreduceHandle):
        for t in range(rounds):
            if delay_us is not None:
                d = delay_us(rank, t)
                if d:
                    yield Sleep(int(d))
            results[(rank, t)] = yield from handle.call_round(t, contribution(rank, t))

    (handles,), sim = simulate([cfg], body, link_latency_us=link_latency_us,
                               recorder=recorder)
    return results, handles, sim


def tree_order_sum(vectors: list[np.ndarray]) -> np.ndarray:
    """Reference reduction: the exact combination order the butterfly uses.

    Extras fold into base leaves first, then aligned blocks combine pairwise.
    Serves as the oracle for bit-exact safety checks.
    """
    p = len(vectors)
    if p == 0:
        raise ValueError("no vectors")
    p2 = floor_pow2(p)
    leaves = []
    for b in range(p2):
        v = np.array(vectors[b], dtype=np.asarray(vectors[b]).dtype, copy=True)
        if b + p2 < p:
            v = v + np.asarray(vectors[b + p2])
        leaves.append(v)
    while len(leaves) > 1:
        leaves = [leaves[i] + leaves[i + 1] for i in range(0, len(leaves), 2)]
    return leaves[0]
