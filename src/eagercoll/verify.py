"""Trace checkers: collective contracts, drift tracking, interleaving search.

Everything here is an offline, pure function of a recorded trace (plus the
delivery ledger the trainer fills in).  The checkers report structured
violations instead of raising, so a run can be audited wholesale; the test
suite validates each violation class by fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import collectives
from .collectives import CollectiveConfig, build_allreduce_template, tree_order_sum
from .schedule import Engine, Program, ScheduleError
from .trace import CollectiveResult, SnapshotRecord, TraceRecorder
from .transport import Message

_SERIAL_RTOL = 1e-12  # relative tolerance of u*p against a serial re-sum
_SHADOW_SLACK = 0.5   # a shadow drift passes up to (1 + slack) x its bound
_MAX_STATES = 250_000  # explore_interleavings raises StateSpaceTooLarge past it


class IncompleteTrace(ValueError):
    pass


class StateSpaceTooLarge(RuntimeError):
    pass


class EngineStateDrift(RuntimeError):
    """The explorer's stored state of an engine differs from the engine's
    own: an event changed an engine other than the one it names."""


@dataclass
class Violation:
    kind: str  # liveness | mismatch | subset-sum | nap | staleness | time-travel | undelivered
               # | double-generation | unknown-gradient | double-delivery
    rnd: int
    rank: int | None
    detail: str


# ---------------------------------------------------------------------------
# delivery ledger


class DeliveryLedger:
    """Per-gradient bookkeeping: when was each (rank, round) gradient folded
    into a completed collective sum.  Delivered at most once, ever."""

    def __init__(self):
        # in generation order: a dict keeps its keys' insertion order
        self._delivered: dict[tuple[int, int], int | None] = {}
        self._early_violations: list[Violation] = []

    def generated(self, rank: int, rnd: int) -> None:
        key = (rank, rnd)
        if key in self._delivered:
            self._early_violations.append(
                Violation("double-generation", rnd, rank, "gradient generated twice"))
            return
        self._delivered[key] = None

    def delivered(self, rank: int, generated_round: int, delivered_round: int) -> None:
        key = (rank, generated_round)
        if key not in self._delivered:
            self._early_violations.append(
                Violation("unknown-gradient", delivered_round, rank,
                          f"delivery for never-generated round {generated_round}"))
            return
        if self._delivered[key] is not None:
            self._early_violations.append(
                Violation("double-delivery", delivered_round, rank,
                          f"gradient of round {generated_round} delivered twice"))
            return
        self._delivered[key] = delivered_round

    def entries(self) -> list[tuple[int, int, int | None]]:
        """(rank, generated round, delivered round or None) per gradient."""
        return [(r, g, d) for (r, g), d in self._delivered.items()]

    def audit(self, tau: int | None = None,
              allow_pending_after: int | None = None) -> list[Violation]:
        """Check the exactly-once and bounded-staleness contracts.

        allow_pending_after: gradients generated strictly after this round may
        still be pending without it counting as a loss (the run simply ended
        before a round could take them).
        """
        out = list(self._early_violations)
        for (rank, g), d in self._delivered.items():
            if d is None:
                if allow_pending_after is None or g <= allow_pending_after:
                    out.append(Violation("undelivered", g, rank,
                                         "gradient never delivered"))
                continue
            if d < g:
                out.append(Violation("time-travel", g, rank,
                                     f"delivered at {d} before generated at {g}"))
            elif tau is not None and d - g > tau:
                out.append(Violation("staleness", g, rank,
                                     f"age {d - g} exceeds tau={tau}"))
        return out


# ---------------------------------------------------------------------------
# collective contract checker


@dataclass
class RoundContractReport:
    violations: list[Violation]
    rounds_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out


def check_round(rnd: int, p: int, results: list[CollectiveResult],
                snapshots: list[SnapshotRecord]) -> list[Violation]:
    """The partial-collective rule for one round, given the results the
    ranks returned for it and each rank's snapshot of its contribution:

    1. every rank returned a result (liveness) and has a snapshot;
    2. all ranks' (u, included) are bit-identical;
    3. the mask is exactly the set of fresh snapshots, every stale snapshot
       is all-zero bytes, and u*p equals the sum of the snapshots,
       bit-exact in the reduction-tree order and within _SERIAL_RTOL of a
       serial recomputation;
    4. at least one fresh contribution: nap, the popcount of the mask, >= 1.

    A snapshot is fresh when its rank offered a value for the round before
    the snapshot took it, whatever bytes the snapshot found: so an offer
    lost on its way to the snapshot shows as a mask that lacks its rank.
    """
    vs: list[Violation] = []
    present = {r.rank for r in results}
    for rank in range(p):
        if rank not in present:
            vs.append(Violation("liveness", rnd, rank, "no result returned"))
    if not results:
        return vs
    ref = results[0]
    for r in results[1:]:
        # a recorder keeps a result equal to the round's first by sharing its u
        if r.included != ref.included or (
                r.u is not ref.u and r.u.tobytes() != ref.u.tobytes()):
            vs.append(Violation("mismatch", rnd, r.rank,
                                "result differs from rank %d's" % ref.rank))
    # reconstruct the reduction from the consumed contributions
    snaps = {s.rank: s for s in snapshots}
    contributions, mask_expected, missing = [], 0, False
    for rank in range(p):
        s = snaps.get(rank)
        if s is None:
            vs.append(Violation("liveness", rnd, rank, "no snapshot recorded"))
            missing = True
            continue
        contributions.append(s.data)
        if s.fresh:
            mask_expected |= 1 << rank
        elif np.count_nonzero(s.data.view(np.uint64)):
            vs.append(Violation("subset-sum", rnd, rank,
                                "stale snapshot holds a value its mask bit does not flag"))
    if missing:
        return vs
    if ref.included != mask_expected:
        vs.append(Violation("subset-sum", rnd, None,
                            f"mask {ref.included:#x} != consumed-fresh set {mask_expected:#x}"))
    tree = tree_order_sum(contributions)
    if (tree / p).tobytes() != ref.u.tobytes():
        vs.append(Violation("subset-sum", rnd, None,
                            "u does not equal the tree-ordered contribution sum / p"))
    serial = np.sum(np.stack(contributions), axis=0)
    err = np.abs(ref.u * p - serial)
    tol = _SERIAL_RTOL * np.maximum(np.abs(serial), 1e-300)
    if np.any(err > np.maximum(tol, _SERIAL_RTOL)):
        vs.append(Violation("subset-sum", rnd, None,
                            "u*p deviates from the serial contribution sum"))
    if ref.nap < 1:
        vs.append(Violation("nap", rnd, None, "round completed with no fresh data"))
    return vs


def check_round_contracts(recorder: TraceRecorder, p: int, *, expect_rounds: int,
                          tau: int | None = None, ledger: DeliveryLedger | None = None,
                          allow_pending_after: int | None = None) -> RoundContractReport:
    """Audit a completed run against the partial-collective contracts:
    check_round over each of rounds 0..expect_rounds-1, given its recorded
    results and snapshots, whose freshness the handle records from its
    offer (AllreduceHandle._snap_cb), and, with a ledger and tau, delivery
    ages within bound, exactly-once.  The caller states the round count: a
    trailing round that never published leaves no record to count it by.
    """
    by_round: dict[int, list] = {}
    for r in recorder.rounds:
        by_round.setdefault(r.rnd, []).append(r)
    snaps: dict[int, list] = {}
    for s in recorder.snapshots:
        snaps.setdefault(s.rnd, []).append(s)
    vs: list[Violation] = []
    for rnd in range(expect_rounds):
        vs.extend(check_round(rnd, p, by_round.get(rnd, []), snaps.get(rnd, [])))
    if ledger is not None:
        vs.extend(ledger.audit(tau, allow_pending_after=allow_pending_after))
    return RoundContractReport(vs, expect_rounds)


# ---------------------------------------------------------------------------
# shadow iterate


@dataclass
class ShadowReport:
    max_drift: float            # over rounds, the mean over ranks of ||lam - w||^2
    bound: float
    m2_hat: float
    q_hat: int

    @property
    def ok(self) -> bool:
        return self.max_drift <= self.bound * (1 + _SHADOW_SLACK) + 1e-300


def track_shadow(recorder: TraceRecorder, alpha: float, p: int, tau: int) -> ShadowReport:
    """Replay the all-gradients-applied reference trajectory over every
    recorded round and measure how far each rank's actual parameter view
    drifted from it.

    The bound uses the empirically measured second moment and the worst
    observed quorum; the report allows a slack of half the bound on top.
    """
    if not recorder.weights:
        raise IncompleteTrace("no weight records")
    rounds = max(t for _, t in recorder.weights) + 1
    for i in range(p):
        for t in range(rounds):
            if (i, t) not in recorder.gradients or (i, t) not in recorder.weights:
                raise IncompleteTrace(f"missing gradient/weight for rank {i} round {t}")
    w0s = [recorder.weights[(i, 0)] for i in range(p)]
    for w in w0s[1:]:
        if w.tobytes() != w0s[0].tobytes():
            raise IncompleteTrace("ranks started from different parameters")
    lam = w0s[0].copy()
    max_drift = 0.0  # round 0's drift: every rank starts at lam
    # Empirical stand-in for the second-moment constant: the worst observed
    # gradient (a mean would under-cover the early rounds, where both the
    # gradients and the drift peak).
    m2 = 0.0
    for t in range(rounds):
        max_drift = max(max_drift, float(np.mean(
            [np.sum((lam - recorder.weights[(i, t)]) ** 2) for i in range(p)])))
        total = np.zeros_like(lam)
        for i in range(p):
            g = recorder.gradients[(i, t)]
            total += g
            m2 = max(m2, float(np.sum(g * g)))
        lam = lam - (alpha / p) * total
    naps = [r.nap for r in recorder.rounds if r.rnd < rounds]
    q_hat = min(naps) if naps else 0
    bound = alpha * alpha * tau * m2 * (p - q_hat) / (p * p)
    return ShadowReport(max_drift, bound, m2, q_hat)


# ---------------------------------------------------------------------------
# exhaustive interleaving exploration


@dataclass
class InterleavingReport:
    states: int
    terminals: int
    unique_results: int
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        # Every terminal passes check_round in every order.  The result
        # VALUE may differ across orders when arrivals race the snapshot
        # (that is what a partial collective is); callers using
        # arrivals_first additionally assert unique_results == 1.
        return not self.violations and self.terminals > 0


def explore_interleavings(cfg: CollectiveConfig, *, arrive_ranks=None,
                          arrivals_first: bool = False) -> InterleavingReport:
    """Enumerate every reachable event order of one round of cfg's collective,
    whose p, flavor and vector_len set the world explored.

    Events are rank arrivals and per-stream message deliveries; everything
    interleaves freely.  An arrival is collectives.offer, the handle's own
    offer (it boards only if the snapshot has not taken the send buffer),
    then activate internally.  Every arrival activates, so this is the one
    step that is not the application's protocol: call_round activates only
    when the offer boarded, and a majority rank only when it is the round's
    initiator, so majority is explored exactly as solo (ROADMAP item 10(a)).
    A stream (src, dst, phase, step) names one send op, which fires once a
    round, so it holds at most one message, and a second one raises
    ScheduleError.  States are deduplicated on their full value (every
    engine's state, the network, the pending arrivals and the ranks whose
    arrival boarded), so the search is exhaustive over distinct executions.

    Each engine state() value and each Message is stored once, under an
    int id, so a state is (each rank's state id, the network's message ids
    sorted by stream key, pending arrivals, boarded ranks).  A step, one
    rank's transition on an arrival or a message, runs engine code only
    the first time the search meets its (rank, state id, input); a table
    keeps its next state id, whether the arrival boarded and the ids of the
    messages it sent.  That is sound because an explorer engine's step is a
    function of its state() and its input: it has no recorder, callbacks
    or hold policy, its clock is constant, it reaches another rank only
    through send_fn, and restore() rebuilds everything a step reads.

    Each terminal goes through check_round, given a result per finished
    rank (the engine faults on any double firing), read out of its publish
    buffer by collectives.round_result as the handle reads it, and a
    snapshot per rank, fresh with its contribution iff its arrival boarded:
    freshness comes from the offer, as in a recorded trace.
    Each violation's detail ends with the path to its terminal.  A terminal
    restores every engine to its recorded state, re-reads it and raises
    EngineStateDrift if it differs: a step changed an engine it does not
    name.

    arrivals_first performs all arrivals before exploring, which restricts
    the enumeration to message delivery orders; in that regime the final
    buffer must also be identical in every order.
    """
    p = cfg.p
    contributions = [np.arange(1, cfg.vector_len + 1, dtype=np.float64) * (r + 1)
                     for r in range(p)]
    zeros = np.zeros(cfg.vector_len)
    if arrive_ranks is None:
        arrive_ranks = tuple(range(p))

    sent: list[Message] = []
    engines: list[Engine] = []
    for r in range(p):
        # single round; terminal state is generation 0 done
        template = replace(build_allreduce_template(r, cfg), persistent=False)
        eng = Engine(Program(template), r, 0, sent.append, lambda: 0)
        eng.commit()
        engines.append(eng)

    # the interned values: states[i] is the state() value of id i, msgs[i]
    # the Message of id i and keys[i] its stream key.  These tables and the
    # steps table live for one call, so a fault patched into Engine or
    # collectives between calls reaches the next search.
    states: list[tuple] = []
    msgs: list[Message] = []
    keys: list[tuple] = []
    state_ids: dict[tuple, int] = {}
    msg_ids: dict[Message, int] = {}

    def intern(ids: dict, values: list, value) -> int:
        i = ids.setdefault(value, len(values))
        if i == len(values):
            values.append(value)
        return i

    ARRIVE = -1  # a step's input: an arrival, or a message id
    steps: dict[tuple, tuple] = {}
    held = [intern(state_ids, states, e.state()) for e in engines]  # each engine's state id

    def step(r: int, sid: int, x: int) -> tuple:
        """(next state id, boarded, ids of the messages sent) of rank r in
        state sid on input x; the engine runs only on the first call."""
        out = steps.get((r, sid, x))
        if out is None:
            eng = engines[r]
            if held[r] != sid:
                eng.restore(states[sid])
            sent.clear()
            boards = False
            if x == ARRIVE:
                # looked up on the module, as the handle does, so both run one rule
                boards = collectives.offer(eng, cfg, r, contributions[r])
                eng.activate_internal(expected_generation=0)
            else:
                eng.deliver(msgs[x])
            held[r] = intern(state_ids, states, eng.state())
            new = tuple([intern(msg_ids, msgs, m) for m in sent])
            keys.extend((m.src, m.dst, m.phase, m.step) for m in msgs[len(keys):])
            out = steps[r, sid, x] = (held[r], boards, new)
        return out

    def child(s: tuple, r: int, x: int) -> tuple:
        """The state that rank r's step on input x leads to from s."""
        sids, net, arrivals, boarded = s
        nsid, boards, new = step(r, sids[r], x)
        if x == ARRIVE:
            arrivals = arrivals - {r}
            if boards:
                boarded = boarded | {r}
        else:
            net = tuple([i for i in net if i != x])
        if new:
            net = tuple(sorted(net + new, key=keys.__getitem__))
            for a, b in zip(net, net[1:]):
                if keys[a] == keys[b]:
                    raise ScheduleError(f"second message on stream {keys[a]} in one round")
        return (sids[:r] + (nsid,) + sids[r + 1:], net, arrivals, boarded)

    s = (tuple(held), (), frozenset(arrive_ranks), frozenset())
    if arrivals_first:
        for r in sorted(s[2]):
            s = child(s, r, ARRIVE)

    seen: set = set()
    results: set = set()
    violations: list[Violation] = []
    terminals = 0
    stack = [(s, ())]
    while stack:
        s, path = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if len(seen) > _MAX_STATES:
            raise StateSpaceTooLarge(f"exceeded {_MAX_STATES} states")
        sids, net, arrivals, boarded = s
        if not (arrivals or net):
            terminals += 1
            for r, e in enumerate(engines):
                if held[r] != sids[r]:
                    e.restore(states[sids[r]])
                    held[r] = sids[r]
            drifted = [r for r, e in enumerate(engines) if e.state() != states[sids[r]]]
            if drifted:
                raise EngineStateDrift(
                    f"ranks {drifted} hold states the search did not record, via {path}")
            # each rank's result, read where its chain left it
            published = [e.buffer(e.program.publish_from) for e in engines]
            results.add(published[0].tobytes())
            finished = [collectives.round_result(r, 0, published[r], cfg)
                        for r, e in enumerate(engines) if e.done_generation == 0]
            snaps = [SnapshotRecord(r, 0, contributions[r] if r in boarded else zeros,
                                    r in boarded) for r in range(p)]
            violations += [replace(v, detail=f"{v.detail} via {path}")
                           for v in check_round(0, p, finished, snaps)]
            continue
        for r in sorted(arrivals):
            stack.append((child(s, r, ARRIVE), path + (("arrive", r),)))
        for i in net:
            stack.append((child(s, msgs[i].dst, i), path + (("deliver", keys[i]),)))
    return InterleavingReport(len(seen), terminals, len(results), violations)
