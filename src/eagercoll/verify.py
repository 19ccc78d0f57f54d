"""Trace checkers: collective contracts, drift tracking, interleaving search.

Everything here is an offline, pure function of a recorded trace (plus the
delivery ledger the trainer fills in).  The checkers report structured
violations instead of raising, so a run can be audited wholesale; the test
suite validates each violation class by fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .collectives import (
    CollectiveConfig, SOLO, build_allreduce_template, parse_payload, tree_order_sum,
    write_payload,
)
from .schedule import Engine, Program
from .trace import TraceRecorder
from .transport import Message

_SERIAL_RTOL = 1e-12  # relative tolerance of u*p against a serial re-sum


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
        return [(r, g, d) for (r, g), d in self._delivered.items()]

    def staleness_of(self, rank: int, rnd: int) -> int | None:
        d = self._delivered.get((rank, rnd))
        return None if d is None else d - rnd

    def max_staleness(self) -> int:
        ages = [d - g for (_, g), d in self._delivered.items() if d is not None]
        return max(ages, default=0)

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
    p: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out


def check_round_contracts(recorder: TraceRecorder, p: int, *, tau: int | None = None,
                 ledger: DeliveryLedger | None = None,
                 expect_rounds: int | None = None,
                 allow_pending_after: int | None = None) -> RoundContractReport:
    """Audit a completed run against the partial-collective contracts:

    1. every rank returned a result for every round (liveness);
    2. all ranks' (u, included) for a round are bit-identical;
    3. u*p equals the sum of exactly the contributions the mask flags,
       bit-exact in the reduction-tree order and within _SERIAL_RTOL of a
       serial recomputation, and every stale snapshot is all-zero bytes;
    4. at least one fresh contribution per round;
    5. with a ledger and tau: delivery ages within bound, exactly-once.
    """
    vs: list[Violation] = []
    by_round: dict[int, list] = {}
    for r in recorder.rounds:
        by_round.setdefault(r.rnd, []).append(r)
    snaps = {(s.rank, s.rnd): s for s in recorder.snapshots}
    n_rounds = expect_rounds if expect_rounds is not None else (
        max(by_round) + 1 if by_round else 0)

    for rnd in range(n_rounds):
        rows = by_round.get(rnd, [])
        present = {r.rank for r in rows}
        for rank in range(p):
            if rank not in present:
                vs.append(Violation("liveness", rnd, rank, "no result returned"))
        if not rows:
            continue
        ref = rows[0]
        for r in rows[1:]:
            # a recorder keeps a result equal to the round's first by sharing its u
            if r.included != ref.included or (
                    r.u is not ref.u and r.u.tobytes() != ref.u.tobytes()):
                vs.append(Violation("mismatch", rnd, r.rank,
                                    "result differs from rank %d's" % ref.rank))
        # reconstruct the reduction from the consumed contributions
        contributions, mask_expected, missing = [], 0, False
        for rank in range(p):
            s = snaps.get((rank, rnd))
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
            continue
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
        if ref.nap != ref.included.bit_count():
            vs.append(Violation("nap", rnd, None, "nap is not popcount(included)"))

    if ledger is not None:
        vs.extend(ledger.audit(tau, allow_pending_after=allow_pending_after))
    return RoundContractReport(vs, n_rounds, p)


# ---------------------------------------------------------------------------
# fault injection (used to validate the checker itself)


def tamper_result(recorder: TraceRecorder, rank: int, rnd: int,
                  delta: float = 1.0) -> None:
    for r in recorder.rounds:
        if r.rank == rank and r.rnd == rnd:
            r.u = r.u + delta
            return
    raise KeyError((rank, rnd))


def tamper_mask(recorder: TraceRecorder, rank: int, rnd: int, bit: int) -> None:
    for r in recorder.rounds:
        if r.rank == rank and r.rnd == rnd:
            r.included ^= 1 << bit
            r.nap = r.included.bit_count()
            return
    raise KeyError((rank, rnd))


def drop_round(recorder: TraceRecorder, rank: int, rnd: int) -> None:
    recorder.rounds = [r for r in recorder.rounds
                       if not (r.rank == rank and r.rnd == rnd)]


# ---------------------------------------------------------------------------
# shadow iterate


@dataclass
class ShadowReport:
    drift: list[float]          # per-round mean over ranks of ||lam - w||^2
    max_drift: float
    bound: float
    m2_hat: float
    q_hat: int
    slack: float

    @property
    def ok(self) -> bool:
        return self.max_drift <= self.bound * (1 + self.slack) + 1e-300


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
    drift: list[float] = []
    # Empirical stand-in for the second-moment constant: the worst observed
    # gradient (a mean would under-cover the early rounds, where both the
    # gradients and the drift peak).
    m2 = 0.0
    for t in range(rounds):
        d = float(np.mean([np.sum((lam - recorder.weights[(i, t)]) ** 2)
                           for i in range(p)]))
        drift.append(d)
        total = np.zeros_like(lam)
        for i in range(p):
            g = recorder.gradients[(i, t)]
            total += g
            m2 = max(m2, float(np.sum(g * g)))
        lam = lam - (alpha / p) * total
    naps = [r.nap for r in recorder.rounds if r.rnd < rounds]
    q_hat = min(naps) if naps else 0
    bound = alpha * alpha * tau * m2 * (p - q_hat) / (p * p)
    return ShadowReport(drift, max(drift), bound, m2, q_hat, slack=0.5)


# ---------------------------------------------------------------------------
# exhaustive interleaving exploration


@dataclass
class InterleavingReport:
    states: int
    terminals: int
    unique_results: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        # Single execution, liveness, cross-rank agreement and mask soundness
        # hold in every order.  The result VALUE may differ across orders
        # when arrivals race the snapshot (that is what a partial collective
        # is); callers using arrivals_first additionally assert
        # unique_results == 1.
        return not self.violations and self.terminals > 0


def explore_interleavings(cfg: CollectiveConfig | None = None, *, arrive_ranks=None,
                          arrivals_first: bool = False,
                          max_states: int = 250_000) -> InterleavingReport:
    """Enumerate every reachable event order of one collective round.

    Events are rank arrivals (contribute-if-not-snapshotted + activate
    internally, exactly the application protocol) and per-stream message
    deliveries; streams keep FIFO order, everything else interleaves freely.
    States are deduplicated on their full value (every engine's state, the
    network and the pending arrivals), so the search is exhaustive over
    distinct executions.  They are stored as shared per-engine deltas: an
    event changes one engine, so a state's engine-state tuple reuses its
    parent's entries for the others, and a restore puts back only the
    engines whose state object differs from the one they hold.  Checks per
    terminal state: the round completed at every rank exactly once (the
    engine faults on any double firing), all ranks hold identical result
    bytes, and the result equals the tree-ordered sum of exactly the
    contributions its mask flags.  A terminal also re-reads every engine's
    state and raises EngineStateDrift if it differs from the stored one.

    arrivals_first performs all arrivals before exploring, which restricts
    the enumeration to message delivery orders; in that regime the final
    buffer must also be identical in every order.
    """
    if cfg is None:
        cfg = CollectiveConfig(p=2, flavor=SOLO, vector_len=2)
    p = cfg.p
    contributions = [np.arange(1, cfg.vector_len + 1, dtype=np.float64) * (r + 1)
                     for r in range(p)]
    if arrive_ranks is None:
        arrive_ranks = tuple(range(p))

    # each non-empty stream's Messages in FIFO order, as a tuple a state can
    # hold as it is
    streams: dict[tuple, tuple[Message, ...]] = {}

    def send_fn(msg: Message) -> None:
        key = (msg.src, msg.dst, msg.phase, msg.step)
        streams[key] = streams.get(key, ()) + (msg,)

    engines: list[Engine] = []
    for r in range(p):
        # single round; terminal state is generation 0 done
        template = replace(build_allreduce_template(r, cfg), persistent=False)
        eng = Engine(Program(template), r, 0, send_fn, lambda: 0)
        eng.commit()
        engines.append(eng)
    # each rank's result, read where its chain left it; restore() writes in place
    published = [e.buffer(e.program.publish_from) for e in engines]

    def arrive(rank: int) -> None:
        eng = engines[rank]
        # too late if the round already took this rank's (null) slot
        if not eng.consumed[eng.program.snapshot_last]:
            write_payload(eng.buffer("send"), cfg, rank, contributions[rank])
        eng.activate_internal(expected_generation=0)

    # A state is (engine states, net, pending arrivals), where net is the
    # streams' items by key.  The engines and streams are live: `held` is
    # the state object each engine holds and `held_net` the net the streams
    # hold, so a restore puts back only what differs.
    def restore(s) -> None:
        nonlocal held_net
        engs, net, _ = s
        for r, state in enumerate(engs):
            if held[r] is not state:
                engines[r].restore(state)
                held[r] = state
        if held_net is not net:
            streams.clear()
            streams.update(net)
            held_net = net

    def apply(s, action) -> tuple:
        """Run `action` from the live state s; return the state it leads to.

        An explorer engine has no recorder and no callbacks, and it reaches
        another rank only through send_fn, which appends to a stream.  So an
        arrival or a delivery changes one engine, the one it names, plus the
        streams, and only that engine's state() is read again."""
        nonlocal held_net
        engs, _, arrivals = s
        kind, x = action
        if kind == "arrive":
            arrivals = arrivals - {x}
            arrive(x)
            r = x
        else:
            q = streams.pop(x)
            msg = q[0]
            if len(q) > 1:
                streams[x] = q[1:]
            r = msg.dst
            engines[r].deliver(msg)
        state = held[r] = engines[r].state()
        net = held_net = tuple(sorted(streams.items()))
        return (engs[:r] + (state,) + engs[r + 1:], net, arrivals)

    pending = frozenset(arrive_ranks)
    if arrivals_first:
        for r in sorted(pending):
            arrive(r)
        pending = frozenset()
    held = [e.state() for e in engines]
    held_net = tuple(sorted(streams.items()))

    seen: set = set()
    results: set = set()
    violations: list[str] = []
    terminals = 0
    stack = [((tuple(held), held_net, pending), ())]
    while stack:
        s, path = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if len(seen) > max_states:
            raise StateSpaceTooLarge(f"exceeded {max_states} states")
        engs, net, arrivals = s
        ch = [("arrive", r) for r in sorted(arrivals)] + [("deliver", k) for k, _ in net]
        if not ch:
            restore(s)
            terminals += 1
            drifted = [r for r, e in enumerate(engines) if e.state() != engs[r]]
            if drifted:
                raise EngineStateDrift(
                    f"ranks {drifted} hold states the search did not record, via {path}")
            done = [e.done_generation == 0 and e.generation == 0 for e in engines]
            if not all(done):
                violations.append(f"terminal state with incomplete round: {done} via {path}")
            res = tuple(b.tobytes() for b in published)
            if len(set(res)) != 1:
                violations.append(f"ranks disagree at terminal via {path}")
            results.add(res[0])
            data, mask = parse_payload(published[0], cfg)
            vecs = [contributions[r] if (mask >> r) & 1
                    else np.zeros_like(contributions[r]) for r in range(p)]
            if tree_order_sum(vecs).tobytes() != data.tobytes():
                violations.append(f"terminal sum does not match its mask via {path}")
            continue
        # each choice restores s, so no restore is needed before the loop
        for c in ch:
            restore(s)
            stack.append((apply(s, c), path + (c,)))
    return InterleavingReport(len(seen), terminals, len(results), violations)
