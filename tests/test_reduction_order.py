"""Every rank's compiled Program combines the p contributions in exactly
tree_order_sum's order, for every flavor and p up to 1,024.

Numeric runs cannot show this at scale: the bench and the explorer
contribute integer-valued vectors, whose float64 sums are exact in any
order, so a mis-associated reduction gives the same bytes.  Here each rank's
real Program runs on symbolic payloads.  A buffer holds a hash-consed
expression id: leaf r is rank r's snapshot, and each add, the snapshot's
and each recv's that adds its payload, makes a commutative but
non-associative add node, where adding zero returns the other operand.  Two ids are equal exactly when the two sums pair the same
leaves the same way, so an id equal to tree_order_sum's over the leaves
also proves that each leaf appears exactly once.
"""

from collections import deque

import pytest

from eagercoll import collectives
from eagercoll.collectives import (
    FLAVORS,
    MAJORITY,
    SYNC,
    CollectiveConfig,
    floor_pow2,
    initiator_for_round,
    rank_programs,
    tree_order_sum,
)
from eagercoll.transport import PHASE_RED

SIZES = [*range(1, 65), 100, 127, 128, 129, 255, 256, 511, 512, 1000, 1024]
ZERO = 0  # the id of every buffer before it is written; ids 1..p are the leaves


class Sums:
    """Hash-consed add nodes over the ids ZERO, 1..p (the leaves) and the
    nodes made so far."""

    def __init__(self, p: int):
        self.nodes: dict[tuple[int, int], int] = {}
        self.next = p + 1

    def add(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return b if a == ZERO else a
        key = (a, b) if a < b else (b, a)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = self.next
            self.next += 1
        return node


class Sym:
    """An id that adds through Sums, so tree_order_sum runs on it unchanged."""

    def __init__(self, sums: Sums, id_: int):
        self.sums, self.id = sums, id_

    def __add__(self, other):
        if isinstance(other, Sym):
            return Sym(self.sums, self.sums.add(self.id, other.id))
        if type(other) is int and other == 0:
            return self
        return NotImplemented  # a 0-d object array adds its Sym through numpy

    __radd__ = __add__


def published_ids(cfg: CollectiveConfig, sums: Sums, arrivals) -> list[int | None]:
    """Run one round of every rank's compiled Program on symbolic payloads:
    commit each rank, fire the entry op of each rank in `arrivals`, then
    deliver messages in FIFO order until none is left.  Returns the id each
    rank publishes, None for a rank that never publishes."""
    p = cfg.p
    programs = rank_programs(cfg)
    peers = [collectives.allreduce_peers(r, cfg) for r in range(p)]
    bufs = [dict.fromkeys(prog.buffers, ZERO) for prog in programs]
    for r, prog in enumerate(programs):
        bufs[r][prog.snapshot_src] = r + 1
    waiting = [bytearray(prog.waiting0) for prog in programs]
    consumed = [bytearray(len(prog.records)) for prog in programs]
    parked: list[dict[int, int | None]] = [{} for _ in programs]
    published: list[int | None] = [None] * p
    net = deque()

    def fire(r: int, stack: list[int]) -> None:
        # the engine's _cascade: fire each unconsumed, ready op once; a recv
        # adds its parked payload into its buffer, or copies it in
        prog, buf, wait, done = programs[r], bufs[r], waiting[r], consumed[r]
        while stack:
            oid = stack.pop()
            if done[oid] or wait[oid]:
                continue
            dependents, _, send, recv, reduce, tail, _ = prog.records[oid]
            done[oid] = 1
            for d in dependents:
                if wait[d]:
                    wait[d] -= 1
            if send is not None:
                _, phase, step, name = send
                net.append((peers[r][phase, step], phase, step,
                            None if name is None else buf[name]))
            elif recv is not None:
                name, adds = recv
                payload = parked[r].pop(oid)
                if name is not None:
                    buf[name] = sums.add(buf[name], payload) if adds else payload
            elif reduce is not None:
                dst, src = reduce
                buf[dst] = sums.add(buf[dst], buf[src])
            if tail & 1:
                buf[prog.snapshot_src] = ZERO
            if tail & 2:
                published[r] = buf[prog.publish_from]
            stack.extend(dependents)

    for r in arrivals:
        fire(r, [programs[r].entry])
    while net:
        dst, phase, step, payload = net.popleft()
        oid = programs[dst].recv_index[phase, step]
        if consumed[dst][oid]:
            continue  # a duplicate activation from an overlapping tree
        assert oid not in parked[dst]
        parked[dst][oid] = payload  # the message counts the recv down
        waiting[dst][oid] -= 1
        fire(dst, [oid])
    return published


def failed_checks(cfg: CollectiveConfig) -> set[str]:
    """The checks one round breaks: liveness (a rank never publishes),
    agreement (ranks publish different ids), tree-order (an id other than
    tree_order_sum's over the leaves).  A sync round starts at every rank;
    a partial one at a single rank, the round's initiator for majority and
    the last rank for solo, so the activation tree must reach every rank."""
    p = cfg.p
    sums = Sums(p)
    arrivals = (range(p) if cfg.flavor == SYNC
                else [initiator_for_round(cfg.seed, 0, p) if cfg.flavor == MAJORITY
                      else p - 1])
    got = published_ids(cfg, sums, arrivals)
    want = tree_order_sum([Sym(sums, r + 1) for r in range(p)]).id
    failed = set()
    if None in got:
        failed.add("liveness")
    ids = set(got) - {None}
    if len(ids) > 1:
        failed.add("agreement")
    if ids - {want}:
        failed.add("tree-order")
    return failed


@pytest.mark.parametrize("flavor", FLAVORS)
def test_every_program_reduces_in_tree_order(flavor):
    bad = {p: f for p in SIZES
           if (f := failed_checks(CollectiveConfig(p=p, flavor=flavor, vector_len=1, seed=7)))}
    assert not bad


# ---------------------------------------------------------------------------
# mutants: each must fail the check it names, at exactly the sizes it names


def _descending_butterfly(monkeypatch):
    """Butterfly step k pairs ranks 2^(m2-1-k) apart instead of 2^k."""
    peers_of = collectives.allreduce_peers

    def peers(rank, cfg):
        got = peers_of(rank, cfg)
        m2 = floor_pow2(cfg.p).bit_length() - 1
        if rank < floor_pow2(cfg.p):
            got.update(((PHASE_RED, k), rank ^ (1 << (m2 - 1 - k))) for k in range(m2))
        return got

    monkeypatch.setattr(collectives, "allreduce_peers", peers)


def _wrong_fold_peer(monkeypatch):
    """Extra rank p2 + i folds into base rank (i + 1) mod e, where e ranks
    are extra, instead of rank i; each base rank still gets one fold."""
    peers_of = collectives.allreduce_peers

    def peers(rank, cfg):
        got = peers_of(rank, cfg)
        p2 = floor_pow2(cfg.p)
        if rank >= p2:
            got[PHASE_RED, p2.bit_length() - 1] = (rank - p2 + 1) % (cfg.p - p2)
        return got

    monkeypatch.setattr(collectives, "allreduce_peers", peers)


def _final_send_before_last_reduce(monkeypatch):
    """A base rank sends its extra partner the result as it stands before
    the butterfly's last recv adds its payload."""
    build = collectives.build_allreduce_template

    def template(rank, cfg):
        tpl = build(rank, cfg)
        ops = {op.label: op for op in tpl.ops}
        if "final_send" in ops:
            last = max(op.step for op in tpl.ops if op.label.startswith("bf_send"))
            fin = ops["final_send"]
            tpl.ops[fin.oid] = fin._replace(deps=ops[f"bf_send{last}"].deps)
        return tpl

    monkeypatch.setattr(collectives, "build_allreduce_template", template)


MUTANT_SIZES = [*range(1, 34), 100, 129]


def _extras(p):
    return p - floor_pow2(p)


@pytest.mark.parametrize("patch, check, fails_at", [
    (_descending_butterfly, "tree-order", lambda p: p >= 4),
    (_wrong_fold_peer, "tree-order", lambda p: _extras(p) >= 2),
    (_final_send_before_last_reduce, "agreement", lambda p: _extras(p) >= 1),
], ids=["descending-butterfly", "wrong-fold-peer", "final-send-before-last-reduce"])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_each_mutant_fails_its_check(monkeypatch, patch, check, fails_at, flavor):
    patch(monkeypatch)
    caught = [p for p in MUTANT_SIZES
              if check in failed_checks(CollectiveConfig(p=p, flavor=flavor, vector_len=1))]
    assert caught == [p for p in MUTANT_SIZES if fails_at(p)]
