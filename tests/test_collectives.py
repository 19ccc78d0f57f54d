"""Allreduce flavors over the schedule engine: correctness oracles.

The reduction oracle is tree_order_sum (same combination order as the
butterfly, so comparisons can be bit-exact).  The activation oracle is a
breadth-first walk of the forwarding rule itself, computed without the
engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eagercoll.collectives import (
    AllreduceHandle,
    CollectiveConfig,
    RoundOrderError,
    allreduce_peers,
    build_allreduce_template,
    ceil_log2,
    floor_pow2,
    initiator_for_round,
    parse_payload,
    rank_programs,
    run_allreduce,
    tree_order_sum,
    write_payload,
)
from eagercoll.schedule import Engine, K_SEND, Program
from eagercoll.trace import TraceRecorder
from eagercoll.transport import PHASE_ACT, SimTransport
from eagercoll.verify import check_round_contracts


def rand_contributions(p, vlen, seed):
    return np.random.default_rng(seed).standard_normal((p, vlen))


def test_sync_pair_frozen_example():
    cfg = CollectiveConfig(p=2, flavor="sync", vector_len=2)
    res, _, _ = run_allreduce(cfg, np.array([[2.0, 4.0], [4.0, 8.0]]))
    for r in range(2):
        assert res[(r, 0)].u.tolist() == [3.0, 6.0]
        assert res[(r, 0)].included == 0b11
        assert res[(r, 0)].nap == 2


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 13])
def test_sync_matches_tree_oracle_bitwise(p):
    cfg = CollectiveConfig(p=p, flavor="sync", vector_len=8)
    contrib = rand_contributions(p, 8, seed=p)
    res, _, _ = run_allreduce(cfg, contrib)
    want = tree_order_sum([contrib[r] for r in range(p)]) / p
    for r in range(p):
        assert res[(r, 0)].u.tobytes() == want.tobytes()
        assert res[(r, 0)].nap == p
    # and the tree order stays within float tolerance of the serial sum
    assert np.allclose(want * p, contrib.sum(axis=0), rtol=1e-12)


@pytest.mark.parametrize("flavor", ["solo", "majority", "sync"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_negative_zero_contributions_sum_as_the_engine_sums_them(p, flavor):
    """Every accumulator starts at +0.0 and adds its contribution in, so an
    element that is -0.0 in every contribution comes out +0.0.  The
    reference sum starts its leaves the same way: the run checks clean and
    each u is the reference's bytes."""
    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=3)
    rows = np.tile([-0.0, 1.0, -0.0], (p, 1))
    rec = TraceRecorder()
    res, _, _ = run_allreduce(cfg, rows, recorder=rec)
    assert check_round_contracts(rec, p, expect_rounds=1).violations == []
    for r in range(p):
        got = res[(r, 0)]
        fresh = [rows[q] if (got.included >> q) & 1 else np.zeros(3) for q in range(p)]
        assert got.u.tobytes() == (tree_order_sum(fresh) / p).tobytes()
        assert not np.signbit(got.u).any()


def test_solo_first_arrival_defines_the_round():
    """Under skew the earliest rank activates alone; everyone reads its round."""
    cfg = CollectiveConfig(p=4, flavor="solo", vector_len=4)
    contrib = rand_contributions(4, 4, seed=1)
    res, _, _ = run_allreduce(cfg, contrib, delay_us=lambda r, t: 1000 * r)
    want = (contrib[0] / 4).tobytes()
    for r in range(4):
        assert res[(r, 0)].included == 0b0001
        assert res[(r, 0)].nap == 1
        assert res[(r, 0)].u.tobytes() == want


def test_solo_earliest_rank_need_not_be_rank_zero():
    cfg = CollectiveConfig(p=4, flavor="solo", vector_len=2)
    contrib = rand_contributions(4, 2, seed=2)
    delays = {0: 3000, 1: 2000, 2: 0, 3: 1000}
    res, _, _ = run_allreduce(cfg, contrib, delay_us=lambda r, t: delays[r])
    for r in range(4):
        assert res[(r, 0)].included == 0b0100


def test_solo_zero_skew_includes_everyone():
    """With no injected delay every contribution boards before any delivery."""
    cfg = CollectiveConfig(p=8, flavor="solo", vector_len=4)
    contrib = rand_contributions(8, 4, seed=3)
    res, handles, _ = run_allreduce(cfg, contrib, rounds=3, link_latency_us=10)
    want0 = tree_order_sum(list(contrib)) / 8
    for r in range(8):
        for t in range(3):
            assert res[(r, t)].nap == 8
        assert res[(r, 0)].u.tobytes() == want0.tobytes()
    assert all(h.engine.done_generation == 2 for h in handles)


def test_majority_skew_round_zero_mask_is_an_arrival_prefix():
    """All ranks start round 0 together; with skew 1000*r the round closes
    the instant its designated initiator i arrives, so exactly ranks 0..i
    have boarded: nap == i + 1.  (Later rounds free-run: a laggard's sleeps
    compound, so the prefix shape is a round-0 property only.)"""
    for seed in (31, 32, 33, 34):
        p = 4
        cfg = CollectiveConfig(p=p, flavor="majority", vector_len=4, seed=seed)
        res, _, _ = run_allreduce(
            cfg, lambda r, t: np.full(4, float(10 * r + t)),
            delay_us=lambda r, t: 1000 * r)
        init = initiator_for_round(seed, 0, p)
        ref = res[(0, 0)]
        assert ref.included == (1 << (init + 1)) - 1
        assert ref.nap == init + 1
        for r in range(1, p):
            assert res[(r, 0)].included == ref.included
            assert res[(r, 0)].u.tobytes() == ref.u.tobytes()


def test_majority_multiround_agreement_and_initiator_freshness():
    """Across free-running rounds the exact mask depends on arrival history,
    but every generation must carry its designated initiator's fresh data
    and all ranks must agree bitwise.  A slow rank's call for app round t
    may legitimately observe a later generation; the observed generation
    never goes backwards."""
    from eagercoll.trace import TraceRecorder

    p, rounds, seed = 4, 6, 31
    cfg = CollectiveConfig(p=p, flavor="majority", vector_len=4, seed=seed)
    rec = TraceRecorder()
    res, _, _ = run_allreduce(
        cfg, lambda r, t: np.full(4, float(10 * r + t)),
        rounds=rounds, delay_us=lambda r, t: 1000 * r, recorder=rec)
    by_gen = {}
    for row in rec.rounds:
        by_gen.setdefault(row.rnd, []).append(row)
    assert sorted(by_gen) == list(range(rounds))
    for g, rows in by_gen.items():
        init = initiator_for_round(seed, g, p)
        assert len(rows) == p
        ref = rows[0]
        assert (ref.included >> init) & 1, "initiator's own data must board"
        assert 1 <= ref.nap == ref.included.bit_count() <= p
        assert sorted(row.rank for row in rows) == list(range(p))
        assert all(row.included == ref.included for row in rows)
        assert all(row.u.tobytes() == ref.u.tobytes() for row in rows)
    for r in range(p):
        gens = [res[(r, t)].rnd for t in range(rounds)]
        assert all(g >= t for t, g in enumerate(gens))
        assert gens == sorted(gens)


def test_initiator_is_a_pure_function():
    vals = [initiator_for_round(123, t, 8) for t in range(50)]
    assert vals == [initiator_for_round(123, t, 8) for t in range(50)]
    assert initiator_for_round(123, 7, 8) != initiator_for_round(124, 7, 8) or True
    assert all(0 <= v < 8 for v in vals)


def test_initiator_and_the_reference_sum_reject_an_empty_world():
    with pytest.raises(ValueError, match="p must be >= 1"):
        initiator_for_round(123, 0, 0)
    with pytest.raises(ValueError, match="no vectors"):
        tree_order_sum([])


def test_initiator_draws_are_uniform_enough():
    n, p = 20000, 8
    counts = np.zeros(p)
    for t in range(n):
        counts[initiator_for_round(77, t, p)] += 1
    e = n / p
    chi2 = float(((counts - e) ** 2 / e).sum())
    # pinned run gives 1.53; 30 is far past the df=7 upper tail
    assert chi2 < 30.0


def test_late_contribution_is_refused():
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=2)
    contrib = np.array([[1.0, 2.0], [5.0, 5.0]])
    sim = SimTransport(2)
    handles = [AllreduceHandle(cfg, r, sim) for r in range(2)]
    assert handles[0].try_contribute(0, contrib[0])
    handles[0].activate(0)
    sim.run()
    assert handles[0].engine.done_generation == 0
    assert not handles[1].try_contribute(0, contrib[1])
    with pytest.raises(StopIteration) as ei:
        next(handles[1].wait_done(0))
    res = ei.value.value
    assert res.rnd == 0 and res.rank == 1 and res.included == 0b01


def test_add_waiter_on_a_published_round_calls_back_at_once():
    cfg = CollectiveConfig(p=2, flavor="sync", vector_len=2)
    _, handles, _ = run_allreduce(cfg, np.ones((2, 2)), rounds=2)
    got = []
    for g in (0, 1, 2):
        handles[1].add_waiter(g, 7, lambda rank, res: got.append((rank, res.rnd)))
    assert got == [(7, 1), (7, 1)]  # round 2 has not published yet


def test_a_waiter_is_called_back_exactly_once():
    """A handle hands each waiter to its callback once: a waiter added
    before round 0 publishes is woken by round 0, and round 1's publish,
    later in the same run, does not wake it again."""
    cfg = CollectiveConfig(p=2, flavor="sync", vector_len=2)
    sim = SimTransport(2)
    handles = [AllreduceHandle(cfg, r, sim) for r in range(2)]
    got = []
    handles[1].add_waiter(0, 7, lambda rank, res: got.append((rank, res.rnd)))

    def body(r):
        for t in range(2):
            yield from handles[r].call_round(t, np.ones(2))

    for r in range(2):
        sim.spawn(r, body(r))
    sim.run()
    assert handles[1].engine.done_generation == 1
    assert got == [(7, 0)]


def test_out_of_order_contribution_raises():
    cfg = CollectiveConfig(p=2, flavor="solo", vector_len=2)
    h = AllreduceHandle(cfg, 0, SimTransport(2))
    with pytest.raises(RoundOrderError):
        h.try_contribute(1, np.ones(2))  # round 0 is current
    assert h.try_contribute(0, np.ones(2))


def test_wait_done_fast_path_returns_latest():
    cfg = CollectiveConfig(p=2, flavor="sync", vector_len=2)
    _, handles, _ = run_allreduce(cfg, np.ones((2, 2)), rounds=3)
    g = handles[0].wait_done(1)
    with pytest.raises(StopIteration) as ei:
        next(g)
    res = ei.value.value
    assert res.rnd == 2 and res.rank == 0 and res.nap == 2


# signed zeros, infinities, quiet NaNs of either sign (one with a payload),
# subnormals, the extremes and ordinary values
_SPECIAL_BITS = [0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                 0x7FF8000000000123, 0x0000000000000001, 0x8000000000000003,
                 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
                 0x3FF0000000000000, 0xC008000000000000, 0x3FB999999999999A]


@pytest.mark.parametrize("p", [1 << k for k in range(1, 11)] + [3, 6, 1000])
def test_a_result_divides_by_p_bitwise(p):
    """_done_cb multiplies by 1/p when p is a power of two: 1/p is then
    exact, so the product rounds the same real number as data / p and the
    bytes agree on every special value.  Other p divide."""
    vals = np.array(_SPECIAL_BITS, dtype=np.uint64).view(np.float64)
    want = (vals / p).view(np.uint64).tolist()
    if p & (p - 1) == 0:
        assert (vals * (1.0 / p)).view(np.uint64).tolist() == want
    cfg = CollectiveConfig(p=p, flavor="sync", vector_len=len(vals))
    published = np.zeros(cfg.payload_nbytes, dtype=np.uint8)
    write_payload(published, cfg, 0, vals)
    handle = AllreduceHandle(cfg, 0, SimTransport(p))
    handle._done_cb(0, published)
    assert handle._last.u.view(np.uint64).tolist() == want


# ---------------------------------------------------------------------------
# activation topology


def activation_hops(p, initiator):
    """Breadth-first distance of every rank from the initiator under the
    forwarding rule: the initiator sends all hops 2^k; a rank first reached
    over hop 2^j forwards only hops 2^k with k < j."""
    m = ceil_log2(p)
    dist = {initiator: 0}
    frontier = [(initiator, m)]  # (rank, exclusive upper bound on k)
    while frontier:
        nxt = []
        for r, kmax in frontier:
            for k in range(kmax):
                dst = (r + (1 << k)) % p
                if dst not in dist:
                    dist[dst] = dist[r] + 1
                    nxt.append((dst, k))
        frontier = nxt
    return dist


@pytest.mark.parametrize("p", list(range(2, 18)))
def test_activation_reaches_everyone_within_log_hops(p):
    bound = ceil_log2(p)
    for initiator in range(p):
        dist = activation_hops(p, initiator)
        assert len(dist) == p, f"initiator {initiator} strands ranks"
        assert max(dist.values()) <= bound


@pytest.mark.parametrize("p", [4, 6, 8])
def test_template_wires_the_forwarding_rule(p):
    """The built schedule's activation sends match the arithmetic rule the
    oracle walks: peer (rank + 2^k) mod p, enabled by entry or any later-hop
    arrival."""
    cfg = CollectiveConfig(p=p, flavor="solo", vector_len=1)
    m = ceil_log2(p)
    for rank in range(p):
        tpl = build_allreduce_template(rank, cfg)
        (entry,) = [op.oid for op in tpl.ops if op.entry]
        acts = [op for op in tpl.ops if op.kind == K_SEND and op.phase == PHASE_ACT]
        assert len(acts) == m
        recv_ids = {op.step: op.oid for op in tpl.ops
                    if op.kind == "recv" and op.phase == PHASE_ACT}
        for op in sorted(acts, key=lambda o: o.step):
            k = op.step
            assert op.peer == (rank + (1 << k)) % p
            assert op.logic == "or"
            assert set(op.deps) == {entry} | {recv_ids[j] for j in range(k + 1, m)}


def _compiled(eng):
    """What an engine's fire loop reads, with each buffer view as its place
    (the arena, byte offset, length, dtype)."""
    base = eng._arena.__array_interface__["data"][0]

    def place(view):
        if view is None:
            return None
        view = np.asarray(view)  # a copying recv's memoryview too
        addr = view.__array_interface__["data"][0]
        assert base <= addr < base + eng._arena.nbytes, "view outside the arena"
        return (addr - base, view.nbytes, view.dtype.str)

    records = [(ds, label, send and (*send[:3], place(send[3])),
                recv and (place(recv[0]), recv[1]),
                reduce and tuple(place(v) for v in reduce), tail, then)
               for ds, label, send, recv, reduce, tail, then in eng._program]
    prog = eng.program
    return (records, prog.waiting0, prog.entry, eng._recv_index,
            place(eng._publish_buf), eng._arena.nbytes)


@pytest.mark.parametrize("flavor", ["sync", "solo", "majority"])
def test_class_program_with_own_peers_compiles_like_own_template(flavor):
    """Every rank's engine bound from its rank class's Program and its own
    peers reads the same fire records (peers, phases, steps, buffer places,
    targets, chain successors), start counters, entry and recv index as an
    engine compiled from that rank's own template."""
    for p in range(1, 71):
        cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=2)
        programs = rank_programs(cfg)
        p2 = floor_pow2(p)
        assert len({id(prog) for prog in programs}) == len({(r >= p2, r + p2 < p)
                                                            for r in range(p)})
        for r, program in enumerate(programs):
            shared = Engine(program, r, 0, None, None, peers=allreduce_peers(r, cfg))
            own = Engine(Program(build_allreduce_template(r, cfg)), r, 0, None, None)
            assert _compiled(shared) == _compiled(own), (p, r)


def test_sync_has_no_activation_messages():
    tpl = build_allreduce_template(0, CollectiveConfig(p=4, flavor="sync", vector_len=1))
    assert not any(op.phase == PHASE_ACT for op in tpl.ops if op.kind == K_SEND)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        CollectiveConfig(p=0, flavor="sync", vector_len=1)
    with pytest.raises(ValueError):
        CollectiveConfig(p=2, flavor="quorum", vector_len=1)
    with pytest.raises(ValueError):
        CollectiveConfig(p=2, flavor="sync", vector_len=0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_payloads_of_distinct_ranks_add_to_their_set(data):
    """For any p <= 1,024, the payloads of any set of distinct ranks, added
    word by word in any order from a zeroed accumulator as the engine's
    reductions add them, parse back to exactly that set, with the values'
    sum; and no mask word reaches 2^52 at any step, so every partial sum
    is exact."""
    p = data.draw(st.integers(1, 1024))
    vlen = data.draw(st.integers(1, 3))
    cfg = CollectiveConfig(p=p, flavor="sync", vector_len=vlen)
    assert cfg.mask_words == -(-p // 52) and cfg.payload_nbytes == 8 * (vlen + cfg.mask_words)
    ranks = data.draw(st.lists(st.integers(0, p - 1), unique=True, max_size=min(p, 200)))
    acc = np.zeros(cfg.payload_nbytes, dtype=np.uint8)
    total = np.zeros(vlen)
    for r in ranks:
        vec = np.arange(vlen) + 1.0 + r
        buf = np.zeros(cfg.payload_nbytes, dtype=np.uint8)
        write_payload(buf, cfg, r, vec)
        np.add(acc.view(np.float64), buf.view(np.float64), out=acc.view(np.float64))
        total += vec
        assert (acc.view(np.float64)[vlen:] < 2.0 ** 52).all()
    values, mask = parse_payload(acc, cfg)
    assert mask == sum(1 << r for r in ranks)
    assert values.tolist() == total.tolist()


def test_a_full_world_fills_every_mask_word_below_two_to_the_52():
    """All 1,024 ranks: 19 full words of 52 bits, each 2^52 - 1, then 36
    bits in the last; offering twice in a round leaves one bit."""
    cfg = CollectiveConfig(p=1024, flavor="sync", vector_len=1)
    acc = np.zeros(cfg.payload_nbytes, dtype=np.uint8)
    for r in range(cfg.p):
        buf = np.zeros(cfg.payload_nbytes, dtype=np.uint8)
        write_payload(buf, cfg, r, np.ones(1))
        write_payload(buf, cfg, r, np.ones(1))
        acc.view(np.float64)[:] += buf.view(np.float64)
    words = acc.view(np.float64)[1:].tolist()
    assert words == [2.0 ** 52 - 1] * 19 + [2.0 ** 36 - 1]
    assert parse_payload(acc, cfg)[1] == (1 << 1024) - 1


def test_helpers():
    assert [ceil_log2(p) for p in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    assert [floor_pow2(p) for p in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 2, 4, 4, 8, 8]
