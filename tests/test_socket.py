"""Socket backend: same process bodies, kernel socketpairs and threads.

Wall-clock timing makes nothing here deterministic, so these tests assert
protocol outcomes (results agree, rounds complete), never latencies.
"""

import gc
import os
import socket
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import eagercoll
from eagercoll.collectives import AllreduceHandle, CollectiveConfig, tree_order_sum
from eagercoll.eagersgd import TrainState, training_process
from eagercoll.models import batch_table, gen_dataset
from eagercoll.trace import TraceRecorder
from eagercoll.transport import (
    PHASE_RED, Message, SocketTransport, Sleep, TransportClosed, UnroutedMessage,
)
from eagercoll.verify import DeliveryLedger, check_round_contracts


@pytest.mark.parametrize("flavor", ["sync", "solo", "majority"])
def test_socket_allreduce_completes_with_valid_result(flavor):
    p, vlen, rounds = 4, 8, 6
    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=vlen, seed=9)
    rng = np.random.default_rng(4)
    contrib = rng.standard_normal((rounds, p, vlen))
    sleep_us = rng.integers(0, 2000, (rounds, p))
    rec = TraceRecorder()
    net = SocketTransport(p)
    try:
        handles = [AllreduceHandle(cfg, r, net, cid=0, recorder=rec) for r in range(p)]

        def body(rank):
            for t in range(rounds):
                yield Sleep(int(sleep_us[t, rank]))
                yield from handles[rank].call_round(t, contrib[t, rank])

        net.run_processes({r: body(r) for r in range(p)})
    finally:
        net.close()

    # agreement, liveness, and u is the tree-ordered mean of what boarded
    rep = check_round_contracts(rec, p, expect_rounds=rounds)
    assert rep.ok, rep.violations
    for snap in rec.snapshots:
        if snap.fresh:
            assert snap.data.tobytes() == contrib[snap.rnd, snap.rank].tobytes()
    if flavor == "sync":
        assert all(res.nap == p for res in rec.rounds)


def test_socket_sync_includes_everyone():
    p, vlen = 3, 4
    cfg = CollectiveConfig(p=p, flavor="sync", vector_len=vlen)
    net = SocketTransport(p)
    try:
        handles = [AllreduceHandle(cfg, r, net, cid=0) for r in range(p)]
        contrib = np.arange(p * vlen, dtype=np.float64).reshape(p, vlen)
        results = {}

        def body(rank):
            for t in range(2):
                res = yield from handles[rank].call_round(t, contrib[rank] + t)
                results[(rank, t)] = res

        net.run_processes({r: body(r) for r in range(p)})
    finally:
        net.close()

    for t in range(2):
        want = (tree_order_sum([contrib[r] + t for r in range(p)]) / p).tobytes()
        for r in range(p):
            assert results[(r, t)].nap == p
            assert results[(r, t)].u.tobytes() == want


def _sync_pair(net, vlen=2, cid=0):
    cfg = CollectiveConfig(p=2, flavor="sync", vector_len=vlen)
    handles = [AllreduceHandle(cfg, r, net, cid=cid) for r in range(2)]

    def body(rank):
        yield from handles[rank].call_round(0, np.full(vlen, rank + 1.0))

    return {r: body(r) for r in range(2)}


def _solo_bodies(net, rounds=2):
    cfg = CollectiveConfig(p=net.p, flavor="solo", vector_len=2, seed=1)
    handles = [AllreduceHandle(cfg, r, net, cid=0) for r in range(net.p)]

    def body(rank):
        for t in range(rounds):
            yield from handles[rank].call_round(t, np.ones(2))

    return {r: body(r) for r in range(net.p)}


def test_reader_failure_is_raised_from_run_processes():
    """A message no engine is registered for fails the driver of the rank it
    reaches; run_processes names that error, not just the round it starved."""
    net = SocketTransport(2)
    try:
        bodies = _sync_pair(net)
        net.send(Message(0, 1, 5, 0, PHASE_RED, 0, b""))
        with pytest.raises(RuntimeError) as info:
            net.run_processes(bodies, timeout=2)
    finally:
        net.close()
    err = info.value
    assert "UnroutedMessage" in str(err) or isinstance(err.__cause__, UnroutedMessage)


def _failed_run(net):
    """The _sync_pair round after a cid-5 message has failed rank 1's driver."""
    bodies = _sync_pair(net)
    net.send(Message(0, 1, 5, 0, PHASE_RED, 0, b""))
    with pytest.raises(RuntimeError, match="UnroutedMessage"):
        net.run_processes(bodies, timeout=10)


def test_failed_run_joins_the_drivers_it_starved():
    before = set(threading.enumerate())
    net = SocketTransport(2)
    try:
        _failed_run(net)
        drivers = set(threading.enumerate()) - before - set(net._threads)
        assert not [th for th in drivers if th.is_alive()]
    finally:
        net.close()


def test_a_run_after_a_failed_run_still_stops_at_quiescence():
    """The frame that failed a driver counts as handed over, so the next run
    on the transport does not wait for it until its timeout."""
    net = SocketTransport(2)
    try:
        _failed_run(net)
        net.run_processes(_sync_pair(net, cid=1), timeout=10)
    finally:
        net.close()


def test_close_after_a_failed_run_is_prompt_and_leaves_no_thread():
    before = set(threading.enumerate())
    net = SocketTransport(2)
    try:
        _failed_run(net)
    finally:
        t0 = time.monotonic()
        net.close()
        took = time.monotonic() - t0
    assert took < 2.0
    assert not [th for th in set(threading.enumerate()) - before if th.is_alive()]


# Runs in a child interpreter, so a send path that deadlocks fails this test
# at its timeout instead of wedging the suite.
_EIGHT_MIB_SOLO = """
import numpy as np
from eagercoll.collectives import AllreduceHandle, CollectiveConfig, tree_order_sum
from eagercoll.transport import SocketTransport

p, vlen, rounds = 8, 2**20, 2


def contrib(rank, t):
    return np.random.default_rng([rank, t]).standard_normal(vlen)


cfg = CollectiveConfig(p=p, flavor="solo", vector_len=vlen, seed=3)
net = SocketTransport(p)
try:
    handles = [AllreduceHandle(cfg, r, net, cid=0) for r in range(p)]
    results = {}

    def body(rank):
        for t in range(rounds):
            res = yield from handles[rank].call_round(t, contrib(rank, t))
            results.setdefault(res.rnd, {})[rank] = res

    net.run_processes({r: body(r) for r in range(p)}, timeout=40)
finally:
    net.close()

assert sorted(results) == list(range(rounds)), sorted(results)
for t in range(rounds):
    ref = next(iter(results[t].values()))
    aboard = [contrib(r, t) if (ref.included >> r) & 1 else np.zeros(vlen)
              for r in range(p)]
    assert ref.u.tobytes() == (tree_order_sum(aboard) / p).tobytes(), t
    for res in results[t].values():
        assert res.included == ref.included and res.u.tobytes() == ref.u.tobytes()
print("ok")
"""


def test_socket_solo_with_eight_mib_payloads_completes():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(eagercoll.__file__)))
    done = subprocess.run([sys.executable, "-c", _EIGHT_MIB_SOLO], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"


def test_reader_failure_is_raised_at_once():
    """run_processes raises a driver's delivery error as soon as it is
    recorded, not after the ranks it starved have waited out their timeout."""
    net = SocketTransport(2)
    try:
        bodies = _sync_pair(net)
        net.send(Message(0, 1, 5, 0, PHASE_RED, 0, b""))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="UnroutedMessage"):
            net.run_processes(bodies, timeout=10)
        assert time.monotonic() - t0 < 2.0
    finally:
        net.close()


def test_send_after_close_raises_transport_closed():
    net = SocketTransport(2)
    net.close()
    with pytest.raises(TransportClosed):
        net.send(Message(0, 1, 0, 0, PHASE_RED, 0, b"x"))


def test_read_exact_reassembles_a_chunked_frame():
    frame = np.random.default_rng(3).integers(0, 256, 5 * 2**20, dtype=np.uint8).tobytes()
    a, b = socket.socketpair()
    with a, b:
        def write():
            for i in range(0, len(frame), 100_003):  # odd chunks, never frame-aligned
                a.sendall(frame[i:i + 100_003])

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        got = SocketTransport._read_exact(b, len(frame))
        writer.join(10)
        assert not writer.is_alive()
    assert got == frame


def test_read_exact_returns_none_at_end_of_stream_mid_frame():
    a, b = socket.socketpair()
    with b:
        with a:
            a.sendall(b"x" * 10)
        assert SocketTransport._read_exact(b, 100) is None


def test_socket_round_with_multi_mib_payloads():
    p, vlen = 2, 2**19  # 4 MiB of values per message
    cfg = CollectiveConfig(p=p, flavor="sync", vector_len=vlen)
    contrib = np.random.default_rng(8).standard_normal((p, vlen))
    net = SocketTransport(p)
    try:
        handles = [AllreduceHandle(cfg, r, net, cid=0) for r in range(p)]
        results = {}

        def body(rank):
            results[rank] = yield from handles[rank].call_round(0, contrib[rank])

        net.run_processes({r: body(r) for r in range(p)}, timeout=30)
    finally:
        net.close()
    want = (tree_order_sum(list(contrib)) / p).tobytes()
    for r in range(p):
        assert results[r].nap == p
        assert results[r].u.tobytes() == want


def test_close_joins_readers_and_leaves_no_open_sockets():
    """A SocketTransport(p) holds p reader threads and 2p sockets whatever a
    run sends, and close() joins and closes every one of them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for p, bodies in ((2, _sync_pair), (8, _solo_bodies)):
            net = SocketTransport(p)
            try:
                net.run_processes(bodies(net))
                assert (len(net._threads), len(net._socks)) == (p, 2 * p)
            finally:
                net.close()
            assert not any(th.is_alive() for th in net._threads)
        del net
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def test_a_rank_without_a_body_still_serves():
    """Only ranks 0 and 1 run rounds; rank 2's driver still serves its
    fold and final steps, so both bodies board every round, and the run
    returns only once rank 2 has been handed the last round's final step."""
    p, rounds = 3, 3
    cfg = CollectiveConfig(p=p, flavor="solo", vector_len=2, seed=1)
    for _ in range(20):
        net = SocketTransport(p)
        results = []
        try:
            handles = [AllreduceHandle(cfg, r, net, cid=0) for r in range(p)]

            def body(rank):
                for t in range(rounds):
                    results.append((yield from handles[rank].call_round(t, np.ones(2))))

            net.run_processes({r: body(r) for r in range(2)})
            assert handles[2].done_generation == rounds - 1
        finally:
            net.close()
        assert len(results) == 2 * rounds
        assert all(res.nap == 2 for res in results)


def _socket_training_report(p, epochs, steps, tau):
    """Solo eager-SGD over sockets with the tau guard and a sync resync on
    cid 1; the last rank is about 2 ms late every round."""
    rounds = epochs * steps
    cfg = CollectiveConfig(p=p, flavor="solo", vector_len=4, seed=5)
    resync_cfg = CollectiveConfig(p=p, flavor="sync", vector_len=4, seed=5)
    ds = gen_dataset(dim=4, n=64, seed=6)
    rows = batch_table(13, p, rounds, 4, ds.n_train)
    rec, ledger = TraceRecorder(), DeliveryLedger()
    net = SocketTransport(p)
    try:
        handles = [AllreduceHandle(cfg, r, net, cid=0, recorder=rec) for r in range(p)]
        resyncs = [AllreduceHandle(resync_cfg, r, net, cid=1) for r in range(p)]

        def body(r):
            state = TrainState.fresh(np.zeros(4), lr=0.02, rank=r, resync_period=1,
                                     tau=tau)
            return training_process(
                r, state, handles[r], resyncs[r], ds, rows[r], epochs=epochs,
                steps_per_epoch=steps, delay_fn=lambda rank, t: 2000 if rank == p - 1 else 0, ledger=ledger)

        net.run_processes({r: body(r) for r in range(p)}, timeout=30)
    finally:
        net.close()
    return check_round_contracts(rec, p, tau=tau, ledger=ledger,
                                 allow_pending_after=rounds - 1 - tau)


def test_socket_training_keeps_the_staleness_bound():
    """The hold policy runs where the rank's body runs, so it never sees a
    gradient that is neither in progress nor stashed."""
    for _ in range(20):
        rep = _socket_training_report(p=4, epochs=2, steps=4, tau=1)
        assert rep.ok, rep.violations
