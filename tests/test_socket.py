"""Localhost TCP backend: same process bodies, real sockets and threads.

Wall-clock timing makes nothing here deterministic, so these tests assert
protocol outcomes (results agree, rounds complete), never latencies.
"""

import gc
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from eagercoll.collectives import AllreduceHandle, CollectiveConfig, tree_order_sum
from eagercoll.transport import (
    PHASE_RED, Message, SocketTransport, Tag, UnroutedMessage,
)


@pytest.mark.parametrize("flavor", ["sync", "solo"])
def test_socket_allreduce_completes_with_valid_result(flavor):
    p, vlen = 4, 8
    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=vlen, seed=9)
    net = SocketTransport(p)
    try:
        handles = [AllreduceHandle(cfg, r, net, cid=0) for r in range(p)]
        contrib = np.random.default_rng(4).standard_normal((p, vlen))
        results = {}

        def body(rank):
            res = yield from handles[rank].call_round(0, contrib[rank])
            results[rank] = res

        net.run_processes({r: body(r) for r in range(p)})
    finally:
        net.close()

    ref = results[0]
    assert ref.nap >= 1
    for r in range(1, p):
        assert results[r].included == ref.included
        assert results[r].u.tobytes() == ref.u.tobytes()
    # whatever subset boarded, u is its tree-ordered mean
    aboard = [contrib[r] for r in range(p) if (ref.included >> r) & 1]
    padded = [contrib[r] if (ref.included >> r) & 1 else np.zeros(vlen)
              for r in range(p)]
    assert ref.nap == len(aboard)
    assert ref.u.tobytes() == (tree_order_sum(padded) / p).tobytes()


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


def _sync_pair(net, vlen=2):
    cfg = CollectiveConfig(p=2, flavor="sync", vector_len=vlen)
    handles = [AllreduceHandle(cfg, r, net, cid=0) for r in range(2)]

    def body(rank):
        yield from handles[rank].call_round(0, np.full(vlen, rank + 1.0))

    return {r: body(r) for r in range(2)}


def test_reader_failure_is_raised_from_run_processes():
    """A message no engine is registered for stops its connection's reader;
    run_processes names that error, not just the round it starved."""
    net = SocketTransport(2)
    try:
        bodies = _sync_pair(net)
        net.send(Message(0, 1, Tag(5, 0, PHASE_RED, 0), b""))
        with pytest.raises(RuntimeError) as info:
            net.run_processes(bodies, timeout=2)
    finally:
        net.close()
    err = info.value
    assert "UnroutedMessage" in str(err) or isinstance(err.__cause__, UnroutedMessage)


def test_reader_failure_is_raised_at_once():
    """run_processes raises a reader's error as soon as it is recorded, not
    after the ranks it starved have waited out their timeout."""
    net = SocketTransport(2)
    try:
        bodies = _sync_pair(net)
        net.send(Message(0, 1, Tag(5, 0, PHASE_RED, 0), b""))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="UnroutedMessage"):
            net.run_processes(bodies, timeout=10)
        assert time.monotonic() - t0 < 2.0
    finally:
        net.close()


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net = SocketTransport(2)
        try:
            net.run_processes(_sync_pair(net))
        finally:
            net.close()
        assert not any(th.is_alive() for th in net._threads)
        del net
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]
