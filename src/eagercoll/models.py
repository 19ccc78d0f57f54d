"""Hyperplane regression task: data generation, linear model, loss/gradient."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class HyperplaneDataset:
    """y = a . x + noise, x ~ U(-1, 1)^dim, noise ~ N(0, sigma^2).

    Split 80/20 into train and validation at generation time.
    """

    a: np.ndarray
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray

    @property
    def n_train(self) -> int:
        return self.x_train.shape[0]


def gen_dataset(dim: int = 64, n: int = 4096, sigma: float = 0.1,
                seed: int = 0) -> HyperplaneDataset:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dim)
    x = rng.uniform(-1.0, 1.0, size=(n, dim))
    y = x @ a + sigma * rng.standard_normal(n)
    n_train = int(0.8 * n)
    return HyperplaneDataset(a=a, x_train=x[:n_train], y_train=y[:n_train],
                             x_val=x[n_train:], y_val=y[n_train:])


@dataclass
class LinearModel:
    """Prediction w . x; no bias term (the generating plane has none)."""

    w: np.ndarray

    @classmethod
    def init(cls, dim: int, seed: int = 0, scale: float = 0.01) -> "LinearModel":
        rng = np.random.default_rng(seed)
        return cls(w=scale * rng.standard_normal(dim))


def loss_and_grad(w: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Mean squared error over the batch and its gradient in w.

    loss = (1/b) sum (w.x - y)^2, grad = (2/b) sum (w.x - y) x.
    """
    r = x @ w - y
    b = x.shape[0]
    loss = float(r @ r) / b
    grad = (2.0 / b) * (x.T @ r)
    return loss, grad


def mse(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    r = x @ w - y
    return float(r @ r) / x.shape[0]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx). Its multiplier
# walks the same way for every key, so the hash runs on a column of keys at once.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_POOL, _M32 = 4, 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """An int as SeedSequence reads it: little-endian 32-bit words, at least one."""
    if n < 0:
        raise ValueError(f"seed {n} is negative")
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


@lru_cache
def _walk(init: int, mult: int, steps: int) -> np.ndarray:
    """The multiplier before each of the hash's steps and after the last, as
    a column that broadcasts against rows of keys."""
    return np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(steps + 1)],
                    np.uint32)[:, None]


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_L * x - _MIX_R * y)


def seed_states(keys: np.ndarray) -> np.ndarray:
    """SeedSequence(keys[:, j]).generate_state(4, np.uint64) for every column j
    of a uint32 array of entropy words, as a C-contiguous (n, 4) uint64 array.
    Each hashmix call runs numpy's loop body for several pool words at once,
    with the multipliers numpy would step through for them in turn."""
    extra = keys[_POOL:]
    a, k = _walk(_INIT_A, _MULT_A, _POOL * (_POOL + len(extra))), 0

    def hashmix(v, rows):
        nonlocal k
        k += rows
        return _xorshift((v ^ a[k - rows:k]) * a[k - rows + 1:k + 1])

    pool = np.zeros((_POOL, keys.shape[1]), np.uint32)
    pool[:len(keys)] = keys[:_POOL]
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for word in extra:
        pool = _mix(pool, hashmix(word, _POOL))
    b = _walk(_INIT_B, _MULT_B, 2 * _POOL)
    state = _xorshift((np.concatenate((pool, pool)) ^ b[:-1]) * b[1:])
    # numpy's own step: the words as little-endian pairs, whatever the host
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


@lru_cache
def _hashed_type() -> type:
    """ISeedSequence for a key already hashed. Built on first use: numpy loads
    numpy.random lazily, and loading it with eagercoll moves perfbench's
    audit peak RSS up by 0.5-0.7 MB."""

    class Hashed(np.random.bit_generator.ISeedSequence):
        """The four uint64 words PCG64 asks for."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Hashed


def key_states(seed: int, *index: np.ndarray) -> np.ndarray:
    """The seed states of the keys [seed, index[0][j], index[1][j], ...], each
    index entry below 2**32: row j builds default_rng's PCG64 for key j
    through key_pcg64, without a SeedSequence per key."""
    head = _words(seed)
    keys = np.empty((len(head) + len(index), len(index[0])), np.uint32)
    keys[:len(head)] = np.array(head, np.uint32)[:, None]
    keys[len(head):] = index
    return seed_states(keys)


def key_pcg64(state: np.ndarray) -> np.random.PCG64:
    """The PCG64 that default_rng(key) runs, from key_states' row for key."""
    return np.random.PCG64(_hashed_type()(state))


# A chunk of cells holds at most this many draws, so that its uint64 scratch
# (the raw words, m and one temporary) stays under 1 MiB however large the table.
_CHUNK_DRAWS = 1 << 15


def batch_table(seed: int, p: int, rounds: int, batch: int, n_train: int) -> np.ndarray:
    """Every rank's minibatch rows for every round, in the smallest unsigned
    dtype that holds n_train - 1: the one statement of the minibatch draw.
    table[rank, step] equals default_rng([seed, rank, step]).integers(0,
    n_train, size=batch) byte for byte, and a test holds it to the installed
    numpy; a run draws the table once for every flavor.

    The keys are hashed together (key_states), each cell's PCG64 gives
    ceil(batch/2) raw words, and numpy's Lemire draw runs on a chunk of cells
    at once: 32-bit draws, low half of each word first, m = u32 * n_train,
    row m >> 32. A cell with a rejected draw is redrawn by numpy itself."""
    if not 1 <= n_train <= 1 << 32:
        raise ValueError(f"n_train {n_train} outside [1, 2**32]")
    table = np.empty((p, rounds, batch), dtype=np.min_scalar_type(n_train - 1))
    cells = table.reshape(p * rounds, batch)
    states = key_states(seed, *np.divmod(np.arange(p * rounds), rounds))
    words = (batch + 1) // 2
    threshold = ((1 << 32) - n_train) % n_train
    chunk = max(1, _CHUNK_DRAWS // max(2 * words, 1))
    for lo in range(0, len(cells), chunk):
        part = states[lo:lo + chunk]
        raw = np.concatenate([key_pcg64(state).random_raw(words) for state in part])
        # numpy's 32-bit draws take each word's low half first, on any host
        u32 = raw.astype("<u8", copy=False).view("<u4").reshape(len(part), 2 * words)
        m = u32[:, :batch] * np.uint64(n_train)
        rejected = ((m & np.uint64(_M32)) < threshold).any(axis=1)
        cells[lo:lo + len(part)] = m >> np.uint64(32)
        for i in np.flatnonzero(rejected):
            cells[lo + i] = np.random.Generator(key_pcg64(part[i])).integers(
                0, n_train, size=batch)
    return table
