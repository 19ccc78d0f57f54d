"""Regression task: loss/gradient correctness, dataset plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eagercoll.models import (
    LinearModel,
    batch_table,
    gen_dataset,
    loss_and_grad,
    mse,
    seed_states,
)


def test_loss_and_grad_frozen_example():
    # single sample x=[1], y=0, w=[2]: residual 2, loss 4, grad 2*2*1 = 4
    loss, grad = loss_and_grad(np.array([2.0]), np.array([[1.0]]), np.array([0.0]))
    assert loss == 4.0
    assert grad.tolist() == [4.0]


def test_loss_matches_manual_batch():
    x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    y = np.array([1.0, -2.0, 0.5])
    w = np.array([0.5, -0.5])
    r = x @ w - y
    loss, grad = loss_and_grad(w, x, y)
    assert loss == pytest.approx(float(r @ r) / 3, rel=1e-15)
    assert mse(w, x, y) == pytest.approx(loss, rel=1e-15)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(1, 8))
        b = int(rng.integers(1, 16))
        x = rng.standard_normal((b, dim))
        y = rng.standard_normal(b)
        w = rng.standard_normal(dim)
        _, grad = loss_and_grad(w, x, y)
        h = 1e-6
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd = (mse(w + e, x, y) - mse(w - e, x, y)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_descent_reduces_loss():
    ds = gen_dataset(dim=8, n=256, sigma=0.0, seed=4)
    w = np.zeros(8)
    first = mse(w, ds.x_train, ds.y_train)
    for _ in range(200):
        _, g = loss_and_grad(w, ds.x_train, ds.y_train)
        w -= 0.1 * g
    assert mse(w, ds.x_train, ds.y_train) < 1e-6 < first
    assert np.allclose(w, ds.a, atol=1e-3)


def test_dataset_shapes_and_split():
    ds = gen_dataset(dim=5, n=100, sigma=0.2, seed=9)
    assert ds.a.shape == (5,)
    assert ds.x_train.shape == (80, 5) and ds.y_train.shape == (80,)
    assert ds.x_val.shape == (20, 5) and ds.y_val.shape == (20,)
    assert np.all(np.abs(ds.x_train) <= 1.0)
    # the noise floor: residuals against the generating plane have std ~ sigma
    resid = ds.y_train - ds.x_train @ ds.a
    assert 0.1 < resid.std() < 0.35


def test_dataset_generation_is_deterministic():
    a = gen_dataset(dim=3, n=50, seed=123)
    b = gen_dataset(dim=3, n=50, seed=123)
    assert a.x_train.tobytes() == b.x_train.tobytes()
    assert a.y_val.tobytes() == b.y_val.tobytes()


def test_batch_table_deterministic_and_in_range():
    ds = gen_dataset(dim=4, n=64, seed=5)
    rows = batch_table(42, p=3, rounds=4, batch=8, n_train=ds.n_train)
    again = batch_table(42, p=3, rounds=4, batch=8, n_train=ds.n_train)
    x1, y1 = ds.x_train[rows[1, 3]], ds.y_train[rows[1, 3]]
    x2, y2 = ds.x_train[again[1, 3]], ds.y_train[again[1, 3]]
    assert x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()
    x3 = ds.x_train[rows[2, 3]]
    assert x1.tobytes() != x3.tobytes()
    assert x1.shape == (8, 4)
    assert rows.max() < ds.n_train
    assert _draw(42, 1, 3, 8, ds.n_train).tolist() == rows[1, 3].tolist()


def _draw(seed, rank, step, batch, n_train):
    """The minibatch draw stated per (rank, step), the table's oracle."""
    return np.random.default_rng([seed, rank, step]).integers(0, n_train, size=batch)


@pytest.mark.parametrize("n_train, dtype", [
    (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
    # numpy's Lemire draw rejects about half and a quarter of these draws
    (2**31 + 5, np.uint32), (3 * 2**30, np.uint32),
    (2**32, np.uint32), (1, np.uint8)])
def test_batch_table_rows_are_the_per_rank_step_draws(n_train, dtype):
    table = batch_table(7, p=3, rounds=5, batch=64, n_train=n_train)
    assert table.dtype == dtype and table.shape == (3, 5, 64)
    for r, t in np.ndindex(3, 5):
        assert table[r, t].tolist() == _draw(7, r, t, 64, n_train).tolist(), (r, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**40), st.integers(1, 4), st.integers(1, 6), st.integers(1, 9),
       st.integers(1, 70000))
def test_batch_table_matches_the_draw(seed, p, rounds, batch, n_train):
    table = batch_table(seed, p, rounds, batch, n_train)
    assert table.shape == (p, rounds, batch)
    smallest = next(d for d in (np.uint8, np.uint16, np.uint32, np.uint64)
                    if np.iinfo(d).max >= n_train - 1)
    assert table.dtype == smallest
    for r, t in np.ndindex(p, rounds):
        assert table[r, t].tolist() == _draw(seed, r, t, batch, n_train).tolist()


@pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 2**96 - 1, 2**200 + 7])
def test_batch_table_seeds_longer_than_the_pool(seed):
    # entropy of five words and more: the hash mixes the words past the pool
    table = batch_table(seed, p=2, rounds=3, batch=5, n_train=1000)
    for r, t in np.ndindex(2, 3):
        assert table[r, t].tolist() == _draw(seed, r, t, 5, 1000).tolist()


def test_batch_table_of_empty_batches():
    table = batch_table(3, p=2, rounds=3, batch=0, n_train=10)
    assert table.shape == (2, 3, 0) and table.dtype == np.uint8


@pytest.mark.parametrize("n_train", [0, 2**32 + 1])
def test_batch_table_rejects_n_train_outside_one_to_two_to_the_32(n_train):
    with pytest.raises(ValueError, match="n_train"):
        batch_table(3, p=2, rounds=3, batch=4, n_train=n_train)


def test_batch_table_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        _draw(-1, 0, 0, 4, 10)
    with pytest.raises(ValueError, match="negative"):
        batch_table(-1, p=2, rounds=3, batch=4, n_train=10)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n), min_size=1, max_size=5)))
def test_seed_states_is_numpys_seed_sequence(rows):
    keys = np.array(rows, np.uint32).T
    states = seed_states(keys)
    assert states.dtype == np.uint64 and states.flags.c_contiguous
    for row, state in zip(rows, states):
        assert state.tolist() == np.random.SeedSequence(row).generate_state(
            4, np.uint64).tolist()


def test_linear_model_init_scale():
    m = LinearModel.init(dim=16, seed=2, scale=0.01)
    assert m.w.shape == (16,)
    assert np.abs(m.w).max() < 0.1
    x = np.eye(16)
    assert np.allclose(x @ m.w, m.w)
