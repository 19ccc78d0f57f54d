"""Hyperplane regression task: data generation, linear model, loss/gradient."""

from __future__ import annotations

from dataclasses import dataclass

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
    def dim(self) -> int:
        return self.a.shape[0]

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

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w


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


def batch_table(seed: int, p: int, rounds: int, batch: int, n_train: int) -> np.ndarray:
    """Every rank's minibatch rows for every round, in the smallest unsigned
    dtype that holds n_train - 1: the one statement of the minibatch draw.
    table[rank, step] are the train-split rows drawn from
    default_rng([seed, rank, step]) alone, so a run draws them once for
    every flavor."""
    table = np.empty((p, rounds, batch), dtype=np.min_scalar_type(n_train - 1))
    for rank, step in np.ndindex(p, rounds):
        table[rank, step] = np.random.default_rng([seed, rank, step]).integers(
            0, n_train, size=batch)
    return table
