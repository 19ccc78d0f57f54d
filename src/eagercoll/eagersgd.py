"""Eager-SGD: decentralized SGD over partial allreduce.

Each round every rank computes a local gradient and offers it to the
round's collective.  A rank that arrives after the round's snapshot has
already consumed its buffer keeps the gradient: it folds it into a local
stash and contributes the accumulated stash (old plus current gradients,
a single fresh contribution) in the next round it manages to join.  The
stash resets to the null (zero) gradient once a snapshot actually takes it.

The staleness guard turns the bounded-staleness property into a runtime
contract: while this rank has a gradient (stashed or still being computed)
that would exceed age tau if the current round completed without it, the
engine defers external activation of that round, so the round waits for
this rank and degrades to synchronous participation.

The learning-rate helpers compute the largest constant step size for which
the convergence guarantee holds, and the matching minimum iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import loss_and_grad, mse
from .transport import Sleep


class DivergenceError(RuntimeError):
    pass


class AlphaTooLarge(ValueError):
    pass


class ResyncError(RuntimeError):
    """A model-averaging round broke its synchronous contract."""


@dataclass
class GradientBuffer:
    """Stash of gradients generated but not yet delivered to any round."""

    data: np.ndarray
    pending_rounds: list[int] = field(default_factory=list)

    @classmethod
    def null(cls, dim: int) -> "GradientBuffer":
        return cls(data=np.zeros(dim))

    def fold(self, grad: np.ndarray, rnd: int) -> None:
        self.data = self.data + grad
        self.pending_rounds.append(rnd)

    def reset(self) -> None:
        self.data = np.zeros_like(self.data)
        self.pending_rounds = []


@dataclass
class TrainState:
    w: np.ndarray
    lr: float
    send_buf: GradientBuffer
    t: int = 0
    rank: int = 0
    resync_period: int = 10
    tau: int | None = 4
    in_progress: int | None = None   # round whose gradient is being computed

    @classmethod
    def fresh(cls, w0: np.ndarray, lr: float, rank: int = 0,
              resync_period: int = 10, tau: int | None = 4) -> "TrainState":
        return cls(w=w0.copy(), lr=lr, send_buf=GradientBuffer.null(w0.shape[0]),
                   rank=rank, resync_period=resync_period, tau=tau)

    def staleness_max(self) -> int:
        if not self.send_buf.pending_rounds:
            return 0
        return self.t - min(self.send_buf.pending_rounds)


def staleness_guard(handle, state: TrainState) -> None:
    """Install the tau contract on the collective's engine.

    The engine consults the policy whenever an activation message for its
    current generation could be matched; a held generation proceeds only
    after this rank's fresh contribution is in the buffer.  tau=None
    disables the guard entirely.
    """
    tau = state.tau
    if tau is None:
        handle.engine.hold_policy = None
        return

    def policy(gen: int) -> bool:
        if handle.contributed_round >= gen:
            return False  # our data is already aboard; let the round run
        ages = list(state.send_buf.pending_rounds)
        if state.in_progress is not None:
            ages.append(state.in_progress)
        return any(g + tau <= gen for g in ages)

    handle.engine.hold_policy = policy


def attach_delivery_tracking(handle, state: TrainState, ledger) -> None:
    """Wire the snapshot callback: when a round consumes this rank's fresh
    stash, record in `ledger` (a verify.DeliveryLedger) the delivery of
    every pending gradient, and reset the stash."""

    def on_snapshot(rnd: int, fresh: bool) -> None:
        if not fresh:
            return  # null contribution taken on our behalf; stash untouched
        for g in state.send_buf.pending_rounds:
            ledger.delivered(state.rank, g, rnd)
        state.send_buf.reset()

    handle.user_snapshot_cb = on_snapshot


def train_step(state: TrainState, batch, handle):
    """One round of eager-SGD (generator; drive under a transport).

    Computes the local gradient, folds it into the stash, offers the stash
    to round t if the round hasn't already consumed this rank's slot, starts
    the round per the flavor's rule, waits for a published result, and
    applies w <- w - lr * u.  Returns (loss, result); result.rnd exceeds t
    when this rank lagged so far behind that later rounds overwrote the
    receive buffer before it caught up.
    """
    t = state.t
    x, y = batch
    if x.shape[1] != state.w.shape[0]:
        raise ValueError(f"dimension mismatch: batch {x.shape[1]} vs model {state.w.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run raises below
        loss, grad = loss_and_grad(state.w, x, y)
    if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
        raise DivergenceError(
            f"rank {state.rank} round {t}: non-finite loss/gradient (loss={loss})")
    state.in_progress = None

    rec = handle.recorder
    if rec is not None:
        rec.weights[(state.rank, t)] = state.w.copy()
        rec.gradients[(state.rank, t)] = grad.copy()

    state.send_buf.fold(grad, t)
    res = yield from handle.call_round(t, state.send_buf.data)
    state.w = state.w - state.lr * res.u
    state.t = t + 1
    return loss, res


def resync_step(state: TrainState, resync_handle, k: int):
    """Distributed model averaging round k on a dedicated sync collective."""
    if not resync_handle.try_contribute(k, state.w):
        raise ResyncError(f"rank {state.rank} missed resync round {k}; "
                          "resync rounds are synchronous")
    resync_handle.activate(k)
    res = yield from resync_handle.wait_done(k)
    if res.rnd != k:
        raise ResyncError(f"rank {state.rank} resync round {k} returned "
                          f"round {res.rnd}")
    state.w = res.u.copy()


def training_process(state: TrainState, handle, resync_handle,
                     dataset, rows: np.ndarray, delays: np.ndarray, *, epochs: int,
                     steps_per_epoch: int, metrics: list, ledger, val_out: dict):
    """Full per-rank training loop (generator process body) of rank
    state.rank.

    rows[t] are the train-split rows of round t's minibatch and delays[t]
    the us of injected computation delay before its gradient: this rank's
    rows of models.batch_table and transport.delay_table, which a run draws
    once for every flavor.  The loop fills three sinks: `metrics` gets one
    train-CSV row dict per round, t_us being the transport clock when the
    round's result was applied; `ledger` (a verify.DeliveryLedger) records
    each gradient's generation and delivery; and val_out[(flavor, rank,
    epoch)] is the validation MSE at each epoch end, the key of
    harness.TrainReport.val.  resync_handle, if not None, is the sync
    collective that averages the models every resync_period epochs.
    """
    staleness_guard(handle, state)
    attach_delivery_tracking(handle, state, ledger)
    rank, flavor = state.rank, handle.cfg.flavor
    resyncs = 0
    for epoch in range(epochs):
        for _ in range(steps_per_epoch):
            t = state.t
            state.in_progress = t
            d = delays[t]
            if d:
                yield Sleep(int(d))
            ledger.generated(rank, t)
            batch = (dataset.x_train.take(rows[t], axis=0), dataset.y_train.take(rows[t]))
            loss, res = yield from train_step(state, batch, handle)
            metrics.append({
                "flavor": flavor, "round": t, "epoch": epoch,
                "rank": rank, "loss": loss, "nap": res.nap,
                "staleness_max": state.staleness_max(),
                "t_us": handle.transport.now_us(),
            })
        if resync_handle is not None and (epoch + 1) % state.resync_period == 0:
            yield from resync_step(state, resync_handle, resyncs)
            resyncs += 1
        val_out[(flavor, rank, epoch)] = mse(state.w, dataset.x_val, dataset.y_val)


# ---------------------------------------------------------------------------
# constant-step-size bound


@dataclass(frozen=True)
class LrBoundParams:
    L: float            # smoothness constant
    M: float            # second-moment bound (M^2 bounds E||G||^2)
    tau: int            # staleness bound
    p: int
    q: int              # quorum: fresh contributions guaranteed per round
    eps: float          # target stationarity
    f0_minus_m: float   # f(start) - inf f

    def __post_init__(self):
        for name in ("L", "M", "eps", "f0_minus_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.tau < 1 or self.p < 1 or self.q < 1:
            raise ValueError("tau, p, q must be strictly positive")
        if self.q > self.p:
            raise ValueError("q cannot exceed p")


def max_learning_rate(params: LrBoundParams) -> float:
    """Largest constant step size the convergence bound admits: the minimum
    of two straggler terms (infinite when q == p) and a curvature term."""
    L, M, tau = params.L, params.M, params.tau
    p, q, eps = params.p, params.q, params.eps
    lag = p - q
    term3 = eps / (12.0 * M * M * L)
    if lag == 0:
        return term3
    term1 = math.sqrt(eps) * p / math.sqrt(12.0 * L * L * tau * M * M * lag)
    term2 = math.sqrt(eps) * p / math.sqrt(4.0 * L * tau * M * M * lag)
    return min(term1, term2, term3)


def min_iterations(params: LrBoundParams, alpha: float) -> int:
    """Smallest iteration count for which the bound guarantees an
    eps-stationary point at step size alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be strictly positive")
    amax = max_learning_rate(params)
    if alpha > amax * (1 + 1e-12):
        raise AlphaTooLarge(f"alpha={alpha} exceeds the admissible {amax}")
    return math.ceil(24.0 * params.f0_minus_m / (alpha * params.eps))
