"""state() holds everything a run changes: a run that continues after
every engine step from a fresh engine restored from state() alone writes
the same CSV, and the explorer reports the same.

The sanitizer wraps Engine.deliver, Engine.activate_internal and
Engine.pump.  After each call it builds a fresh engine with the live one's
constructor arguments and lifecycle settings, restores it from the live
engine's state(), checks that it reads back the same state(), and then
takes the fresh engine's attributes into the live one.  So whatever
state() leaves out, say a parked payload, is lost at the next step, and
the run shows it.
"""

import hashlib

import numpy as np
import pytest

from eagercoll.harness import random_config, run_training, write_train_csv
from eagercoll.collectives import CollectiveConfig
from eagercoll.schedule import Engine
from eagercoll.verify import check_round_contracts, explore_interleavings

import test_acceptance as golden

SWEEP_SEED = 2024  # criterion 3's sweep: these are its first configs
SWEEP_CONFIGS = 50


class RoundTrips:
    """Counts the round trips the sanitizer made."""
    n = 0


def sanitize(monkeypatch) -> type[RoundTrips]:
    init = Engine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._init_args = (args, kwargs)

    def round_trip(self):
        state = self.state()
        args, kwargs = self._init_args
        fresh = Engine(*args, **kwargs)
        fresh.hold_policy, fresh.defer_fn = self.hold_policy, self.defer_fn
        fresh.committed = self.committed
        fresh.restore(state)
        assert fresh.state() == state, (self.rank, self.cid, self.generation)
        self.__dict__.update(fresh.__dict__)
        RoundTrips.n += 1

    def wrapped(method):
        def call(self, *args, **kwargs):
            method(self, *args, **kwargs)
            round_trip(self)
        return call

    monkeypatch.setattr(Engine, "__init__", recording_init)
    for name in ("deliver", "activate_internal", "pump"):
        monkeypatch.setattr(Engine, name, wrapped(getattr(Engine, name)))
    RoundTrips.n = 0
    return RoundTrips


def _csv_sha(write, rows, tmp_path) -> str:
    path = tmp_path / "run.csv"
    write(rows, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the golden runs at p <= 12, with their whole-file digests
GOLDEN_SHA256 = {"hyperplane": golden.GOLDEN_TRAIN_SHA256,
                 "zero_skew": golden.GOLDEN_ZERO_SKEW_SHA256,
                 "two_cid": golden.GOLDEN_TWO_CID_SHA256,
                 "p12": golden.GOLDEN_P12_BENCH_SHA256}


@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_golden_runs_continue_from_state_alone(monkeypatch, tmp_path, name):
    cfg, run, write = golden._golden_runs()[name]
    trips = sanitize(monkeypatch)
    assert _csv_sha(write, run(cfg), tmp_path) == GOLDEN_SHA256[name]
    assert trips.n > 1000


def _sweep_configs():
    rng = np.random.default_rng(SWEEP_SEED)
    return [random_config(rng) for _ in range(SWEEP_CONFIGS)]


def _audited(cfg, tmp_path):
    rep = run_training(cfg)
    flavor = cfg.flavors[0]
    rounds = cfg.epochs * cfg.steps_per_epoch
    report = check_round_contracts(
        rep.recorders[flavor], cfg.p, tau=cfg.tau, ledger=rep.ledgers[flavor],
        expect_rounds=rounds, allow_pending_after=rounds - 1 - cfg.tau)
    return _csv_sha(write_train_csv, rep.rows, tmp_path), report.ok


@pytest.mark.parametrize("i", range(SWEEP_CONFIGS))
def test_sweep_runs_continue_from_state_alone(monkeypatch, tmp_path, i):
    cfg = _sweep_configs()[i]
    plain = _audited(cfg, tmp_path)
    assert plain[1], cfg
    sanitize(monkeypatch)
    assert _audited(cfg, tmp_path) == plain, cfg


@pytest.mark.parametrize("flavor", ["solo", "majority", "sync"])
@pytest.mark.parametrize("p, arrivals_first", [(2, False), (2, True), (3, False), (3, True),
                                               (4, True)],
                         ids=["p2-free", "p2-arrivals-first", "p3-free", "p3-arrivals-first",
                              "p4-arrivals-first"])
def test_the_explorer_reports_the_same_from_state_alone(monkeypatch, flavor, p, arrivals_first):
    """The explorer restores engines between steps itself; continuing each
    step from a fresh engine as well, it must visit the same states and
    report the same terminals, results and violations."""
    cfg = CollectiveConfig(p=p, flavor=flavor, vector_len=2, seed=1234)
    plain = explore_interleavings(cfg, arrivals_first=arrivals_first)
    assert plain.ok
    sanitize(monkeypatch)
    assert explore_interleavings(cfg, arrivals_first=arrivals_first) == plain
