"""Span tracer that wraps the library from outside.

``Tracer.install()`` replaces every public function and method of each
``eagercoll`` module (and each explicit ``__init__``) with a wrapper that
records a span: name, start, end, parent span and pass id.  A function that
another module imported by name is replaced in that module too, so the call
site sees the wrapper.  Generator functions get a proxy whose every resume
is a span, which is how a simulated process's work is attributed.
``uninstall()`` puts the originals back, so untraced passes pay nothing.

Spans stay in memory (parallel int arrays) and ``save()`` writes them when
the run ends.  Per pass the tracer also keeps, per span name, the call
count, inclusive time and self time (span minus its children), plus the
counters the hooks below read off arguments and results.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = "perfbench.pass"


class _Frame:
    __slots__ = ("idx", "nid", "child_ns")

    def __init__(self, idx: int, nid: int):
        self.idx = idx
        self.nid = nid
        self.child_ns = 0


class Tracer:
    def __init__(self):
        pkg = importlib.import_module("eagercoll")
        # __main__ runs the CLI when imported, so private modules stay out
        self.modules = [importlib.import_module(f"eagercoll.{m.name}")
                        for m in pkgutil.iter_modules(pkg.__path__)
                        if not m.name.startswith("_")]
        self.names: list[str] = [ROOT]
        self._nid: dict[str, int] = {ROOT: 0}
        # spans, one entry per span in every array
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_pass = array("l")
        self.pass_id = -1
        self.stack: list[_Frame] = []
        self.label_kind: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = _hooks(self)
        self._reset_counts()

    # -- per-pass aggregates ------------------------------------------------

    def _reset_counts(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.incl_ns = [0] * n
        self.self_ns = [0] * n
        self.active = [0] * n
        self.counters: Counter = Counter()

    def _id(self, name: str) -> int:
        nid = self._nid.get(name)
        if nid is None:
            nid = self._nid[name] = len(self.names)
            self.names.append(name)
        return nid

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive s, self s) for the current pass."""
        return {n: (self.calls[i], self.incl_ns[i] / 1e9, self.self_ns[i] / 1e9)
                for i, n in enumerate(self.names)
                if self.calls[i] or self.self_ns[i]}

    # -- spans --------------------------------------------------------------

    def _enter(self, nid: int) -> _Frame:
        stack = self.stack
        frame = _Frame(len(self.span_name), nid)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1].idx if stack else -1)
        self.span_pass.append(self.pass_id)
        self.span_end.append(0)
        stack.append(frame)
        self.active[nid] += 1
        self.span_start.append(time.perf_counter_ns())
        return frame

    def _exit(self, frame: _Frame) -> None:
        t1 = time.perf_counter_ns()
        self.stack.pop()
        self.span_end[frame.idx] = t1
        d = t1 - self.span_start[frame.idx]
        nid = frame.nid
        self.self_ns[nid] += d - frame.child_ns
        self.active[nid] -= 1
        if not self.active[nid]:
            self.incl_ns[nid] += d  # outermost call only, so recursion counts once
        if self.stack:
            self.stack[-1].child_ns += d

    def run_pass(self, fn):
        """Run fn() as one traced pass under a root span; return
        (result, pass wall seconds as read outside the root span)."""
        self.pass_id += 1
        self._reset_counts()
        self.install()
        try:
            t0 = time.perf_counter()
            frame = self._enter(0)
            self.calls[0] += 1
            try:
                result = fn()
            finally:
                self._exit(frame)
            wall = time.perf_counter() - t0
        finally:
            self.uninstall()
        return result, wall

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        if len(self.calls) < len(self.names):
            grow = len(self.names) - len(self.calls)
            for arr in (self.calls, self.incl_ns, self.self_ns, self.active):
                arr.extend([0] * grow)
        pre, post = self._hooks.get(name, (None, None))
        tr = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tr.calls[nid] += 1
                return _GenSpan(tr, nid, fn(*args, **kwargs))
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tr.calls[nid] += 1
            state = pre(args, kwargs) if pre else None
            frame = tr._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._exit(frame)
            if post:
                post(args, result, state)
            return result
        return wrapper

    def install(self) -> None:
        originals: dict[int, object] = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(f"{layer}.{name}", obj)
                    originals[id(obj)] = w
                    self._patch(mod, name, w)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj, mod.__file__)
        # names imported into other modules, e.g. harness.inject_delay
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                w = originals.get(id(obj))
                if w is not None and getattr(mod, name) is obj:
                    self._patch(mod, name, w)

    def _install_class(self, layer: str, cls, source: str) -> None:
        for name, attr in list(vars(cls).items()):
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                if not name.startswith("_"):
                    self._patch(cls, name, type(attr)(self._wrap(span, attr.__func__)))
            elif inspect.isfunction(attr):
                # dataclass-generated __init__s have no source file of their own
                explicit_init = (name == "__init__"
                                 and attr.__code__.co_filename == source)
                if not name.startswith("_") or explicit_init:
                    self._patch(cls, name, self._wrap(span, attr))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span recorded in this run: one .npz of parallel
        arrays, with the span-name table in its `names` entry."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.int64),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 pass_id=np.frombuffer(self.span_pass, dtype=np.int64),
                 names=np.array(json.dumps(self.names)))


class _GenSpan:
    """Generator proxy: each send/throw into the wrapped generator is a span.
    `yield from` drives it through send/throw/close like a generator."""

    __slots__ = ("_tr", "_nid", "_gen")

    def __init__(self, tr: Tracer, nid: int, gen):
        self._tr, self._nid, self._gen = tr, nid, gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        frame = self._tr._enter(self._nid)
        try:
            return self._gen.send(value)
        finally:
            self._tr._exit(frame)

    def throw(self, *exc):
        frame = self._tr._enter(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            self._tr._exit(frame)

    def close(self):
        self._gen.close()


# ---------------------------------------------------------------------------
# counters read at layer boundaries


def _hooks(tr: Tracer) -> dict:
    # tr.counters is replaced every pass, so look it up on each call
    def count(key, n=1):
        tr.counters[key] += n

    def maximum(key, v):
        if v > tr.counters[key]:
            tr.counters[key] = v

    def run_pre(args, kwargs):
        return args[0].events_processed

    def run_post(args, result, before):
        count("transport.events", args[0].events_processed - before)

    def send_pre(args, kwargs):
        count("transport.send_bytes", len(args[1].payload))

    def pump_pre(args, kwargs):
        eng = args[0]
        box = args[1] if len(args) > 1 else kwargs.get("mailbox")
        box = eng.mailbox if box is None else box
        if box is not None and eng.committed:
            count("schedule.pumps_scanning")
            count("schedule.mailbox_len_sum", len(box))
            maximum("schedule.mailbox_len_max", len(box))
            if eng.recorder is not None:
                count("schedule.pumps_recorded")

    def engine_init_post(args, result, state):
        for op in args[0].ops:
            tr.label_kind[op.label] = op.kind

    def op_fired_pre(args, kwargs):
        label = args[6] if len(args) > 6 else kwargs["label"]
        count(f"schedule.op_fires.{tr.label_kind.get(label, 'unknown')}")

    def contribute_post(args, result, state):
        if result is False:
            count("collectives.contribute_refused")

    def guard_post(args, result, state):
        eng = args[0].engine
        policy = eng.hold_policy
        if policy is None:
            return

        def counted(gen):
            held = policy(gen)
            count("eagersgd.guard_checks")
            if held:
                count("eagersgd.guard_holds")
            return held
        eng.hold_policy = counted

    def fold_post(args, result, state):
        maximum("eagersgd.stash_depth_max", len(args[0].pending_rounds))

    def round_done_pre(args, kwargs):
        count("trace.retained_bytes", args[1].u.nbytes)

    def snapshot_pre(args, kwargs):
        count("trace.retained_bytes", args[1].data.nbytes)

    check_id = tr._id("verify.check_round_contracts")

    def check_post(args, result, state):
        count("verify.rounds_checked", result.rounds_checked)
        count("verify.violations", len(result.violations))

    def audit_post(args, result, state):
        # check_round_contracts already counts the audits it runs itself
        if not any(f.nid == check_id for f in tr.stack):
            count("verify.violations", len(result))

    def explore_post(args, result, state):
        count("verify.explore_states", result.states)
        count("verify.explore_terminals", result.terminals)
        count("verify.violations", len(result.violations))

    def csv_post(args, result, state):
        count("harness.csv_bytes", os.path.getsize(args[1]))

    return {
        "transport.SimTransport.run": (run_pre, run_post),
        "transport.SimTransport.send": (send_pre, None),
        "schedule.Engine.pump": (pump_pre, None),
        "schedule.Engine.__init__": (None, engine_init_post),
        "trace.TraceRecorder.op_fired": (op_fired_pre, None),
        "trace.TraceRecorder.round_done": (round_done_pre, None),
        "trace.TraceRecorder.snapshot": (snapshot_pre, None),
        "collectives.AllreduceHandle.try_contribute": (None, contribute_post),
        "eagersgd.staleness_guard": (None, guard_post),
        "eagersgd.GradientBuffer.fold": (None, fold_post),
        "verify.check_round_contracts": (None, check_post),
        "verify.DeliveryLedger.audit": (None, audit_post),
        "verify.explore_interleavings": (None, explore_post),
        "harness.write_bench_csv": (None, csv_post),
        "harness.write_train_csv": (None, csv_post),
    }


LAYERS = ("transport", "schedule", "collectives", "eagersgd", "models",
          "verify", "harness", "trace")


def layer_metrics(tr: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of the pass just traced."""
    tot = tr.totals()
    cs = tr.counters

    def calls(n):
        return tot.get(n, (0, 0.0, 0.0))[0]

    def incl(*ns):
        return sum(tot.get(n, (0, 0.0, 0.0))[1] for n in ns)

    def self_s(n):
        return tot.get(n, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: sum(s for n, (_, _, s) in tot.items()
                             if n.startswith(layer + "."))
                  for layer in LAYERS}
    fires = {k: cs[f"schedule.op_fires.{k}"] for k in ("send", "recv", "compute", "nop")}
    m = {
        "transport.events": cs["transport.events"],
        "transport.run_self_s": self_s("transport.SimTransport.run"),
        "transport.sends": calls("transport.SimTransport.send"),
        "transport.send_bytes": cs["transport.send_bytes"],
        "transport.delay_draw_s": incl("transport.inject_delay"),
        "schedule.pumps": calls("schedule.Engine.pump"),
        "schedule.pump_self_s": self_s("schedule.Engine.pump"),
        "schedule.mailbox_len_at_pump.mean": ratio(cs["schedule.mailbox_len_sum"],
                                                   cs["schedule.pumps_scanning"]),
        "schedule.mailbox_len_at_pump.max": cs["schedule.mailbox_len_max"],
        # recv fires are seen only on engines with a recorder, so divide by
        # the pumps of those engines
        "schedule.matches_per_pump": ratio(fires["recv"], cs["schedule.pumps_recorded"]),
        **{f"schedule.op_fires.{k}": v for k, v in fires.items()},
        "schedule.us_per_fire": ratio(layer_self["schedule"] * 1e6, sum(fires.values())),
        "schedule.validate_s": incl("schedule.ScheduleTemplate.validate"),
        "schedule.engine_init_s": incl("schedule.Engine.__init__"),
        "collectives.template_builds": calls("collectives.build_allreduce_template"),
        "collectives.template_build_s": incl("collectives.build_allreduce_template"),
        "collectives.handle_init_s": incl("collectives.AllreduceHandle.__init__"),
        "collectives.initiator_calls": calls("collectives.initiator_for_round"),
        "collectives.initiator_s": incl("collectives.initiator_for_round"),
        "collectives.contributes": calls("collectives.AllreduceHandle.try_contribute"),
        "collectives.contribute_refused": cs["collectives.contribute_refused"],
        "collectives.activate_s": incl("collectives.AllreduceHandle.activate"),
        "eagersgd.train_steps": calls("eagersgd.train_step"),
        "eagersgd.step_self_s": self_s("eagersgd.train_step"),
        "eagersgd.guard_checks": cs["eagersgd.guard_checks"],
        "eagersgd.guard_holds": cs["eagersgd.guard_holds"],
        "eagersgd.stash_folds": calls("eagersgd.GradientBuffer.fold"),
        "eagersgd.stash_depth_max": cs["eagersgd.stash_depth_max"],
        "eagersgd.resyncs": calls("eagersgd.resync_step"),
        "verify.check_s_per_round": ratio(incl("verify.check_round_contracts"),
                                          cs["verify.rounds_checked"]),
        "verify.ledger_audit_s": incl("verify.DeliveryLedger.audit"),
        "verify.explore_states": cs["verify.explore_states"],
        "verify.explore_states_per_s": ratio(cs["verify.explore_states"],
                                             incl("verify.explore_interleavings")),
        "verify.explore_terminals": cs["verify.explore_terminals"],
        "verify.violations": cs["verify.violations"],
        "harness.bench_flavor_s": incl("harness.bench_flavor"),
        "harness.run_training_s": incl("harness.run_training"),
        "harness.csv_bytes": cs["harness.csv_bytes"],
        "harness.csv_write_s": incl("harness.write_bench_csv", "harness.write_train_csv"),
        "trace.rounds_recorded": calls("trace.TraceRecorder.round_done"),
        "trace.snapshots_recorded": calls("trace.TraceRecorder.snapshot"),
        "trace.retained_bytes": cs["trace.retained_bytes"],
    }
    for fn in ("sample_batch", "loss_and_grad", "mse", "gen_dataset"):
        m[f"models.{fn}_s"] = incl(f"models.{fn}")
        m[f"models.{fn}_calls"] = calls(f"models.{fn}")
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    m["tracing.self_time_share"] = ratio(sum(layer_self.values()), wall_s)
    return m


def self_time_total(tr: Tracer) -> float:
    """Sum of every span's self time in the pass, the root's included."""
    return sum(tr.self_ns) / 1e9
