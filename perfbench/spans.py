"""Span tracing of slewguard's layers, installed from outside the program.

Each traced function is replaced, at the binding its caller looks up, by a
wrapper that opens a span on entry and closes it on exit.  Open spans sit on
a stack (name, start, time covered by children); the span below is the
parent.  A closing span is folded straight into per-name totals (calls,
inclusive time, self time) and its duration is charged to its parent, so
memory stays flat: one presets-cli round closes about five million spans.
Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import importlib
import os
import time

# (module, attribute path, metric name).  A name appears more than once when
# callers reach the same function through different bindings.
TARGETS = (
    ("slewguard.cli", "main", "cli.main"),
    ("slewguard.cli", "load_preset", "scenario.load_preset"),
    ("slewguard.scenario", "load_preset", "scenario.load_preset"),
    ("slewguard.scenario", "scenario_from_dict", "scenario.scenario_from_dict"),
    ("slewguard.cli", "run_scenario", "engine.run_scenario"),
    ("slewguard.engine", "run_scenario", "engine.run_scenario"),
    ("slewguard.engine", "validate_config", "controller.validate_config"),
    ("slewguard.engine", "summarize", "engine.summarize"),
    ("slewguard.cli", "write_trajectory_csv", "engine.write_trajectory_csv"),
    ("slewguard.cli", "write_summary_json", "engine.write_summary_json"),
    ("slewguard.engine", "_LoopContext.step", "engine.step"),
    ("slewguard.engine", "_LoopContext.rhs", "engine.rhs"),
    ("slewguard.engine", "_LoopContext.record", "engine.record"),
    ("slewguard.engine", "_LoopContext._resolve", "engine.resolve"),
    ("slewguard.engine", "virtual_law", "controller.virtual_law"),
    ("slewguard.controller", "virtual_law", "controller.virtual_law"),
    ("slewguard.engine", "torque_law", "controller.torque_law"),
    ("slewguard.controller", "torque_law", "controller.torque_law"),
    ("slewguard.engine", "benchmark_apf_law", "controller.benchmark_apf_law"),
    ("slewguard.engine", "bridge", "potential.bridge"),
    ("slewguard.controller", "repulsion_grad_beta",
     "potential.repulsion_grad_beta"),
    ("slewguard.engine", "blf_value", "envelope.blf_value"),
    ("slewguard.engine", "total_potential", "potential.total_potential"),
)


class Tracer:
    """Per-name call counts, inclusive and self seconds, and counters."""

    def __init__(self):
        self._stack: list[list] = []
        self.stats: dict[str, list] = {}      # name -> [calls, total, self]
        self.counts: dict[str, int] = {}      # name -> counter total

    def enter(self, name: str, t: float) -> None:
        self._stack.append([name, t, 0.0])

    def exit(self, t: float) -> None:
        name, start, covered = self._stack.pop()
        duration = t - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def take(self) -> tuple[dict, dict]:
        """Return and clear the totals gathered so far."""
        out = self.stats, self.counts
        self.stats, self.counts = {}, {}
        return out


# Counters some wrappers keep: metric suffix and the count one call adds.
# The metric is the counter's total per call.
PROBES = {
    "potential.repulsion_grad_beta":
        ("nonzero_ratio", lambda args, out: out != 0.0),
    "controller.validate_config":
        ("admitted_ratio", lambda args, out: bool(out.ok)),
    "engine.write_trajectory_csv":
        ("bytes", lambda args, out: os.path.getsize(args[1])),
}


def _wrap(tracer, fn, name):
    probe = PROBES.get(name, (None, None))[1]
    enter, exit_, clock = tracer.enter, tracer.exit, time.perf_counter

    def wrapper(*args, **kwargs):
        enter(name, clock())
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_(clock())
        if probe is not None:
            try:
                tracer.count(name, probe(args, out))
            except (AttributeError, IndexError, OSError, TypeError):
                pass  # a changed signature or result loses the counter only
        return out

    return wrapper


class Installed:
    """Wrappers in place for the lifetime of a ``with`` block.

    A target whose module, class or function no longer exists is listed in
    ``absent`` and left alone; every replaced binding is put back on exit.
    """

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    @property
    def absent_names(self) -> set[str]:
        """Metric names none of whose bindings could be wrapped."""
        wrapped = {name for module, path, name in self.targets
                   if f"{module}.{path}" not in self.absent}
        return {name for _, _, name in self.targets} - wrapped

    def __enter__(self):
        self.absent = []
        for module, path, name in self.targets:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                fn = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{path}")
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, _wrap(self.tracer, fn, name))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)
        return False
