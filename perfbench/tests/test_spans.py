"""Span arithmetic, wrapping and restoring, and metric names."""

import json
import re
import sys
import types
from pathlib import Path

import pytest

import run
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_a_nested_tree():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]
    tr = spans.Tracer()
    tr.enter("a", 0.0)
    tr.enter("b", 1.0)
    tr.exit(3.0)
    tr.enter("c", 4.0)
    tr.enter("d", 5.0)
    tr.exit(6.0)
    tr.exit(8.0)
    tr.exit(10.0)
    assert tr.stats == {"a": [1, 10.0, 4.0], "b": [1, 2.0, 2.0],
                        "c": [1, 4.0, 3.0], "d": [1, 1.0, 1.0]}


def test_repeated_and_recursive_spans_sum_per_name():
    tr = spans.Tracer()
    tr.enter("f", 0.0)
    tr.enter("f", 1.0)
    tr.exit(2.0)
    tr.enter("g", 2.0)
    tr.exit(2.5)
    tr.exit(4.0)
    calls, total, self_s = tr.stats["f"]
    assert (calls, total, self_s) == (2, 5.0, 3.5)   # 2.5 outer + 1 inner
    stats, _ = tr.take()
    assert stats["g"] == [1, 0.5, 0.5] and tr.stats == {}


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def square(x):
        return x * x

    def boom():
        raise ValueError("boom")

    class Ctx:
        def step(self, x):
            return mod.square(x) + 1

    mod.square, mod.boom, mod.Ctx = square, boom, Ctx
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_wrappers_count_and_are_restored(fake_module):
    originals = (fake_module.square, fake_module.Ctx.__dict__["step"])
    targets = (("fake_layers", "square", "fake.square"),
               ("fake_layers", "Ctx.step", "fake.step"),
               ("fake_layers", "boom", "fake.boom"),
               ("fake_layers", "removed", "fake.removed"),
               ("fake_layers", "Gone.step", "fake.gone"),
               ("no_such_module", "f", "fake.nomodule"))
    tr = spans.Tracer()
    with spans.Installed(tr, targets) as inst:
        assert fake_module.Ctx().step(3) == 10
        with pytest.raises(ValueError):
            fake_module.boom()
    assert (fake_module.square, fake_module.Ctx.__dict__["step"]) == originals
    assert tr.stats["fake.step"][0] == 1 and tr.stats["fake.square"][0] == 1
    assert tr.stats["fake.boom"][0] == 1   # the span closed on the exception
    assert inst.absent_names == {"fake.removed", "fake.gone", "fake.nomodule"}
    assert tr._stack == []


def test_absent_layers_are_left_out_of_the_metrics():
    stats = {"engine.rhs": [4, 2e-4, 1e-4]}
    values = run.per_layer(stats, {}, 1.0, {}, {"engine.step"})
    assert values["engine.rhs.calls"] == 4
    assert values["engine.rhs.self_us"] == pytest.approx(25.0)
    assert values["engine.record.calls"] == 0
    assert not any(k.startswith("engine.step.") for k in values)


def test_metric_names():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    produced = set(run.per_layer({}, {}, 1.0, {}, set()))
    produced |= {"trace.sim_rate_ratio"}
    produced |= set(run.end_to_end([run.Run("c", "ok", 1.0, 1.0)],
                                   [(1.0, run.gauge.NOMINAL_S)]))
    assert all(NAME.fullmatch(n) for n in produced)
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {m["name"] for m in spec["end_to_end"]} <= produced
