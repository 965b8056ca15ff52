"""The benchmark's span tracer still finds every layer it times.

``perfbench/spans.py`` wraps each traced function at the binding its caller
looks up.  A rename or deletion in the package leaves that target absent,
and the traced benchmark run then lacks the metric it declares; a caller
that bypasses a traced binding leaves its metric at zero calls.  These
tests catch both in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import pytest

from slewguard import cli, engine, scenario

from loop_fixtures import load_cases

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = load_spans()
    with spans.Installed(spans.Tracer()) as installed:
        absent = list(installed.absent)
    assert absent == []


@pytest.mark.usefixtures("reference_path")
def test_every_traced_metric_is_called(tmp_path):
    # a layer the program stops calling through its traced binding would
    # read as a 0-call "improvement"; one short run of each kind reaches
    # every metric: a --compare run through the CLI, whose baseline thread
    # runs the baseline law, and a corridor draw that starts inside the
    # switch band.  The compiled kernel has no traced layer yet, so the runs
    # take the reference loop, whose functions the tracer wraps
    spans = load_spans()
    tracer = spans.Tracer()
    draw = next(doc for doc in load_cases().corridor_scenario_docs(47)
                if doc["name"].endswith("-start-band"))
    with spans.Installed(tracer):
        assert cli.main(["run", "--preset", "paper-compare-1", "--compare",
                         "--duration", "1", "--out", str(tmp_path)]) == 5
        engine.run_scenario(
            scenario.scenario_from_dict(draw).with_sim(duration=1.0))
    stats, _ = tracer.take()
    names = {name for _, _, name in spans.TARGETS}
    assert sorted(n for n in names if n not in stats) == []
