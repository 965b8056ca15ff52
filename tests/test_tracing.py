"""The benchmark's span tracer still finds every layer it times.

``perfbench/spans.py`` wraps each traced function at the binding its caller
looks up.  A rename or deletion in the package leaves that target absent,
and the traced benchmark run then lacks the metric it declares; this test
catches that in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

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
