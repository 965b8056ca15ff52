"""Every scenario document ends cleanly: a property test of the input
surface, the schema of ``docs/scenario-format.md``.

Documents are the runnable example with one to three fields set to values
at the edges of the double range, of the wrong type, or removed.  Each one
either raises an error the package declares, or runs to the same end on
the compiled kernel and on the reference loop; through the CLI it exits
with a code the README lists, never with a traceback.

Most such documents stop at the loader, so a second generator moves one
to three numbers of the example only a little, and draws its step and
duration, so that most of its documents run, on many time grids.

Resource caps: a run lasts at most ``MAX_DURATION`` simulated seconds at a
step of at least ``MIN_DT``, so no example runs long or allocates a large
log; the log-size errors have their own tests.  A duration or step that
the caps would move is moved only where it is a positive number, so every
invalid value still reaches the loader.
"""

import copy
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slewguard import _kernel, cli
from slewguard.engine import SimulationAbort, ValidationFailure, run_scenario
from slewguard.scenario import ScenarioError, scenario_from_dict

EXAMPLE = json.loads((Path(__file__).resolve().parent.parent / "docs"
                      / "example_scenario.json").read_text())
MAX_DURATION = 2.0
MIN_DT = 1e-3
# the exit codes the README lists
EXIT_CODES = {0, 2, 3, 4, 5, 6}


def leaf_paths(value, path=()):
    """The path of ``value`` and of everything inside it, as key and index
    tuples."""
    out = [path] if path else []
    if isinstance(value, dict):
        for key, item in value.items():
            out += leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out += leaf_paths(item, path + (i,))
    return out


# every field of the example, each vector entry and each object, and the
# optional fields it leaves out
PATHS = leaf_paths(EXAMPLE) + [
    ("spacecraft", "inertia"), ("obstacles", 0, "k_r"), ("switching", "p1"),
    ("obstacles", 1)]

# numbers at the edges of the double range, and values of the wrong type
EDGES = [0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
         -1e300, 1e12, -1e12, 10 ** 400, math.nan, math.inf, -math.inf]
WRONG = ["5.08", True, None, [], {}, [1.0, 0.0], [[5.0, 0, 0]] * 3]
REMOVE = object()


def value_near(value):
    """Values of the kind a field already holds, scaled, so that more of
    the mutated documents pass the loader and run."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return st.sampled_from([-1.0, 0.5, 2.0, 1e3, 1e-3]).map(
            lambda f: value * f)
    return st.nothing()


def mutation(doc):
    """A (path, value) pair: a number at the edges, one near the field's
    own, a value of the wrong type, or ``REMOVE``."""
    def values(path):
        return st.one_of(st.sampled_from(EDGES), value_near(get(doc, path)),
                         st.sampled_from(WRONG + [REMOVE])
                         ).map(lambda v: (path, v))
    return st.sampled_from(PATHS).flatmap(values)


def get(doc, path):
    for key in path:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    return doc


def put(doc, path, value):
    """Set ``path`` to ``value``, or remove it; a path whose parent is
    gone, or is no container, is left as it is."""
    parent = get(doc, path[:-1])
    key = path[-1]
    if isinstance(parent, dict) and isinstance(key, str):
        if value is REMOVE:
            parent.pop(key, None)
        else:
            parent[key] = copy.deepcopy(value)
    elif isinstance(parent, list) and isinstance(key, int):
        if key < len(parent):
            if value is REMOVE:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(value)
        elif key == len(parent) and value is not REMOVE:
            parent.append(copy.deepcopy(value))


def capped(doc):
    """``doc`` with a positive duration above ``MAX_DURATION`` lowered to
    it, a removed one (120 s by default) set to it, and a positive step
    below ``MIN_DT`` raised to it."""
    sim = doc.get("sim")
    if not isinstance(sim, dict):
        return doc
    for key, ok in (("duration", lambda v: v <= MAX_DURATION),
                    ("dt", lambda v: v >= MIN_DT)):
        v = sim.get(key, 0)
        if (isinstance(v, (int, float)) and not isinstance(v, bool)
                and v > 0 and not ok(v)):
            sim[key] = MAX_DURATION if key == "duration" else MIN_DT
    if "duration" not in sim:
        sim["duration"] = MAX_DURATION
    return doc


@st.composite
def documents(draw):
    """The example, capped, with one mutation in half of the documents and
    one to three in the others: each further one makes a document that the
    loader admits rarer."""
    doc = copy.deepcopy(EXAMPLE)
    doc["sim"]["duration"] = MAX_DURATION
    n = draw(st.one_of(st.just(1), st.integers(1, 3)))
    for path, value in draw(st.lists(mutation(EXAMPLE), min_size=n,
                                     max_size=n)):
        put(doc, path, value)
    return capped(doc)


# the example's numbers, each vector entry on its own, but for the step
# and the duration, which are drawn together
NUMBERS = [path for path in leaf_paths(EXAMPLE)
           if isinstance(get(EXAMPLE, path), (int, float))
           and not isinstance(get(EXAMPLE, path), bool)
           and path not in (("sim", "dt"), ("sim", "duration"))]


def nearby(value):
    """A number near ``value``: an integer up to twice it and 3 more, or a
    float scaled by 0.8 to 1.25, or moved by up to 0.05 (so that zeros
    move too)."""
    if isinstance(value, int):
        return st.integers(1, 2 * value + 3)
    return st.one_of(st.floats(0.8, 1.25).map(lambda f: value * f),
                     st.floats(-0.05, 0.05).map(lambda e: value + e))


@st.composite
def nearby_documents(draw):
    """The example with one to three of its numbers moved a little, run
    at a step of ``MIN_DT`` to 0.02 s in whole microseconds for a whole
    number of steps, up to ``MAX_DURATION``: documents that the loader
    mostly admits, on many time grids."""
    doc = copy.deepcopy(EXAMPLE)
    dt = draw(st.integers(1_000, 20_000)) / 1e6
    steps = draw(st.integers(1, int(MAX_DURATION / dt)))
    doc["sim"].update(dt=dt, duration=steps * dt)
    for path in draw(st.lists(st.sampled_from(NUMBERS), min_size=1,
                              max_size=3)):
        put(doc, path, draw(nearby(get(doc, path))))
    return doc


def mutated(*changes):
    """The capped example with ``changes``, (path, value) pairs."""
    doc = copy.deepcopy(EXAMPLE)
    doc["sim"]["duration"] = MAX_DURATION
    for path, value in changes:
        put(doc, path, value)
    return doc


# counterexamples found before: a rate whose quaternion norm overflows in
# the renormalization raised OverflowError
FOUND = [mutated((("initial", "omega", 2), 1e12))]


def end(doc, path):
    """How ``doc`` ends on ``path``, "kernel" or "reference": the error it
    raises, or its summary without the wall time and its log's bits."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the loader's normalization notes
        if path == "reference":
            mp.setattr(_kernel, "load", lambda: None)
        try:
            result = run_scenario(scenario_from_dict(copy.deepcopy(doc)))
        except ScenarioError as exc:
            return "schema", exc.errors
        except ValidationFailure as exc:
            return "validation", str(exc)
        except MemoryError as exc:
            return "memory", str(exc)
        except SimulationAbort as exc:
            return "abort", str(exc), exc.state, exc.stage
    summary = dict(result.summary)
    del summary["wall_clock_s"]
    return "ok", repr(summary), result.records.data.tobytes()


EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@settings(EXAMPLES, max_examples=500)
@given(doc=documents())
@example(doc=FOUND[0])
def test_every_document_ends_the_same_on_both_paths(doc):
    # an error the package declares, or one end on both paths
    assert end(doc, "kernel") == end(doc, "reference")


@settings(EXAMPLES, max_examples=100)
@given(doc=nearby_documents())
def test_every_nearby_document_ends_the_same_on_both_paths(doc):
    # most of these run, so the runs, and the kernel's disturbance table,
    # keyed by each document's step, are searched harder
    assert end(doc, "kernel") == end(doc, "reference")


@settings(EXAMPLES, max_examples=100)
@given(doc=documents())
@example(doc=FOUND[0])
def test_every_document_exits_with_a_listed_code(doc):
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["run", "--scenario", str(path),
                             "--out", str(Path(tmp) / "runs")])
        assert code in EXIT_CODES, err.getvalue()
        # an error is one line or more on stderr, and a finished run one
        # line on stdout
        assert (code in (0, 5)) == bool(out.getvalue()), err.getvalue()
        assert sorted(Path(tmp).rglob("*.part")) == []
