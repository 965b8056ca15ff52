"""The compiled stage kernel against the reference loop it repeats.

Runs take the kernel wherever a library can be built and the reference
loop, ``_LoopContext.rhs`` and ``step``, everywhere else.  These tests pin
the dispatch, the build and its cache, and the contract that makes the two
paths one: every sample's state and stage quantities, and every abort, are
the same bits on both.  The golden digests of ``test_acceptance`` and
``test_kernel_pins`` run on both paths as well.
"""

import ctypes
import hashlib
import json
import math
import os
import shlex
import shutil
import struct
import subprocess
import sys
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slewguard import _kernel, engine
from slewguard.attitude import BodyState, UnitQuaternion
from slewguard.engine import SimulationAbort, _LoopContext, run_scenario
from slewguard.envelope import EnvelopeConfig
from slewguard.scenario import load_preset, load_scenario, scenario_from_dict

from loop_fixtures import (
    FULL_INERTIA,
    OBLIQUE_BORESIGHT,
    Z_BORESIGHT,
    hamilton,
    load_cases,
    make_scenario,
    quat_conj,
    unit,
)
from test_cli import SRC, find_python


def kernel_or_skip():
    if _kernel.load() is None:
        pytest.skip("no kernel library could be built here (no C compiler "
                    "was found, or it failed), so runs take the reference")


@pytest.fixture
def fresh_load():
    """``_kernel.load`` forgets its result before and after the test."""
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


def test_a_default_run_takes_the_kernel(monkeypatch):
    kernel_or_skip()
    rhs, propagator = _LoopContext.rhs, _kernel.propagator
    calls, kernel_calls = [], []

    def counted(ctx, t, y):
        calls.append(t)
        return rhs(ctx, t, y)

    def counted_kernel(*args):
        advance = propagator(*args)

        def counted_advance(y, k, end):
            kernel_calls.append((k, end))
            return advance(y, k, end)

        return counted_advance

    def fell_back(*args):
        raise AssertionError("the run fell back to the reference loop")

    monkeypatch.setattr(_LoopContext, "rhs", counted)
    for name in ("step", "record"):
        monkeypatch.setattr(_LoopContext, name, fell_back)
    monkeypatch.setattr(engine._RunStats, "add", fell_back)
    monkeypatch.setattr(_kernel, "propagator", counted_kernel)
    res = run_scenario(load_preset("paper-two-1").with_sim(duration=5.0))
    assert len(res.records) == 501
    # only the initial command's stage is evaluated in Python, and one
    # kernel call runs every sample
    assert calls == [0.0]
    assert kernel_calls == [(0, 501)]


def test_a_failed_build_runs_the_reference_once_per_process(
        monkeypatch, tmp_path, fresh_load):
    builds = []

    def failing(target, flags=_kernel.FLAGS):
        builds.append(target)
        raise OSError("kernel build failed: no compiler")

    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(_kernel, "build", failing)
    monkeypatch.setattr(_kernel, "library_path",
                        lambda: cache / "_kernel-test.so")
    step = _LoopContext.step
    steps = []

    def counted(ctx, k, y, dt, k1):
        steps.append(k)
        return step(ctx, k, y, dt, k1)

    monkeypatch.setattr(_LoopContext, "step", counted)
    sc = load_preset("paper-two-1").with_sim(duration=0.5)
    first = run_scenario(sc)
    second = run_scenario(sc)
    assert len(builds) == 1
    assert steps == list(range(50)) * 2
    assert first.records.data == second.records.data
    # the failed build left nothing in the cache
    assert list(cache.iterdir()) == []


def test_the_library_is_built_once_and_cached(monkeypatch, tmp_path,
                                              fresh_load):
    kernel_or_skip()
    build = _kernel.build
    builds = []

    def counted(target, flags=_kernel.FLAGS):
        builds.append(target)
        build(target, flags)

    path = tmp_path / "cache" / "_kernel-test.so"
    monkeypatch.setattr(_kernel, "build", counted)
    monkeypatch.setattr(_kernel, "library_path", lambda: path)
    assert _kernel.load() is not None
    _kernel.load.cache_clear()
    assert _kernel.load() is not None
    assert len(builds) == 1
    # built under a temporary name, which is gone
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_the_source_compiles_without_warnings(tmp_path):
    # portable C99, so whichever compiler ``build`` finds takes it
    cc = _kernel.compiler()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({shlex.join(cc) or 'none configured'}) "
                    f"found, so nothing was compiled")
    _kernel.build(tmp_path / "kernel.so",
                  (*_kernel.FLAGS, "-std=c99", "-pedantic", "-Wall", "-Wextra",
                   "-Werror"))


# runs on the library given, in a process with the sanitizers' runtime
SANITIZED_PROBE = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from slewguard import _kernel, engine, load_preset
_kernel.library_path = lambda: Path(sys.argv[2])
assert _kernel.load() is not None
for name in ("paper-two-1", "paper-three-1"):
    for stride in (1, 7, 2 ** 63 - 1):
        engine.run_scenario(load_preset(name).with_sim(
            duration=20.0, record_stride=stride))
"""


def test_the_kernel_runs_clean_under_the_sanitizers(tmp_path):
    # AddressSanitizer fails a row written outside the log, and
    # UndefinedBehaviorSanitizer an overflowing row index, at the strides
    # that log every sample, some, and only the first and the final one
    cc = _kernel.compiler()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({shlex.join(cc) or 'none configured'}) "
                    f"found, so nothing was compiled")
    runtime = subprocess.run([*cc, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip(f"{shlex.join(cc)} has no libasan, so nothing was run")
    library = tmp_path / "kernel.so"
    _kernel.build(library, (*_kernel.FLAGS, "-fsanitize=address,undefined",
                            "-fno-sanitize-recover=all"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SANITIZED_PROBE, str(SRC), str(library)],
        env=dict(os.environ, LD_PRELOAD=runtime,
                 ASAN_OPTIONS="detect_leaks=0"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module, name, value", [
    (_kernel, "CONSTANTS", (("R", 3), ("B", 3), *_kernel.CONSTANTS[2:])),
    (_kernel, "CONE", (("AXIS", 3), ("K_R", 1), ("SHAPE", 4))),
    (engine, "_S_SAMPLES", engine._S_MAX_TORQUE)],
    ids=["constants", "cone", "statistics"])
def test_a_library_of_another_layout_is_never_loaded(monkeypatch, module,
                                                     name, value):
    # the layouts are part of the library's cache name, so a library built
    # for another one is never found, and the kernel is built anew
    path = _kernel.library_path()
    monkeypatch.setattr(module, name, value)
    assert _kernel.library_path() != path


# ---------------------------------------------------------------------------
# one contract: the same samples and the same aborts on both paths
# ---------------------------------------------------------------------------

def bits(values):
    return struct.pack(f"{len(values)}d", *values)


def run_on(path, sc):
    """What a forced run of ``sc`` on ``path`` gives: the bits of every
    logged row, of the statistics record, and of the summary without its
    wall time, or the abort's fields."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "reference":
            mp.setattr(_kernel, "load", lambda: None)
        logs, stats = [], []
        trajectory = engine.Trajectory

        def kept(data, columns):
            logs.append(trajectory(data, columns))
            return logs[-1]

        class KeptStats(engine._RunStats):
            def __init__(self, ctx):
                super().__init__(ctx)
                stats.append(self)

        mp.setattr(engine, "Trajectory", kept)
        mp.setattr(engine, "_RunStats", KeptStats)
        try:
            res = run_scenario(sc, force=True)
        except SimulationAbort as exc:
            end = ("abort", str(exc), exc.t, exc.state, exc.stage)
        except ArithmeticError as exc:
            end = (type(exc).__name__, str(exc))
        else:
            end = ("ok", summary_bits(res.summary))
    return bits(logs[0].data), bits(stats[0].record), end


def summary_bits(summary):
    """The summary without its wall time, with every float as its shortest
    round-trip repr, which tells every double apart."""
    summary = dict(summary)
    summary.pop("wall_clock_s")
    return repr(summary)


def with_start(sc, omega, **sim):
    sc.initial = BodyState(UnitQuaternion(0.0, 0.0, 0.0, 1.0), omega)
    return sc.with_sim(**sim)


def stage_one_funnel_abort():
    # the boresight starts in a cone's freeze band under a funnel that
    # shrinks 7,500 times faster than the presets' (k_rho 750 against 0.1):
    # stages 2 to 4 of the step to t = 0.7 s keep rho > 0, and their RK4
    # combine leaves it below zero
    sc = make_scenario(axes=((0.55, -0.2, 0.81),), k1=1125.0)
    sc.envelope = EnvelopeConfig(rho_0=1.5, rho_inf=1e-3, k_rho=750.0)
    return with_start(sc, (0.7, 0.0, 0.0), dt=0.1, duration=5.0)


# (scenario, what the reference raises: abort reason and stage, or type)
NATURAL_ABORTS = {
    "stage-1-funnel-radius": (stage_one_funnel_abort,
                              ("funnel radius reached zero", 1)),
    "stage-4-non-finite-radius": (
        lambda: make_scenario(td_r=1e300).with_sim(duration=1.0),
        ("funnel radius became non-finite", 4)),
    "non-finite-state": (
        lambda: with_start(make_scenario(), (1e100, 0.0, 0.0), duration=1.0),
        ("non-finite value in quat[0]", None)),
    "square-overflow": (
        lambda: with_start(make_scenario(), (8e52, 0.0, 0.0), duration=1.0),
        "OverflowError"),
}


@pytest.mark.parametrize("name", sorted(NATURAL_ABORTS))
def test_natural_aborts_are_the_same_on_both_paths(name):
    kernel_or_skip()
    build, want = NATURAL_ABORTS[name]
    sc = build()
    reference = run_on("reference", sc)
    end = reference[-1]
    if isinstance(want, str):
        assert end[0] == want
    else:
        assert end[0] == "abort"
        assert (end[1].split(": ", 1)[1], end[4]) == want
    assert run_on("kernel", sc) == reference


UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2) > 0.1)
# a cone axis by its angle [deg] from the boresight at the start, inside
# the field band, beside it or clear of it, and its azimuth [rad]
CONE = st.tuples(st.floats(15.0, 70.0), st.floats(0.0, 2.0 * math.pi))


def start_cone_axis(q, boresight, angle_deg, azimuth):
    """The inertial axis ``angle_deg`` from the boresight at attitude ``q``
    (a 4-vector), in the direction ``azimuth`` about it."""
    b = np.asarray(boresight, dtype=float)
    e1 = np.cross(b, [1.0, 0.0, 0.0] if abs(b[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(b, e1)
    a = math.radians(angle_deg)
    f_b = math.cos(a) * b + math.sin(a) * (math.cos(azimuth) * e1
                                           + math.sin(azimuth) * e2)
    return hamilton(hamilton(q, [*f_b, 0.0]), quat_conj(q))[:3]


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cones=st.lists(CONE, max_size=3), target=UNIT,
       mode=st.sampled_from(["proposed", "benchmark_apf"]),
       full_inertia=st.booleans(), oblique=st.booleans(),
       disturbance=st.booleans(),
       attitude=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
           lambda q: sum(c * c for c in q) > 0.1),
       omega=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
       duration=st.sampled_from([3.0, 0.5]), stride=st.integers(1, 7))
def test_every_sample_is_the_same_on_both_paths(
        cones, target, mode, full_inertia, oblique, disturbance, attitude,
        omega, duration, stride):
    # 0-3 cones placed about the start boresight, so the switches, the
    # field and the freeze are met, at any attitude and goal, in both
    # modes, with either inertia, either boresight and either disturbance
    kernel_or_skip()
    n = math.sqrt(sum(c * c for c in attitude))
    q = [c / n for c in attitude]
    boresight = OBLIQUE_BORESIGHT if oblique else Z_BORESIGHT
    try:
        sc = make_scenario(
            len(cones), inertia=FULL_INERTIA if full_inertia else None,
            boresight=boresight, target=unit(target),
            axes=[start_cone_axis(q, boresight, *c) for c in cones])
    except ValueError:  # a cone with no plateau at this goal
        return
    sc.initial = BodyState(UnitQuaternion(*q), omega)
    sc = sc.with_sim(duration=duration, controller_mode=mode,
                     disturbance_enabled=disturbance)
    # stride 1 logs, and so compares, every sample's row
    for s in sorted({1, stride}):
        sc = sc.with_sim(record_stride=s)
        assert run_on("kernel", sc) == run_on("reference", sc)


@pytest.mark.parametrize("stride, skipped", [(1, 768), (7, 1792)])
def test_a_sample_the_kernel_skips_lands_in_the_same_record(
        monkeypatch, stride, skipped):
    # the first call stops short of sample ``skipped``, as before a sample
    # the reference raises on, and the next completes no sample, as where
    # slewguard_run cannot allocate its work array: the loop replays each
    # of the two with the reference, which logs it in its own row and
    # folds it into the statistics record the kernel folds into, and the
    # kernel resumes after it.  ``skipped`` is logged at both strides, the
    # sample after it only at stride 1.
    kernel_or_skip()
    # two cones, and Lyapunov pairs of which half rise
    doc = load_cases().corridor_scenario_docs(1)[3]
    assert doc["name"] == "corridor-1-003-two"
    sc = scenario_from_dict(doc).with_sim(record_stride=stride)
    want = run_on("kernel", sc)
    propagator, add = _kernel.propagator, engine._RunStats.add
    calls, replayed = [], []

    def skipping(*args):
        advance = propagator(*args)

        def skipping_advance(y, k, end):
            calls.append(k)
            if k == 0:
                end = skipped
            elif k == skipped + 1:
                return 0, list(y)
            return advance(y, k, end)

        return skipping_advance

    def counted(stats, t, y, stage, row):
        replayed.append((t, row is not None, stats.record[engine._S_OPEN]))
        return add(stats, t, y, stage, row)

    monkeypatch.setattr(_kernel, "propagator", skipping)
    monkeypatch.setattr(engine._RunStats, "add", counted)
    assert run_on("kernel", sc) == want
    assert skipped % stride == 0
    assert calls == [0, skipped + 1, skipped + 2]
    # a Lyapunov pair is open across both replays
    assert replayed == [(skipped * 0.01, True, 1.0),
                        ((skipped + 1) * 0.01, stride == 1, 1.0)]


@pytest.mark.parametrize("stride", [2 ** 63 - 1, 2 ** 63, 2 ** 64,
                                    2 ** 64 + 1],
                         ids=["2**63-1", "2**63", "2**64", "2**64+1"])
def test_a_huge_stride_logs_the_first_and_final_sample(stride):
    # the largest C long runs on the kernel, whose row index must not
    # overflow.  ctypes would wrap a larger stride into the kernel's C
    # long: 2**64 to 0, which C takes modulo, and 2**64 + 1 to 1, which
    # logs every sample, so both paths run those on the reference.  Each
    # logs the first and the final sample of the 1 s run, as stride 100
    # does on the kernel
    sc = load_scenario(SRC.parent / "docs" / "example_scenario.json"
                       ).with_sim(duration=1.0)
    got = run_on("kernel", sc.with_sim(record_stride=stride))
    assert got == run_on("reference", sc.with_sim(record_stride=stride))
    assert got[0] == run_on("kernel", sc.with_sim(record_stride=100))[0]
    assert len(got[0]) == 2 * 8 * len(engine._columns(len(sc.obstacles)))


def test_a_count_beyond_a_c_long_takes_the_reference():
    # the stride, and the sample count n_steps + 1, reach the kernel as C
    # longs; one that does not fit leaves the run to the reference
    kernel_or_skip()
    long_max = 2 ** (8 * ctypes.sizeof(ctypes.c_long) - 1) - 1
    ctx = _LoopContext(load_preset("paper-two-1"))
    stats = engine._RunStats(ctx).record

    def takes_kernel(n_steps, stride):
        return _kernel.propagator(ctx, stats, array("d"), 0.01, n_steps,
                                  stride) is not None

    assert takes_kernel(long_max - 1, long_max)
    assert not takes_kernel(long_max, 1)
    assert not takes_kernel(100, long_max + 1)


@pytest.mark.parametrize("k, end, state", [
    (0, 102, 14), (-1, 10, 14), (10, 9, 14), (0, 101, 13)])
def test_the_kernel_refuses_samples_outside_the_run(k, end, state):
    # the kernel writes the rows of samples k to end - 1 into a log that
    # holds the run's rows alone, and reads 14 state components
    kernel_or_skip()
    ctx = _LoopContext(load_preset("paper-two-1"))
    log = array("d", [0.0]) * (101 * len(engine._columns(len(ctx.cones))))
    advance = _kernel.propagator(ctx, engine._RunStats(ctx).record, log,
                                 0.01, 100, 1)
    y, _ = ctx.initial_state()
    with pytest.raises(ValueError, match="outside the run"):
        advance(y[:state], k, end)
    assert not any(log)


# a 2 s paper-two-1 run in another interpreter, which imports the package
# from the path given: whether it has a kernel, and its CSV's sha256
PROBE = """\
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from slewguard import _kernel, engine, load_preset
r = engine.run_scenario(load_preset("paper-two-1").with_sim(duration=2.0))
text = "".join(engine._csv_text(r.records.data, r.records.columns))
print(_kernel.load() is not None, hashlib.sha256(text.encode()).hexdigest())
"""


def probe(python, src, **env):
    """PROBE's output in ``python``, with ``env`` added to the environment,
    as ``[has a kernel, sha256]``."""
    proc = subprocess.run([python, "-B", "-W", "error", "-c", PROBE, str(src)],
                          env=dict(os.environ, **env), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def reference_csv_sha256():
    """The sha256 of PROBE's CSV, from the reference loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        res = run_scenario(load_preset("paper-two-1").with_sim(duration=2.0))
    text = "".join(engine._csv_text(res.records.data, res.records.columns))
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_package(tmp_path):
    """A copy of the package without its ``__pycache__``, so without a
    library: the path to import it from."""
    shutil.copytree(SRC / "slewguard", tmp_path / "src" / "slewguard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src"


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_other_interpreters_load_the_cached_library_or_none(version,
                                                            tmp_path):
    # the library is plain C, built by the compiler alone: each interpreter
    # loads the cached one, builds its own in a fresh copy of the package
    # or, with no compiler to run, takes the reference loop and leaves
    # nothing behind, with the same bytes every way
    kernel_or_skip()  # and the library is cached
    python = find_python(version)
    if python is None:
        pytest.skip(f"no Python {version} found; nothing was compared")
    want = reference_csv_sha256()
    fresh = fresh_package(tmp_path)
    cache = fresh / "slewguard" / "__pycache__"
    assert probe(python, fresh, CC=str(tmp_path / "no-such-cc")) == [
        "False", want]
    assert list(cache.iterdir()) == []
    assert probe(python, fresh) == ["True", want]
    assert [p.name for p in cache.iterdir()] == [
        _kernel.library_path().name]
    assert probe(python, SRC) == ["True", want]


def test_no_compiler_flags_from_the_environment_reach_the_build(tmp_path):
    # flags the compiler rejects would fail the build and leave the run on
    # the reference loop
    kernel_or_skip()
    assert probe(sys.executable, fresh_package(tmp_path),
                 CFLAGS="-not-a-flag", LDFLAGS="-not-a-flag") == [
        "True", reference_csv_sha256()]


# (file, text, its replacement): two slots of the statistics record, two
# scenario constants of different widths and two fields of a cone swapped
REORDERINGS = [
    ("engine.py", "(_S_SAMPLES, _S_SATURATED, _S_MAX_TORQUE,",
     "(_S_MAX_TORQUE, _S_SATURATED, _S_SAMPLES,"),
    ("_kernel.py", '("B", 3), ("R", 3), ("J", 9),',
     '("J", 9), ("R", 3), ("B", 3),'),
    ("_kernel.py", '(("AXIS", 3), ("SHAPE", 4), ("K_R", 1))',
     '(("K_R", 1), ("SHAPE", 4), ("AXIS", 3))'),
]

# 2 s of each scenario given, a preset's name or a document, on both paths
# of the package at the path given: the sha256 of its log's and its
# statistics record's bits, and its summary without the wall time
REORDERED_PROBE = """\
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from slewguard import _kernel, engine, load_preset
from slewguard.scenario import scenario_from_dict
assert _kernel.load() is not None
records, runs, kernel = [], {}, _kernel.load

class Kept(engine._RunStats):
    def __init__(self, ctx):
        super().__init__(ctx)
        records.append(self.record)

engine._RunStats = Kept
for path in ("kernel", "reference"):
    _kernel.load = kernel if path == "kernel" else lambda: None
    for doc in json.loads(sys.argv[2]):
        sc = (load_preset(doc) if isinstance(doc, str)
              else scenario_from_dict(doc))
        res = engine.run_scenario(sc.with_sim(duration=2.0))
        del res.summary["wall_clock_s"]
        runs.setdefault(sc.name, {})[path] = [
            hashlib.sha256(data).hexdigest()
            for data in (res.records.data, records[-1])] + [repr(res.summary)]
print(json.dumps(runs))
"""


def test_reordered_layouts_give_the_same_run_on_both_paths(tmp_path):
    # each layout is stated once, in Python, so a package with its slots
    # reordered builds a kernel of that layout, which the reference agrees
    # with bit for bit; the log and summary are this package's, and only
    # the statistics record's bits move
    kernel_or_skip()
    fresh = fresh_package(tmp_path)
    for name, old, new in REORDERINGS:
        path = fresh / "slewguard" / name
        text = path.read_text()
        assert text.count(old) == 1, old
        path.write_text(text.replace(old, new))
    corridor = load_cases().corridor_scenario_docs(1)[3]
    assert corridor["name"] == "corridor-1-003-two"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", REORDERED_PROBE, str(fresh),
         json.dumps(["paper-two-1", corridor])],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert sorted(runs) == ["corridor-1-003-two", "paper-two-1"]
    for sc in (load_preset("paper-two-1"), scenario_from_dict(corridor)):
        got = runs[sc.name]
        assert got["kernel"] == got["reference"]
        log, stats, (_, summary) = run_on("kernel", sc.with_sim(duration=2.0))
        assert got["kernel"][0] == hashlib.sha256(log).hexdigest()
        assert got["kernel"][1] != hashlib.sha256(stats).hexdigest()
        assert got["kernel"][2] == summary
