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
import random
import shlex
import shutil
import struct
import subprocess
import sys
import threading
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slewguard import _kernel, engine
from slewguard.attitude import BodyState, UnitQuaternion
from slewguard.cli import main
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


@pytest.fixture
def fresh_table():
    """``_kernel.disturbances`` forgets its table before and after the
    test."""
    _kernel.disturbances.cache_clear()
    yield
    _kernel.disturbances.cache_clear()


def held_table(dt, steps):
    """The number of entries of the table ``_kernel.disturbances`` holds,
    which must be the one of ``steps`` steps of ``dt``: asking for that
    table again is a hit, and fills none."""
    before = _kernel.disturbances.cache_info()
    table = _kernel.disturbances(_kernel.load(), dt, steps)
    after = _kernel.disturbances.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)
    return len(table) // 3


def test_a_default_run_takes_the_kernel(monkeypatch):
    kernel_or_skip()
    rhs, run = _LoopContext.rhs, _kernel.run
    calls, kernel_calls = [], []

    def counted(ctx, t, y):
        calls.append(t)
        return rhs(ctx, t, y)

    def counted_kernel(*args):
        done, y = run(*args)
        kernel_calls.append(done)
        return done, y

    def fell_back(*args):
        raise AssertionError("the run fell back to the reference loop")

    monkeypatch.setattr(_LoopContext, "rhs", counted)
    for name in ("step", "record"):
        monkeypatch.setattr(_LoopContext, name, fell_back)
    monkeypatch.setattr(engine._RunStats, "add", fell_back)
    monkeypatch.setattr(_kernel, "run", counted_kernel)
    res = run_scenario(load_preset("paper-two-1").with_sim(duration=5.0))
    assert len(res.records) == 501
    # only the initial command's stage is evaluated in Python, and one
    # kernel call runs every sample
    assert calls == [0.0]
    assert kernel_calls == [501]


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
    # two threads that load at once, as a --compare run's two sides do,
    # on an empty cache: one builds, and the other loads what it built
    kernel_or_skip()
    build = _kernel.build
    builds = []

    def counted(target, flags=_kernel.FLAGS):
        builds.append(target)
        build(target, flags)

    path = tmp_path / "cache" / "_kernel-test.so"
    monkeypatch.setattr(_kernel, "build", counted)
    monkeypatch.setattr(_kernel, "library_path", lambda: path)
    _kernel.load.cache_clear()  # loaded by kernel_or_skip
    together = threading.Barrier(2, timeout=60)
    loaded = []

    def loading():
        together.wait()
        loaded.append(_kernel.load())

    threads = [threading.Thread(target=loading) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    assert len(loaded) == 2 and None not in loaded
    assert len(builds) == 1
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


# runs, and formats a log of extreme values, on the library given, in a
# process with the sanitizers' runtime
SANITIZED_PROBE = """\
import sys
from array import array
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from slewguard import _kernel, engine, load_preset
_kernel.library_path = lambda: Path(sys.argv[2])
lib = _kernel.load()
assert lib is not None
for name in ("paper-two-1", "paper-three-1"):
    for stride in (1, 7, 2 ** 63 - 1):
        engine.run_scenario(load_preset(name).with_sim(
            duration=20.0, record_stride=stride))
# a disturbance table of 500 steps: a run that reads its last entry, and
# one that outgrows it into the private block, filled twice; both read the
# one table
_kernel.TABLE_STEPS = 500
_kernel.disturbances.cache_clear()
for duration in (5.0, 8.0):
    engine.run_scenario(load_preset("paper-two-1").with_sim(
        duration=duration))
info = _kernel.disturbances.cache_info()
assert (info.misses, info.hits) == (1, 1)
# the table held is the runs' own: asking for it again is a hit
assert len(_kernel.disturbances(lib, 0.01, 500)) == 3 * 1001
info = _kernel.disturbances.cache_info()
assert (info.misses, info.hits) == (1, 2)
# 24 characters, the longest value, and others of every kind
longest = -1.2345678901234567e-308
assert len("%.17g" % longest) == _kernel.CSV_VALUE_BYTES - 1
log = array("d", [longest] * 24 + [
    5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e-5, 1e17,
    -0.0, float("nan"), float("-inf"), 0.1, 123456789.0, -1e-300, 2.0 ** 70])
want = "".join(engine._csv_text(log, 6)).encode()
cap = len(log) * _kernel.CSV_VALUE_BYTES  # above pymalloc's 512 bytes, so
out = array("B", [0xA5]) * cap            # the sanitizer guards its end
for width, n in ((6, len(log)), (6, 24), (1, 1)):
    size = lib.slewguard_csv(log.buffer_info()[0], n, width,
                             out.buffer_info()[0], cap)
    assert out[:size].tobytes() == "".join(
        engine._csv_text(log[:n], width)).encode()
# a buffer with room after it, which must stay as it was
out = array("B", [0xA5]) * (cap + 64)
size = lib.slewguard_csv(log.buffer_info()[0], len(log), 6,
                         out.buffer_info()[0], cap)
assert out[:size].tobytes() == want and size <= cap
assert out[cap:] == array("B", [0xA5]) * 64
# chunks of whole rows that end exactly at the buffer's capacity
_kernel.CSV_BUFFER_BYTES = 2 * 6 * _kernel.CSV_VALUE_BYTES
chunks = [bytes(c) for c in _kernel.csv_chunks(log[:24], 6)]
assert [len(c) for c in chunks] == [_kernel.CSV_BUFFER_BYTES] * 2
assert b"".join(chunks) == want[:24 * _kernel.CSV_VALUE_BYTES]
"""


def test_the_kernel_runs_clean_under_the_sanitizers(tmp_path):
    # AddressSanitizer fails a row written outside the log, and
    # UndefinedBehaviorSanitizer an overflowing row index, at the strides
    # that log every sample, some, and only the first and the final one;
    # either fails a disturbance read past the table's end or the private
    # block's, and a CSV value written past the formatter's buffer
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
    (engine, "_S_SAMPLES", engine._S_MAX_TORQUE),
    (engine, "_DIST_OMEGA", 0.02)],
    ids=["constants", "cone", "statistics", "disturbance-frequency"])
def test_a_library_of_another_layout_is_never_loaded(monkeypatch, module,
                                                     name, value):
    # the layouts and the disturbance frequency, compiled in, are part of
    # the library's cache name, so a library built for another one is
    # never found, and the kernel is built anew
    path = _kernel.library_path()
    monkeypatch.setattr(module, name, value)
    assert _kernel.library_path() != path


# ---------------------------------------------------------------------------
# the CSV text: Python's '%.17g' byte for byte, on both formatters
# ---------------------------------------------------------------------------

def double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def formatter_inputs():
    """About 200,000 random bit patterns and the edge families: zeros,
    infinities, NaNs of both signs, subnormals, every power of two, every
    power of ten with its neighbours, the neighbours of 1e16 and 1e17, and
    exact ties at the 18th significant digit, all of both signs."""
    rnd = random.Random(33)
    values = [double(rnd.getrandbits(64)) for _ in range(200_000)]
    edges = [0.0, math.inf, math.nan, double(0x7FF0000000000001),
             double(0x7FFFFFFFFFFFFFFF), 1.0]
    edges += [double(b) for b in (1, 2, 3, 0xFFFFFFFFFFFFF, 0x10000000000000)]
    edges += [double(rnd.getrandbits(52)) for _ in range(1000)]
    edges += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    for p in [float(f"1e{k}") for k in range(-323, 309)]:
        edges += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    for p in (1e16, 1e17):
        down = up = p
        for _ in range(64):
            down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
            edges += [down, up]
    # K / 2**s is exact, and its decimal is K * 5**s * 10**-s: with K odd
    # and K * 5**s of 18 digits, the 18th digit is a 5 with nothing after
    for s in range(3, 26):
        lo = -(-10 ** 17 // 5 ** s) | 1
        hi = min((10 ** 18 - 1) // 5 ** s, 2 ** 53 - 1)
        for _ in range(1000):
            k = rnd.randrange(lo, hi + 1) | 1
            if k <= hi and len(str(k * 5 ** s)) == 18:
                edges.append(k / 2 ** s)
    return values + edges + [-v for v in edges]


WIDTH = 7


@pytest.fixture(scope="module")
def formatter_cases():
    """The inputs as an ``array("d")`` of whole rows of ``WIDTH``, and each
    value's expected text."""
    values = formatter_inputs()
    values += [0.0] * (-len(values) % WIDTH)
    return array("d", values), ["%.17g" % v for v in values]


def first_difference(text, want):
    got = text.replace("\n", ",").split(",")
    return next(((i, g, w) for i, (g, w) in enumerate(zip(got, want))
                 if g != w), None)


@pytest.mark.parametrize("path", ["kernel", "snprintf", "reference"])
def test_the_csv_text_is_percent_17g(path, formatter_cases, tmp_path):
    # the compiled formatter, built as here or as where the compiler has no
    # 128-bit integer (every value through snprintf), and _csv_text where
    # no library loads, write each value as '%.17g' % v does: exact ties
    # round to even, and a NaN of either sign is "nan"
    log, want = formatter_cases
    if path == "reference":
        text = "".join(engine._csv_text(log, WIDTH))
    else:
        kernel_or_skip()
        csv = _kernel.load().slewguard_csv
        if path == "snprintf":
            library = tmp_path / "kernel.so"
            _kernel.build(library, (*_kernel.FLAGS, "-U__SIZEOF_INT128__"))
            csv = ctypes.CDLL(str(library)).slewguard_csv
            csv.argtypes = _kernel.load().slewguard_csv.argtypes
            csv.restype = ctypes.c_long
        text = b"".join(bytes(chunk) for chunk in
                        _kernel._chunks(csv, log, WIDTH)).decode()
    rows = [",".join(want[i:i + WIDTH]) + "\n"
            for i in range(0, len(want), WIDTH)]
    assert first_difference(text, want) is None
    assert text == "".join(rows)


@pytest.mark.parametrize("rows", [5, 6, 7])
def test_chunks_that_end_at_the_buffer_capacity(monkeypatch, rows):
    # three rows of the longest value fill the buffer exactly
    kernel_or_skip()
    width = 4
    monkeypatch.setattr(_kernel, "CSV_BUFFER_BYTES",
                        3 * width * _kernel.CSV_VALUE_BYTES)
    log = array("d", [-1.2345678901234567e-308]) * (rows * width)
    chunks = [bytes(c) for c in _kernel.csv_chunks(log, width)]
    sizes = [_kernel.CSV_BUFFER_BYTES] * (rows // 3)
    assert [len(c) for c in chunks] == sizes + [
        (rows % 3) * width * _kernel.CSV_VALUE_BYTES] * (rows % 3 > 0)
    assert b"".join(chunks) == "".join(engine._csv_text(log, width)).encode()


def test_the_formatter_refuses_what_could_overflow_its_buffer():
    # a buffer one byte short of the longest text of the values, or
    # values that are no whole number of rows: nothing is written
    kernel_or_skip()
    csv = _kernel.load().slewguard_csv
    log = array("d", [1.0] * 6)
    cap = len(log) * _kernel.CSV_VALUE_BYTES
    out = array("B", [0xA5]) * cap
    for n, width, room in ((6, 3, cap - 1), (5, 3, cap), (6, 0, cap),
                           (-3, 3, cap)):
        assert csv(log.buffer_info()[0], n, width, out.buffer_info()[0],
                   room) == -1
    assert out == array("B", [0xA5]) * cap
    assert csv(log.buffer_info()[0], 6, 3, out.buffer_info()[0], cap) == 12


def test_values_that_are_no_whole_number_of_rows_are_refused():
    kernel_or_skip()
    with pytest.raises(ValueError, match="not a whole number of rows"):
        list(_kernel.csv_chunks(array("d", [1.0] * 7), 3))


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
        ("quaternion norm overflowed", None)),
}


@pytest.mark.parametrize("name", sorted(NATURAL_ABORTS))
def test_natural_aborts_are_the_same_on_both_paths(name):
    kernel_or_skip()
    build, want = NATURAL_ABORTS[name]
    sc = build()
    reference = run_on("reference", sc)
    end = reference[-1]
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


@pytest.mark.parametrize("mode", ["proposed", "benchmark_apf"])
@pytest.mark.parametrize("dt", [0.01, 0.004, 0.003, 0.0025])
def test_the_disturbance_is_handed_to_the_next_sample_at_any_step(mode, dt):
    # the kernel reads the disturbance of stage 4 of each step and of the
    # next sample's stage 1 from one table entry, at (k + 1) dt, where the
    # reference evaluates the latter at k dt of the next k.  At steps where
    # k dt + dt rounds otherwise, every sample of the first 6 s of
    # paper-two-1, into its avoidance from 4.2 s on, is the same on both
    # paths
    kernel_or_skip()
    sc = load_preset("paper-two-1").with_sim(
        duration=6.0, dt=dt, record_stride=1, controller_mode=mode,
        disturbance_enabled=True)
    assert run_on("kernel", sc) == run_on("reference", sc)


@pytest.mark.parametrize("dt", [0.01, 0.004, 0.003, 0.0025, 1e-3])
def test_the_table_holds_the_disturbance_at_the_stage_times(dt, fresh_table):
    # entry 2k is engine.disturbance_torque at k dt, the time of sample k
    # and of stage 4 of the step before it, and entry 2k + 1 at k dt +
    # dt / 2, that of stages 2 and 3 of its step: the expressions the
    # reference forms, bit for bit
    kernel_or_skip()
    n = 3000
    table = _kernel.disturbances(_kernel.load(), dt, n)
    want = []
    for k in range(n + 1):
        want += engine.disturbance_torque(k * dt)
        if k < n:
            want += engine.disturbance_torque(k * dt + 0.5 * dt)
    assert bits(table) == bits(want)


def test_a_run_reads_the_same_bits_from_any_table(fresh_table):
    # a run on no table, on the table it filled, after a longer run and
    # after a run of another dt replaced it, each of which fills its own,
    # is the reference's, bit for bit
    kernel_or_skip()
    sc = load_preset("paper-two-1").with_sim(duration=3.0)
    want = run_on("reference", sc)

    def traffic():
        info = _kernel.disturbances.cache_info()
        return info.misses, info.hits

    # each held_table adds one hit
    assert run_on("kernel", sc) == want
    assert traffic() == (1, 0)
    assert held_table(0.01, 300) == 601
    assert run_on("kernel", sc) == want
    assert traffic() == (1, 2)
    run_on("kernel", sc.with_sim(duration=4.0))
    assert traffic() == (2, 2)
    assert held_table(0.01, 400) == 801
    assert run_on("kernel", sc) == want
    assert traffic() == (3, 3)
    assert held_table(0.01, 300) == 601
    run_on("kernel", sc.with_sim(dt=0.004))
    assert traffic() == (4, 4)
    assert held_table(0.004, 750) == 1501
    assert run_on("kernel", sc) == want
    assert traffic() == (5, 5)
    assert held_table(0.01, 300) == 601


def test_rounds_of_one_length_fill_one_table(fresh_table, tmp_path):
    # the benchmark's traffic: every round of the corridor draws (20 s at
    # dt 0.01) reads the table the first run filled, and so does every
    # --compare run of one preset after the first, on both its threads
    kernel_or_skip()
    scenarios = [scenario_from_dict(doc)
                 for doc in load_cases().corridor_scenario_docs(1)]
    assert {(sc.sim.duration, sc.sim.dt) for sc in scenarios} == {
        (20.0, 0.01)}

    def sweep():
        admitted = 0
        for sc in scenarios:
            try:
                run_scenario(sc)
            except engine.ValidationFailure:
                continue
            admitted += 1
        return admitted

    def misses():
        return _kernel.disturbances.cache_info().misses

    assert sweep() > 1
    assert misses() == 1
    sweep()
    assert misses() == 1

    def compare():
        # 2 s is too short to reach the target: exit 5, outputs written
        args = ["run", "--preset", "paper-compare-1", "--compare",
                "--duration", "2", "--out", str(tmp_path)]
        assert main(args) == 5

    _kernel.disturbances.cache_clear()
    compare()
    assert misses() in (1, 2)  # the two threads may both miss at once
    first = misses()
    compare()
    assert misses() == first


@pytest.mark.parametrize("mode", ["proposed", "benchmark_apf"])
def test_a_run_beyond_the_table_reads_a_private_block(mode, monkeypatch,
                                                      fresh_table):
    # with the table capped at 100 steps, the 600 steps of the run read
    # the rest from a block of their own, filled twice: the kernel runs
    # every sample and gives the reference's bits, from a table of 100
    # steps
    kernel_or_skip()
    monkeypatch.setattr(_kernel, "TABLE_STEPS", 100)
    run, done = _kernel.run, []

    def counted(*args):
        out = run(*args)
        done.append(out[0])
        return out

    sc = load_preset("paper-two-1").with_sim(
        duration=6.0, record_stride=1, controller_mode=mode)
    want = run_on("reference", sc)
    monkeypatch.setattr(_kernel, "run", counted)
    assert run_on("kernel", sc) == want
    assert done == [601]
    assert _kernel.disturbances.cache_info().misses == 1
    assert held_table(0.01, 100) == 201


def test_threads_share_the_table_and_keep_their_bits(fresh_table):
    # two threads run scenarios of two steps and three lengths at once, so
    # each reads the other's table or replaces it with its own; every run
    # gives its sequential bits
    kernel_or_skip()
    base = load_preset("paper-two-1")
    cases = [base.with_sim(dt=dt, duration=d)
             for dt in (0.01, 0.004) for d in (10.0, 20.0, 30.0)]

    def ran(sc):
        res = run_scenario(sc)
        return bits(res.records.data), summary_bits(res.summary)

    want = [ran(sc) for sc in cases]
    together = threading.Barrier(2, timeout=60)
    got = {0: [], 1: []}

    def running(i):
        together.wait()
        # thread 0 alternates the steps from the shortest run, thread 1
        # from the longest
        order = [0, 3, 1, 4, 2, 5] if i == 0 else [5, 2, 4, 1, 3, 0]
        for _ in range(3):
            got[i] += [(j, ran(cases[j])) for j in order]

    threads = [threading.Thread(target=running, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    for i in (0, 1):
        assert len(got[i]) == 18
        for j, result in got[i]:
            assert result == want[j]


@pytest.mark.parametrize("stride, skipped", [(1, 768), (7, 1792), (7, 0)])
def test_a_sample_the_kernel_skips_lands_in_the_same_record(
        monkeypatch, stride, skipped):
    # the kernel stops short of sample ``skipped``, as before a sample the
    # reference raises on, or completes none (0), as where slewguard_run
    # cannot allocate its work array; the reference takes the run from
    # there to its end, logging each sample in its own row and folding it
    # into the statistics record the kernel folded into
    kernel_or_skip()
    # two cones, and Lyapunov pairs of which half rise
    doc = load_cases().corridor_scenario_docs(1)[3]
    assert doc["name"] == "corridor-1-003-two"
    sc = scenario_from_dict(doc).with_sim(record_stride=stride)
    want = run_on("kernel", sc)
    run, add = _kernel.run, engine._RunStats.add
    replayed = []

    def stopping(ctx, y, stats, log, dt, n_steps, stride):
        if not skipped:
            return 0, y
        # the state of sample ``skipped``, from a run that ends there, into
        # copies of the buffers; then samples 0 to skipped - 1 into the
        # run's own, from a run that ends before it.  That run logs its
        # final sample, due or not, at row ceil((skipped - 1) / stride):
        # its own, or the row of ``skipped``, which is logged at both
        # strides, so the reference writes that row again
        _, y_skipped = run(ctx, y, array("d", stats), array("d", log), dt,
                           skipped, stride)
        done, _ = run(ctx, y, stats, log, dt, skipped - 1, stride)
        return done, y_skipped

    def counted(stats, t, y, stage):
        replayed.append((t, stats.record[engine._S_OPEN]))
        return add(stats, t, y, stage)

    monkeypatch.setattr(_kernel, "run", stopping)
    monkeypatch.setattr(engine._RunStats, "add", counted)
    assert run_on("kernel", sc) == want
    assert skipped % stride == 0
    assert len(replayed) == round(sc.sim.duration / sc.sim.dt) + 1 - skipped
    # the reference's first sample: a Lyapunov pair is open across the
    # hand-over where the kernel ran before it
    assert replayed[0] == (skipped * 0.01, float(skipped > 0))


@pytest.mark.parametrize("stride", [2 ** 63 - 1, 2 ** 63, 2 ** 64,
                                    2 ** 64 + 1],
                         ids=["2**63-1", "2**63", "2**64", "2**64+1"])
def test_a_huge_stride_logs_the_first_and_final_sample(stride):
    # ctypes would wrap a stride beyond a C long into the kernel's: 2**64
    # to 0, which C takes modulo, and 2**64 + 1 to 1, which logs every
    # sample past the log's end.  The kernel takes each stride of n_steps
    # or more as n_steps, so every one logs the first and the final sample
    # of the 1 s run, at rows 0 and 1, as stride 100 does, on both paths
    sc = load_scenario(SRC.parent / "docs" / "example_scenario.json"
                       ).with_sim(duration=1.0)
    got = run_on("kernel", sc.with_sim(record_stride=stride))
    assert got == run_on("reference", sc.with_sim(record_stride=stride))
    assert got[0] == run_on("kernel", sc.with_sim(record_stride=100))[0]
    assert len(got[0]) == 2 * 8 * len(engine._columns(len(sc.obstacles)))


def test_a_count_beyond_a_c_long_takes_the_reference(monkeypatch,
                                                     fresh_table):
    # the sample count n_steps + 1 reaches the kernel as a C long; one that
    # does not fit leaves the run to the reference, before a disturbance
    # table is built.  A stride beyond a C long reaches it as n_steps.  The
    # library is one that records its calls, so no huge run is made
    long_max = 2 ** (8 * ctypes.sizeof(ctypes.c_long) - 1) - 1
    ctx = _LoopContext(load_preset("paper-two-1"))
    y, _ = ctx.initial_state()
    stats = engine._RunStats(ctx).record
    calls, tables = [], []

    class Library:
        @staticmethod
        def slewguard_run(*args):
            calls.append(args)
            return 0

        @staticmethod
        def slewguard_disturbance(dt, start, end, out):
            tables.append((start, end))
            return end

    monkeypatch.setattr(_kernel, "load", Library)

    def kernel_stride(n_steps, stride):
        """The stride the kernel is called with, or None where it is not."""
        calls.clear()
        tables.clear()
        assert _kernel.run(ctx, y, stats, array("d"), 0.01, n_steps,
                           stride) == (0, y)
        return calls[0][4] if calls else None

    # the table holds TABLE_STEPS steps at most
    assert kernel_stride(long_max - 1, long_max) == long_max - 1
    assert tables == [(0, 2 * _kernel.TABLE_STEPS + 1)]
    assert kernel_stride(long_max, 1) is None
    assert tables == []
    assert kernel_stride(100, long_max + 1) == 100
    assert kernel_stride(100, 2 ** 64) == 100


def test_a_constant_that_is_no_float_takes_the_reference(monkeypatch):
    # the kernel repeats float arithmetic only: with a gain given as an
    # int it completes no sample, and the reference, whose int arithmetic
    # rounds as the float gain's does, gives the float gain's run
    kernel_or_skip()
    sc = make_scenario(k_omega=10).with_sim(duration=1.0)
    assert isinstance(sc.controller.k_omega, int)
    run, done = _kernel.run, []

    def counted(*args):
        out = run(*args)
        done.append(out[0])
        return out

    want = run_on("kernel", make_scenario().with_sim(duration=1.0))
    monkeypatch.setattr(_kernel, "run", counted)
    assert run_on("kernel", sc) == want
    assert done == [0]


def test_the_kernel_refuses_a_state_that_is_not_14_components():
    # the kernel reads and writes 14 state components
    kernel_or_skip()
    ctx = _LoopContext(load_preset("paper-two-1"))
    log = array("d", [0.0]) * (101 * len(engine._columns(len(ctx.cones))))
    y, _ = ctx.initial_state()
    with pytest.raises(ValueError, match="not a state of 14 components"):
        _kernel.run(ctx, y[:13], engine._RunStats(ctx).record, log, 0.01, 100,
                    1)
    assert not any(log)


# a 2 s paper-two-1 run in another interpreter, which imports the package
# from the path given: whether it has a kernel, and its CSV's sha256
PROBE = """\
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from slewguard import _kernel, engine, load_preset
r = engine.run_scenario(load_preset("paper-two-1").with_sim(duration=2.0))
text = "".join([",".join(r.records.columns) + "\\n",
                *engine._csv_text(r.records.data, len(r.records.columns))])
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
    columns = res.records.columns
    text = "".join([",".join(columns) + "\n",
                    *engine._csv_text(res.records.data, len(columns))])
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
