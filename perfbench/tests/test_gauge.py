"""The host-speed gauge and the normalized end-to-end metrics."""

import signal
import time

import numpy as np
import pytest

import gauge
import run

N = gauge.NOMINAL_S


def test_kernel_does_the_same_work_every_call():
    a, b = gauge.kernel(), gauge.kernel()
    assert np.array_equal(a, b) and np.all(np.isfinite(a))
    assert np.linalg.norm(a[:4]) == pytest.approx(1.0)


def test_disabled_gauge_leaves_wall_times_alone():
    g = gauge.Gauge(enabled=False)
    with g.ticking(0.001):
        g.tick()
    assert g.readings == []
    assert g.normalized(1.0, 3.5) == 2.5


def test_speed_between_ticks_is_the_mean_of_their_readings():
    g = gauge.Gauge(enabled=False)
    g._at, g.readings = [1.0, 2.0, 3.0], [N, 3.0 * N, 2.0 * N]
    assert g.normalized(1.0, 2.0) == pytest.approx(0.5)
    assert g.normalized(2.0, 3.0) == pytest.approx(0.4)
    # before the first and after the last tick, the nearest reading holds
    assert g.normalized(0.0, 1.0) == pytest.approx(1.0)
    assert g.normalized(3.0, 5.0) == pytest.approx(1.0)
    assert g.normalized(0.5, 4.0) == pytest.approx(0.5 + 0.5 + 0.4 + 0.5)


def test_ticks_are_left_out_of_the_program_clock():
    g = gauge.Gauge()
    handler = signal.getsignal(signal.SIGALRM)
    w0, p0 = time.perf_counter(), g.now()
    with g.ticking(0.02):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    w1, p1 = time.perf_counter(), g.now()
    assert len(g.readings) >= 4
    assert (w1 - w0) - (p1 - p0) == pytest.approx(sum(g.readings), abs=1e-4)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_host_twice_as_slow_reads_the_same_normalized():
    fast = [run.Run("a", "ok", 1.0, 20.0), run.Run("b", "ok", 3.0, 20.0),
            run.Run("c", "rejected", 0.5)]
    slow = [run.Run(r.case, r.status, 2.0 * r.wall, r.sim_s,
                    norm_wall=r.wall) for r in fast]
    setup_fast, setup_slow = [(0.2, N)], [(0.4, 2.0 * N)]
    a = run.end_to_end(fast, setup_fast)
    b = run.end_to_end(slow, setup_slow)
    for name in ("setup_s", "sim_rate", "run_s_p50", "run_s_p90"):
        assert a[name] == pytest.approx(b[name]), name
    assert a["sim_rate"] == pytest.approx(40.0 / 4.5)
    raw = run.end_to_end(slow, setup_slow, normalized=False)
    assert raw["sim_rate"] == pytest.approx(40.0 / 9.0)
    assert raw["setup_s"] == pytest.approx(0.4)
