"""Host-speed gauge: a fixed calibration kernel timed while the program runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, with the same drift in wall and
CPU time.  Raw wall times of the same code then spread more between runs
than any useful regression bound.  The gauge tracks that drift: a small,
fixed kernel with the program's instruction mix (Python float arithmetic
and 3- to 7-element numpy arrays, RK4 of a rigid body with a quaternion)
is timed every quarter second from a timer signal, between two bytecodes
of whatever the program is doing, and each run's time is integrated over
the readings around it:

    normalized = integral of NOMINAL_S / reading over the run's wall time

so it reads as the run's time on a host where the kernel takes
``NOMINAL_S``.  The time spent in the kernel is kept off the clock that
times the runs.  The kernel imports nothing from slewguard, so a change to
the program moves the normalized figures as it moves the wall times, while
host drift cancels.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time

import numpy as np

# kernel seconds on the reference host (2-vCPU Xeon, Python 3.11, numpy 2.4)
NOMINAL_S = 0.0125
STEPS = 100
_INERTIA = np.array([5.08, 5.14, 5.0])
_Y0 = np.array([0.0, 0.0, 0.0, 1.0, 0.1, -0.2, 0.3])


def _rhs(y):
    qx, qy, qz, qw = float(y[0]), float(y[1]), float(y[2]), float(y[3])
    w = y[4:7]
    wx, wy, wz = float(w[0]), float(w[1]), float(w[2])
    dw = -np.cross(w, _INERTIA * w) / _INERTIA - 0.1 * np.tanh(w)
    return np.array([0.5 * (qw * wx - qz * wy + qy * wz),
                     0.5 * (qz * wx + qw * wy - qx * wz),
                     0.5 * (-qy * wx + qx * wy + qw * wz),
                     -0.5 * (qx * wx + qy * wy + qz * wz),
                     float(dw[0]), float(dw[1]), float(dw[2])])


def kernel(steps: int = STEPS) -> np.ndarray:
    """Fixed-step RK4 of a damped rigid body; the same work on every call."""
    y, dt = _Y0.copy(), 0.01
    for _ in range(steps):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * dt * k1)
        k3 = _rhs(y + 0.5 * dt * k2)
        k4 = _rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[:4] /= math.sqrt(float(y[0]) ** 2 + float(y[1]) ** 2
                           + float(y[2]) ** 2 + float(y[3]) ** 2)
    return y


class Gauge:
    """Kernel readings on a program clock that leaves the readings out.

    ``now()`` is the wall clock minus the time spent in the kernel, so runs
    timed with it exclude the gauge wherever it ticked.  ``normalized(a, b)``
    turns program time ``a..b`` into seconds at the nominal host speed, the
    speed between two ticks being the mean of their readings.  A disabled
    gauge runs nothing, and its normalized times equal wall times.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.readings: list[float] = []
        self._at: list[float] = []      # program time of each reading
        self._paused = 0.0
        if enabled:
            kernel()    # untimed: first-call costs

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def tick(self) -> None:
        if not self.enabled:
            return
        t0 = time.perf_counter()
        kernel()
        reading = time.perf_counter() - t0
        self._at.append(t0 - self._paused)
        self.readings.append(reading)
        self._paused += reading

    @contextlib.contextmanager
    def ticking(self, interval: float):
        """Tick every ``interval`` seconds of wall time in the block, from a
        timer signal, and once on entry and on exit."""
        if not self.enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda *_: self.tick())
        try:
            self.tick()
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.tick()

    def normalized(self, a: float, b: float) -> float:
        """Program time ``a..b`` in seconds at the nominal host speed."""
        at, readings = self._at, self.readings
        if not readings:
            return b - a
        total = 0.0
        k = bisect.bisect_right(at, a)
        t = a
        while t < b:
            if k == 0:
                speed, end = readings[0], at[0]
            elif k == len(at):
                speed, end = readings[-1], b
            else:
                speed, end = 0.5 * (readings[k - 1] + readings[k]), at[k]
            end = min(end, b)
            total += (end - t) * NOMINAL_S / speed
            t, k = end, k + 1
        return total
