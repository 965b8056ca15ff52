"""Attractive/repulsive potential shaping over the pointing sphere.

The attractive well is ``k_a * x_e``, linear in the pointing error.  Each
forbidden cone adds ``bridge(cone.shape, beta, cone.k_r)``: zero while the
boresight is far from the cone, a plateau once it is close, and a smooth
monotone bridge in between.  :func:`total_potential` sums them.
The bridge is a tanh of a rational argument that blows up at both knots, so
the piecewise function is continuous with flat tangencies at the ends:

    bridge(beta) = 0                                             beta <  lo
                 = scale/2 * (tanh(k*(beta-mid)/sqrt((beta-lo)*(hi-beta))) + 1)
                                                                 lo <= beta < hi
                 = scale                                         beta >= hi

``beta`` is the cosine of the angle between the boresight and the cone axis,
so larger beta means deeper into the cone.  The same bridge template, with
unit scale, is reused by the mode-switching logic in :mod:`slewguard.envelope`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "BridgeShape",
    "ObstacleCone",
    "bridge",
    "bridge_grad",
    "bridge_grad_max",
    "goal_separation",
    "repulsion_grad_beta",
    "total_potential",
]

# Within this distance of a knot the limit value is returned directly; the
# tanh argument is already saturated far beyond double precision there.
_KNOT_GUARD = 1e-12


@dataclass(frozen=True)
class BridgeShape:
    """Knots and steepness of one tanh bridge on the cosine axis.

    ``lo`` and ``hi`` are the outer and inner knots (cosines, lo < hi),
    ``mid`` the centering point, and ``steepness`` the coefficient k of the
    tanh argument.  Larger k makes the transition sharper around ``mid``.
    """

    lo: float
    hi: float
    mid: float
    steepness: float

    def __post_init__(self):
        if not (self.lo < self.mid < self.hi):
            raise ValueError("bridge knots must satisfy lo < mid < hi")
        if not 0.0 < self.steepness < math.inf:
            raise ValueError(f"bridge steepness must be positive and finite, "
                             f"got {self.steepness!r}")


def bridge(shape: BridgeShape, beta: float, scale: float = 1.0) -> float:
    """Evaluate the bridge at cosine ``beta``, ranging over [0, scale].

    Repulsion terms pass ``scale=k_r`` with steepness ``r*(hi-lo)/k_r``;
    the switching functions pass unit scale with steepness ``m*(hi-lo)``.
    """
    if beta < shape.lo + _KNOT_GUARD:
        return 0.0
    if beta > shape.hi - _KNOT_GUARD:
        return scale
    root = math.sqrt((beta - shape.lo) * (shape.hi - beta))
    arg = shape.steepness * (beta - shape.mid) / root
    return 0.5 * scale * (math.tanh(arg) + 1.0)


def bridge_grad(shape: BridgeShape, beta: float, scale: float = 1.0) -> float:
    """Analytic d(bridge)/d(beta); zero outside the open knot interval."""
    if beta < shape.lo + _KNOT_GUARD or beta > shape.hi - _KNOT_GUARD:
        return 0.0
    d = (beta - shape.lo) * (shape.hi - beta)
    root = math.sqrt(d)
    arg = shape.steepness * (beta - shape.mid) / root
    # d(arg)/d(beta) = k * (d - (beta-mid)*(lo+hi-2 beta)/2) / d^(3/2)
    darg = shape.steepness * (d - 0.5 * (beta - shape.mid)
                              * (shape.lo + shape.hi - 2.0 * beta)) / (d * root)
    # sech^2 via exp(-|arg|) to stay finite for saturated arguments
    e = math.exp(-abs(arg))
    sech = 2.0 * e / (1.0 + e * e)
    return 0.5 * scale * sech * sech * darg


def bridge_grad_max(shape: BridgeShape, scale: float, n: int) -> float:
    """Largest :func:`bridge_grad` over ``n`` evenly spaced knot-to-knot points.

    The points are those of ``np.linspace(lo, hi, n)``: ``i * step + lo``
    with ``step = (hi - lo) / (n - 1)``, and ``hi`` itself last.  The result
    is the scalar maximum over all of them, bit for bit, and ``inf`` when
    the slope overflows double precision at any of them.

    A centered bridge (``mid`` the midpoint of the knots, as every cone's
    is) needs a few of the points only.  With ``u`` the position between
    the knots scaled to (-1, 1) and ``s = u / sqrt(1 - u^2)``, the slope is
    proportional to ``sech^2(k s) (1 + s^2)^(3/2)``: one peak at ``s = 0``
    when ``2 k^2 >= 3``, otherwise two mirror peaks where
    ``3 s / (1 + s^2) = 2 k tanh(k s)``, found by bisection.  From the grid
    point nearest each peak the search walks both ways until the slope has
    fallen by a relative ``_PEAK_FALL``, far above the rounding of
    :func:`bridge_grad`; beyond that point the slope only falls.  The three
    points nearest each knot are evaluated too: the derivative of the tanh
    argument is largest there, so that is where it overflows first.  Any
    other bridge is scanned point by point.
    """
    lo, hi = shape.lo, shape.hi
    if n < 3:
        return 0.0
    step = (hi - lo) / (n - 1)

    def inside(i):  # bridge_grad does not zero the point
        beta = i * step + lo
        return not (beta < lo + _KNOT_GUARD or beta > hi - _KNOT_GUARD)

    first = next((i for i in range(1, n - 1) if inside(i)), None)
    if first is None:
        return 0.0
    last = next(i for i in range(n - 2, 0, -1) if inside(i))
    if shape.mid != 0.5 * (lo + hi):
        points, peaks = range(first, last + 1), ()
    else:
        u = _centered_peak(shape.steepness)
        peaks = {max(first, min(last, round(c * (n - 1))))
                 for c in (0.5 * (1.0 - u), 0.5 * (1.0 + u))}
        points = {first, first + 1, first + 2, last - 2, last - 1, last}
        points = [i for i in points if first <= i <= last]
    values = [bridge_grad(shape, i * step + lo, scale) for i in points]
    for start in peaks:
        top = bridge_grad(shape, start * step + lo, scale)
        values.append(top)
        for direction in (-1, 1):
            i, peak = start + direction, top
            while first <= i <= last:
                g = bridge_grad(shape, i * step + lo, scale)
                values.append(g)
                if g > peak:
                    peak = g
                elif not g > peak * (1.0 - _PEAK_FALL):
                    break  # fallen off the peak (or not finite)
                i += direction
    if not all(map(math.isfinite, values)):
        return math.inf
    return max(values)


# relative fall of the slope that ends a walk away from its peak; rounding
# moves bridge_grad by a few ulps, some 1e-15 relative
_PEAK_FALL = 1e-12


def _centered_peak(k: float) -> float:
    """Position ``u`` in [0, 1] of the slope peak of a centered bridge of
    steepness ``k`` (its mirror is at ``-u``)."""
    if 2.0 * k * k >= 3.0:
        return 0.0

    def rising(s):  # d/ds log(sech^2(k s) (1 + s^2)^(3/2)) > 0
        return 3.0 * s / (1.0 + s * s) > 2.0 * k * math.tanh(k * s)

    a, b = 0.0, 1.0
    while rising(b):
        a, b = b, 2.0 * b
    for _ in range(64):
        m = 0.5 * (a + b)
        if rising(m):
            a = m
        else:
            b = m
    s = 0.5 * (a + b)
    return 1.0 / math.sqrt(1.0 + 1.0 / (s * s))


@dataclass(frozen=True)
class ObstacleCone:
    """One forbidden cone: inertial axis plus angular layout and field gains.

    Angles in radians: ``theta_f`` is the hard forbidden half-angle,
    ``theta_1`` the inner buffer edge where the repulsion plateaus, and
    ``theta_0`` the outer onset, with theta_0 > theta_1 >= theta_f.  ``k_r``
    is the plateau height and ``r_slope`` the designed mid-bridge slope of
    the repulsion with respect to the cosine.
    """

    axis_inertial: tuple[float, float, float]
    theta_f: float
    theta_0: float
    theta_1: float
    k_r: float
    r_slope: float
    shape: BridgeShape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axis = tuple(float(v) for v in self.axis_inertial)
        if len(axis) != 3:
            raise ValueError("axis_inertial must have shape (3,)")
        x, y, z = axis
        n = math.sqrt(x * x + y * y + z * z)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"axis_inertial must be unit, got norm {n:.9e}")
        if not (self.theta_0 > self.theta_1 >= self.theta_f > 0.0):
            raise ValueError("cone angles must satisfy "
                             "theta_0 > theta_1 >= theta_f > 0")
        if self.theta_0 >= math.pi:
            raise ValueError("theta_0 must be below pi")
        if self.k_r <= 0.0 or self.r_slope <= 0.0:
            raise ValueError("k_r and r_slope must be positive")
        lo = math.cos(self.theta_0)
        hi = math.cos(self.theta_1)
        object.__setattr__(self, "axis_inertial", (x / n, y / n, z / n))
        object.__setattr__(self, "shape", BridgeShape(
            lo=lo, hi=hi, mid=0.5 * (lo + hi),
            steepness=self.r_slope * (hi - lo) / self.k_r))


def goal_separation(target: Sequence[float], axis: Sequence[float]) -> float:
    """Angle [rad] between the unit goal direction and a unit cone axis."""
    # added left to right, as in ``attitude.pointing_error``, so the angle
    # does not depend on the interpreter's ``sum()``
    c = (float(target[0]) * float(axis[0]) + float(target[1]) * float(axis[1])
         + float(target[2]) * float(axis[2]))
    return math.acos(max(-1.0, min(1.0, c)))


def repulsion_grad_beta(cone: ObstacleCone, beta: float) -> float:
    """Analytic d(repulsion)/d(beta); nonnegative, zero outside the bridge."""
    return bridge_grad(cone.shape, beta, cone.k_r)


def total_potential(x_e: float, k_a: float,
                    cone_betas: Iterable[tuple[ObstacleCone, float]]) -> float:
    """Attraction ``k_a * x_e`` plus the repulsion of each ``(cone, beta)``."""
    total = k_a * x_e
    for cone, beta in cone_betas:
        total += bridge(cone.shape, beta, cone.k_r)
    return total
