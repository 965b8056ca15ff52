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
from typing import Iterable, Sequence

from ._value import Frozen

__all__ = [
    "BridgeShape",
    "ObstacleCone",
    "balanced_k_r",
    "bridge",
    "bridge_grad",
    "goal_separation",
    "repulsion_grad_beta",
    "total_potential",
]

# Within this distance of a knot the limit value is returned directly; the
# tanh argument is already saturated far beyond double precision there.
_KNOT_GUARD = 1e-12


class BridgeShape(Frozen):
    """Knots and steepness of one tanh bridge on the cosine axis.

    ``lo`` and ``hi`` are the outer and inner knots (cosines, lo < hi),
    ``mid`` the centering point, and ``steepness`` the coefficient k of the
    tanh argument.  Larger k makes the transition sharper around ``mid``.
    """

    _fields = ("lo", "hi", "mid", "steepness")

    def __init__(self, lo: float, hi: float, mid: float, steepness: float):
        if not (lo < mid < hi):
            raise ValueError("bridge knots must satisfy lo < mid < hi")
        if not 0.0 < steepness < math.inf:
            raise ValueError(f"bridge steepness must be positive and finite, "
                             f"got {steepness!r}")
        self._set(lo=lo, hi=hi, mid=mid, steepness=steepness)


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


class ObstacleCone(Frozen):
    """One forbidden cone: inertial axis plus angular layout and field gains.

    Angles in radians: ``theta_f`` is the hard forbidden half-angle,
    ``theta_1`` the inner buffer edge where the repulsion plateaus, and
    ``theta_0`` the outer onset, with theta_0 > theta_1 >= theta_f.  ``k_r``
    is the plateau height and ``r_slope`` the designed mid-bridge slope of
    the repulsion with respect to the cosine.  ``shape`` is the repulsion
    bridge derived from them.
    """

    _fields = ("axis_inertial", "theta_f", "theta_0", "theta_1", "k_r",
               "r_slope")

    def __init__(self, axis_inertial: Sequence[float], theta_f: float,
                 theta_0: float, theta_1: float, k_r: float, r_slope: float):
        axis = tuple(float(v) for v in axis_inertial)
        if len(axis) != 3:
            raise ValueError("axis_inertial must have shape (3,)")
        x, y, z = axis
        n = math.sqrt(x * x + y * y + z * z)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"axis_inertial must be unit, got norm {n:.9e}")
        if not (theta_0 > theta_1 >= theta_f > 0.0):
            raise ValueError("cone angles must satisfy "
                             "theta_0 > theta_1 >= theta_f > 0")
        if theta_0 >= math.pi:
            raise ValueError("theta_0 must be below pi")
        if k_r <= 0.0 or r_slope <= 0.0:
            raise ValueError("k_r and r_slope must be positive")
        lo = math.cos(theta_0)
        hi = math.cos(theta_1)
        self._set(axis_inertial=(x / n, y / n, z / n), theta_f=theta_f,
                  theta_0=theta_0, theta_1=theta_1, k_r=k_r, r_slope=r_slope,
                  shape=BridgeShape(lo=lo, hi=hi, mid=0.5 * (lo + hi),
                                    steepness=r_slope * (hi - lo) / k_r))


def goal_separation(target: Sequence[float], axis: Sequence[float]) -> float:
    """Angle [rad] between two unit vectors, such as the goal direction and
    a cone axis."""
    # added left to right, as the closed loop forms its cosines, so the
    # angle does not depend on the interpreter's ``sum()``
    c = (float(target[0]) * float(axis[0]) + float(target[1]) * float(axis[1])
         + float(target[2]) * float(axis[2]))
    return math.acos(max(-1.0, min(1.0, c)))


def balanced_k_r(k_a: float, sep: float, theta_1: float) -> float:
    """Plateau height ``k_a * (1 - cos(sep - theta_1))`` that balances the
    attraction at a cone's goal-facing inner edge, for a goal ``sep`` [rad]
    from the cone axis."""
    return k_a * (1.0 - math.cos(sep - theta_1))


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
