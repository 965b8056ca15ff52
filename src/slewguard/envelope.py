"""Shrinking performance funnel and avoidance/tracking mode switching.

The pointing error ``x_e`` is normalized by a time-varying funnel radius
``rho`` into the translated error ``eps = x_e / rho``; keeping ``|eps| < 1``
inside a barrier term enforces the funnel.  The funnel radius has two modes
blended by the switch ``omega_s`` in [0, 1]:

* Mode 1 (``omega_s = 0``): exponential shrink toward the floor,
  ``rho_dot = -k_rho * (rho - rho_inf)``, which drives steady tracking
  accuracy down to ``rho_inf``.
* Mode 2 (``omega_s = 1``): the funnel follows the error,
  ``rho_dot = (e_dot / e) * rho``, freezing ``eps`` so an avoidance detour
  cannot burst the funnel.

Both switches are tanh bridges (see :mod:`slewguard.potential`) over the
cosine ``beta`` between the boresight and a forbidden-cone axis.  ``omega_s``
is steep and completes before the repulsion field onset; ``omega_v``, which
blends the guidance law toward the potential-field branch, starts exactly at
that onset and ramps more gently.  With several cones each switch takes the
worst (largest) value over the per-cone cosines.

This module holds the funnel and switch parameters and the barrier value.
The closed loop evaluates the radius rate and the switches, ``bridge`` over
``SwitchConfig.s_shape`` and ``SwitchConfig.v_shape``, in every integrator
stage (see :mod:`slewguard.engine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .potential import BridgeShape

__all__ = [
    "EnvelopeConfig",
    "SwitchConfig",
    "blf_value",
]

# Mode-2 follow term is dropped when |e| sits below this floor; the ratio
# e_dot/e is meaningless at the origin and the funnel simply holds.
ERROR_RATIO_FLOOR = 1e-9

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class EnvelopeConfig:
    """Funnel radius parameters: start, floor, and shrink rate [1/s]."""

    rho_0: float
    rho_inf: float
    k_rho: float

    def __post_init__(self):
        if not (self.rho_0 > self.rho_inf > 0.0):
            raise ValueError("funnel requires rho_0 > rho_inf > 0")
        if self.k_rho <= 0.0:
            raise ValueError("k_rho must be positive")


@dataclass(frozen=True)
class SwitchConfig:
    """Knots and steepness factors of the two mode switches.

    ``omega_s`` bridges over [v0, v1] centered at vm with steepness factor
    ``m``; ``omega_v`` over [p0, p1] centered at pm with factor ``n``.  The
    layout is asynchronous: p0 equals v1, so the funnel freeze completes
    exactly where the guidance blend begins.
    """

    v0: float
    v1: float
    vm: float
    m: float
    p0: float
    p1: float
    pm: float
    n: float
    delta: float
    s_shape: BridgeShape = field(init=False, repr=False, compare=False)
    v_shape: BridgeShape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.v0 < self.vm < self.v1):
            raise ValueError("switch knots must satisfy v0 < vm < v1")
        if not (self.p0 < self.pm < self.p1):
            raise ValueError("switch knots must satisfy p0 < pm < p1")
        if abs(self.p0 - self.v1) > 1e-12:
            raise ValueError("asynchronous layout requires p0 == v1")
        if abs(self.vm - 0.5 * (self.v0 + self.v1)) > 1e-12:
            raise ValueError("vm must center [v0, v1]")
        if abs(self.pm - 0.5 * (self.p0 + self.p1)) > 1e-12:
            raise ValueError("pm must center [p0, p1]")
        if self.m <= 0.0 or self.n <= 0.0:
            raise ValueError("steepness factors must be positive")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "s_shape", BridgeShape(
            lo=self.v0, hi=self.v1, mid=self.vm,
            steepness=self.m * (self.v1 - self.v0)))
        object.__setattr__(self, "v_shape", BridgeShape(
            lo=self.p0, hi=self.p1, mid=self.pm,
            steepness=self.n * (self.p1 - self.p0)))

    @classmethod
    def from_principles(cls, repulsion_lo: float, repulsion_hi: float,
                        delta: float = 0.01, m: float = 5.0, n: float = 2.0,
                        p1: float | None = None) -> "SwitchConfig":
        """Derive knots from a repulsion bridge [lo, hi] on the cosine axis.

        The freeze switch spans ``[lo - 2*delta, lo]`` so it completes at the
        repulsion onset; the guidance switch spans ``[lo, p1]`` with ``p1``
        defaulting to the repulsion plateau edge ``hi``.
        """
        v1 = repulsion_lo
        v0 = v1 - 2.0 * delta
        if p1 is None:
            p1 = repulsion_hi
        if p1 > repulsion_hi + 1e-12:
            raise ValueError("p1 must not exceed the repulsion plateau edge")
        return cls(v0=v0, v1=v1, vm=v1 - delta, m=m,
                   p0=v1, p1=p1, pm=0.5 * (v1 + p1), n=n, delta=delta)


def _ln_cosh(z: float) -> float:
    """Overflow-safe log(cosh(z))."""
    az = abs(z)
    return az + math.log1p(math.exp(-2.0 * az)) - _LN2


def blf_value(epsilon: float, g: float, big_f: float) -> float:
    """Barrier-like tracking potential ``g * F * log(cosh(eps / F))``.

    Nonnegative, zero only at ``eps = 0``; near-linear growth ``g * |eps|``
    for ``|eps| >> F``, quadratic ``g * eps^2 / (2 F)`` near zero.
    """
    if g <= 0.0 or big_f <= 0.0:
        raise ValueError("g and big_f must be positive")
    return g * big_f * _ln_cosh(epsilon / big_f)
