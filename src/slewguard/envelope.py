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

This module holds the funnel parameters, the five switch settings (the
onset ``v1``, the saturation ``p1``, ``delta``, ``m`` and ``n``) with the
knots and bridge shapes derived from them, and the barrier value.
The closed loop evaluates the radius rate and the switches, ``bridge`` over
``SwitchConfig.s_shape`` and ``SwitchConfig.v_shape``, in every integrator
stage (see :mod:`slewguard.engine`).
"""

from __future__ import annotations

import math

from ._value import Frozen
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


class EnvelopeConfig(Frozen):
    """Funnel radius parameters: start, floor, and shrink rate [1/s]."""

    _fields = ("rho_0", "rho_inf", "k_rho")

    def __init__(self, rho_0: float, rho_inf: float, k_rho: float):
        if not (rho_0 > rho_inf > 0.0):
            raise ValueError("funnel requires rho_0 > rho_inf > 0")
        if k_rho <= 0.0:
            raise ValueError("k_rho must be positive")
        self._set(rho_0=rho_0, rho_inf=rho_inf, k_rho=k_rho)


class SwitchConfig(Frozen):
    """Knots and steepness factors of the two mode switches.

    Five settings fix the layout: the repulsion onset ``v1``, the saturation
    ``p1``, the freeze band width ``delta`` and the steepness factors ``m``
    and ``n``.  ``omega_s`` bridges over [v0, v1] = [v1 - 2 delta, v1]
    centered at vm = v1 - delta with steepness ``m * (v1 - v0)``;
    ``omega_v`` over [p0, p1] centered at pm with steepness
    ``n * (p1 - p0)``.  The layout is asynchronous: p0 equals v1, so the
    funnel freeze completes exactly where the guidance blend begins.  The
    other knots and both bridge shapes, ``s_shape`` and ``v_shape``, are
    derived, never set.
    """

    _fields = ("v1", "p1", "delta", "m", "n")

    def __init__(self, v1: float, p1: float, delta: float, m: float,
                 n: float):
        if not (v1 < p1):
            raise ValueError("switch knots must satisfy v1 < p1")
        if m <= 0.0 or n <= 0.0:
            raise ValueError("steepness factors must be positive")
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        v0, vm, pm = v1 - 2.0 * delta, v1 - delta, 0.5 * (v1 + p1)
        self._set(v1=v1, p1=p1, delta=delta, m=m, n=n,
                  v0=v0, vm=vm, p0=v1, pm=pm,
                  s_shape=BridgeShape(lo=v0, hi=v1, mid=vm,
                                      steepness=m * (v1 - v0)),
                  v_shape=BridgeShape(lo=v1, hi=p1, mid=pm,
                                      steepness=n * (p1 - v1)))


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
