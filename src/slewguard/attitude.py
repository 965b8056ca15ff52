"""Attitude conventions, quaternion arithmetic and plant parameters.

Conventions
-----------
* Quaternions are stored scalar-last, ``[x, y, z, w]``, with the Hamilton
  product.  The attitude quaternion ``q`` maps body-frame vectors to the
  inertial frame through the sandwich ``q [v, 0] q*``; an inertial vector is
  therefore resolved in body axes with the conjugate sandwich
  ``q* [v, 0] q``.  The identity quaternion ``[0, 0, 0, 1]`` means body and
  inertial axes coincide.
* ``omega`` is the body angular rate in body axes [rad/s].  With the
  convention above the kinematics read ``q_dot = 0.5 * q [omega, 0]`` and a
  fixed inertial direction ``r`` seen in body axes evolves as
  ``r_b_dot = -omega x r_b``.
* The scalar pointing error between a body-fixed boresight ``B_b`` and a
  body-resolved target direction ``r_b`` is ``x_e = 1 - dot(B_b, r_b)``,
  ranging from 0 (aligned) to 2 (anti-aligned).

The closed-loop kernel in :mod:`slewguard.engine` writes its quaternion
arithmetic out inline on float components, since a call per product slows
the loop: the kinematics ``0.5 q (x) [omega, 0]`` as the full Hamilton
product with its zero-scalar terms, and the frame resolution as the
conjugate sandwich, in ``_LoopContext._resolve``, the one place the
package rotates a vector between frames.

Every value here is a Python float: the inertia inverse is written out in
float arithmetic with a fixed operation order, so the results do not depend
on any array library or on the CPU kernel one picks.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._value import Frozen

__all__ = [
    "UnitQuaternion",
    "BodyState",
    "SpacecraftParams",
]

# Constructor rejects inputs farther than this from the unit sphere; smaller
# deviations are silently renormalized.
_QUAT_NORM_TOL = 1e-6


class UnitQuaternion(Frozen):
    """Unit quaternion ``[x, y, z, w]`` (scalar last), fields ``x`` to ``w``.

    Construction renormalizes so the stored norm is 1 to machine precision;
    inputs farther than 1e-6 from unit norm are rejected as likely bugs
    rather than drift.
    """

    _fields = ("x", "y", "z", "w")

    def __init__(self, x: float, y: float, z: float, w: float):
        n = math.sqrt(x * x + y * y + z * z + w * w)
        if abs(n - 1.0) > _QUAT_NORM_TOL:
            raise ValueError(f"quaternion norm {n:.9e} is not within "
                             f"{_QUAT_NORM_TOL:g} of 1; normalize explicitly")
        self._set(x=x / n, y=y / n, z=z / n, w=w / n)


class BodyState:
    """Instantaneous rigid-body state: attitude plus body rate [rad/s]."""

    def __init__(self, attitude: UnitQuaternion,
                 omega: Sequence[float]):
        omega = tuple(float(v) for v in omega)
        if len(omega) != 3:
            raise ValueError("omega must have shape (3,)")
        self.attitude = attitude
        self.omega = omega


class SpacecraftParams(Frozen):
    """Plant constants: inertia [kg m^2], per-axis torque limit [N m],
    and the disturbance magnitude bound [N m] used by the compensator.

    ``inertia`` is given as any 3x3 nested sequence and kept as three float
    row tuples; ``inertia_inv_rows`` holds its inverse the same way.
    """

    _fields = ("inertia", "torque_limit", "disturbance_bound")

    def __init__(self, inertia: Sequence[Sequence[float]],
                 torque_limit: float, disturbance_bound: float):
        rows = tuple(tuple(float(v) for v in row) for row in inertia)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("inertia must have shape (3, 3)")
        # each entry within 1e-12 of its transpose, infinities equal to
        # themselves and NaN to nothing
        if not all(a == b or abs(a - b) <= 1e-12
                   for row, col in zip(rows, zip(*rows))
                   for a, b in zip(row, col)):
            raise ValueError("inertia must be symmetric")
        inverse = _spd_inverse_rows(rows)
        if torque_limit <= 0.0:
            raise ValueError("torque_limit must be positive")
        if disturbance_bound < 0.0:
            raise ValueError("disturbance_bound must be nonnegative")
        self._set(inertia=rows, torque_limit=torque_limit,
                  disturbance_bound=disturbance_bound,
                  inertia_inv_rows=inverse)


def _spd_inverse_rows(m: tuple) -> tuple:
    """Inverse of a symmetric 3x3 matrix as float rows, by Gauss-Jordan
    elimination without pivoting, whose pivots are all positive exactly when
    the matrix is positive definite.  A diagonal inverts to exactly 1 / d."""
    a = [[*row] + [float(i == j) for j in range(3)] for i, row in enumerate(m)]
    for k in range(3):
        p = a[k][k]
        if not p > 0.0:
            raise ValueError("inertia must be positive definite")
        a[k] = [v / p for v in a[k]]
        for i in range(3):
            if i != k:
                f = a[i][k]
                a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return tuple(tuple(row[3:]) for row in a)
