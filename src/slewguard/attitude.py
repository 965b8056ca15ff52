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
conjugate ``_sandwich`` of :func:`rotate_to_body`, in the same operation
order.  The public functions take 3-vectors as any sequence of three
numbers, and :func:`rotate_to_body` returns a float triple; nothing in this
module mutates its inputs.

Every value here is a Python float: the dot product and the inertia inverse
are written out in float arithmetic with a fixed operation order, so the
results do not depend on any array library or on the CPU kernel one picks.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._value import Frozen

__all__ = [
    "UnitQuaternion",
    "BodyState",
    "SpacecraftParams",
    "rotate_to_body",
    "pointing_error",
]

# Constructor rejects inputs farther than this from the unit sphere; smaller
# deviations are silently renormalized.
_QUAT_NORM_TOL = 1e-6
# Unit-vector precondition tolerance for direction arguments.
_UNIT_VEC_TOL = 1e-6


def _require_unit_vec(v: Sequence[float], name: str) -> None:
    n = math.sqrt(float(v[0]) ** 2 + float(v[1]) ** 2 + float(v[2]) ** 2)
    if abs(n - 1.0) > _UNIT_VEC_TOL:
        raise ValueError(f"{name} must be a unit vector, got norm {n:.9e}")


class UnitQuaternion:
    """Unit quaternion ``[x, y, z, w]`` (scalar last), fields ``x`` to ``w``.

    Construction renormalizes so the stored norm is 1 to machine precision;
    inputs farther than 1e-6 from unit norm are rejected as likely bugs
    rather than drift.
    """

    __slots__ = ("x", "y", "z", "w")

    def __init__(self, x: float, y: float, z: float, w: float):
        n = math.sqrt(x * x + y * y + z * z + w * w)
        if abs(n - 1.0) > _QUAT_NORM_TOL:
            raise ValueError(f"quaternion norm {n:.9e} is not within "
                             f"{_QUAT_NORM_TOL:g} of 1; normalize explicitly")
        self.x = x / n
        self.y = y / n
        self.z = z / n
        self.w = w / n

    def __repr__(self) -> str:  # pragma: no cover
        return (f"UnitQuaternion(x={self.x:.9g}, y={self.y:.9g}, "
                f"z={self.z:.9g}, w={self.w:.9g})")


def _sandwich(qx: float, qy: float, qz: float, qw: float,
              vx: float, vy: float, vz: float):
    """Vector part of ``q [v, 0] q*`` via the two-cross expansion."""
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return (
        vx + qw * tx + qy * tz - qz * ty,
        vy + qw * ty + qz * tx - qx * tz,
        vz + qw * tz + qx * ty - qy * tx,
    )


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


def rotate_to_body(q: UnitQuaternion, v_inertial: Sequence[float]
                   ) -> tuple[float, float, float]:
    """Resolve an inertial-frame vector in body axes: ``q* [v, 0] q``."""
    return _sandwich(-q.x, -q.y, -q.z, q.w, float(v_inertial[0]),
                     float(v_inertial[1]), float(v_inertial[2]))


def pointing_error(boresight_body: Sequence[float],
                   target_body: Sequence[float]) -> float:
    """Scalar reduced-attitude error ``x_e = 1 - dot(B_b, r_b)`` in [0, 2].

    Both arguments must be unit vectors expressed in body axes.
    """
    _require_unit_vec(boresight_body, "boresight_body")
    _require_unit_vec(target_body, "target_body")
    # added left to right: from Python 3.12 ``sum()`` of floats compensates,
    # which would make the bits depend on the interpreter
    return 1.0 - (float(boresight_body[0]) * float(target_body[0])
                  + float(boresight_body[1]) * float(target_body[1])
                  + float(boresight_body[2]) * float(target_body[2]))
