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
order.  The public functions take numpy arrays of shape (3,).  Nothing in
this module mutates its inputs.

numpy only holds and compares values here: the dot product and the inertia
inverse are float arithmetic, so no BLAS or LAPACK rounding, which depends
on the CPU kernel the library picks, reaches the closed loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def _require_unit_vec(v: np.ndarray, name: str) -> None:
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


@dataclass
class BodyState:
    """Instantaneous rigid-body state: attitude plus body rate [rad/s]."""

    attitude: UnitQuaternion
    omega: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        if self.omega.shape != (3,):
            raise ValueError("omega must have shape (3,)")


@dataclass(frozen=True)
class SpacecraftParams:
    """Plant constants: inertia [kg m^2], per-axis torque limit [N m],
    and the disturbance magnitude bound [N m] used by the compensator.

    ``inertia_rows`` and ``inertia_inv_rows`` hold the inertia and its
    inverse as tuples of float rows for the scalar closed-loop kernel.
    """

    inertia: np.ndarray
    torque_limit: float
    disturbance_bound: float
    inertia_rows: tuple = field(init=False, repr=False, compare=False)
    inertia_inv_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inertia = np.asarray(self.inertia, dtype=float)
        if inertia.shape != (3, 3):
            raise ValueError("inertia must have shape (3, 3)")
        if not np.allclose(inertia, inertia.T, rtol=0.0, atol=1e-12):
            raise ValueError("inertia must be symmetric")
        inverse = _spd_inverse_rows(inertia.tolist())
        if self.torque_limit <= 0.0:
            raise ValueError("torque_limit must be positive")
        if self.disturbance_bound < 0.0:
            raise ValueError("disturbance_bound must be nonnegative")
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "inertia_rows",
                           tuple(tuple(row) for row in inertia.tolist()))
        object.__setattr__(self, "inertia_inv_rows", inverse)


def _spd_inverse_rows(m: list) -> tuple:
    """Inverse of a symmetric 3x3 matrix as float rows, by Gauss-Jordan
    elimination without pivoting, whose pivots are all positive exactly when
    the matrix is positive definite.  A diagonal inverts to exactly 1 / d."""
    a = [row + [float(i == j) for j in range(3)] for i, row in enumerate(m)]
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


def rotate_to_body(q: UnitQuaternion, v_inertial: np.ndarray) -> np.ndarray:
    """Resolve an inertial-frame vector in body axes: ``q* [v, 0] q``."""
    return np.array(_sandwich(-q.x, -q.y, -q.z, q.w,
                              float(v_inertial[0]),
                              float(v_inertial[1]),
                              float(v_inertial[2])))


def pointing_error(boresight_body: np.ndarray, target_body: np.ndarray) -> float:
    """Scalar reduced-attitude error ``x_e = 1 - dot(B_b, r_b)`` in [0, 2].

    Both arguments must be unit vectors expressed in body axes.
    """
    _require_unit_vec(boresight_body, "boresight_body")
    _require_unit_vec(target_body, "target_body")
    return 1.0 - sum(float(b) * float(r)
                     for b, r in zip(boresight_body, target_body))
