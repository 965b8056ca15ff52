"""Deterministic fixed-step RK4 propagation of the closed control loop.

One monolithic state couples everything that evolves in time:

    y = [q (4), omega (3), rho (1), td_x1 (3), td_x2 (3)]

``_LoopContext.rhs`` is the one implementation of its derivative: the
rigid body, the attitude kinematics, the funnel radius with its freeze
switch, the effective switches and the tracking differentiator are written
there and nowhere else.  The controller is re-evaluated inside every
integrator stage, so the funnel radius, differentiator, and rigid body all
see consistent intermediate states.  The attitude quaternion is
renormalized once per accepted step.
All arithmetic is plain double precision with a fixed evaluation order;
repeated runs of the same scenario are bit-identical.

The state is a list of 14 Python floats, and the stage evaluation, the
controller laws, the RK4 combine, the renormalization, the state check and
the logging are scalar code: on 3-vectors, an array library's per-call
overhead costs far more than the arithmetic.  Inside a stage the same holds
for Python calls and tuple packing, so the guidance, the quaternion
kinematics, the stage states and the RK4 combine are written out in ``rhs``
and ``step``, component by component, while the control laws and the frame
resolution stay functions of their own.  Each logged step appends its CSV
row, a flat tuple of floats, to a C double buffer (``array("d")``), which
the run's :class:`Trajectory` wraps as it is.  A caller may take the rows
in blocks while the run goes on (``run_scenario``'s ``on_rows``); the CLI
streams them to a process that writes ``trajectory.csv`` on another core.
One function, ``_csv_text``, formats the rows in scalar code wherever they
are written, so every written value is Python float arithmetic in a fixed
order, and the package needs no array library.

Each stage forms every term that more than one law needs exactly once and
hands it to both: the body-frame target with ``x_e`` and the body-frame
cone axes with their cosines (``_resolve``), ``r_b x B``, ``J omega``, the
effective switches, and the potential descent direction P1, which takes one
repulsion gradient per cone and is formed only while ``omega_v > 0``
(always, in the baseline).  Each shared term has the expression and
operation order a law would use on its own, so sharing it changes no
result.

The disturbance torque depends on time alone.  A one-slot cache keeps the
last stage time and its value, and reuses the value when the next stage
time is the same float.  Step ``k`` evaluates its stages at ``k * dt``,
``k * dt + dt/2`` (twice) and ``(k + 1) * dt``, the time the next step
starts at, so a run of ``n`` steps evaluates the disturbance ``2 n + 1``
times.

``step`` returns, with the new state, the quantities its first stage
evaluated at the start of the step.  Logging and the run's statistics
(:class:`_RunStats`) reuse them, so the controller is not evaluated again
for a record.  The statistics see every step and the final sample, and the
summary is built from them alone, so no summary field depends on
``record_stride``.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from typing import TYPE_CHECKING

from ._value import Frozen
from .controller import (
    apf_vector,
    benchmark_apf_law,
    torque_law,
    validate_config,
    virtual_law,
)
from .envelope import ERROR_RATIO_FLOOR, blf_value
from .potential import bridge, total_potential

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

__all__ = [
    "SimConfig",
    "Trajectory",
    "SimulationResult",
    "SimulationAbort",
    "ValidationFailure",
    "disturbance_torque",
    "run_scenario",
    "write_trajectory_csv",
    "write_summary_json",
]

_CONTROLLER_MODES = ("proposed", "benchmark_apf")

# Paper-style slow orbital disturbance frequency [rad/s].
_DIST_OMEGA = 0.01


class SimulationAbort(RuntimeError):
    """Raised when the propagated state stops being physically meaningful.

    ``state`` is the last accepted state, the 14 finite floats the failing
    step started from, and ``stage`` the RK4 stage (1-4) whose evaluation
    failed, or ``None`` when the check after the step found a non-finite
    component.  The final sample counts as stage 1 of the step it would
    start.  A run fills both in; a bare right-hand-side call leaves them
    ``None``.
    """

    def __init__(self, t: float, reason: str, state: tuple | None = None,
                 stage: int | None = None):
        super().__init__(f"simulation aborted at t={t:.4f} s: {reason}")
        self.t = t
        self.reason = reason
        self.state = state
        self.stage = stage

    def __reduce__(self):
        # rebuilt from the fields, not from the message in ``args``, so the
        # abort survives pickling (the compare run sends it between processes)
        return type(self), (self.t, self.reason, self.state, self.stage)


class ValidationFailure(RuntimeError):
    """Raised when a scenario fails parameter validation before running."""

    def __init__(self, report):
        lines = "; ".join(f"{i.rule}: {i.detail}" for i in report.failures)
        super().__init__(f"scenario failed validation: {lines}")
        self.report = report

    def __reduce__(self):
        return type(self), (self.report,)


class SimConfig(Frozen):
    """Fixed-step RK4 settings; defaults match the reference experiments."""

    _fields = ("dt", "duration", "record_stride", "disturbance_enabled",
               "controller_mode")

    def __init__(self, dt: float = 0.01, duration: float = 120.0,
                 record_stride: int = 1, disturbance_enabled: bool = True,
                 controller_mode: str = "proposed"):
        for name, value in (("dt", dt), ("duration", duration),
                            ("record_stride", record_stride)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if duration < dt:
            raise ValueError("duration must cover at least one step")
        if not math.isfinite(duration / dt):
            raise ValueError("duration / dt must be finite")
        if (isinstance(record_stride, bool) or record_stride < 1
                or int(record_stride) != record_stride):
            raise ValueError("record_stride must be a positive integer")
        if controller_mode not in _CONTROLLER_MODES:
            raise ValueError(f"controller_mode must be one of {_CONTROLLER_MODES}")
        self._set(dt=dt, duration=duration, record_stride=int(record_stride),
                  disturbance_enabled=disturbance_enabled,
                  controller_mode=controller_mode)


def _columns(n_cones: int) -> tuple[str, ...]:
    return (("t", "x_e", "pointing_angle_deg")
            + tuple(f"beta_{i + 1}" for i in range(n_cones))
            + ("rho", "eps", "omega_s_eff", "omega_v_eff",
               "omega_x", "omega_y", "omega_z",
               "torque_x", "torque_y", "torque_z",
               "v_q", "v_omega", "td_error", "quat_norm_error"))


class Trajectory(Frozen):
    """Logged samples of a run: ``n`` rows of named columns in one flat
    ``array("d")``, row after row.

    ``records["eps"]`` is the column of that name, a strided copy; an
    unknown name raises :class:`KeyError`.  The names are the CSV header,
    and each row is one :meth:`_LoopContext.record`.  Trajectories compare
    and hash by identity, since ``data`` grows while a run logs.
    """

    _fields = ("data", "columns")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, data: array, columns: tuple[str, ...]):
        self._set(data=data, columns=columns)

    def __getitem__(self, name: str) -> array:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; the columns are "
                           f"{', '.join(self.columns)}") from None
        return self.data[i::len(self.columns)]

    def __len__(self) -> int:
        return len(self.data) // len(self.columns)


class SimulationResult:
    """A run's logged samples and its summary dict."""

    def __init__(self, records: Trajectory, summary: dict):
        self.records = records
        self.summary = summary


def disturbance_torque(t: float) -> tuple[float, float, float]:
    """Components of the slowly varying environmental torque [N m]."""
    a = _DIST_OMEGA * t
    return (1e-3 * (4.0 * math.sin(3.0 * a) + 3.0 * math.cos(10.0 * a) - 40.0),
            1e-3 * (-1.5 * math.sin(2.0 * a) + 3.0 * math.cos(5.0 * a) + 45.0),
            1e-3 * (3.0 * math.sin(10.0 * a) - 8.0 * math.cos(4.0 * a) + 40.0))


_ZERO3 = (0.0, 0.0, 0.0)
_tanh = math.tanh
_RAD_TO_DEG = 180.0 / math.pi  # the factor math.degrees multiplies by


def _pointing_angle_deg(x_e: float) -> float:
    """``math.degrees(math.acos(max(-1.0, min(1.0, 1.0 - x_e))))`` to the
    bit (NaN clamps to 1), in a quarter of the time: no builtin calls."""
    c = 1.0 - x_e
    return math.acos(-1.0 if c <= -1.0 else c if c < 1.0 else 1.0) * _RAD_TO_DEG


def _quat_norm_error(y: list) -> float:
    """``| |q| - 1 |`` of the attitude quaternion of state ``y``."""
    return abs(math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2) - 1.0)


def _axpy(y: list, h: float, k: list) -> list:
    """The stage state ``[a + h * b for a, b in zip(y, k)]``, written out
    for the 14 components, which takes half the time of the comprehension."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13 = y
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13 = k
    return [a0 + h * b0, a1 + h * b1, a2 + h * b2, a3 + h * b3,
            a4 + h * b4, a5 + h * b5, a6 + h * b6, a7 + h * b7,
            a8 + h * b8, a9 + h * b9, a10 + h * b10, a11 + h * b11,
            a12 + h * b12, a13 + h * b13]


class _LoopContext:
    """Prebound scenario pieces plus the coupled right-hand side."""

    def __init__(self, scenario: "Scenario", sim: SimConfig):
        self.scenario = scenario
        self.params = scenario.params
        self.ctrl = scenario.controller
        self.env = scenario.envelope
        self.cones = tuple(scenario.obstacles)
        b = scenario.boresight_body
        self.b = (float(b[0]), float(b[1]), float(b[2]))
        r = scenario.target_inertial
        self.r_i = (float(r[0]), float(r[1]), float(r[2]))
        # inertial cone axes, resolved in body axes after the target
        self.axes = tuple(c.axis_inertial for c in self.cones)
        self.j_rows = self.params.inertia
        self.j_inv_rows = self.params.inertia_inv_rows
        self.neg_k_rho = -self.env.k_rho
        self.rho_inf = self.env.rho_inf
        # -r^2 a1 and r^2 a2 of the differentiator: Python evaluates
        # -r2 * a1 * tanh(x) as (-r2 * a1) * tanh(x), so they round alike
        r2 = self.ctrl.td_r * self.ctrl.td_r
        self.td = (self.ctrl.td_r, -r2 * self.ctrl.td_a1, r2 * self.ctrl.td_a2)
        self.s_shape = scenario.switch.s_shape
        self.v_shape = scenario.switch.v_shape
        self.switch_floor = min(self.s_shape.lo, self.v_shape.lo)
        self.benchmark = sim.controller_mode == "benchmark_apf"
        self.dist_on = sim.disturbance_enabled
        # one-slot disturbance cache: the last stage time and its torque
        self._dist_t = math.nan
        self._dist = _ZERO3

    # -- geometry helpers ---------------------------------------------------

    def _resolve(self, y: list):
        """Body-frame target ``r_b``, ``x_e``, and the body-frame cone axes
        and their cosines to the boresight at a raw state."""
        qx, qy, qz, qw = y[0], y[1], y[2], y[3]
        n = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
        # the conjugate sandwich q* [v, 0] q, as the two-cross expansion of
        # the vector part of c [v, 0] c* for c = (-x, -y, -z, w), for the
        # target and then for each cone axis; the package's one frame
        # rotation
        cx, cy, cz, qw = -qx / n, -qy / n, -qz / n, qw / n
        bx, by, bz = self.b
        vx, vy, vz = self.r_i
        tx = 2.0 * (cy * vz - cz * vy)
        ty = 2.0 * (cz * vx - cx * vz)
        tz = 2.0 * (cx * vy - cy * vx)
        rx = vx + qw * tx + cy * tz - cz * ty
        ry = vy + qw * ty + cz * tx - cx * tz
        rz = vz + qw * tz + cx * ty - cy * tx
        axes = []
        betas = []
        for vx, vy, vz in self.axes:
            tx = 2.0 * (cy * vz - cz * vy)
            ty = 2.0 * (cz * vx - cx * vz)
            tz = 2.0 * (cx * vy - cy * vx)
            fx = vx + qw * tx + cy * tz - cz * ty
            fy = vy + qw * ty + cz * tx - cx * tz
            fz = vz + qw * tz + cx * ty - cy * tx
            axes.append((fx, fy, fz))
            betas.append(bx * fx + by * fy + bz * fz)
        return (rx, ry, rz), 1.0 - (bx * rx + by * ry + bz * rz), axes, betas

    # -- coupled dynamics ---------------------------------------------------

    def rhs(self, t: float, y: list) -> tuple[list, tuple]:
        """Derivative of the raw state ``y`` and the controller quantities
        behind it, ``(r_b, x_e, betas, eps, s_eff, v_eff, v_cmd, e2, u)``."""
        qx, qy, qz, qw, wx, wy, wz, rho, x1x, x1y, x1z, x2x, x2y, x2z = y
        if not rho > 0.0:
            reason = ("funnel radius reached zero" if rho <= 0.0
                      else "funnel radius became non-finite")
            raise SimulationAbort(t, reason)

        # guidance: frame terms, effective switches, the shared law terms
        # r_b x B and P1, and the commanded rate
        r_b, x_e, axes, betas = self._resolve(y)
        eps = x_e / rho
        bx, by, bz = self.b
        rx, ry, rz = r_b
        tx, ty, tz = r_cross_b = (ry * bz - rz * by, rz * bx - rx * bz,
                                  rx * by - ry * bx)
        if self.benchmark:
            s_eff = v_eff = 1.0
        else:
            s_eff = v_eff = 0.0
            for beta in betas:
                if beta <= self.switch_floor:
                    continue  # below both switches' outer knots: both are 0
                s = bridge(self.s_shape, beta, 1.0)
                if s > s_eff:
                    s_eff = s
                v = bridge(self.v_shape, beta, 1.0)
                if v > v_eff:
                    v_eff = v
        p1 = _ZERO3
        if v_eff > 0.0:
            p1 = apf_vector(self.b, r_cross_b, zip(self.cones, axes, betas),
                            self.ctrl.k_a)
        # with omega_v = 1 (the baseline) the law ignores eps and rho
        v_cmd = virtual_law(r_cross_b, p1, eps, rho, v_eff, self.ctrl)

        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = self.j_rows
        jwx = j00 * wx + j01 * wy + j02 * wz
        jwy = j10 * wx + j11 * wy + j12 * wz
        jwz = j20 * wx + j21 * wy + j22 * wz
        gx, gy, gz = gyro = (wy * jwz - wz * jwy, wz * jwx - wx * jwz,
                             wx * jwy - wy * jwx)
        e2 = (wx - x1x, wy - x1y, wz - x1z)
        sd_dot = (x2x, x2y, x2z)
        if self.benchmark:
            u = benchmark_apf_law(gyro, e2, sd_dot, x_e, r_cross_b, p1,
                                  self.b, self.params, self.ctrl)
        else:
            u = torque_law(gyro, e2, sd_dot, eps, rho, x_e, r_cross_b, p1,
                           s_eff, v_eff, self.b, self.params, self.ctrl)
        ux, uy, uz = u
        if self.dist_on and t != self._dist_t:
            self._dist_t = t
            self._dist = disturbance_torque(t)
        dx, dy, dz = self._dist

        # rigid body: J w_dot = -w x (J w) + u + d
        rhx = -gx + ux + dx
        rhy = -gy + uy + dy
        rhz = -gz + uz + dz
        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = self.j_inv_rows
        wdx = i00 * rhx + i01 * rhy + i02 * rhz
        wdy = i10 * rhx + i11 * rhy + i12 * rhz
        wdz = i20 * rhx + i21 * rhy + i22 * rhz

        # funnel radius: shrink vs follow blend; the baseline has no funnel,
        # so its radius is held where it started
        if self.benchmark:
            rho_dot = 0.0
        else:
            # e_dot = -B . (r_b x w), which is w . (r_b x B)
            e_dot = tx * wx + ty * wy + tz * wz
            shrink = self.neg_k_rho * (rho - self.rho_inf)
            if abs(x_e) < ERROR_RATIO_FLOOR:
                follow = 0.0
            else:
                follow = (e_dot / x_e) * rho
            rho_dot = (1.0 - s_eff) * shrink + s_eff * follow

        # tracking differentiator
        r_td, c1, c2 = self.td
        vx, vy, vz = v_cmd
        t2x = c1 * _tanh(x1x - vx) - c2 * _tanh(x2x / r_td)
        t2y = c1 * _tanh(x1y - vy) - c2 * _tanh(x2y / r_td)
        t2z = c1 * _tanh(x1z - vz) - c2 * _tanh(x2z / r_td)

        # attitude kinematics q_dot = 0.5 q (x) [w, 0], the Hamilton product
        # with its zero-scalar terms kept, so that signed zeros and NaN
        # propagate as in the full product
        return ([0.5 * (qw * wx + qx * 0.0 + qy * wz - qz * wy),
                 0.5 * (qw * wy - qx * wz + qy * 0.0 + qz * wx),
                 0.5 * (qw * wz + qx * wy - qy * wx + qz * 0.0),
                 0.5 * (qw * 0.0 - qx * wx - qy * wy - qz * wz),
                 wdx, wdy, wdz, rho_dot,
                 x2x, x2y, x2z, t2x, t2y, t2z],
                (r_b, x_e, betas, eps, s_eff, v_eff, v_cmd, e2, u))

    def step(self, k: int, y: list, dt: float) -> tuple[list, tuple]:
        """Advance ``y`` from ``t = k * dt`` to ``(k + 1) * dt``; returns the
        new state and the controller quantities of the first stage, which
        are those of ``y`` at ``t``.

        The RK4 combine ``y + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` and the
        quaternion renormalization are written out for the 14 components.
        """
        t = k * dt
        h = 0.5 * dt
        n = 1
        try:
            k1, stage = self.rhs(t, y)
            n = 2
            k2 = self.rhs(t + h, _axpy(y, h, k1))[0]
            n = 3
            k3 = self.rhs(t + h, _axpy(y, h, k2))[0]
            n = 4
            k4 = self.rhs((k + 1) * dt, _axpy(y, dt, k3))[0]
        except SimulationAbort as exc:
            exc.state, exc.stage = tuple(y), n
            raise
        c = dt / 6.0
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13 = y
        p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13 = k1
        q0, q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13 = k2
        r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13 = k3
        s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13 = k4
        o0 = a0 + c * (p0 + 2.0 * q0 + 2.0 * r0 + s0)
        o1 = a1 + c * (p1 + 2.0 * q1 + 2.0 * r1 + s1)
        o2 = a2 + c * (p2 + 2.0 * q2 + 2.0 * r2 + s2)
        o3 = a3 + c * (p3 + 2.0 * q3 + 2.0 * r3 + s3)
        n = math.sqrt(o0 ** 2 + o1 ** 2 + o2 ** 2 + o3 ** 2)
        return ([o0 / n, o1 / n, o2 / n, o3 / n,
                 a4 + c * (p4 + 2.0 * q4 + 2.0 * r4 + s4),
                 a5 + c * (p5 + 2.0 * q5 + 2.0 * r5 + s5),
                 a6 + c * (p6 + 2.0 * q6 + 2.0 * r6 + s6),
                 a7 + c * (p7 + 2.0 * q7 + 2.0 * r7 + s7),
                 a8 + c * (p8 + 2.0 * q8 + 2.0 * r8 + s8),
                 a9 + c * (p9 + 2.0 * q9 + 2.0 * r9 + s9),
                 a10 + c * (p10 + 2.0 * q10 + 2.0 * r10 + s10),
                 a11 + c * (p11 + 2.0 * q11 + 2.0 * r11 + s11),
                 a12 + c * (p12 + 2.0 * q12 + 2.0 * r12 + s12),
                 a13 + c * (p13 + 2.0 * q13 + 2.0 * r13 + s13)], stage)

    # -- logging ------------------------------------------------------------

    def energies(self, stage: tuple) -> tuple[float, float]:
        """``(v_q, v_omega)`` at a stage: barrier plus potential, and the
        kinetic energy of the rate error."""
        _, x_e, betas, eps, _, _, _, (ex, ey, ez), _ = stage
        v_q = blf_value(eps, self.ctrl.g, self.ctrl.big_f) + total_potential(
            x_e, self.ctrl.k_a, zip(self.cones, betas))
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = self.j_rows
        return v_q, 0.5 * (ex * (j00 * ex + j01 * ey + j02 * ez)
                           + ey * (j10 * ex + j11 * ey + j12 * ez)
                           + ez * (j20 * ex + j21 * ey + j22 * ez))

    def record(self, t: float, y: list, stage: tuple) -> tuple:
        """Logged row of state ``y`` at ``t`` from its stage quantities: the
        :class:`Trajectory` columns, in order."""
        _, x_e, betas, eps, s_eff, v_eff, v_cmd, _, u = stage
        v_q, v_omega = self.energies(stage)
        vx, vy, vz = v_cmd
        dx, dy, dz = y[8] - vx, y[9] - vy, y[10] - vz
        return (t, x_e, _pointing_angle_deg(x_e), *betas,
                y[7], eps, s_eff, v_eff, y[4], y[5], y[6], *u,
                v_q, v_omega, math.sqrt(dx * dx + dy * dy + dz * dz),
                _quat_norm_error(y))

    def initial_state(self) -> tuple[list, tuple]:
        """The state at t = 0 and the stage quantities that set its
        differentiator.  The stage's frame terms ``r_b``, ``x_e`` and
        ``betas`` read the attitude alone, so they are the first step's."""
        init = self.scenario.initial
        q = init.attitude
        w = init.omega
        rho_0 = float(self.env.rho_0)
        y = [float(q.x), float(q.y), float(q.z), float(q.w),
             float(w[0]), float(w[1]), float(w[2]), rho_0,
             0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        stage = self.rhs(0.0, y)[1]
        # differentiator starts on the initial command with zero rate
        y[8:11] = stage[6]
        return y, stage


_STATE_NAMES = (["quat"] * 4 + ["omega"] * 3 + ["rho"]
                + ["td_x1"] * 3 + ["td_x2"] * 3)


def _check_state(t: float, y: list, last: list) -> None:
    """Abort when the state ``y`` a step reached from ``last`` is not finite."""
    # one sum catches any inf or NaN; it can also overflow on finite values,
    # so the scan names the component or finds none.  Only its finiteness
    # is read, so the interpreter's summation order (compensated from
    # Python 3.12) cannot reach a written value.
    if not math.isfinite(sum(y)):
        bad = next((i for i, v in enumerate(y) if not math.isfinite(v)), None)
        if bad is not None:
            raise SimulationAbort(
                t, f"non-finite value in {_STATE_NAMES[bad]}[{bad}]",
                tuple(last))


class _RunStats:
    """Every statistic of the summary, over each step and the final sample.

    A logged sample hands over its row; any other forms the angle and the
    norm error, and ``v_q + v_omega`` only where a Lyapunov pair needs it.
    Maxima keep the first sample unless a later one is greater, as ``max()``
    does.  ``settled[level]``: the time of the first sample after the last
    one not below ``level`` (NaN is not below).  ``n_pairs``: pairs of
    consecutive samples, unless the first is inside 1 deg or before 1 s, or
    either has ``omega_s_eff > 1e-9`` (freeze and avoidance trade potential
    for clearance by design); ``n_rising``: those where ``v_q + v_omega``
    rises.
    """

    def __init__(self, ctx: _LoopContext):
        targets = ctx.scenario.targets
        self._energies = ctx.energies
        self.max_betas = [-math.inf] * len(ctx.cones)  # deepest approach
        self.max_eps = None                           # max |eps| tracking
        self.n_samples = 0
        self.n_saturated = 0
        self.max_torque = 0.0
        self._sat_limit = ctx.params.torque_limit - 1e-12
        self.terminal_start = 80.0
        self.settled = {1.0: None}
        if targets is not None:
            if targets.terminal_time_s is not None:
                self.terminal_start = targets.terminal_time_s
            if targets.settle_deg is not None:
                self.settled[targets.settle_deg] = None
        self.initial_angle = self.final_angle = None
        self.terminal_err = self.max_quat_norm_error = None
        self.n_pairs = self.n_rising = 0
        # v_q + v_omega and time of the last sample, if it starts a pair
        self._v_start = None
        self._t_start = 0.0

    def add(self, t: float, y: list, stage: tuple, row) -> None:
        """Count the sample of ``y`` at ``t`` from its stage quantities and,
        when logged, its row (else ``None``)."""
        _, x_e, betas, eps, s_eff, _, _, _, (ux, uy, uz) = stage
        for i, beta in enumerate(betas):
            if beta > self.max_betas[i]:
                self.max_betas[i] = beta
        if s_eff < 0.5:
            a = abs(eps)
            if self.max_eps is None or a > self.max_eps:
                self.max_eps = a
        m = max(abs(ux), abs(uy), abs(uz))
        self.n_samples += 1
        if m >= self._sat_limit:
            self.n_saturated += 1
        if m > self.max_torque:
            self.max_torque = m

        if row is None:
            angle, q_err = _pointing_angle_deg(x_e), _quat_norm_error(y)
        else:  # the columns pointing_angle_deg and quat_norm_error
            angle, q_err = row[2], row[-1]
        if self.initial_angle is None:
            self.initial_angle = angle
        self.final_angle = angle
        if self.max_quat_norm_error is None or q_err > self.max_quat_norm_error:
            self.max_quat_norm_error = q_err
        for level, since in self.settled.items():
            if not level > angle:
                self.settled[level] = None
            elif since is None:
                self.settled[level] = t
        if t >= self.terminal_start and (self.terminal_err is None
                                         or angle > self.terminal_err):
            self.terminal_err = angle

        if s_eff > 1e-9:
            self._v_start = None
            return
        starts = not (angle < 1.0 or t < 1.0)
        if starts or self._v_start is not None:
            # from the columns v_q and v_omega when logged
            v_q, v_omega = (self._energies(stage) if row is None
                            else (row[-4], row[-3]))
            v = v_q + v_omega
            if self._v_start is not None:
                self.n_pairs += 1
                if (v - self._v_start) / (t - self._t_start) > 0.0:
                    self.n_rising += 1
            self._v_start = v if starts else None
            self._t_start = t

    def min_clearance_deg(self) -> list[float]:
        # acos decreases, so the deepest approach is the smallest clearance
        return [math.degrees(math.acos(max(-1.0, min(1.0, beta))))
                for beta in self.max_betas]


def run_scenario(scenario: "Scenario", force: bool = False,
                 on_rows=None) -> SimulationResult:
    """Validate, integrate, and summarize one scenario with its own
    simulation settings (see :meth:`Scenario.with_sim`).

    A validation report with hard failures raises :class:`ValidationFailure`
    unless ``force`` is set; the summary carries warnings and failures.

    ``on_rows``, when given, is called with the run's :class:`Trajectory`
    each time ``_BLOCK_ROWS`` more rows have been logged, and once after the
    final sample.  The trajectory only grows between calls, so the caller
    can stream the rows logged since its last call while the run goes on
    (the CLI hands them to the process that writes ``trajectory.csv``).  An
    exception it raises ends the run.  Its time is left out of the
    summary's ``wall_clock_s``, which covers the integration alone.
    """
    sim = scenario.sim
    ctx = _LoopContext(scenario, sim)
    y, (_, x_e0, betas0, *_) = ctx.initial_state()
    # validated after the initial state: the start rules judge the loop's
    # own x_e and cone cosines at t = 0
    report = validate_config(scenario, x_e0, betas0)
    if not report.ok and not force:
        raise ValidationFailure(report)

    dt = sim.dt
    stride = sim.record_stride
    n_steps = int(round(sim.duration / dt))
    stats = _RunStats(ctx)
    records = Trajectory(array("d"), _columns(len(ctx.cones)))
    log = records.data
    # steps between calls of on_rows, each block logging _BLOCK_ROWS rows
    block = n_steps if on_rows is None else _BLOCK_ROWS * stride
    t0 = time.perf_counter()
    held = 0.0  # time spent in on_rows
    for start in range(0, n_steps, block):
        end = start + block
        for k in range(start, min(end, n_steps)):
            y_next, stage = ctx.step(k, y, dt)
            row = None
            if k % stride == 0:
                row = ctx.record(k * dt, y, stage)
                log.extend(row)
            stats.add(k * dt, y, stage, row)
            _check_state((k + 1) * dt, y_next, y)
            y = y_next
        if on_rows is not None and end <= n_steps:
            held -= time.perf_counter()
            on_rows(records)
            held += time.perf_counter()
    # the final sample is the one stage evaluated outside a step
    t = n_steps * dt
    try:
        stage = ctx.rhs(t, y)[1]
    except SimulationAbort as exc:
        exc.state, exc.stage = tuple(y), 1
        raise
    row = ctx.record(t, y, stage)
    log.extend(row)
    stats.add(t, y, stage, row)
    wall = time.perf_counter() - t0 - held
    if on_rows is not None:
        on_rows(records)

    summary = summarize(scenario, sim, stats, report, wall)
    return SimulationResult(records=records, summary=summary)


def summarize(scenario: "Scenario", sim: SimConfig, stats: _RunStats,
              report, wall: float) -> dict:
    theta_f_deg = [math.degrees(c.theta_f) for c in scenario.obstacles]
    min_clearance = stats.min_clearance_deg()
    constraint_ok = all(c >= f for c, f in zip(min_clearance, theta_f_deg))
    terminal_err = stats.terminal_err
    max_eps = stats.max_eps

    targets = scenario.targets
    targets_met = None
    targets_dict = None
    if targets is not None:
        targets_dict = {"settle_deg": targets.settle_deg,
                        "settle_time_s": targets.settle_time_s,
                        "terminal_deg": targets.terminal_deg,
                        "terminal_time_s": targets.terminal_time_s}
        targets_met = True
        if targets.settle_deg is not None and targets.settle_time_s is not None:
            st = stats.settled[targets.settle_deg]
            targets_met = targets_met and (st is not None
                                           and st <= targets.settle_time_s)
        if targets.terminal_deg is not None:
            targets_met = targets_met and (terminal_err is not None
                                           and terminal_err <= targets.terminal_deg)
        targets_met = targets_met and constraint_ok

    return {
        "scenario": scenario.name,
        "controller_mode": sim.controller_mode,
        "dt": sim.dt,
        "duration_s": sim.duration,
        "disturbance_enabled": sim.disturbance_enabled,
        "theta_f_deg": theta_f_deg,
        "min_clearance_deg": min_clearance,
        "constraint_satisfied": constraint_ok,
        "initial_error_deg": stats.initial_angle,
        "final_error_deg": stats.final_angle,
        "settling_time_1deg_s": stats.settled[1.0],
        "terminal_window_start_s": stats.terminal_start,
        "terminal_error_deg": terminal_err,
        "max_eps_while_tracking": max_eps,
        "envelope_contained": max_eps is None or max_eps < 1.0,
        "torque_saturation_fraction": stats.n_saturated / stats.n_samples,
        "max_torque_abs": stats.max_torque,
        "max_quat_norm_error": stats.max_quat_norm_error,
        "lyapunov_positive_fraction": (stats.n_rising / stats.n_pairs
                                       if stats.n_pairs else 0.0),
        "targets": targets_dict,
        "targets_met": targets_met,
        "validation_warnings": [f"{i.rule}: {i.detail}" for i in report.warnings],
        "validation_failures": [f"{i.rule}: {i.detail}" for i in report.failures],
        "wall_clock_s": wall,
    }


# rows formatted by one ``%`` operation in the CSV text, and rows per block
# a run hands to its ``on_rows`` consumer
_BLOCK_ROWS = 256


def _csv_text(data, columns: tuple[str, ...], header: bool = True):
    """``trajectory.csv`` text of the rows in ``data``, a flat sequence of
    floats ``len(columns)`` to a row: the header line first when asked, then
    every value with full double precision (17 significant digits), one
    string per ``_BLOCK_ROWS`` rows."""
    width = len(columns)
    if header:
        yield ",".join(columns) + "\n"
    row = ",".join(["%.17g"] * width) + "\n"
    chunk = _BLOCK_ROWS * width
    for i in range(0, len(data), chunk):
        part = tuple(data[i:i + chunk])
        yield row * (len(part) // width) % part


def write_trajectory_csv(records: Trajectory, path) -> None:
    """Write records as CSV with full double precision (17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_csv_text(records.data, records.columns))


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
