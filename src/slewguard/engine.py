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
the run's :class:`Trajectory` then wraps as it is.  The summary and the CSV
writer read that buffer in scalar code too, so every written value is
Python float arithmetic in a fixed order, and the package needs no array
library.

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
evaluated at the start of the step.  Logging and the safety statistics
reuse them, so the controller is not evaluated again for a record, and the
statistics see every step whatever ``record_stride`` is.
"""

from __future__ import annotations

import json
import math
import operator
import time
from array import array
from dataclasses import asdict, dataclass
from functools import partial
from itertools import compress, repeat, takewhile
from typing import TYPE_CHECKING

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
    "lyapunov_monitor",
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


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step RK4 settings; defaults match the reference experiments."""

    dt: float = 0.01
    duration: float = 120.0
    record_stride: int = 1
    disturbance_enabled: bool = True
    controller_mode: str = "proposed"

    def __post_init__(self):
        for name in ("dt", "duration", "record_stride"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError("duration / dt must be finite")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")
        if self.controller_mode not in _CONTROLLER_MODES:
            raise ValueError(f"controller_mode must be one of {_CONTROLLER_MODES}")


def _columns(n_cones: int) -> tuple[str, ...]:
    return (("t", "x_e", "pointing_angle_deg")
            + tuple(f"beta_{i + 1}" for i in range(n_cones))
            + ("rho", "eps", "omega_s_eff", "omega_v_eff",
               "omega_x", "omega_y", "omega_z",
               "torque_x", "torque_y", "torque_z",
               "v_q", "v_omega", "td_error", "quat_norm_error"))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Logged samples of a run: ``n`` rows of named columns in one flat
    ``array("d")``, row after row.

    ``records["eps"]`` is the column of that name, a strided copy.  The
    names are the CSV header, and each row is one
    :meth:`_LoopContext.record`.
    """

    data: array
    columns: tuple[str, ...]

    def __getitem__(self, name: str) -> array:
        return self.data[self.columns.index(name)::len(self.columns)]

    def __len__(self) -> int:
        return len(self.data) // len(self.columns)


@dataclass
class SimulationResult:
    records: Trajectory
    summary: dict


def disturbance_torque(t: float) -> tuple[float, float, float]:
    """Components of the slowly varying environmental torque [N m]."""
    a = _DIST_OMEGA * t
    return (1e-3 * (4.0 * math.sin(3.0 * a) + 3.0 * math.cos(10.0 * a) - 40.0),
            1e-3 * (-1.5 * math.sin(2.0 * a) + 3.0 * math.cos(5.0 * a) + 45.0),
            1e-3 * (3.0 * math.sin(10.0 * a) - 8.0 * math.cos(4.0 * a) + 40.0))


_ZERO3 = (0.0, 0.0, 0.0)
_tanh = math.tanh


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
        # q* [v, 0] q is attitude._sandwich of the conjugate (-x, -y, -z, w),
        # written out here with the same operation order, for the target
        # and then for each cone axis
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
        w = (wx, wy, wz)
        jw = (jwx, jwy, jwz)
        e2 = (wx - x1x, wy - x1y, wz - x1z)
        sd_dot = (x2x, x2y, x2z)
        if self.benchmark:
            u = benchmark_apf_law(w, jw, e2, sd_dot, x_e, r_cross_b, p1,
                                  self.b, self.params, self.ctrl)
        else:
            u = torque_law(w, jw, e2, sd_dot, eps, rho, x_e, r_cross_b, p1,
                           s_eff, v_eff, self.b, self.params, self.ctrl)
        ux, uy, uz = u
        if self.dist_on and t != self._dist_t:
            self._dist_t = t
            self._dist = disturbance_torque(t)
        dx, dy, dz = self._dist

        # rigid body: J w_dot = -w x (J w) + u + d
        rhx = -(wy * jwz - wz * jwy) + ux + dx
        rhy = -(wz * jwx - wx * jwz) + uy + dy
        rhz = -(wx * jwy - wy * jwx) + uz + dz
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

    def record(self, t: float, y: list, stage: tuple) -> tuple:
        """Logged row of state ``y`` at ``t`` from its stage quantities: the
        :class:`Trajectory` columns, in order."""
        _, x_e, betas, eps, s_eff, v_eff, v_cmd, e2, u = stage
        v_q = blf_value(eps, self.ctrl.g, self.ctrl.big_f) + total_potential(
            x_e, self.ctrl.k_a, zip(self.cones, betas))
        ex, ey, ez = e2
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = self.j_rows
        v_omega = 0.5 * (ex * (j00 * ex + j01 * ey + j02 * ez)
                         + ey * (j10 * ex + j11 * ey + j12 * ez)
                         + ez * (j20 * ex + j21 * ey + j22 * ez))
        vx, vy, vz = v_cmd
        dx, dy, dz = y[8] - vx, y[9] - vy, y[10] - vz
        cos_angle = max(-1.0, min(1.0, 1.0 - x_e))
        qn = math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2)
        return (t, x_e, math.degrees(math.acos(cos_angle)), *betas,
                y[7], eps, s_eff, v_eff, y[4], y[5], y[6], *u,
                v_q, v_omega, math.sqrt(dx * dx + dy * dy + dz * dz),
                abs(qn - 1.0))

    def initial_state(self) -> list:
        init = self.scenario.initial
        q = init.attitude
        w = init.omega
        rho_0 = float(self.env.rho_0)
        y = [float(q.x), float(q.y), float(q.z), float(q.w),
             float(w[0]), float(w[1]), float(w[2]), rho_0,
             0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        # differentiator starts on the initial command with zero rate
        y[8:11] = self.rhs(0.0, y)[1][6]
        return y


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


class _SafetyStats:
    """Keep-out, funnel and torque statistics over every step of a run.

    Fed the first-stage quantities of each step, so the summary fields built
    from them do not depend on ``record_stride``.
    """

    def __init__(self, n_cones: int, torque_limit: float):
        self.max_betas = [-math.inf] * n_cones  # deepest approach per cone
        self.max_eps = None                     # max |eps| while tracking
        self.n_samples = 0
        self.n_saturated = 0
        self.max_torque = 0.0
        self._sat_limit = torque_limit - 1e-12

    def add(self, stage: tuple) -> None:
        _, _, betas, eps, s_eff, _, _, _, (ux, uy, uz) = stage
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

    def min_clearance_deg(self) -> list[float]:
        # acos decreases, so the deepest approach is the smallest clearance
        return [math.degrees(math.acos(max(-1.0, min(1.0, beta))))
                for beta in self.max_betas]


def run_scenario(scenario: "Scenario", force: bool = False) -> SimulationResult:
    """Validate, integrate, and summarize one scenario with its own
    simulation settings (see :meth:`Scenario.with_sim`).

    A validation report with hard failures raises :class:`ValidationFailure`
    unless ``force`` is set; the summary carries warnings and failures.
    """
    sim = scenario.sim
    report = validate_config(scenario.controller, scenario.envelope,
                             scenario.switch, scenario.obstacles,
                             scenario.boresight_body,
                             scenario.target_inertial, scenario.initial,
                             scenario.theta_df)
    if not report.ok and not force:
        raise ValidationFailure(report)

    ctx = _LoopContext(scenario, sim)
    dt = sim.dt
    stride = sim.record_stride
    n_steps = int(round(sim.duration / dt))
    safety = _SafetyStats(len(ctx.cones), scenario.params.torque_limit)
    y = ctx.initial_state()
    log = array("d")
    t0 = time.perf_counter()
    for k in range(n_steps):
        y_next, stage = ctx.step(k, y, dt)
        safety.add(stage)
        if k % stride == 0:
            log.extend(ctx.record(k * dt, y, stage))
        _check_state((k + 1) * dt, y_next, y)
        y = y_next
    # the final sample is the one stage evaluated outside a step
    t = n_steps * dt
    try:
        stage = ctx.rhs(t, y)[1]
    except SimulationAbort as exc:
        exc.state, exc.stage = tuple(y), 1
        raise
    safety.add(stage)
    log.extend(ctx.record(t, y, stage))
    records = Trajectory(log, _columns(len(ctx.cones)))
    wall = time.perf_counter() - t0

    summary = summarize(scenario, sim, records, safety, report, wall)
    return SimulationResult(records=records, summary=summary)


def settling_time(records: Trajectory, level_deg: float) -> float | None:
    """Earliest time after which the pointing angle stays below the level."""
    angle = records["pointing_angle_deg"]
    # the samples below the level, counted back from the last (NaN is not)
    below = takewhile(partial(operator.gt, level_deg), reversed(angle))
    first = len(angle) - len(list(below))
    return records["t"][first] if first < len(angle) else None


def summarize(scenario: "Scenario", sim: SimConfig,
              records: Trajectory, safety: _SafetyStats,
              report, wall: float) -> dict:
    cones = scenario.obstacles
    min_clearance = safety.min_clearance_deg()
    constraint_ok = all(
        min_clearance[i] >= math.degrees(cones[i].theta_f)
        for i in range(len(cones)))

    terminal_start = 80.0
    targets = scenario.targets
    if targets is not None and targets.terminal_time_s is not None:
        terminal_start = targets.terminal_time_s
    angle = records["pointing_angle_deg"]
    terminal_err = max(compress(angle, map(operator.ge, records["t"],
                                           repeat(terminal_start))),
                       default=None)
    max_eps = safety.max_eps
    lyap = lyapunov_monitor(records)
    settle_1deg = settling_time(records, 1.0)

    targets_met = None
    targets_dict = None
    if targets is not None:
        targets_dict = asdict(targets)
        targets_met = True
        if targets.settle_deg is not None and targets.settle_time_s is not None:
            st = (settle_1deg if targets.settle_deg == 1.0
                  else settling_time(records, targets.settle_deg))
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
        "theta_f_deg": [math.degrees(c.theta_f) for c in cones],
        "min_clearance_deg": min_clearance,
        "constraint_satisfied": constraint_ok,
        "initial_error_deg": angle[0],
        "final_error_deg": angle[-1],
        "settling_time_1deg_s": settle_1deg,
        "terminal_window_start_s": terminal_start,
        "terminal_error_deg": terminal_err,
        "max_eps_while_tracking": max_eps,
        "envelope_contained": max_eps is None or max_eps < 1.0,
        "torque_saturation_fraction": safety.n_saturated / safety.n_samples,
        "max_torque_abs": safety.max_torque,
        "max_quat_norm_error": max(records["quat_norm_error"]),
        "lyapunov_positive_fraction": lyap.fraction_positive,
        "targets": targets_dict,
        "targets_met": targets_met,
        "validation_warnings": [f"{i.rule}: {i.detail}" for i in report.warnings],
        "validation_failures": [f"{i.rule}: {i.detail}" for i in report.failures],
        "wall_clock_s": wall,
    }


@dataclass(frozen=True)
class LyapunovDiagnostics:
    fraction_positive: float
    n_considered: int
    max_rate: float


def lyapunov_monitor(records: Trajectory,
                     skip_s: float = 1.0,
                     ball_deg: float = 1.0) -> LyapunovDiagnostics:
    """Finite-difference check that the tracking energy keeps descending.

    Considers consecutive record pairs after the initial differentiator
    transient and outside the terminal ball, and reports the fraction with a
    positive rate of ``V_q + V_omega``.  Switching intervals are excluded:
    the freeze and avoidance modes trade potential for clearance by design.
    """
    t, s = records["t"], records["omega_s_eff"]
    v_q, v_omega = records["v_q"], records["v_omega"]
    # a pair is kept unless its start is inside the ball, early or
    # switching, or its end is switching; NaN excludes nothing.  The ball
    # test drops most pairs of a settled run, so it comes first.
    rate = [((v_q[i + 1] + v_omega[i + 1]) - (v_q[i] + v_omega[i]))
            / (t[i + 1] - t[i])
            for i, a in enumerate(records["pointing_angle_deg"][:-1])
            if not (a < ball_deg or t[i] < skip_s or s[i] > 1e-9
                    or s[i + 1] > 1e-9)]
    if not rate:
        return LyapunovDiagnostics(0.0, 0, -math.inf)
    n_pos = len([r for r in rate if r > 0.0])
    return LyapunovDiagnostics(n_pos / len(rate), len(rate), max(rate))


# rows formatted by one ``%`` operation in the CSV writer
_CSV_CHUNK_ROWS = 256


def write_trajectory_csv(records: Trajectory, path) -> None:
    """Write records as CSV with full double precision (17 significant digits)."""
    width = len(records.columns)
    row = ",".join(["%.17g"] * width) + "\n"
    chunk = _CSV_CHUNK_ROWS * width
    data = records.data
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(records.columns) + "\n")
        for i in range(0, len(data), chunk):
            part = tuple(data[i:i + chunk])
            fh.write(row * (len(part) // width) % part)


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
