"""Deterministic fixed-step propagation of the closed control loop.

One monolithic state couples everything that evolves in time:

    y = [q (4), omega (3), rho (1), td_x1 (3), td_x2 (3)]

The controller is re-evaluated inside every integrator stage, so the funnel
radius, differentiator, and rigid body all see consistent intermediate
states.  The attitude quaternion is renormalized once per accepted step.
All arithmetic is plain double precision with a fixed evaluation order;
repeated runs of the same scenario are bit-identical.

The state is a list of 14 Python floats and the stage evaluation, RK4
combine, renormalization and state check are scalar code: on 3-vectors,
numpy's per-call overhead costs far more than the arithmetic.  numpy stays
at the edges where its rounding is part of the output.  The controller laws
return arrays, and the logged ``v_omega = e2 . J e2 / 2`` and ``td_error =
|x1 - v|`` keep numpy's matvec, dot and norm, whose last bit differs from a
scalar sum for a sizeable share of inputs.

``step`` returns, with the new state, the quantities its first stage
evaluated at the start of the step.  Logging and the safety statistics
reuse them, so the controller is not evaluated again for a record, and the
statistics see every step whatever ``record_stride`` is.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .attitude import _quat_mul, _to_body
from .controller import (
    benchmark_virtual_law,
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
    "TrajectoryRecord",
    "SimulationResult",
    "SimulationAbort",
    "ValidationFailure",
    "disturbance_torque",
    "coupled_rhs",
    "run_scenario",
    "lyapunov_monitor",
    "write_trajectory_csv",
    "write_summary_json",
]

_CONTROLLER_MODES = ("proposed", "benchmark_apf")
_INTEGRATORS = ("rk4", "euler")

# Paper-style slow orbital disturbance frequency [rad/s].
_DIST_OMEGA = 0.01


class SimulationAbort(RuntimeError):
    """Raised when the propagated state stops being physically meaningful."""

    def __init__(self, t: float, reason: str):
        super().__init__(f"simulation aborted at t={t:.4f} s: {reason}")
        self.t = t
        self.reason = reason


class ValidationFailure(RuntimeError):
    """Raised when a scenario fails parameter validation before running."""

    def __init__(self, report):
        lines = "; ".join(f"{i.rule}: {i.detail}" for i in report.failures)
        super().__init__(f"scenario failed validation: {lines}")
        self.report = report


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; defaults match the reference experiments."""

    dt: float = 0.01
    duration: float = 120.0
    integrator: str = "rk4"
    record_stride: int = 1
    disturbance_enabled: bool = True
    controller_mode: str = "proposed"

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"integrator must be one of {_INTEGRATORS}")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")
        if self.controller_mode not in _CONTROLLER_MODES:
            raise ValueError(f"controller_mode must be one of {_CONTROLLER_MODES}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One logged sample of the closed-loop trajectory."""

    t: float
    x_e: float
    pointing_angle_deg: float
    betas: tuple[float, ...]
    rho: float
    eps: float
    omega_s_eff: float
    omega_v_eff: float
    omega: tuple[float, float, float]
    torque: tuple[float, float, float]
    v_q: float
    v_omega: float
    td_error: float
    quat_norm_error: float


@dataclass
class SimulationResult:
    records: list[TrajectoryRecord]
    summary: dict
    validation: object


def _disturbance(t: float) -> tuple[float, float, float]:
    """Components of the slowly varying environmental torque [N m]."""
    a = _DIST_OMEGA * t
    return (1e-3 * (4.0 * math.sin(3.0 * a) + 3.0 * math.cos(10.0 * a) - 40.0),
            1e-3 * (-1.5 * math.sin(2.0 * a) + 3.0 * math.cos(5.0 * a) + 45.0),
            1e-3 * (3.0 * math.sin(10.0 * a) - 8.0 * math.cos(4.0 * a) + 40.0))


def disturbance_torque(t: float, enabled: bool = True) -> np.ndarray:
    """Slowly varying environmental torque [N m]; zero when disabled."""
    if not enabled:
        return np.zeros(3)
    return np.array(_disturbance(t))


class _LoopContext:
    """Prebound scenario pieces plus the coupled right-hand side."""

    def __init__(self, scenario: "Scenario", sim: SimConfig):
        self.scenario = scenario
        self.sim = sim
        self.params = scenario.params
        self.ctrl = scenario.controller
        self.env = scenario.envelope
        self.switch = scenario.switch
        self.cones = tuple(scenario.obstacles)
        b = scenario.boresight_body
        self.b = (float(b[0]), float(b[1]), float(b[2]))
        r = scenario.target_inertial
        self.r_i = (float(r[0]), float(r[1]), float(r[2]))
        self.axes_i = tuple((float(c.axis_inertial[0]), float(c.axis_inertial[1]),
                             float(c.axis_inertial[2])) for c in self.cones)
        self.benchmark = sim.controller_mode == "benchmark_apf"
        self.dist_on = sim.disturbance_enabled

    # -- geometry helpers ---------------------------------------------------

    def _resolve(self, y: list):
        """Body-frame target/cone axes and derived scalars at a raw state."""
        qx, qy, qz, qw = y[0], y[1], y[2], y[3]
        n = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
        qx, qy, qz, qw = qx / n, qy / n, qz / n, qw / n
        bx, by, bz = self.b
        r_b = _to_body(qx, qy, qz, qw, *self.r_i)
        x_e = 1.0 - (bx * r_b[0] + by * r_b[1] + bz * r_b[2])
        obstacles = []
        betas = []
        for cone, axis in zip(self.cones, self.axes_i):
            f_b = _to_body(qx, qy, qz, qw, *axis)
            beta = bx * f_b[0] + by * f_b[1] + bz * f_b[2]
            obstacles.append((cone, f_b, beta))
            betas.append(beta)
        return r_b, x_e, obstacles, betas

    def _switches(self, betas):
        if self.benchmark:
            return 1.0, 1.0
        s_eff = 0.0
        v_eff = 0.0
        for beta in betas:
            s = bridge(self.switch.s_shape, beta, 1.0)
            if s > s_eff:
                s_eff = s
            v = bridge(self.switch.v_shape, beta, 1.0)
            if v > v_eff:
                v_eff = v
        return s_eff, v_eff

    def _command(self, r_b, obstacles, eps, rho, v_eff):
        if self.benchmark:
            return benchmark_virtual_law(self.b, r_b, obstacles, self.ctrl)
        return virtual_law(self.b, r_b, obstacles, eps, rho, v_eff, self.ctrl)

    # -- coupled dynamics ---------------------------------------------------

    def rhs(self, t: float, y: list) -> tuple[list, tuple]:
        """Derivative of the raw state ``y`` and the controller quantities
        behind it, ``(r_b, x_e, obstacles, betas, eps, s_eff, v_eff, v_cmd,
        e2, u)``."""
        rho = y[7]
        if not rho > 0.0:
            reason = ("funnel radius reached zero" if rho <= 0.0
                      else "funnel radius became non-finite")
            raise SimulationAbort(t, reason)
        r_b, x_e, obstacles, betas = self._resolve(y)
        eps = x_e / rho
        s_eff, v_eff = self._switches(betas)

        qx, qy, qz, qw, wx, wy, wz, _, x1x, x1y, x1z, x2x, x2y, x2z = y
        v_cmd = self._command(r_b, obstacles, eps, rho, v_eff)
        w = (wx, wy, wz)
        e2 = (wx - x1x, wy - x1y, wz - x1z)
        if self.benchmark:
            u = benchmark_apf_law(w, e2, self.b, r_b, obstacles,
                                  (x2x, x2y, x2z), self.params, self.ctrl)
        else:
            u = torque_law(w, e2, eps, rho, self.b, r_b, obstacles,
                           s_eff, v_eff, (x2x, x2y, x2z), self.params,
                           self.ctrl)
        u = u.tolist()
        ux, uy, uz = u
        dx, dy, dz = _disturbance(t) if self.dist_on else (0.0, 0.0, 0.0)

        # rigid body: J w_dot = -w x (J w) + u + d
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = \
            self.params.inertia_rows
        jwx = j00 * wx + j01 * wy + j02 * wz
        jwy = j10 * wx + j11 * wy + j12 * wz
        jwz = j20 * wx + j21 * wy + j22 * wz
        rhx = -(wy * jwz - wz * jwy) + ux + dx
        rhy = -(wz * jwx - wx * jwz) + uy + dy
        rhz = -(wx * jwy - wy * jwx) + uz + dz
        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = \
            self.params.inertia_inv_rows
        wdx = i00 * rhx + i01 * rhy + i02 * rhz
        wdy = i10 * rhx + i11 * rhy + i12 * rhz
        wdz = i20 * rhx + i21 * rhy + i22 * rhz

        # attitude kinematics q_dot = 0.5 q (x) [w, 0]
        dqx, dqy, dqz, dqw = _quat_mul(qx, qy, qz, qw, wx, wy, wz, 0.0)

        # funnel radius: shrink vs follow blend; the baseline has no funnel,
        # so its radius is held where it started
        if self.benchmark:
            rho_dot = 0.0
        else:
            e_dot = -(self.b[0] * (r_b[1] * wz - r_b[2] * wy)
                      + self.b[1] * (r_b[2] * wx - r_b[0] * wz)
                      + self.b[2] * (r_b[0] * wy - r_b[1] * wx))
            shrink = -self.env.k_rho * (rho - self.env.rho_inf)
            if abs(x_e) < ERROR_RATIO_FLOOR:
                follow = 0.0
            else:
                follow = (e_dot / x_e) * rho
            rho_dot = (1.0 - s_eff) * shrink + s_eff * follow

        # tracking differentiator
        r_td = self.ctrl.td_r
        r2 = r_td * r_td
        a1 = self.ctrl.td_a1
        a2 = self.ctrl.td_a2
        vx, vy, vz = v_cmd.tolist()
        t2x = -r2 * a1 * math.tanh(x1x - vx) - r2 * a2 * math.tanh(x2x / r_td)
        t2y = -r2 * a1 * math.tanh(x1y - vy) - r2 * a2 * math.tanh(x2y / r_td)
        t2z = -r2 * a1 * math.tanh(x1z - vz) - r2 * a2 * math.tanh(x2z / r_td)

        return ([0.5 * dqx, 0.5 * dqy, 0.5 * dqz, 0.5 * dqw,
                 wdx, wdy, wdz, rho_dot,
                 x2x, x2y, x2z, t2x, t2y, t2z],
                (r_b, x_e, obstacles, betas, eps, s_eff, v_eff, v_cmd, e2, u))

    def step(self, t: float, y: list, dt: float) -> tuple[list, tuple]:
        """Advance ``y`` by ``dt``; returns the new state and the controller
        quantities of the first stage, which are those of ``y`` at ``t``."""
        k1, stage = self.rhs(t, y)
        if self.sim.integrator == "euler":
            out = [a + dt * b for a, b in zip(y, k1)]
        else:
            h = 0.5 * dt
            k2 = self.rhs(t + h, [a + h * b for a, b in zip(y, k1)])[0]
            k3 = self.rhs(t + h, [a + h * b for a, b in zip(y, k2)])[0]
            k4 = self.rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])[0]
            c = dt / 6.0
            out = [a + c * (p + 2.0 * q + 2.0 * r + s)
                   for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        n = math.sqrt(out[0] ** 2 + out[1] ** 2 + out[2] ** 2 + out[3] ** 2)
        out[0] /= n
        out[1] /= n
        out[2] /= n
        out[3] /= n
        return out, stage

    # -- logging ------------------------------------------------------------

    def record(self, t: float, y: list, stage: tuple) -> TrajectoryRecord:
        """Logged sample of state ``y`` at ``t`` from its stage quantities."""
        r_b, x_e, obstacles, betas, eps, s_eff, v_eff, v_cmd, e2, u = stage
        rho = y[7]
        v_q = blf_value(eps, self.ctrl.g, self.ctrl.big_f) + total_potential(
            x_e, self.ctrl.k_a, obstacles_betas(obstacles))
        e2 = np.array(e2)
        v_omega = 0.5 * float(e2 @ (self.params.inertia @ e2))
        td_err = float(np.linalg.norm(np.array(y[8:11]) - v_cmd))
        cos_angle = max(-1.0, min(1.0, 1.0 - x_e))
        qn = math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2)
        return TrajectoryRecord(
            t=t, x_e=x_e,
            pointing_angle_deg=math.degrees(math.acos(cos_angle)),
            betas=tuple(betas), rho=rho, eps=eps,
            omega_s_eff=s_eff, omega_v_eff=v_eff,
            omega=(y[4], y[5], y[6]), torque=tuple(u),
            v_q=v_q, v_omega=v_omega, td_error=td_err,
            quat_norm_error=abs(qn - 1.0))

    def initial_state(self) -> list:
        init = self.scenario.initial
        q = init.attitude
        w = init.omega
        rho_0 = float(self.env.rho_0)
        y = [float(q.x), float(q.y), float(q.z), float(q.w),
             float(w[0]), float(w[1]), float(w[2]), rho_0,
             0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        # differentiator starts on the initial command with zero rate
        r_b, x_e, obstacles, betas = self._resolve(y)
        s_eff, v_eff = self._switches(betas)
        y[8:11] = self._command(r_b, obstacles, x_e / rho_0, rho_0,
                                v_eff).tolist()
        return y


def obstacles_betas(obstacles) -> list:
    """Strip body axes from (cone, f_b, beta) triples for potential sums."""
    return [(cone, beta) for cone, _, beta in obstacles]


def coupled_rhs(t: float, y: np.ndarray, scenario: "Scenario",
                sim: SimConfig | None = None) -> np.ndarray:
    """Time derivative of the 14-component coupled state.

    Layout: quaternion [0:4], body rate [4:7], funnel radius [7],
    differentiator x1 [8:11] and x2 [11:14].  Convenience wrapper over the
    loop context used by :func:`run_scenario`.
    """
    ctx = _LoopContext(scenario, sim if sim is not None else scenario.sim)
    return np.array(ctx.rhs(t, [float(v) for v in y])[0])


_STATE_NAMES = (["quat"] * 4 + ["omega"] * 3 + ["rho"]
                + ["td_x1"] * 3 + ["td_x2"] * 3)


def _check_state(t: float, y: list) -> None:
    if not all(map(math.isfinite, y)):
        bad = next(i for i, v in enumerate(y) if not math.isfinite(v))
        raise SimulationAbort(
            t, f"non-finite value in {_STATE_NAMES[bad]}[{bad}]")
    if not y[7] > 0.0:
        raise SimulationAbort(t, "funnel radius reached zero")


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
        _, _, _, betas, eps, s_eff, _, _, _, (ux, uy, uz) = stage
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


def run_scenario(scenario: "Scenario", sim: SimConfig | None = None,
                 force: bool = False) -> SimulationResult:
    """Validate, integrate, and summarize one scenario.

    ``sim`` overrides the scenario's embedded simulation settings.  A
    validation report with hard failures raises :class:`ValidationFailure`
    unless ``force`` is set; warnings are carried into the summary.
    """
    sim = sim if sim is not None else scenario.sim
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
    records: list[TrajectoryRecord] = []
    t0 = time.perf_counter()
    for k in range(n_steps):
        t = k * dt
        y_next, stage = ctx.step(t, y, dt)
        safety.add(stage)
        if k % stride == 0:
            records.append(ctx.record(t, y, stage))
        y = y_next
        _check_state((k + 1) * dt, y)
    # the final sample is the one stage evaluated outside a step
    t = n_steps * dt
    stage = ctx.rhs(t, y)[1]
    safety.add(stage)
    records.append(ctx.record(t, y, stage))
    wall = time.perf_counter() - t0

    summary = summarize(scenario, sim, records, safety, report, wall)
    return SimulationResult(records=records, summary=summary, validation=report)


def settling_time(records: Sequence[TrajectoryRecord],
                  level_deg: float) -> float | None:
    """Earliest time after which the pointing angle stays below the level."""
    t_settle = None
    for rec in reversed(records):
        if rec.pointing_angle_deg < level_deg:
            t_settle = rec.t
        else:
            break
    return t_settle


def summarize(scenario: "Scenario", sim: SimConfig,
              records: Sequence[TrajectoryRecord], safety: _SafetyStats,
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
    tail = [r.pointing_angle_deg for r in records if r.t >= terminal_start]
    terminal_err = max(tail) if tail else None
    max_eps = safety.max_eps
    lyap = lyapunov_monitor(records)

    targets_met = None
    targets_dict = None
    if targets is not None:
        targets_dict = {
            "settle_deg": targets.settle_deg,
            "settle_time_s": targets.settle_time_s,
            "terminal_deg": targets.terminal_deg,
            "terminal_time_s": targets.terminal_time_s,
        }
        targets_met = True
        if targets.settle_deg is not None and targets.settle_time_s is not None:
            st = settling_time(records, targets.settle_deg)
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
        "initial_error_deg": records[0].pointing_angle_deg,
        "final_error_deg": records[-1].pointing_angle_deg,
        "settling_time_1deg_s": settling_time(records, 1.0),
        "terminal_window_start_s": terminal_start,
        "terminal_error_deg": terminal_err,
        "max_eps_while_tracking": max_eps,
        "envelope_contained": max_eps is None or max_eps < 1.0,
        "torque_saturation_fraction": safety.n_saturated / safety.n_samples,
        "max_torque_abs": safety.max_torque,
        "max_quat_norm_error": max(r.quat_norm_error for r in records),
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


def lyapunov_monitor(records: Sequence[TrajectoryRecord],
                     skip_s: float = 1.0,
                     ball_deg: float = 1.0) -> LyapunovDiagnostics:
    """Finite-difference check that the tracking energy keeps descending.

    Considers consecutive record pairs after the initial differentiator
    transient and outside the terminal ball, and reports the fraction with a
    positive rate of ``V_q + V_omega``.  Switching intervals are excluded:
    the freeze and avoidance modes trade potential for clearance by design.
    """
    n_pos = 0
    n_tot = 0
    max_rate = -math.inf
    for prev, cur in zip(records, records[1:]):
        if prev.t < skip_s or prev.pointing_angle_deg < ball_deg:
            continue
        if prev.omega_s_eff > 1e-9 or cur.omega_s_eff > 1e-9:
            continue
        dv = (cur.v_q + cur.v_omega) - (prev.v_q + prev.v_omega)
        rate = dv / (cur.t - prev.t)
        n_tot += 1
        if rate > 0.0:
            n_pos += 1
        if rate > max_rate:
            max_rate = rate
    if n_tot == 0:
        return LyapunovDiagnostics(0.0, 0, -math.inf)
    return LyapunovDiagnostics(n_pos / n_tot, n_tot, max_rate)


def write_trajectory_csv(records: Sequence[TrajectoryRecord], path) -> None:
    """Write records as CSV with full double precision (17 significant digits)."""
    n_obs = len(records[0].betas) if records else 0
    cols = (["t", "x_e", "pointing_angle_deg"]
            + [f"beta_{i + 1}" for i in range(n_obs)]
            + ["rho", "eps", "omega_s_eff", "omega_v_eff",
               "omega_x", "omega_y", "omega_z",
               "torque_x", "torque_y", "torque_z",
               "v_q", "v_omega", "td_error", "quat_norm_error"])
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(
            row % (r.t, r.x_e, r.pointing_angle_deg, *r.betas,
                   r.rho, r.eps, r.omega_s_eff, r.omega_v_eff,
                   *r.omega, *r.torque,
                   r.v_q, r.v_omega, r.td_error, r.quat_norm_error)
            for r in records)


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
