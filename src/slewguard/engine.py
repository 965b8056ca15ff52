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
for Python calls and tuple packing, so the guidance and the quaternion
kinematics are written out in ``rhs``, component by component, while the
control laws and the frame resolution stay functions of their own.  The
run's log is one C double buffer (``array("d")``), sized for every logged
row before the first sample, which the run's :class:`Trajectory` wraps as
it is; each logged sample writes its CSV row, a flat tuple of floats, into
its own slot.  ``write_trajectory_csv`` writes each value as Python's
``'%.17g' % v`` does, with the compiled formatter of :mod:`._kernel` where
a library loads and with ``_csv_text``, scalar code, everywhere else: the
same bytes either way, and the package needs no array library.

Each stage forms every term that more than one law needs exactly once and
hands it to both: the body-frame target with ``x_e`` and the body-frame
cone axes with their cosines (``_resolve``), ``r_b x B``, ``J omega``, the
effective switches, and the potential descent direction P1, which takes one
repulsion gradient per cone and is formed only while ``omega_v > 0``
(always, in the baseline).  Each shared term has the expression and
operation order a law would use on its own, so sharing it changes no
result.

The run loop evaluates each sample ``t = k * dt``, ``k = 0 .. n``, once
with ``rhs``.  Logging and the run's statistics (:class:`_RunStats`) read
that evaluation's controller quantities, and ``step`` takes its derivative
as the first RK4 stage; the final sample has no step after it.  The
summary is built from the statistics alone, so no summary field depends on
``record_stride``.

``rhs``, ``step``, ``record`` and ``_RunStats.add`` are the reference.
Wherever a C library can be built (:mod:`slewguard._kernel`), the run does
each sample's work with its copy of them instead, the whole run in one
call: it propagates the state, writes each row that is due into the log,
and folds every sample into the statistics record that ``_RunStats.add``
also folds into.  The two give the same bits.  The kernel runs from the
first sample and stops short of the first one the reference raises on; the
reference takes the run from there to its end, so every abort comes from
the code above.  The hand-over happens once per run, and where no library
loads, the reference runs every sample.
"""

from __future__ import annotations

import json
import math
import sys
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
from .potential import bridge, clamped_acos, total_potential

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
    failed, or ``None`` when the step's quaternion norm overflowed or the
    check after the step found a non-finite component.  The final sample
    counts as stage 1 of the step it would start.  A run fills both in; a
    bare right-hand-side call leaves them ``None``.
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
        # abort survives pickling (a caller that runs scenarios in a process
        # pool gets it back from a worker)
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
            # not NaN, nor infinite, nor an integer beyond the double range
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if duration < dt:
            raise ValueError("duration must cover at least one step")
        steps = duration / dt
        if not math.isfinite(steps):
            raise ValueError("duration / dt must be finite")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError("duration must be a whole number of steps of dt")
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
    and hash by identity, since a run writes ``data`` in place as it logs.
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


def _pointing_angle_deg(x_e: float) -> float:
    """Boresight-to-goal angle [deg] at the pointing error ``x_e``."""
    return math.degrees(clamped_acos(1.0 - x_e))


def _quat_norm_error(y: list) -> float:
    """``| |q| - 1 |`` of the attitude quaternion of state ``y``."""
    return abs(math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2) - 1.0)


class _LoopContext:
    """Prebound scenario pieces plus the coupled right-hand side."""

    def __init__(self, scenario: "Scenario"):
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
        self.benchmark = scenario.sim.controller_mode == "benchmark_apf"
        self.dist_on = scenario.sim.disturbance_enabled

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
        dx, dy, dz = disturbance_torque(t) if self.dist_on else _ZERO3

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

    def step(self, k: int, y: list, dt: float, k1: list) -> list:
        """Advance ``y`` from ``t = k * dt`` to ``(k + 1) * dt``, given its
        derivative ``k1`` at ``t``, the first RK4 stage: the combine
        ``y + dt/6 (k1 + 2 k2 + 2 k3 + k4)``, then the quaternion
        renormalized."""
        t = k * dt
        h = 0.5 * dt
        n = 2
        try:
            k2 = self.rhs(t + h, [a + h * b for a, b in zip(y, k1)])[0]
            n = 3
            k3 = self.rhs(t + h, [a + h * b for a, b in zip(y, k2)])[0]
            n = 4
            k4 = self.rhs((k + 1) * dt,
                          [a + dt * b for a, b in zip(y, k3)])[0]
        except SimulationAbort as exc:
            exc.state, exc.stage = tuple(y), n
            raise
        c = dt / 6.0
        out = [a + c * (p + 2.0 * q + 2.0 * r + s)
               for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        try:
            n = math.sqrt(out[0] ** 2 + out[1] ** 2 + out[2] ** 2
                          + out[3] ** 2)
        except OverflowError:  # ``**`` raises where a square overflows
            raise SimulationAbort((k + 1) * dt, "quaternion norm overflowed",
                                  tuple(y)) from None
        out[:4] = [v / n for v in out[:4]]
        return out

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


# The run statistics record, one ``array("d")`` that ``_RunStats.add`` and
# the kernel (``_kernel.c``) both fold samples into: the statistics and the
# flags that say whether a statistic has a value yet, two settings, then
# per settling level the level and the time it was met (NaN while not;
# times are never NaN), then per cone the deepest cosine.  Its only
# statement: the kernel is compiled with each ``_S_<NAME>`` as ``S_<NAME>``.
(_S_SAMPLES, _S_SATURATED, _S_MAX_TORQUE, _S_TRACKING, _S_MAX_EPS,
 _S_INITIAL, _S_FINAL, _S_MAX_Q_ERR, _S_IN_WINDOW, _S_TERMINAL,
 _S_PAIRS, _S_RISING, _S_OPEN, _S_V_START, _S_T_START,
 _S_SAT_LIMIT, _S_WINDOW_START, _S_N_LEVELS, _S_LEVELS) = range(19)


def _stat(slot: int, flag: int | None = None) -> property:
    """Slot ``slot`` of the record, or None while slot ``flag`` is 0."""
    return property(lambda self: None if flag is not None
                    and not self.record[flag] else self.record[slot])


class _RunStats:
    """Every statistic of the summary, over each step and the final sample,
    held in ``record`` (laid out above) so that the kernel and ``add`` fold
    samples into the one record.

    A logged sample hands over its row; any other forms the angle and the
    norm error, and ``v_q + v_omega`` only where a Lyapunov pair needs it.
    Maxima keep the first sample unless a later one is greater, as ``max()``
    does.  ``settled[level]``: the time of the first sample after the last
    one not below ``level`` (NaN is not below).  ``n_pairs``: pairs of
    consecutive samples, unless the first is inside 1 deg or before 1 s, or
    either has ``omega_s_eff > 1e-9`` (freeze and avoidance trade potential
    for clearance by design); ``n_rising``: those where ``v_q + v_omega``
    rises.  Counts are held as floats, exact below 2**53.
    """

    n_samples = _stat(_S_SAMPLES)
    n_saturated = _stat(_S_SATURATED)
    max_torque = _stat(_S_MAX_TORQUE)
    max_eps = _stat(_S_MAX_EPS, _S_TRACKING)            # max |eps| tracking
    initial_angle = _stat(_S_INITIAL, _S_SAMPLES)
    final_angle = _stat(_S_FINAL, _S_SAMPLES)
    max_quat_norm_error = _stat(_S_MAX_Q_ERR, _S_SAMPLES)
    terminal_err = _stat(_S_TERMINAL, _S_IN_WINDOW)
    n_pairs = _stat(_S_PAIRS)
    n_rising = _stat(_S_RISING)

    def __init__(self, ctx: _LoopContext):
        targets = ctx.scenario.targets
        self._energies = ctx.energies
        self.terminal_start = 80.0
        levels = [1.0]
        if targets is not None:
            if targets.terminal_time_s is not None:
                self.terminal_start = targets.terminal_time_s
            if targets.settle_deg is not None and targets.settle_deg != 1.0:
                levels.append(targets.settle_deg)
        self._levels = levels
        self._betas = _S_LEVELS + 2 * len(levels)
        s = self.record = array("d", bytes(8 * _S_LEVELS))
        s[_S_SAT_LIMIT] = ctx.params.torque_limit - 1e-12
        s[_S_WINDOW_START] = self.terminal_start
        s[_S_N_LEVELS] = len(levels)
        for level in levels:
            s.extend((level, math.nan))
        s.extend([-math.inf] * len(ctx.cones))  # deepest approach

    @property
    def settled(self) -> dict:
        since = self.record[_S_LEVELS + 1:self._betas:2]
        return {level: None if math.isnan(t) else t
                for level, t in zip(self._levels, since)}

    def add(self, t: float, y: list, stage: tuple, row) -> None:
        """Count the sample of ``y`` at ``t`` from its stage quantities and,
        when logged, its row (else ``None``)."""
        s = self.record
        _, x_e, betas, eps, s_eff, _, _, _, (ux, uy, uz) = stage
        for i, beta in enumerate(betas, self._betas):
            if beta > s[i]:
                s[i] = beta
        if s_eff < 0.5:
            a = abs(eps)
            if not s[_S_TRACKING] or a > s[_S_MAX_EPS]:
                s[_S_MAX_EPS] = a
                s[_S_TRACKING] = 1.0
        m = max(abs(ux), abs(uy), abs(uz))
        first = not s[_S_SAMPLES]
        s[_S_SAMPLES] += 1.0
        if m >= s[_S_SAT_LIMIT]:
            s[_S_SATURATED] += 1.0
        if m > s[_S_MAX_TORQUE]:
            s[_S_MAX_TORQUE] = m

        if row is None:
            angle, q_err = _pointing_angle_deg(x_e), _quat_norm_error(y)
        else:  # the columns pointing_angle_deg and quat_norm_error
            angle, q_err = row[2], row[-1]
        if first:
            s[_S_INITIAL] = angle
        s[_S_FINAL] = angle
        if first or q_err > s[_S_MAX_Q_ERR]:
            s[_S_MAX_Q_ERR] = q_err
        for i in range(_S_LEVELS, self._betas, 2):
            if not s[i] > angle:
                s[i + 1] = math.nan
            elif math.isnan(s[i + 1]):
                s[i + 1] = t
        if t >= s[_S_WINDOW_START] and (not s[_S_IN_WINDOW]
                                        or angle > s[_S_TERMINAL]):
            s[_S_TERMINAL] = angle
            s[_S_IN_WINDOW] = 1.0

        if s_eff > 1e-9:
            s[_S_OPEN] = 0.0
            return
        starts = not (angle < 1.0 or t < 1.0)
        if starts or s[_S_OPEN]:
            # from the columns v_q and v_omega when logged
            v_q, v_omega = (self._energies(stage) if row is None
                            else (row[-4], row[-3]))
            v = v_q + v_omega
            if s[_S_OPEN]:
                s[_S_PAIRS] += 1.0
                if (v - s[_S_V_START]) / (t - s[_S_T_START]) > 0.0:
                    s[_S_RISING] += 1.0
            s[_S_OPEN] = starts
            s[_S_V_START] = v
            s[_S_T_START] = t

    def min_clearance_deg(self) -> list[float]:
        # acos decreases, so the deepest approach is the smallest clearance
        return [math.degrees(clamped_acos(beta))
                for beta in self.record[self._betas:]]


def run_scenario(scenario: "Scenario", force: bool = False
                 ) -> SimulationResult:
    """Validate, integrate, and summarize one scenario with its own
    simulation settings (see :meth:`Scenario.with_sim`).

    A validation report with hard failures raises :class:`ValidationFailure`
    unless ``force`` is set; the summary carries warnings and failures.  The
    summary's ``wall_clock_s`` covers the integration alone, the packing of
    the kernel's constants included but not the library's build or load.
    The log is allocated whole before the first sample, so a run whose log
    does not fit in memory raises :class:`MemoryError` before it starts.
    """
    from . import _kernel  # here, so that importing the package skips it

    sim = scenario.sim
    ctx = _LoopContext(scenario)
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
    columns = _columns(len(ctx.cones))
    width = len(columns)
    # sample k's row is row ceil(k / stride), the final sample's included
    rows = -(-n_steps // stride) + 1
    try:
        log = array("d", [0.0]) * (rows * width)
    except (OverflowError, MemoryError):  # beyond an index, or memory
        raise MemoryError(f"the log's {rows:.6g} rows of {width} values do "
                          f"not fit in memory") from None
    records = Trajectory(log, columns)
    _kernel.load()  # the library is built or loaded before the clock starts
    t0 = time.perf_counter()
    # the kernel's samples from the first, each folded into the statistics
    # and logged when due, up to one whose evaluation, row, statistics or
    # step the reference raises on; the reference takes the rest, from
    # that sample, or from the first where no kernel runs
    done, y = _kernel.run(ctx, y, stats.record, log, dt, n_steps, stride)
    for k in range(done, n_steps + 1):
        t = k * dt
        try:
            k1, stage = ctx.rhs(t, y)
        except SimulationAbort as exc:
            exc.state, exc.stage = tuple(y), 1
            raise
        row = None
        if k % stride == 0 or k == n_steps:
            row = ctx.record(t, y, stage)
            i = -(-k // stride) * width
            log[i:i + width] = array("d", row)
        stats.add(t, y, stage, row)
        if k < n_steps:
            y_next = ctx.step(k, y, dt, k1)
            _check_state((k + 1) * dt, y_next, y)
            y = y_next
    wall = time.perf_counter() - t0

    summary = summarize(scenario, stats, report, wall)
    return SimulationResult(records=records, summary=summary)


def summarize(scenario: "Scenario", stats: _RunStats, report,
              wall: float) -> dict:
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
        "controller_mode": scenario.sim.controller_mode,
        "dt": scenario.sim.dt,
        "duration_s": scenario.sim.duration,
        "disturbance_enabled": scenario.sim.disturbance_enabled,
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


# rows formatted by one ``%`` operation in the CSV text where no library
# loads (the compiled formatter fills a fixed buffer instead): 16 to 256
# rows format at about the same speed, and at 32 rows or more a process
# that formats the nine presets peaked 2.1-2.8 MB higher (glibc heap growth)
_CSV_ROWS = 16


def _csv_text(data, width: int):
    """``trajectory.csv`` rows of ``data``, a flat sequence of floats
    ``width`` to a row: every value with full double precision (17
    significant digits), one string per ``_CSV_ROWS`` rows."""
    row = ",".join(["%.17g"] * width) + "\n"
    chunk = _CSV_ROWS * width
    for i in range(0, len(data), chunk):
        part = tuple(data[i:i + chunk])
        yield row * (len(part) // width) % part


def write_trajectory_csv(records: Trajectory, path) -> None:
    """Write records as CSV with full double precision (17 significant
    digits): each value as ``'%.17g' % v`` writes it, by the compiled
    formatter where a library loads (``_kernel.csv_chunks``), else by
    ``_csv_text``, with the same bytes.  The file is not synced to disk."""
    from . import _kernel  # here, so that importing the package skips it

    data, columns = records.data, records.columns
    chunks = _kernel.csv_chunks(data, len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        if chunks is None:  # no library: the same bytes, formatted here
            chunks = (text.encode() for text in _csv_text(data, len(columns)))
        fh.writelines(chunks)


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
