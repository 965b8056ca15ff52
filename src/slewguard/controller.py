"""Backstepping guidance and torque laws with avoidance blending.

The cascade has two loops.  The outer loop picks a commanded body rate
(virtual law) that either shrinks the funnel-normalized pointing error
(tracking branch) or descends the artificial potential (avoidance branch);
the blend weight ``omega_v`` comes from :mod:`slewguard.envelope`.  A
tracking differentiator smooths the commanded rate and provides its
derivative for the feedforward term; its state and dynamics are part of the
coupled state in :mod:`slewguard.engine`.  The inner loop is a saturated
torque law over the rate error ``e2 = omega - v`` with gyroscopic
cancellation and a tanh disturbance compensator.

The closed loop calls both laws in every integrator stage, so they take
the terms they share as float triples and scalars that the stage computes
once (see :mod:`slewguard.engine`): the error-rate direction ``r_b x B_b``,
the potential descent direction P1 from :func:`apf_vector`, the pointing
error ``x_e`` and the gyroscopic term ``omega x J omega``, which the
rigid-body derivative uses too.  P1 is needed only while ``omega_v > 0``;
otherwise the caller passes zeros.  The laws return float triples.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from ._value import Frozen
from .attitude import SpacecraftParams
from .potential import (
    ObstacleCone,
    balanced_k_r,
    goal_separation,
    repulsion_grad_beta,
)

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

__all__ = [
    "ControllerConfig",
    "ValidationIssue",
    "ValidationReport",
    "min_sin_theta_d",
    "apf_vector",
    "virtual_law",
    "torque_law",
    "benchmark_apf_law",
    "validate_config",
]

# Pointing errors beyond this are treated as the antipodal equilibrium and
# kicked with a fixed torque so the slew cannot stall exactly upside down.
ANTIPODAL_THRESHOLD = 2.0 - 1e-6
ANTIPODAL_NUDGE_FRACTION = 0.1

_tanh = math.tanh


class ControllerConfig(Frozen):
    """Gains of the guidance cascade.

    k1       tracking-branch rate gain [1/s], must dominate the funnel
             shrink rate
    k_p      avoidance-branch potential descent rate [1/s]
    k_omega  rate-loop proportional gain [N m s/rad]
    g, big_f barrier weight and softness of the funnel term
    k_a      attractive potential gain
    eta      width of the tanh disturbance compensator [rad/s]
    sigma    regularization added to squared norms in the direction inverses
    td_r     tracking differentiator speed [1/s]
    td_a1    differentiator position-term coefficient
    td_a2    differentiator damping-term coefficient
    """

    _fields = ("k1", "k_p", "k_omega", "g", "big_f", "k_a", "eta", "sigma",
               "td_r", "td_a1", "td_a2")

    def __init__(self, k1: float, k_p: float, k_omega: float, g: float,
                 big_f: float, k_a: float, eta: float, sigma: float,
                 td_r: float, td_a1: float = 1.0, td_a2: float = 2.0):
        gains = dict(k1=k1, k_p=k_p, k_omega=k_omega, g=g, big_f=big_f,
                     k_a=k_a, eta=eta, sigma=sigma, td_r=td_r, td_a1=td_a1,
                     td_a2=td_a2)
        for name, value in gains.items():
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
        self._set(**gains)


def min_sin_theta_d(theta_df: float, p0: float, p1: float) -> float:
    """Smallest sine of the goal angle while the avoidance blend is active.

    While ``omega_v > 0`` the boresight sits within ``arccos(p0)`` of some
    cone axis, so with every axis at least ``theta_df`` from the goal the
    goal angle is confined to ``[theta_df - arccos(p0), pi - arccos(p1)]``.
    The sine is concave there, so the minimum is at an endpoint.  A lower
    bound that reaches zero or below means the geometry cannot keep the
    attraction direction well defined and 0.0 is returned.
    """
    if not (-1.0 <= p0 < p1 <= 1.0):
        raise ValueError("need -1 <= p0 < p1 <= 1")
    if theta_df <= 0.0 or theta_df >= math.pi:
        raise ValueError("theta_df must lie in (0, pi)")
    lo = theta_df - math.acos(p0)
    hi = math.pi - math.acos(p1)
    if lo > hi:
        raise ValueError("geometrically infeasible goal-angle bounds")
    if lo <= 0.0:
        return 0.0
    return min(math.sin(lo), math.sin(hi))


def apf_vector(boresight_body: tuple[float, float, float],
               r_cross_b: tuple[float, float, float],
               obstacles: Iterable[tuple[ObstacleCone, tuple, float]],
               k_a: float) -> tuple[float, float, float]:
    """Potential gradient direction P1 with U_dot = dot(P1, omega).

    P1 = k_a * (r_b x B_b) - sum_i dU_i/dbeta * (f_bi x B_b), from the
    boresight ``B_b``, the error-rate direction ``r_b x B_b`` and
    ``(cone, f_bi, beta_i)`` triples with the cone axes in body axes.
    """
    bx, by, bz = boresight_body
    tx, ty, tz = r_cross_b
    px = k_a * tx
    py = k_a * ty
    pz = k_a * tz
    for cone, (fx, fy, fz), beta in obstacles:
        grad = repulsion_grad_beta(cone, beta)
        if grad == 0.0:
            continue
        px -= grad * (fy * bz - fz * by)
        py -= grad * (fz * bx - fx * bz)
        pz -= grad * (fx * by - fy * bx)
    return px, py, pz


def virtual_law(r_cross_b: tuple[float, float, float],
                p1: tuple[float, float, float],
                eps: float, rho: float, omega_v_eff: float,
                cfg: ControllerConfig) -> tuple[float, float, float]:
    """Commanded body rate blending the tracking and avoidance branches.

    The tracking branch inverts the error-rate direction ``r_b x B_b`` to
    drive the funnel error down at rate ``k1``; the avoidance branch descends
    the total potential along ``-P1``.  Both inverses are regularized by
    ``sigma`` so the command stays finite through alignment singularities.

    With ``omega_v_eff = 1`` this is the avoidance branch alone, the command
    of the potential-field-only baseline.  Its magnitude grows like
    ``k_p / |P1|`` as the field gradient vanishes near the goal, so the rate
    loop cannot track it there and the baseline hunts around the target
    instead of parking; the switched controller avoids that by fading the
    branch out away from the cones.
    """
    tx, ty, tz = r_cross_b
    px, py, pz = p1
    track_scale = 0.0
    if omega_v_eff < 1.0:
        track_scale = (-cfg.k1 * rho * eps * (1.0 - omega_v_eff)
                       / (tx * tx + ty * ty + tz * tz + cfg.sigma))
    avoid_scale = 0.0
    if omega_v_eff > 0.0:
        avoid_scale = (-cfg.k_p * omega_v_eff
                       / (px * px + py * py + pz * pz + cfg.sigma))
    return (tx * track_scale + px * avoid_scale,
            ty * track_scale + py * avoid_scale,
            tz * track_scale + pz * avoid_scale)


def torque_law(gyro: tuple[float, float, float],
               e2: tuple[float, float, float],
               sd_dot: tuple[float, float, float],
               eps: float, rho: float, x_e: float,
               r_cross_b: tuple[float, float, float],
               p1: tuple[float, float, float],
               omega_s_eff: float, omega_v_eff: float,
               boresight_body: tuple[float, float, float],
               params: SpacecraftParams,
               cfg: ControllerConfig) -> tuple[float, float, float]:
    """Saturated control torque of the inner rate loop.

    Combines gyroscopic cancellation, proportional rate-error feedback, a
    tanh disturbance compensator sized by ``params.disturbance_bound``,
    differentiator feedforward, the funnel barrier reaction (faded out by
    ``omega_s``), and the potential descent direction (faded in by
    ``omega_v``).  Each component is clamped to the actuator limit.
    ``gyro`` is ``omega x J omega``, ``sd_dot`` the differentiator's command
    rate and ``x_e`` the pointing error, which picks out the antipodal case.
    """
    tx, ty, tz = r_cross_b
    px, py, pz = p1
    gx, gy, gz = gyro
    sx, sy, sz = sd_dot
    ex, ey, ez = e2
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = params.inertia
    d_m = params.disturbance_bound
    k_w = cfg.k_omega
    eta = cfg.eta

    # barrier reaction along r_b x B_b, active only while tracking
    barrier = 0.0
    if omega_s_eff < 1.0:
        barrier = (cfg.g * _tanh(eps / cfg.big_f) / rho) * (1.0 - omega_s_eff)

    # gyroscopic term, feedback, compensator, feedforward J*sd_dot, barrier
    # and potential descent, summed in that order per axis
    ux = (gx - k_w * ex - d_m * _tanh(ex / eta)
          + (j00 * sx + j01 * sy + j02 * sz) - barrier * tx - omega_v_eff * px)
    uy = (gy - k_w * ey - d_m * _tanh(ey / eta)
          + (j10 * sx + j11 * sy + j12 * sz) - barrier * ty - omega_v_eff * py)
    uz = (gz - k_w * ez - d_m * _tanh(ez / eta)
          + (j20 * sx + j21 * sy + j22 * sz) - barrier * tz - omega_v_eff * pz)

    limit = params.torque_limit
    if x_e > ANTIPODAL_THRESHOLD:
        # kick off the antipodal equilibrium along the axis most orthogonal
        # to the boresight, deterministically
        bx, by, bz = boresight_body
        mags = (abs(bx), abs(by), abs(bz))
        u = [ux, uy, uz]
        u[mags.index(min(mags))] += ANTIPODAL_NUDGE_FRACTION * limit
        ux, uy, uz = u

    # clamp each component to the actuator limit; NaN passes through
    return (limit if ux > limit else -limit if ux < -limit else ux,
            limit if uy > limit else -limit if uy < -limit else uy,
            limit if uz > limit else -limit if uz < -limit else uz)


def benchmark_apf_law(gyro: tuple[float, float, float],
                      e2: tuple[float, float, float],
                      sd_dot: tuple[float, float, float], x_e: float,
                      r_cross_b: tuple[float, float, float],
                      p1: tuple[float, float, float],
                      boresight_body: tuple[float, float, float],
                      params: SpacecraftParams,
                      cfg: ControllerConfig) -> tuple[float, float, float]:
    """Torque of the potential-field-only baseline.

    Identical backstepping structure with the funnel machinery disabled:
    the virtual command is the avoidance branch alone and the barrier
    reaction is absent, which is the switch configuration omega_s = 1,
    omega_v = 1 held for all time.
    """
    return torque_law(gyro, e2, sd_dot, 0.0, 1.0, x_e, r_cross_b, p1, 1.0,
                      1.0, boresight_body, params, cfg)


class ValidationIssue(Frozen):
    """One rule's outcome: ``status`` is "pass", "warn" or "fail"."""

    _fields = ("rule", "status", "detail")

    def __init__(self, rule: str, status: str, detail: str):
        self._set(rule=rule, status=status, detail=detail)


class ValidationReport(Frozen):
    """Every rule's outcome for one scenario, in the order checked."""

    _fields = ("issues",)

    def __init__(self, issues: tuple[ValidationIssue, ...]):
        self._set(issues=issues)

    @property
    def failures(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.status == "fail")

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.status == "warn")

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        return "\n".join(f"[{i.status}] {i.rule}: {i.detail}" for i in self.issues)


def validate_config(scenario: "Scenario", x_e0: float,
                    betas0: Sequence[float]) -> ValidationReport:
    """Check the parameter selection rules against a concrete scenario.

    ``x_e0`` and ``betas0`` are the pointing error and the cone cosines at
    t = 0 as the closed loop evaluates them (``engine._LoopContext``'s
    ``initial_state``), so the start rules judge the numbers the run moves.
    Hard failures break convergence or safety arguments; warnings flag
    departures from the nominal design recipe that the simulation may still
    tolerate.  Every rule is reported so the result doubles as a record of
    the margins.
    """
    cfg = scenario.controller
    envelope = scenario.envelope
    switch = scenario.switch
    obstacles = scenario.obstacles
    target_inertial = scenario.target_inertial
    theta_df = scenario.theta_df
    issues: list[ValidationIssue] = []

    def add(rule, ok, detail, warn_only=False):
        status = "pass" if ok else ("warn" if warn_only else "fail")
        issues.append(ValidationIssue(rule, status, detail))

    # funnel shrink must be slower than the tracking branch can contract
    add("gain-ordering", cfg.k1 > envelope.k_rho,
        f"k1={cfg.k1:g} vs k_rho={envelope.k_rho:g} (need k1 > k_rho)")

    # attraction must dominate the repulsion slope over the reachable
    # goal-angle range while avoidance is active; the slope is taken as
    # r_slope, the bridge's midpoint slope, which its peak exceeds in the
    # sharp regime; without cones the switch band is inert and may sit
    # anywhere, so it is not evaluated
    if not obstacles:
        add("attraction-floor", True, "no obstacles, rule vacuous")
    else:
        try:
            ms = min_sin_theta_d(theta_df, switch.p0, switch.p1)
        except ValueError as exc:
            add("attraction-floor", False, str(exc))
        else:
            if ms <= 0.0:
                add("attraction-floor", False,
                    f"goal-angle lower bound reaches zero (theta_df="
                    f"{math.degrees(theta_df):.2f} deg inside the blend band)")
            else:
                need = max(c.r_slope for c in obstacles) / ms
                add("attraction-floor", cfg.k_a >= need - 1e-12,
                    f"k_a={cfg.k_a:g} vs r_slope_max/min_sin={need:.6g} "
                    f"(min_sin={ms:.6g})")

    # funnel must start strictly above the initial error
    add("funnel-start", envelope.rho_0 > x_e0,
        f"rho_0={envelope.rho_0:g} vs x_e(0)={x_e0:.6g} (need strict >)")

    for i, (cone, beta0) in enumerate(zip(obstacles, betas0)):
        # the keep-out guarantee keeps the boresight out, not gets it out
        start = math.acos(max(-1.0, min(1.0, beta0)))
        add(f"start-outside-cone[{i}]", start > cone.theta_f,
            f"boresight-to-axis angle {math.degrees(start):.3f} deg vs "
            f"theta_f {math.degrees(cone.theta_f):.3f} deg (margin "
            f"{math.degrees(start - cone.theta_f):+.3f} deg)")

        sep = goal_separation(target_inertial, cone.axis_inertial)
        add(f"goal-separation[{i}]", sep >= theta_df - 1e-12,
            f"goal-to-axis angle {math.degrees(sep):.3f} deg vs declared "
            f"minimum {math.degrees(theta_df):.3f} deg")
        clear = math.acos(max(-1.0, min(1.0, switch.v0)))
        add(f"goal-clear-of-field[{i}]", sep > clear,
            f"goal-to-axis angle {math.degrees(sep):.3f} deg vs switching "
            f"onset {math.degrees(clear):.3f} deg (field must vanish at goal)")

        # nominal recipe: plateau height balances attraction at the buffer
        # edge of the goal-facing side; a pass states the tolerance, not a
        # residual at rounding level that a last-bit change would rewrite
        balanced = balanced_k_r(cfg.k_a, sep, cone.theta_1)
        residual = cone.k_r - balanced
        tol = 1e-9 * max(1.0, cone.k_r)
        ok = abs(residual) <= tol
        add(f"edge-equilibrium[{i}]", ok,
            f"k_r={cone.k_r:.6g} vs k_a*x_E={balanced:.6g} "
            + (f"(residual within tolerance {tol:.3g})" if ok
               else f"(residual {residual:+.3g})"), warn_only=True)

    return ValidationReport(tuple(issues))
