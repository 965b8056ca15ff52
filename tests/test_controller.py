"""Guidance/torque law tests: descent oracles, TD behavior, validation rules."""

import math
import random
import re

import numpy as np
import pytest

from slewguard.attitude import BodyState, SpacecraftParams, UnitQuaternion
from slewguard.controller import (
    ControllerConfig,
    apf_vector,
    benchmark_apf_law,
    min_sin_theta_d,
    torque_law,
    virtual_law,
)
from slewguard.engine import ValidationFailure, _LoopContext, run_scenario
from slewguard.envelope import EnvelopeConfig, SwitchConfig
from slewguard.potential import (
    ObstacleCone,
    repulsion_grad_beta,
    total_potential,
)
from slewguard.scenario import load_preset, scenario_from_dict

from loop_fixtures import (
    Stage,
    initial_report,
    kernel,
    make_scenario,
    rk4,
    sample_states,
    slice_flow,
    state,
)
from test_scenario import valid_doc


def make_cfg(**over):
    base = dict(k1=0.3, k_p=0.5, k_omega=10.0, g=1.0, big_f=0.25, k_a=2.5,
                eta=2e-4, sigma=1e-6, td_r=20.0, td_a1=1.0, td_a2=2.0)
    base.update(over)
    return ControllerConfig(**base)


def make_params(d_m=0.1):
    return SpacecraftParams(inertia=np.diag([5.08, 5.14, 5.0]),
                            torque_limit=0.5, disturbance_bound=d_m)


def make_cone(axis, k_r=1.0, theta_0_deg=36.0, theta_1_deg=27.0):
    return ObstacleCone(axis_inertial=np.asarray(axis, dtype=float),
                        theta_f=math.radians(20.0),
                        theta_0=math.radians(theta_0_deg),
                        theta_1=math.radians(theta_1_deg),
                        k_r=k_r, r_slope=0.3)


B = np.array([0.0, 0.0, 1.0])
B_T = (0.0, 0.0, 1.0)

# An attitude, with a cone axis 25 deg and a target 90 deg off the +z
# boresight, at which the loop's frame rotation, which renormalizes q,
# differs in the last bit from rotating by the stored components: the loop
# finds a smaller start angle to the axis and a larger x_e(0).
LAST_BIT_Q = tuple(float.fromhex(v) for v in (
    "-0x1.09e9f245cb751p-1", "0x1.51ace6668bf3bp-2", "0x1.91c9e57d103bbp-1",
    "0x1.352b7166d35edp-4"))
LAST_BIT_AXIS = tuple(float.fromhex(v) for v in (
    "-0x1.c45432d3fc5bap-1", "0x1.c81e83fa5cad8p-2", "-0x1.297e3c2edc0eep-3"))
LAST_BIT_TARGET = tuple(float.fromhex(v) for v in (
    "0x1.cbe8960824be4p-2", "0x1.cae2b06c37697p-3", "0x1.bad61b8a51280p-1"))


def stage_terms(r_b, obstacles, cfg, boresight=B):
    """The shared law terms r_b x B and P1 of a stage, from vectors."""
    r_cross_b = tuple(np.cross(r_b, boresight).tolist())
    p1 = apf_vector(tuple(boresight.tolist()), r_cross_b, obstacles, cfg.k_a)
    return r_cross_b, p1


def virtual(r_b, obstacles, eps, rho, omega_v_eff, cfg):
    """virtual_law at a body-frame target direction and cone triples."""
    r_cross_b, p1 = stage_terms(r_b, obstacles, cfg)
    if not omega_v_eff > 0.0:
        p1 = (0.0, 0.0, 0.0)
    return virtual_law(r_cross_b, p1, eps, rho, omega_v_eff, cfg)


def torque(w, e2, eps, rho, boresight, r_b, obstacles, omega_s_eff,
           omega_v_eff, sd_dot, params, cfg):
    """torque_law with its stage terms formed from vectors."""
    r_cross_b, p1 = stage_terms(r_b, obstacles, cfg, boresight)
    if not omega_v_eff > 0.0:
        p1 = (0.0, 0.0, 0.0)
    w = np.asarray(w, dtype=float)
    gyro = tuple(np.cross(w, params.inertia @ w).tolist())
    x_e = 1.0 - float(np.dot(boresight, r_b))
    return torque_law(gyro, tuple(map(float, e2)),
                      tuple(map(float, sd_dot)), eps, rho, x_e, r_cross_b, p1,
                      omega_s_eff, omega_v_eff, tuple(boresight.tolist()),
                      params, cfg)


class TestMinSinThetaD:
    def test_reference_value(self):
        got = min_sin_theta_d(math.radians(50.0), math.cos(math.radians(40.0)),
                              math.cos(math.radians(30.0)))
        assert got == pytest.approx(math.sin(math.radians(10.0)), rel=1e-12)

    def test_upper_endpoint_can_bind(self):
        got = min_sin_theta_d(math.radians(120.0),
                              math.cos(math.radians(40.0)),
                              math.cos(math.radians(5.0)))
        # bounds: [80 deg, 175 deg]; sine minimum at the upper endpoint
        assert got == pytest.approx(math.sin(math.radians(175.0)), rel=1e-12)

    def test_degenerate_lower_bound_returns_zero(self):
        assert min_sin_theta_d(math.radians(30.0),
                               math.cos(math.radians(40.0)),
                               math.cos(math.radians(30.0))) == 0.0

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            min_sin_theta_d(math.radians(50.0), 0.9, 0.8)  # p0 >= p1
        with pytest.raises(ValueError):
            min_sin_theta_d(math.pi, 0.5, 0.9)

    def test_every_valid_input_gives_a_sine(self):
        # no goal-angle interval is empty: with p0 < p1 in [-1, 1] and
        # theta_df in (0, pi), every call returns a sine in [0, 1]; a grid
        # with both ends and the extreme angles, plus seeded draws
        rng = random.Random(26)
        ps = ([-1.0 + i / 10.0 for i in range(21)]
              + [rng.uniform(-1.0, 1.0) for _ in range(20)])
        thetas = ([math.nextafter(0.0, 1.0), math.nextafter(math.pi, 0.0)]
                  + [k * math.pi / 12.0 for k in range(1, 12)]
                  + [rng.uniform(0.0, math.pi) for _ in range(12)])
        for theta_df in thetas:
            for p0 in ps:
                for p1 in ps:
                    if p0 < p1:
                        assert 0.0 <= min_sin_theta_d(theta_df, p0, p1) <= 1.0


class TestVirtualLaw:
    def test_tracking_branch_hand_case(self):
        cfg = make_cfg(sigma=1e-12)
        r_b = np.array([1.0, 0.0, 0.0])
        eps, rho = 0.5, 2.0
        v = virtual(r_b, [], eps, rho, 0.0, cfg)
        # r x B = (0, -1, 0); v = -k1 rho eps (r x B) / (1 + sigma)
        want = np.array([0.0, cfg.k1 * rho * eps, 0.0])
        np.testing.assert_allclose(v, want, rtol=1e-9)

    def test_tracking_branch_decreases_error(self):
        cfg = make_cfg()
        rng = np.random.default_rng(2)
        for _ in range(50):
            r_b = rng.normal(size=3)
            r_b /= np.linalg.norm(r_b)
            x_e = 1.0 - float(np.dot(B, r_b))
            if x_e < 1e-6:
                continue
            rho = x_e / 0.5  # eps = 0.5
            v = virtual(r_b, [], 0.5, rho, 0.0, cfg)
            x_e_dot = float(np.dot(np.cross(r_b, B), v))
            assert x_e_dot <= 1e-12

    def test_avoidance_branch_descends_total_potential(self):
        # first-order finite rotation along the commanded rate must not
        # increase attraction + repulsion
        cfg = make_cfg()
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 40:
            r_b = rng.normal(size=3)
            r_b /= np.linalg.norm(r_b)
            f_b = rng.normal(size=3)
            f_b /= np.linalg.norm(f_b)
            cone = make_cone([0.0, 1.0, 0.0])  # axis field unused here
            beta = float(np.dot(B, f_b))
            if not (cone.shape.lo + 0.005 < beta < cone.shape.hi - 0.005):
                continue
            obstacles = [(cone, f_b, beta)]
            v = virtual(r_b, obstacles, 0.0, 1.0, 1.0, cfg)
            if np.linalg.norm(v) < 1e-6:
                continue
            h = 1e-6

            def potential(r, f):
                return total_potential(1.0 - float(np.dot(B, r)), cfg.k_a,
                                       [(cone, float(np.dot(B, f)))])

            # body-frame vectors evolve as x_dot = -v x x
            r2 = r_b - h * np.cross(v, r_b)
            f2 = f_b - h * np.cross(v, f_b)
            assert potential(r2, f2) <= potential(r_b, f_b) + 1e-15
            checked += 1

    def test_blend_linear_in_switch(self):
        cfg = make_cfg()
        r_b = np.array([0.6, 0.0, 0.8])
        f_b = np.array([0.0, math.sin(0.5), math.cos(0.5)])
        cone = make_cone([0.0, 1.0, 0.0])
        obstacles = [(cone, f_b, float(np.dot(B, f_b)))]
        v0 = np.asarray(virtual(r_b, obstacles, 0.3, 1.5, 0.0, cfg))
        v1 = np.asarray(virtual(r_b, obstacles, 0.3, 1.5, 1.0, cfg))
        vb = np.asarray(virtual(r_b, obstacles, 0.3, 1.5, 0.3, cfg))
        np.testing.assert_allclose(vb, 0.7 * v0 + 0.3 * v1, atol=1e-14)

    def test_alignment_singularity_is_regularized(self):
        cfg = make_cfg()
        v = virtual(B.copy(), [], 0.0, 1.0, 0.0, cfg)
        np.testing.assert_allclose(v, np.zeros(3), atol=1e-15)
        v = virtual(-B, [], 2.0 / 3.0, 3.0, 0.0, cfg)
        assert np.all(np.isfinite(v))
        np.testing.assert_allclose(v, np.zeros(3), atol=1e-12)

    def test_benchmark_is_pure_avoidance_branch(self):
        cfg = make_cfg()
        r_b = np.array([0.6, 0.0, 0.8])
        # the baseline's command, omega_v = 1, ignores eps and rho
        got = virtual(r_b, [], 0.0, 1.0, 1.0, cfg)
        want = virtual(r_b, [], 123.0, 7.0, 1.0, cfg)
        np.testing.assert_allclose(got, want, atol=1e-15)
        # the command magnitude grows as the gradient shrinks: this branch
        # cannot park at the goal, which is what the baseline demonstrates
        near = np.array([math.sin(1e-3), 0.0, math.cos(1e-3)])
        far = np.array([math.sin(0.5), 0.0, math.cos(0.5)])
        assert (np.linalg.norm(virtual(near, [], 0.0, 1.0, 1.0, cfg))
                > np.linalg.norm(virtual(far, [], 0.0, 1.0, 1.0, cfg)))


class TestApfVector:
    def sample(self, rng, cfg):
        """A random target direction and two cones, each inside its bridge."""
        r_b = rng.normal(size=3)
        r_b /= np.linalg.norm(r_b)
        obstacles = []
        while len(obstacles) < 2:
            f_b = rng.normal(size=3)
            f_b /= np.linalg.norm(f_b)
            cone = make_cone([0.0, 1.0, 0.0])  # axis field unused here
            beta = float(np.dot(B, f_b))
            if cone.shape.lo + 0.005 < beta < cone.shape.hi - 0.005:
                obstacles.append((cone, f_b, beta))
        return r_b, obstacles

    def test_matches_gradient_formula(self):
        cfg = make_cfg()
        rng = np.random.default_rng(5)
        for _ in range(30):
            r_b, obstacles = self.sample(rng, cfg)
            want = cfg.k_a * np.cross(r_b, B)
            for cone, f_b, beta in obstacles:
                want = want - repulsion_grad_beta(cone, beta) * np.cross(f_b, B)
            got = apf_vector(B_T, tuple(np.cross(r_b, B).tolist()), obstacles,
                             cfg.k_a)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_is_the_rate_of_the_total_potential(self):
        # U_dot = P1 . omega, against a central difference along a rotation
        cfg = make_cfg()
        rng = np.random.default_rng(6)
        for _ in range(20):
            r_b, obstacles = self.sample(rng, cfg)
            w = rng.normal(size=3) * 0.1
            h = 1e-6

            def potential(s):
                # body-frame vectors evolve as x_dot = -w x x
                r = r_b - s * np.cross(w, r_b)
                cones = [(c, float(np.dot(B, f - s * np.cross(w, f))))
                         for c, f, _ in obstacles]
                return total_potential(1.0 - float(np.dot(B, r)), cfg.k_a,
                                       cones)

            rate = (potential(h) - potential(-h)) / (2.0 * h)
            p1 = apf_vector(B_T, tuple(np.cross(r_b, B).tolist()), obstacles,
                            cfg.k_a)
            assert float(np.dot(p1, w)) == pytest.approx(rate, rel=1e-5,
                                                         abs=1e-9)


class TestTrackingDifferentiator:
    """The differentiator slice of the kernel, x1_dot = x2 and
    x2_dot = -r^2 a1 tanh(x1 - v) - r^2 a2 tanh(x2 / r)."""

    def test_fixed_point(self):
        sc = make_scenario(n_obstacles=2)
        commands = []
        for y in sample_states(np.random.default_rng(6), sc, 18):
            v_cmd = kernel(sc, y)[1].v_cmd
            y[8:11] = v_cmd
            y[11:14] = 0.0
            dy, stage = kernel(sc, y)
            assert stage.v_cmd == v_cmd
            assert dy[8:14].tolist() == [0.0] * 6
            commands.append(max(map(abs, v_cmd)))
        assert max(commands) > 0.01

    def test_step_response_converges(self):
        # attitude, rate and radius held, so the command is constant
        sc = make_scenario(n_obstacles=2)
        for y in sample_states(np.random.default_rng(8), sc, 3):
            cmd = np.array(kernel(sc, y)[1].v_cmd)
            f = slice_flow(sc, y, range(8, 14))
            z = np.zeros(6)
            dt = 0.005
            for k in range(800):
                z = rk4(f, z, k * dt, dt)
            np.testing.assert_allclose(z[:3], cmd, atol=1e-9)
            np.testing.assert_allclose(z[3:], np.zeros(3), atol=1e-9)

    def test_rate_estimate_tracks_command(self):
        # in the closed loop the command moves with the attitude; past the
        # start-up transient x2 tracks its central difference
        sc = load_preset("paper-single-1")
        ctx = _LoopContext(sc)
        dt = sc.sim.dt
        y, _ = ctx.initial_state()
        commands, rates = [], []
        for k in range(1000):
            k1, stage = ctx.rhs(k * dt, y)
            commands.append(Stage(*stage).v_cmd)
            rates.append(y[11:14])
            y = ctx.step(k, y, dt, k1)
        v = np.array(commands)
        fd = (v[2:] - v[:-2]) / (2.0 * dt)
        x2 = np.array(rates)[1:-1]
        peak = np.abs(fd[200:]).max()
        assert peak > 0.01
        assert np.abs(x2[200:] - fd[200:]).max() < 0.05 * peak


class TestTorqueLaw:
    def test_zero_at_equilibrium(self):
        cfg = make_cfg()
        params = make_params()
        u = torque(np.zeros(3), np.zeros(3), 0.0, 1.0, B, B.copy(), [],
                       0.0, 0.0, np.zeros(3), params, cfg)
        np.testing.assert_allclose(u, np.zeros(3), atol=1e-15)

    def test_gyroscopic_cancellation_term(self):
        cfg = make_cfg()
        params = make_params()
        w = np.array([0.05, -0.03, 0.02])
        u = torque(w, np.zeros(3), 0.0, 1.0, B, B.copy(), [],
                       0.0, 0.0, np.zeros(3), params, cfg)
        np.testing.assert_allclose(u, np.cross(w, params.inertia @ w),
                                   atol=1e-15)

    def test_exact_saturation(self):
        cfg = make_cfg()
        params = make_params()
        u = torque(np.zeros(3), np.array([5.0, -7.0, 9.0]), 0.0, 1.0,
                       B, np.array([1.0, 0.0, 0.0]), [], 0.0, 0.0,
                       np.zeros(3), params, cfg)
        assert u[0] == -params.torque_limit
        assert u[1] == params.torque_limit
        assert u[2] == -params.torque_limit

    def test_compensator_term_isolated(self):
        cfg = make_cfg()
        e2 = np.array([3e-4, -1e-4, 0.0])
        r_b = np.array([1.0, 0.0, 0.0])
        with_dm = np.asarray(torque(np.zeros(3), e2, 0.0, 1.0, B, r_b, [],
                                        0.0, 0.0, np.zeros(3),
                                        make_params(0.1), cfg))
        without = np.asarray(torque(np.zeros(3), e2, 0.0, 1.0, B, r_b, [],
                                        0.0, 0.0, np.zeros(3),
                                        make_params(0.0), cfg))
        want = -0.1 * np.tanh(e2 / cfg.eta)
        np.testing.assert_allclose(with_dm - without, want, atol=1e-15)

    def test_barrier_term_fades_with_freeze(self):
        cfg = make_cfg()
        params = make_params()
        r_b = np.array([math.sin(0.8), 0.0, math.cos(0.8)])
        eps, rho = 0.2, 2.0  # keeps the barrier torque below the clamp
        u_active = np.asarray(torque(np.zeros(3), np.zeros(3), eps, rho,
                                         B, r_b, [], 0.0, 0.0, np.zeros(3),
                                         params, cfg))
        u_frozen = np.asarray(torque(np.zeros(3), np.zeros(3), eps, rho,
                                         B, r_b, [], 1.0, 0.0, np.zeros(3),
                                         params, cfg))
        scale = cfg.g * math.tanh(eps / cfg.big_f) / rho
        want = -scale * np.cross(r_b, B)
        np.testing.assert_allclose(u_active - u_frozen, want, atol=1e-15)

    def test_benchmark_identity(self):
        cfg = make_cfg()
        params = make_params()
        rng = np.random.default_rng(31)
        for _ in range(10):
            w = rng.normal(size=3) * 0.1
            e2 = rng.normal(size=3) * 0.05
            r_b = rng.normal(size=3)
            r_b /= np.linalg.norm(r_b)
            f_b = rng.normal(size=3)
            f_b /= np.linalg.norm(f_b)
            cone = make_cone([0.0, 1.0, 0.0])
            obstacles = [(cone, f_b, float(np.dot(B, f_b)))]
            sd = rng.normal(size=3) * 0.01
            r_cross_b, p1 = stage_terms(r_b, obstacles, cfg)
            e2_t, sd_t = (tuple(v.tolist()) for v in (e2, sd))
            gyro = tuple(np.cross(w, params.inertia @ w).tolist())
            x_e = 1.0 - float(np.dot(B, r_b))
            got = benchmark_apf_law(gyro, e2_t, sd_t, x_e, r_cross_b, p1,
                                    B_T, params, cfg)
            want = torque_law(gyro, e2_t, sd_t, 0.0, 1.0, x_e, r_cross_b, p1,
                              1.0, 1.0, B_T, params, cfg)
            np.testing.assert_allclose(got, want, atol=1e-15)
            # and the same as the torque law's own potential descent term
            np.testing.assert_allclose(
                got, torque(w, e2, 0.0, 1.0, B, r_b, obstacles, 1.0, 1.0, sd,
                            params, cfg), atol=1e-15)

    def test_antipodal_nudge(self):
        cfg = make_cfg()
        params = make_params()
        u = torque(np.zeros(3), np.zeros(3), 2.0 / 3.0, 3.0, B, -B, [],
                       0.0, 0.0, np.zeros(3), params, cfg)
        # boresight is +z, so the kick lands on x (first least-aligned axis)
        assert u[0] > 0.0
        assert abs(u[0]) <= params.torque_limit
        u2 = torque(np.zeros(3), np.zeros(3), 0.5, 3.0, B,
                        np.array([1.0, 0.0, 0.0]), [], 0.0, 0.0,
                        np.zeros(3), params, cfg)
        assert u2[0] == pytest.approx(
            -cfg.g * math.tanh(0.5 / cfg.big_f) / 3.0 * np.cross(
                [1.0, 0.0, 0.0], B)[0], abs=1e-12)

    def test_compensation_bound(self):
        # worst-case power mismatch of the tanh compensator stays below the
        # classical per-axis bound 0.2785 * d_m * eta summed over three axes
        cfg = make_cfg()
        d_m, eta = 0.1, cfg.eta
        rng = np.random.default_rng(77)
        worst = -math.inf
        samples = np.concatenate([
            rng.uniform(-5.0, 5.0, size=(4000, 3)),
            rng.uniform(-5e-4, 5e-4, size=(4000, 3)),
            eta * rng.uniform(0.5, 2.5, size=(2000, 3)),
        ])
        for e2 in samples:
            d = d_m * np.sign(e2)  # worst admissible disturbance
            s = float(e2 @ d) - d_m * float(e2 @ np.tanh(e2 / eta))
            worst = max(worst, s)
        assert worst <= 3.0 * 0.2785 * d_m * eta * (1.0 + 1e-6)
        assert worst <= 0.8355 * d_m * eta * 3.0
        assert worst > 0.0


class TestValidateConfig:
    def setup(self):
        target = np.array([-0.866, 0.5, 0.0])
        target = target / np.linalg.norm(target)
        axis = np.array([0.5145, 0.8575, 0.0])
        axis = axis / np.linalg.norm(axis)
        cfg = make_cfg()
        sep = math.acos(float(np.dot(target, axis)))
        x_edge = 1.0 - math.cos(sep - math.radians(27.0))
        cone = make_cone(axis, k_r=cfg.k_a * x_edge)
        switch = SwitchConfig(v1=cone.shape.lo,
                              p1=math.cos(math.radians(30.0)),
                              delta=0.005, m=5.0, n=2.0)
        env = EnvelopeConfig(rho_0=3.0, rho_inf=1e-3, k_rho=0.1)
        initial = BodyState(UnitQuaternion(0.0, 0.0, 0.0, 1.0), np.zeros(3))
        return cfg, env, switch, cone, target, initial

    def run_validate(self, cfg, env, switch, cones, target, initial,
                     theta_df_deg=50.0):
        sc = make_scenario(n_obstacles=0, boresight=B, target=target)
        sc.controller, sc.envelope, sc.switch = cfg, env, switch
        sc.obstacles, sc.initial = tuple(cones), initial
        sc.theta_df = math.radians(theta_df_deg)
        return initial_report(sc)

    def test_reference_setup_passes(self):
        cfg, env, switch, cone, target, initial = self.setup()
        report = self.run_validate(cfg, env, switch, [cone], target, initial)
        assert report.ok, report.describe()
        rules = {i.rule for i in report.issues if i.status == "pass"}
        assert "gain-ordering" in rules
        assert "attraction-floor" in rules
        assert "funnel-start" in rules
        assert "edge-equilibrium[0]" in rules
        assert "start-outside-cone[0]" in rules

    def test_gain_ordering_failure(self):
        cfg, env, switch, cone, target, initial = self.setup()
        bad = make_cfg(k1=0.05)
        report = self.run_validate(bad, env, switch, [cone], target, initial)
        assert not report.ok
        assert any(i.rule == "gain-ordering" for i in report.failures)

    def test_attraction_floor_failure(self):
        cfg, env, switch, cone, target, initial = self.setup()
        bad = make_cfg(k_a=0.5)
        report = self.run_validate(bad, env, switch, [cone], target, initial)
        assert any(i.rule == "attraction-floor" for i in report.failures)

    def test_attraction_floor_fails_where_the_goal_angle_reaches_zero(self):
        # theta_df 20 deg lies inside the 36 deg blend onset, so the goal
        # angle while avoiding has no positive lower bound
        cfg, env, switch, cone, target, initial = self.setup()
        report = self.run_validate(cfg, env, switch, [cone], target, initial,
                                   theta_df_deg=20.0)
        assert [i.detail for i in report.failures
                if i.rule == "attraction-floor"] == [
            "goal-angle lower bound reaches zero (theta_df=20.00 deg inside "
            "the blend band)"]

    @pytest.mark.parametrize("p1,theta_df_deg,message", [
        (None, 180.0, "theta_df must lie in (0, pi)"),
        (1.5, 50.0, "need -1 <= p0 < p1 <= 1")],
        ids=["theta-df", "p1-beyond-one"])
    def test_attraction_floor_fails_on_infeasible_bounds(
            self, p1, theta_df_deg, message):
        # min_sin_theta_d rejects the bounds, and the rule reports why
        cfg, env, switch, cone, target, initial = self.setup()
        if p1 is not None:
            # a saturation knot past beta = 1, which the loader never builds
            switch = SwitchConfig(v1=switch.v1, p1=p1, delta=switch.delta,
                                  m=switch.m, n=switch.n)
        report = self.run_validate(cfg, env, switch, [cone], target, initial,
                                   theta_df_deg=theta_df_deg)
        assert [i.detail for i in report.failures
                if i.rule == "attraction-floor"] == [message]

    def test_funnel_start_failure(self):
        cfg, env, switch, cone, target, initial = self.setup()
        tight = EnvelopeConfig(rho_0=0.9, rho_inf=1e-3, k_rho=0.1)
        report = self.run_validate(cfg, tight, switch, [cone], target, initial)
        assert any(i.rule == "funnel-start" for i in report.failures)

    def test_goal_separation_failure(self):
        cfg, env, switch, cone, target, initial = self.setup()
        near_goal = np.array([-0.8, 0.58, 0.15])
        near_goal /= np.linalg.norm(near_goal)
        close = make_cone(near_goal, k_r=1.0)
        report = self.run_validate(cfg, env, switch, [close], target, initial)
        assert any(i.rule == "goal-separation[0]" for i in report.failures)
        assert any(i.rule == "goal-clear-of-field[0]" for i in report.failures)

    @pytest.mark.parametrize("start_deg", [5.0, 15.0, 19.0, 21.0])
    def test_start_outside_cone(self, start_deg):
        # a 20 deg cone whose axis lies start_deg from the initial
        # boresight, on the side away from the goal
        cfg, env, switch, _, target, initial = self.setup()
        a = math.radians(start_deg)
        axis = [-math.sin(a) * target[0], -math.sin(a) * target[1],
                math.cos(a)]
        sep = math.acos(float(np.dot(target, axis)))
        cone = make_cone(axis, k_r=cfg.k_a * (1.0 - math.cos(
            sep - math.radians(27.0))))
        report = self.run_validate(cfg, env, switch, [cone], target, initial)
        outside = start_deg > 20.0
        assert report.ok == outside, report.describe()
        [line] = [i for i in report.issues
                  if i.rule == "start-outside-cone[0]"]
        assert line.status == ("pass" if outside else "fail")
        assert line.detail == (
            f"boresight-to-axis angle {start_deg:.3f} deg vs theta_f "
            f"20.000 deg (margin {start_deg - 20.0:+.3f} deg)")

    def test_edge_equilibrium_warning(self):
        cfg, env, switch, cone, target, initial = self.setup()
        off = make_cone(cone.axis_inertial, k_r=cone.k_r * 2.0)
        report = self.run_validate(cfg, env, switch, [off], target, initial)
        assert report.ok  # warning, not failure
        [warn] = [i for i in report.warnings
                  if i.rule == "edge-equilibrium[0]"]
        # a warning keeps the number
        assert warn.detail.endswith(f"(residual {cone.k_r:+.3g})")

    def test_edge_equilibrium_pass_states_the_tolerance(self):
        # cones whose k_r differs from the balanced value by a few ulps pass
        # with one and the same line, whatever the residual's rounding
        cfg, env, switch, cone, target, initial = self.setup()
        details = set()
        k_r = cone.k_r
        for _ in range(5):
            near = make_cone(cone.axis_inertial, k_r=k_r)
            report = self.run_validate(cfg, env, switch, [near], target,
                                       initial)
            [line] = [i for i in report.issues
                      if i.rule == "edge-equilibrium[0]"]
            assert line.status == "pass"
            details.add(line.detail)
            k_r = math.nextafter(k_r, math.inf)
        assert details == {f"k_r={cone.k_r:.6g} vs k_a*x_E={cone.k_r:.6g} "
                           f"(residual within tolerance "
                           f"{1e-9 * cone.k_r:.3g})"}

    @pytest.mark.parametrize("rule", ["start-outside-cone[0]", "funnel-start"])
    def test_start_rules_judge_the_loops_own_numbers(self, rule):
        # theta_f (or rho_0) set to the loop's own t = 0 value: the strict
        # rule must fail on it, whatever another rotation would give
        sc = make_scenario(target=LAST_BIT_TARGET, axes=[LAST_BIT_AXIS])
        sc = sc.with_sim(duration=0.01)
        q = UnitQuaternion(*LAST_BIT_Q)
        sc.initial = BodyState(q, (0.0, 0.0, 0.0))
        _, stage = kernel(sc, state(q, rho=sc.envelope.rho_0))
        if rule == "funnel-start":
            sc.envelope = EnvelopeConfig(rho_0=stage.x_e, rho_inf=1e-3,
                                         k_rho=0.1)
        else:
            c = sc.obstacles[0]
            start = math.acos(max(-1.0, min(1.0, stage.betas[0])))
            sc.obstacles = (ObstacleCone(c.axis_inertial, start, c.theta_0,
                                         c.theta_1, c.k_r, c.r_slope),)
        with pytest.raises(ValidationFailure) as info:
            run_scenario(sc)
        assert [i.rule for i in info.value.report.failures] == [rule]

    def test_cone_free_scenario_passes_with_a_wide_switch_band(self):
        # without cones the switch band is inert; a delta this wide parks it
        # below beta = -1, where the attraction floor cannot be evaluated
        doc = valid_doc()
        doc["obstacles"] = []
        doc["switching"]["delta"] = 0.6
        with pytest.warns(UserWarning, match=re.escape(
                "$.switching.theta_p1_deg: ignored, there are no obstacles")):
            sc = scenario_from_dict(doc)
        report = initial_report(sc)
        assert report.ok, report.describe()
        floor = [i for i in report.issues if i.rule == "attraction-floor"]
        assert [i.detail for i in floor] == ["no obstacles, rule vacuous"]

    def test_config_positivity(self):
        with pytest.raises(ValueError):
            make_cfg(k1=0.0)
        with pytest.raises(ValueError, match="k_a must be positive"):
            make_cfg(k_a=0.0)
        with pytest.raises(ValueError):
            make_cfg(sigma=-1e-9)
