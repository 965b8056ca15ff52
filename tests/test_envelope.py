"""Funnel and switching tests with analytic oracles, run against the
kernel's funnel radius rate and effective switches."""

import math

import numpy as np
import pytest

from slewguard.attitude import UnitQuaternion
from slewguard.engine import SimulationAbort
from slewguard.envelope import EnvelopeConfig, SwitchConfig, blf_value
from slewguard.potential import bridge

from loop_fixtures import (
    TARGET,
    axis_angle,
    kernel,
    make_scenario,
    quat_taking,
    rk4,
    sample_states,
    slice_flow,
    state,
    to_body,
)


def make_switch(v1=0.8, p1=0.9, delta=0.005, m=5.0, n=2.0):
    return SwitchConfig(v1=v1, p1=p1, delta=delta, m=m, n=n)


class TestSwitchConfig:
    def test_derived_layout(self):
        cfg = make_switch()
        assert cfg.v1 == pytest.approx(0.8, abs=1e-15)
        assert cfg.v0 == pytest.approx(0.8 - 0.01, abs=1e-15)
        assert cfg.vm == pytest.approx(0.8 - 0.005, abs=1e-15)
        assert cfg.p0 == cfg.v1
        assert cfg.p1 == pytest.approx(0.9, abs=1e-15)
        assert cfg.pm == pytest.approx(0.85, abs=1e-15)

    @pytest.mark.parametrize("bad", [
        {"p1": 0.8}, {"p1": 0.7}, {"m": 0.0}, {"n": -1.0}, {"delta": 0.0}])
    def test_settings_are_checked(self, bad):
        with pytest.raises(ValueError):
            make_switch(**bad)


def pointing_with_cosines(a1, a2, c1, c2):
    """A unit direction whose cosines to the unit axes a1, a2 are c1, c2."""
    a1, a2 = np.asarray(a1), np.asarray(a2)
    c12 = float(np.dot(a1, a2))
    alpha = (c1 - c2 * c12) / (1.0 - c12 * c12)
    beta = (c2 - c1 * c12) / (1.0 - c12 * c12)
    d = alpha * a1 + beta * a2
    normal = np.cross(a1, a2)
    return d + math.sqrt(1.0 - d @ d) / np.linalg.norm(normal) * normal


class TestSwitches:
    """The two switches are bridges over SwitchConfig.s_shape and v_shape;
    the kernel's stage takes the largest value over the cones."""

    def test_omega_s_endpoints_and_mid(self):
        cfg = make_switch()
        assert bridge(cfg.s_shape, cfg.v0 - 0.01) == 0.0
        assert bridge(cfg.s_shape, cfg.v0) == 0.0
        assert bridge(cfg.s_shape, cfg.vm) == pytest.approx(0.5, abs=1e-15)
        assert bridge(cfg.s_shape, cfg.v1) == 1.0
        assert bridge(cfg.s_shape, cfg.v1 + 0.05) == 1.0

    def test_omega_v_endpoints_and_mid(self):
        cfg = make_switch()
        assert bridge(cfg.v_shape, cfg.p0) == 0.0
        assert bridge(cfg.v_shape, cfg.pm) == pytest.approx(0.5, abs=1e-15)
        assert bridge(cfg.v_shape, cfg.p1) == 1.0

    def test_freeze_completes_where_blend_starts(self):
        cfg = make_switch()
        beta = cfg.v1
        assert bridge(cfg.s_shape, beta) == 1.0
        assert bridge(cfg.v_shape, beta) == 0.0

    def test_monotone(self):
        cfg = make_switch()
        grid = np.linspace(cfg.v0 - 0.01, cfg.p1 + 0.01, 4001)
        s_vals = [bridge(cfg.s_shape, float(b)) for b in grid]
        v_vals = [bridge(cfg.v_shape, float(b)) for b in grid]
        assert all(b >= a - 1e-15 for a, b in zip(s_vals, s_vals[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(v_vals, v_vals[1:]))

    def test_effective_switches_takes_worst(self):
        sc = make_scenario(n_obstacles=2)
        a1, a2 = (c.axis_inertial for c in sc.obstacles)
        cfg = sc.switch
        below = cfg.v0 - 0.01
        cases = [((cfg.vm, below), (0.5, 0.0)), ((below, cfg.vm), (0.5, 0.0)),
                 ((cfg.pm, cfg.vm), (1.0, 0.5)), ((cfg.vm, cfg.pm), (1.0, 0.5)),
                 ((below, below - 0.1), (0.0, 0.0))]
        for cosines, (s_want, v_want) in cases:
            d = pointing_with_cosines(a1, a2, *cosines)
            y = state(quat_taking(sc.boresight_body, d), [0.01, -0.02, 0.03])
            _, _, betas, _, s_eff, v_eff, *_ = kernel(sc, y)[1]
            np.testing.assert_allclose(betas, cosines, atol=1e-12)
            assert s_eff == max([0.0] + [bridge(cfg.s_shape, b)
                                         for b in betas])
            assert v_eff == max([0.0] + [bridge(cfg.v_shape, b)
                                         for b in betas])
            assert (s_eff, v_eff) == pytest.approx((s_want, v_want),
                                                   abs=1e-9)

    def test_effective_switches_empty(self):
        sc = make_scenario(n_obstacles=0)
        stage = kernel(sc, state(UnitQuaternion(0.0, 0.0, 0.0, 1.0)))[1]
        assert (stage.betas, stage.s_eff, stage.v_eff) == ([], 0.0, 0.0)


class TestFunnel:
    """The funnel radius rate of the kernel, rho_dot = (1 - s) * shrink
    + s * follow with shrink = -k_rho (rho - rho_inf) and follow =
    (x_e_dot / x_e) rho."""

    def setup_method(self):
        # boresight +z at the identity attitude, 90 deg from the cone
        self.sc = make_scenario()
        self.y = state(UnitQuaternion(0.0, 0.0, 0.0, 1.0), [0.01, 0.02, -0.03],
                       rho=3.0)

    def shrink(self, rho):
        env = self.sc.envelope
        return -env.k_rho * (rho - env.rho_inf)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnvelopeConfig(rho_0=1e-3, rho_inf=1e-3, k_rho=0.1)
        with pytest.raises(ValueError):
            EnvelopeConfig(rho_0=3.0, rho_inf=1e-3, k_rho=0.0)

    def test_shrink_mode_value(self):
        dy, stage = kernel(self.sc, self.y)
        assert stage.s_eff == 0.0
        assert dy[7] == self.shrink(3.0)
        assert dy[7] == pytest.approx(-0.1 * (3.0 - 1e-3), rel=1e-15)

    def test_shrink_mode_analytic_trajectory(self):
        # rho(t) = rho_inf + (rho_0 - rho_inf) exp(-k t) under omega_s = 0
        f = slice_flow(self.sc, self.y, [7])
        dt = 0.05
        rho = np.array([3.0])
        for k in range(1000):
            rho = rk4(f, rho, k * dt, dt)
            t = (k + 1) * dt
            if k + 1 in (20, 200, 1000):
                want = 1e-3 + (3.0 - 1e-3) * math.exp(-0.1 * t)
                assert rho[0] == pytest.approx(want, abs=1e-10)

    def test_follow_mode_freezes_translated_error(self):
        # co-integrate attitude and radius at a fixed body rate while a
        # cone 15 deg off the boresight holds omega_s = 1
        f_body = np.array([math.sin(math.radians(15.0)), 0.0,
                           math.cos(math.radians(15.0))])
        q0 = quat_taking(f_body, self.sc.obstacles[0].axis_inertial)
        y = state(q0, [0.02, 0.03, -0.01], rho=2.0)
        f = slice_flow(self.sc, y, [0, 1, 2, 3, 7])
        z = y[[0, 1, 2, 3, 7]]
        _, stage = kernel(self.sc, y)
        x_e0, eps0 = stage.x_e, stage.eps
        dt = 0.01
        for k in range(400):
            z = rk4(f, z, k * dt, dt)
            y[[0, 1, 2, 3, 7]] = z
            _, stage = kernel(self.sc, y)
            assert stage.s_eff == 1.0
            assert abs(stage.eps - eps0) < 1e-10
        assert abs(stage.x_e - x_e0) > 0.05  # the error itself moved

    def test_blend_is_convex_combination(self):
        n_blend = 0
        for y in sample_states(np.random.default_rng(9), self.sc, 27):
            dy, stage = kernel(self.sc, y)
            r_b, x_e, s = stage.r_b, stage.x_e, stage.s_eff
            if not 0.0 < s < 1.0:
                continue
            n_blend += 1
            e_dot = -float(np.dot(self.sc.boresight_body,
                                  np.cross(r_b, y[4:7])))
            pure0 = self.shrink(y[7])
            pure1 = e_dot / x_e * y[7]
            assert dy[7] == pytest.approx((1 - s) * pure0 + s * pure1,
                                          rel=1e-12, abs=1e-15)
        assert n_blend >= 3

    def test_ratio_floor_guard(self):
        # boresight on (or 1e-6 rad off) the target, a cone near the target:
        # the follow term e_dot / e is dropped and the shrink share remains
        z = np.array([0.0, 0.0, 1.0])
        for cone_deg in (30.0, 36.5):
            # TARGET turned by +angle about z is TARGET resolved in a frame
            # turned by -angle
            axis = to_body(UnitQuaternion(*axis_angle(
                z, -math.radians(cone_deg))), TARGET)
            sc = make_scenario(axes=[axis])
            for offset in (0.0, 1e-6):
                aim = to_body(UnitQuaternion(*axis_angle(z, offset)), TARGET)
                y = state(quat_taking(sc.boresight_body, aim),
                          [0.1, -0.2, 0.05], rho=2.0)
                dy, stage = kernel(sc, y)
                x_e, s = stage.x_e, stage.s_eff
                assert abs(x_e) < 1e-9
                assert s > 0.0
                assert dy[7] == (1.0 - s) * self.shrink(2.0)

    def test_translated_error(self):
        for y in sample_states(np.random.default_rng(4), self.sc, 9):
            _, stage = kernel(self.sc, y)
            assert stage.eps == stage.x_e / y[7]
        with pytest.raises(SimulationAbort):
            kernel(self.sc, state(UnitQuaternion(0.0, 0.0, 0.0, 1.0), rho=0.0))


class TestBarrier:
    def test_zero_at_origin(self):
        assert blf_value(0.0, 1.0, 0.25) == 0.0

    def test_matches_direct_formula(self):
        for eps in (-0.9, -0.3, 0.01, 0.4, 0.999):
            want = 1.3 * 0.25 * math.log(math.cosh(eps / 0.25))
            assert blf_value(eps, 1.3, 0.25) == pytest.approx(want, rel=1e-12)

    def test_large_argument_stable(self):
        v = blf_value(500.0, 1.0, 1.0)
        assert math.isfinite(v)
        assert v == pytest.approx(500.0 - math.log(2.0), rel=1e-12)

    def test_nonnegative_and_even(self):
        rng = np.random.default_rng(5)
        for eps in rng.uniform(-3.0, 3.0, size=200):
            v = blf_value(float(eps), 1.0, 0.5)
            assert v >= 0.0
            assert v == pytest.approx(blf_value(float(-eps), 1.0, 0.5), rel=1e-12)

    def test_tanh_identity_property(self):
        # x tanh(x) - log cosh(x) >= 0, the inequality behind the barrier
        # cancellation argument
        rng = np.random.default_rng(17)
        xs = rng.uniform(0.0, 100.0, size=10000)
        for x in xs:
            lhs = float(x) * math.tanh(float(x))
            az = abs(float(x))
            lncosh = az + math.log1p(math.exp(-2.0 * az)) - math.log(2.0)
            assert lhs - lncosh >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            blf_value(0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            blf_value(0.1, 1.0, -0.5)
