"""Bridge, attraction, and repulsion tests with analytic and FD oracles."""

import math

import numpy as np
import pytest

from slewguard.potential import (
    BridgeShape,
    ObstacleCone,
    bridge,
    bridge_grad,
    goal_separation,
    repulsion_grad_beta,
    total_potential,
)

from loop_fixtures import SUM_ORDER_PAIRS, compensated_sum


def make_cone(theta_0_deg=60.0, theta_1_deg=25.0, k_r=0.9, r_slope=3.0):
    """Cone whose bridge is in the gentle regime (design slope is the max)."""
    return ObstacleCone(
        axis_inertial=np.array([0.0, 1.0, 0.0]),
        theta_f=math.radians(20.0),
        theta_0=math.radians(theta_0_deg),
        theta_1=math.radians(theta_1_deg),
        k_r=k_r, r_slope=r_slope)


class TestBridge:
    def setup_method(self):
        self.shape = BridgeShape(lo=0.5, hi=0.9, mid=0.7, steepness=1.5)

    def test_plateaus(self):
        assert bridge(self.shape, 0.2, 2.0) == 0.0
        assert bridge(self.shape, 0.5, 2.0) == 0.0
        assert bridge(self.shape, 0.9, 2.0) == 2.0
        assert bridge(self.shape, 0.99, 2.0) == 2.0

    def test_midpoint_is_half_scale(self):
        assert bridge(self.shape, 0.7, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_continuity_at_knots(self):
        for beta, want in ((0.5 + 1e-9, 0.0), (0.9 - 1e-9, 1.0)):
            assert bridge(self.shape, beta, 1.0) == pytest.approx(want, abs=1e-9)

    def test_monotone_nondecreasing(self):
        grid = np.linspace(0.45, 0.95, 5001)
        vals = [bridge(self.shape, float(b), 1.0) for b in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_range(self):
        grid = np.linspace(0.5, 0.9, 2001)
        vals = [bridge(self.shape, float(b), 3.0) for b in grid]
        assert min(vals) >= 0.0
        assert max(vals) <= 3.0

    def test_grad_zero_outside(self):
        assert bridge_grad(self.shape, 0.4, 1.0) == 0.0
        assert bridge_grad(self.shape, 0.95, 1.0) == 0.0

    def test_grad_matches_finite_difference(self):
        h = 1e-7
        for beta in np.linspace(0.51, 0.89, 77):
            fd = (bridge(self.shape, beta + h, 2.0)
                  - bridge(self.shape, beta - h, 2.0)) / (2.0 * h)
            got = bridge_grad(self.shape, beta, 2.0)
            assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BridgeShape(lo=0.9, hi=0.5, mid=0.7, steepness=1.0)
        with pytest.raises(ValueError):
            BridgeShape(lo=0.5, hi=0.9, mid=0.95, steepness=1.0)
        with pytest.raises(ValueError):
            BridgeShape(lo=0.5, hi=0.9, mid=0.7, steepness=0.0)

    @pytest.mark.parametrize("k", [math.inf, math.nan, -math.inf])
    def test_non_finite_steepness_rejected(self, k):
        with pytest.raises(ValueError, match="positive and finite"):
            BridgeShape(lo=0.5, hi=0.9, mid=0.7, steepness=k)


class TestObstacleCone:
    def test_shape_derivation(self):
        cone = make_cone()
        lo = math.cos(math.radians(60.0))
        hi = math.cos(math.radians(25.0))
        assert cone.shape.lo == pytest.approx(lo, abs=1e-15)
        assert cone.shape.hi == pytest.approx(hi, abs=1e-15)
        assert cone.shape.mid == pytest.approx(0.5 * (lo + hi), abs=1e-15)
        assert cone.shape.steepness == pytest.approx(
            cone.r_slope * (hi - lo) / cone.k_r, rel=1e-15)

    def test_angle_ordering_enforced(self):
        with pytest.raises(ValueError):
            make_cone(theta_0_deg=25.0, theta_1_deg=25.0)
        with pytest.raises(ValueError):
            make_cone(theta_1_deg=10.0)  # below theta_f
        # theta_0 > theta_1 >= theta_f: the plateau may start at theta_f
        assert make_cone(theta_1_deg=20.0).theta_1 == math.radians(20.0)

    def test_steepness_overflow_rejected(self):
        # r_slope * (hi - lo) / k_r overflows to inf
        with pytest.raises(ValueError, match="steepness must be positive and "
                                             "finite, got inf"):
            make_cone(k_r=1e-3, r_slope=1e308)

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            ObstacleCone(axis_inertial=np.array([0.0, 2.0, 0.0]),
                         theta_f=0.3, theta_0=0.8, theta_1=0.5,
                         k_r=1.0, r_slope=1.0)


class TestGoalSeparation:
    def test_adds_the_products_left_to_right(self):
        # the same bits on every supported Python: from 3.12 ``sum()``
        # compensates, and these pairs would tell it apart
        for target, axis in SUM_ORDER_PAIRS:
            products = [t * a for t, a in zip(target, axis)]
            left = products[0] + products[1] + products[2]
            assert goal_separation(target, axis) == math.acos(left)
            assert goal_separation(target, axis) != math.acos(
                compensated_sum(products))


class TestRepulsion:
    def test_slope_at_mid_equals_design_slope(self):
        # the analytic mid-bridge slope equals r_slope exactly
        cone = make_cone()
        assert repulsion_grad_beta(cone, cone.shape.mid) == pytest.approx(
            cone.r_slope, rel=1e-12)

    def test_mid_slope_fd_oracle(self):
        cone = make_cone()
        h = 1e-6
        fd = (bridge(cone.shape, cone.shape.mid + h, cone.k_r)
              - bridge(cone.shape, cone.shape.mid - h, cone.k_r)) / (2.0 * h)
        assert fd == pytest.approx(cone.r_slope, rel=1e-6)

    def test_gentle_regime_slope_bound(self):
        # steepness >= sqrt(3/2) keeps the mid slope the global max
        cone = make_cone()
        assert cone.shape.steepness >= math.sqrt(1.5)
        grid = np.arange(cone.shape.lo, cone.shape.hi, 1e-4)
        worst = max(repulsion_grad_beta(cone, float(b)) for b in grid)
        assert worst <= cone.r_slope + 1e-9

    def test_sharp_regime_exceeds_design_slope(self):
        # small steepness pushes the true maximum above the mid slope
        cone = make_cone(k_r=5.0)
        assert cone.shape.steepness < math.sqrt(1.5)
        grid = np.linspace(cone.shape.lo, cone.shape.hi, 20001)
        worst = max(repulsion_grad_beta(cone, float(b)) for b in grid)
        assert worst > cone.r_slope * 1.5

    def test_grad_nonnegative(self):
        cone = make_cone()
        for beta in np.linspace(-1.0, 1.0, 2001):
            assert repulsion_grad_beta(cone, float(beta)) >= 0.0

    def test_plateau_value(self):
        cone = make_cone()
        assert bridge(cone.shape, 0.95, cone.k_r) == pytest.approx(
            cone.k_r, abs=1e-15)
        assert bridge(cone.shape, 0.0, cone.k_r) == 0.0


class TestPotentials:
    def test_total_is_sum(self):
        cone_a = make_cone()
        cone_b = make_cone(theta_0_deg=50.0, theta_1_deg=30.0, k_r=0.4)
        x_e, k_a = 0.8, 2.5
        beta_a, beta_b = 0.72, 0.81
        want = (k_a * x_e + bridge(cone_a.shape, beta_a, cone_a.k_r)
                + bridge(cone_b.shape, beta_b, cone_b.k_r))
        got = total_potential(x_e, k_a, [(cone_a, beta_a), (cone_b, beta_b)])
        assert got == pytest.approx(want, rel=1e-15)

    def test_total_with_no_cones(self):
        assert total_potential(0.5, 2.0, []) == pytest.approx(1.0)
