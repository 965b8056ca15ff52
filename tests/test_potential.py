"""Bridge, attraction, and repulsion tests with analytic and FD oracles."""

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slewguard.potential import (
    BridgeShape,
    ObstacleCone,
    bridge,
    bridge_grad,
    bridge_grad_max,
    goal_separation,
    repulsion_grad_beta,
    total_potential,
)
from slewguard.scenario import PRESET_NAMES, load_preset, scenario_from_dict

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

    def test_grad_max_equals_scalar_grid_max(self):
        # gentle and sharp bridges, from nearly flat to saturated; on a few
        # of these a plain numpy maximum is off in the last bit (np.exp)
        rng = np.random.default_rng(4)
        for _ in range(200):
            lo, mid, hi = np.sort(rng.uniform(-0.9, 0.999, size=3)).tolist()
            shape = BridgeShape(lo=lo, hi=hi, mid=mid,
                                steepness=10.0 ** rng.uniform(-2.0, 2.0))
            scale = 10.0 ** rng.uniform(-2.0, 1.0)
            grid = np.linspace(lo, hi, 2001).tolist()
            want = max(bridge_grad(shape, b, scale) for b in grid)
            assert bridge_grad_max(shape, scale, 2001) == want

    def test_grad_max_of_a_grid_without_interior_points(self):
        assert bridge_grad_max(self.shape, 1.0, 2) == 0.0

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

    def test_grad_max_of_an_overflowing_slope_is_inf(self):
        # a finite steepness whose slope overflows doubles, giving inf and
        # 0 * inf = nan on the grid; the grid maximum used to raise
        shape = BridgeShape(lo=0.5, hi=0.9, mid=0.7, steepness=1e305)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bridge_grad_max(shape, 1e-3, 20001) == math.inf


GRID = 20001  # the grid validate_config measures the repulsion slope on


def scalar_grid_max(shape, scale, n=GRID):
    """:func:`bridge_grad` at every point of ``np.linspace(lo, hi, n)``:
    their maximum, or ``inf`` where any of them is not finite."""
    values = [bridge_grad(shape, b, scale)
              for b in np.linspace(shape.lo, shape.hi, n).tolist()]
    return max(values) if all(map(math.isfinite, values)) else math.inf


def corridor_cones(seed=47):
    """The cones of the corridor-sweep draws of ``seed``, from the benchmark
    inputs loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # axis normalization notes
        return [cone for doc in cases.corridor_scenario_docs(seed)
                for cone in scenario_from_dict(doc).obstacles]


@st.composite
def centered_bridges(draw):
    """A cone-shaped bridge (mid between the knots) and a scale, over the
    regimes of its slope: two mirror peaks (2 k^2 < 3), the flat single
    peak at 2 k^2 = 3, one peak, and a slope that overflows near the knots."""
    theta_1 = draw(st.floats(0.01, 2.5))
    theta_0 = draw(st.floats(theta_1 + 0.005, 3.1))
    lo, hi = math.cos(theta_0), math.cos(theta_1)
    regime = draw(st.sampled_from(("two peaks", "flat", "one peak",
                                   "overflow")))
    if regime == "two peaks":
        k = 10.0 ** draw(st.floats(-3.0, 0.088))
    elif regime == "flat":
        k = math.sqrt(1.5) * (1.0 + draw(st.floats(-1e-3, 1e-3)))
    elif regime == "one peak":
        k = 10.0 ** draw(st.floats(0.089, 6.0))
    else:
        k = 10.0 ** draw(st.floats(300.0, 307.5))
    shape = BridgeShape(lo=lo, hi=hi, mid=0.5 * (lo + hi), steepness=k)
    return shape, 10.0 ** draw(st.floats(-3.0, 1.0))


class TestGradMaxIsTheScalarGridMax:
    """bridge_grad_max evaluates a few points of a cone's grid; it must
    return what evaluating all of them returns, bit for bit."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_cones(self, name):
        for cone in load_preset(name).obstacles:
            assert (bridge_grad_max(cone.shape, cone.k_r, GRID)
                    == scalar_grid_max(cone.shape, cone.k_r))

    def test_corridor_cones(self):
        cones = corridor_cones()
        assert len(cones) > 64  # every draw has a cone, some two
        for cone in cones:
            assert (bridge_grad_max(cone.shape, cone.k_r, GRID)
                    == scalar_grid_max(cone.shape, cone.k_r))

    @pytest.mark.parametrize("theta_0, theta_1", [(1.5, 0.2), (0.8, 0.3)])
    def test_flat_peak_on_a_fine_grid(self, theta_0, theta_1):
        # at 2 k^2 = 3 the single peak is quartic, and on a fine grid the
        # rounding of bridge_grad picks the largest value among a dozen
        # points on either side of it
        lo, hi = math.cos(theta_0), math.cos(theta_1)
        shape = BridgeShape(lo=lo, hi=hi, mid=0.5 * (lo + hi),
                            steepness=math.sqrt(1.5))
        assert (bridge_grad_max(shape, 1.0, 200001)
                == scalar_grid_max(shape, 1.0, 200001))

    def test_search(self):
        reached = set()

        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=60)
        @given(centered_bridges())
        def check(case):
            shape, scale = case
            got = bridge_grad_max(shape, scale, GRID)
            assert got == scalar_grid_max(shape, scale)
            if 2.0 * shape.steepness * shape.steepness < 3.0:
                reached.add("two peaks")
            if got == math.inf:
                reached.add("inf")

        check()
        # the search met both the mirror peaks and the overflow
        assert reached == {"two peaks", "inf"}


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
