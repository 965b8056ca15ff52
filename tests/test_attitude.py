"""Oracle tests for quaternion math, the reduced-attitude error, and the
closed-loop kernel's kinematics, error-rate and rigid-body terms."""

import math

import numpy as np
import pytest

from slewguard.attitude import (
    SpacecraftParams,
    UnitQuaternion,
    pointing_error,
    rotate_to_body,
)
from slewguard.engine import SimConfig, disturbance_torque

from loop_fixtures import (
    FULL_INERTIA,
    SUM_ORDER_PAIRS,
    axis_angle,
    compensated_sum,
    hamilton,
    kernel,
    make_scenario,
    oracle_scenarios,
    quat_conj,
    rk4,
    sample_states,
    slice_flow,
    state,
)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return UnitQuaternion(*(q / np.linalg.norm(q)))


def components(q):
    return np.array([q.x, q.y, q.z, q.w])


class TestUnitQuaternion:
    def test_constructor_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 1.1)

    def test_constructor_renormalizes_drift(self):
        eps = 1e-8
        q = UnitQuaternion(0.0, 0.0, 0.0, 1.0 + eps)
        assert abs(np.linalg.norm(components(q)) - 1.0) < 1e-15

    def test_basis_products(self):
        # i (x) j = k in scalar-last layout, through the kernel's q_dot =
        # 0.5 q (x) [w, 0] with q = i and w = 2 j
        y = state(UnitQuaternion(1.0, 0.0, 0.0, 0.0), [0.0, 2.0, 0.0])
        dy, _ = kernel(make_scenario(), y)
        assert dy[0:4].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_conjugate_inverts_rotation(self):
        rng = np.random.default_rng(7)
        q = random_unit_quat(rng)
        conj = UnitQuaternion(-q.x, -q.y, -q.z, q.w)
        v = rng.normal(size=3)
        back = rotate_to_body(conj, rotate_to_body(q, v))
        np.testing.assert_allclose(back, v, atol=1e-12)

    def test_rotate_axis_angle(self):
        # a body turned a quarter turn about +z sees inertial +y along its +x
        q = UnitQuaternion(*axis_angle([0.0, 0.0, 1.0], math.pi / 2))
        got = rotate_to_body(q, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-15)


class TestRotateToBody:
    def test_identity_leaves_vector(self):
        v = np.array([0.3, -0.4, 0.866025403784439])
        v = v / np.linalg.norm(v)
        got = rotate_to_body(UnitQuaternion(0.0, 0.0, 0.0, 1.0), v)
        np.testing.assert_allclose(got, v, atol=1e-15)

    def test_half_turn_about_z(self):
        q = UnitQuaternion(*axis_angle([0.0, 0.0, 1.0], math.pi))
        got = rotate_to_body(q, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(got, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_bruteforce_sandwich(self):
        # Brute-force conjugate sandwich q* [v,0] q with the independent
        # Hamilton oracle; also norm and inner-product preservation.
        rng = np.random.default_rng(23)
        for _ in range(50):
            q = random_unit_quat(rng)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            qa = components(q)
            want = hamilton(hamilton(quat_conj(qa), [v[0], v[1], v[2], 0.0]), qa)
            got = rotate_to_body(q, v)
            np.testing.assert_allclose(got, want[:3], atol=1e-13)
            assert abs(want[3]) < 1e-13
            assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)
            got_u = rotate_to_body(q, u)
            assert float(np.dot(got, got_u)) == pytest.approx(float(np.dot(v, u)),
                                                              abs=1e-12)


class TestPointingError:
    def test_aligned_perpendicular_opposite(self):
        b = np.array([0.0, 0.0, 1.0])
        assert pointing_error(b, b) == pytest.approx(0.0, abs=1e-15)
        assert pointing_error(b, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert pointing_error(b, -b) == pytest.approx(2.0)

    def test_rejects_non_unit(self):
        b = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            pointing_error(b, np.array([0.0, 0.0, 2.0]))

    def test_adds_the_products_left_to_right(self):
        # the same bits on every supported Python: from 3.12 ``sum()``
        # compensates, and these pairs would tell it apart
        for b, r in SUM_ORDER_PAIRS:
            products = [x * y for x, y in zip(b, r)]
            left = products[0] + products[1] + products[2]
            assert pointing_error(b, r) == 1.0 - left
            assert pointing_error(b, r) != 1.0 - compensated_sum(products)


class TestReducedErrorRate:
    """The error rate as the kernel's funnel uses it: with omega_s = 1 the
    radius follows the error, rho_dot = (x_e_dot / x_e) * rho."""

    @staticmethod
    def hand_case(omega):
        # boresight +z, target +x, a cone 20 deg off +z freezes the funnel
        sc = make_scenario(target=[1.0, 0.0, 0.0], axes=[np.array(
            [math.sin(math.radians(20.0)), 0.0, math.cos(math.radians(20.0))])])
        y = state(UnitQuaternion(0.0, 0.0, 0.0, 1.0), omega, rho=2.0)
        dy, stage = kernel(sc, y)
        assert stage.s_eff == 1.0
        return dy[7] * stage.x_e / y[7]

    def test_zero_rate(self):
        assert self.hand_case([0.0, 0.0, 0.0]) == 0.0

    def test_hand_case(self):
        # spin about +y tips the boresight toward +x: x_e falls at |omega|
        assert self.hand_case([0.0, 0.2, 0.0]) == pytest.approx(-0.2,
                                                                abs=1e-15)

    def test_finite_difference_oracle(self):
        # central difference of x_e along the kernel's own q_dot
        h = 1e-5
        n_frozen = 0
        for sc in oracle_scenarios():
            b = sc.boresight_body
            for y in sample_states(np.random.default_rng(42), sc, 27):
                dy, stage = kernel(sc, y)
                if stage.s_eff != 1.0:
                    continue
                n_frozen += 1

                def x_e(s):
                    q = y[0:4] + s * dy[0:4]
                    q = UnitQuaternion(*(q / np.linalg.norm(q)))
                    return pointing_error(
                        b, rotate_to_body(q, sc.target_inertial))

                fd = (x_e(h) - x_e(-h)) / (2.0 * h)
                assert dy[7] * stage.x_e / y[7] == pytest.approx(fd, abs=1e-9)
        assert n_frozen >= 40


class TestKinematicsRhs:
    def test_identity_spin_about_z(self):
        y = state(UnitQuaternion(0.0, 0.0, 0.0, 1.0), [0.0, 0.0, 0.4])
        dy, _ = kernel(make_scenario(), y)
        np.testing.assert_allclose(dy[0:4], [0.0, 0.0, 0.2, 0.0], atol=1e-15)

    def test_matches_hamilton_oracle(self):
        for sc in oracle_scenarios():
            for y in sample_states(np.random.default_rng(5), sc, 18):
                dy, _ = kernel(sc, y)
                want = 0.5 * hamilton(y[0:4], [*y[4:7], 0.0])
                np.testing.assert_allclose(dy[0:4], want, rtol=1e-13,
                                           atol=1e-16)

    def test_closed_form_propagation(self):
        # Constant body rate: q(t) = q0 (x) axis_angle(w_hat, |w| t).
        w = np.array([0.3, -0.2, 0.4])
        wn = np.linalg.norm(w)
        q0 = np.array([0.2, -0.1, 0.3, 0.9])
        q0 /= np.linalg.norm(q0)
        t_end, dt = 1.0, 0.01
        f = slice_flow(make_scenario(), state(UnitQuaternion(*q0), w),
                       range(4))
        y = q0
        t = 0.0
        while t < t_end - 1e-12:
            y = rk4(f, y, t, dt)
            y = y / np.linalg.norm(y)
            t += dt
        want = hamilton(q0, axis_angle(w, wn * t_end))
        np.testing.assert_allclose(y, want, atol=1e-9)


class TestDynamics:
    """The kernel's omega_dot against the Euler equations
    J w_dot = -w x (J w) + u + d, with u the stage torque."""

    @staticmethod
    def torques(sc, sim, t, y):
        dy, stage = kernel(sc, y, t, sim)
        d = disturbance_torque(t) if sim.disturbance_enabled else 0.0
        return dy, np.asarray(stage.u) + d

    def test_principal_axis_spin_is_torque_free_equilibrium(self):
        sc = make_scenario()
        # an actuator limit of 1e-300 N m and no disturbance: torque free
        sc.params = SpacecraftParams(
            inertia=sc.params.inertia, torque_limit=1e-300,
            disturbance_bound=0.1)
        sim = SimConfig(disturbance_enabled=False)
        for w in ([0.3, 0.0, 0.0], [0.0, -0.2, 0.0], [0.0, 0.0, 0.4]):
            y = state(UnitQuaternion(0.0, 0.0, 0.0, 1.0), w)
            dy, _ = kernel(sc, y, 0.0, sim)
            np.testing.assert_allclose(dy[4:7], np.zeros(3), atol=1e-15)

    def test_matches_direct_formula(self):
        for sc in oracle_scenarios():
            rng = np.random.default_rng(3)
            j = sc.params.inertia
            for mode in ("proposed", "benchmark_apf"):
                sim = SimConfig(controller_mode=mode)
                for y in sample_states(rng, sc, 18):
                    t = rng.uniform(0.0, 100.0)
                    dy, torque = self.torques(sc, sim, t, y)
                    w = y[4:7]
                    want = np.linalg.solve(j, -np.cross(w, j @ w) + torque)
                    np.testing.assert_allclose(dy[4:7], want, rtol=1e-12,
                                               atol=1e-15)

    def test_energy_and_momentum_conservation(self):
        # energy and momentum balances, which are conservation when
        # u + d = 0: d(w.Jw/2)/dt = w.(u + d), d(|Jw|^2/2)/dt = Jw.(u + d),
        # and the inertial momentum q (x) Jw (x) q* changes at q (x) (u + d)
        # (x) q*.  The gyroscopic term is orthogonal to w and Jw, so only the
        # last balance also pins its sign.
        sim = SimConfig()
        for sc in oracle_scenarios():
            j = sc.params.inertia
            for y in sample_states(np.random.default_rng(7), sc, 18):
                dy, torque = self.torques(sc, sim, 4.0, y)
                q, w, q_dot = y[0:4], y[4:7], dy[0:4]
                jw, jw_dot = j @ w, j @ dy[4:7]
                assert w @ jw_dot == pytest.approx(w @ torque, abs=1e-14)
                assert jw @ jw_dot == pytest.approx(jw @ torque, abs=1e-13)

                def sandwich(a, v, c):
                    return hamilton(hamilton(a, [*v, 0.0]), quat_conj(c))[:3]

                h_dot = (sandwich(q_dot, jw, q) + sandwich(q, jw, q_dot)
                         + sandwich(q, jw_dot, q))
                np.testing.assert_allclose(h_dot, sandwich(q, torque, q),
                                           rtol=1e-12, atol=1e-14)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SpacecraftParams(inertia=np.array([[5.0, 0.1, 0.0],
                                               [0.0, 5.0, 0.0],
                                               [0.0, 0.0, 5.0]]),
                             torque_limit=0.5, disturbance_bound=0.1)
        with pytest.raises(ValueError):
            SpacecraftParams(inertia=np.diag([5.0, -1.0, 5.0]),
                             torque_limit=0.5, disturbance_bound=0.1)
        with pytest.raises(ValueError):
            SpacecraftParams(inertia=np.diag([5.0, 5.0, 5.0]),
                             torque_limit=0.0, disturbance_bound=0.1)
        # symmetric with a positive diagonal, but indefinite
        with pytest.raises(ValueError, match="positive definite"):
            SpacecraftParams(inertia=np.array([[1.0, 2.0, 0.0],
                                               [2.0, 1.0, 0.0],
                                               [0.0, 0.0, 1.0]]),
                             torque_limit=0.5, disturbance_bound=0.1)

    def test_inverse_rows(self):
        # a diagonal inertia inverts exactly, entry by entry
        d = (5.08, 5.14, 5.0)
        inv = SpacecraftParams(inertia=np.diag(d), torque_limit=0.5,
                               disturbance_bound=0.1).inertia_inv_rows
        assert inv == ((1.0 / d[0], 0.0, 0.0), (0.0, 1.0 / d[1], 0.0),
                       (0.0, 0.0, 1.0 / d[2]))
        inv = SpacecraftParams(inertia=FULL_INERTIA, torque_limit=0.5,
                               disturbance_bound=0.1).inertia_inv_rows
        assert np.allclose(FULL_INERTIA @ np.array(inv), np.eye(3),
                           rtol=0.0, atol=1e-15)
