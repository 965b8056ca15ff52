"""Scenarios, states and helpers shared by the closed-loop kernel tests.

Every model term (rigid body, kinematics, funnel radius, switches,
differentiator) exists once, in ``slewguard.engine._LoopContext.rhs``; the
oracle tests read it back through :func:`kernel` and :func:`slice_flow`.
Quaternion oracles here are numpy 4-vectors, scalar last.
"""

import importlib.util
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from slewguard.attitude import BodyState, SpacecraftParams, UnitQuaternion
from slewguard.controller import ControllerConfig, validate_config
from slewguard.engine import SimConfig, _LoopContext
from slewguard.envelope import EnvelopeConfig, SwitchConfig
from slewguard.potential import ObstacleCone, goal_separation
from slewguard.scenario import Scenario

CASES = Path(__file__).resolve().parent.parent / "perfbench" / "cases.py"

# symmetric, positive definite, with every product of inertia nonzero
FULL_INERTIA = np.array([[5.08, 0.12, -0.05],
                         [0.12, 5.14, 0.08],
                         [-0.05, 0.08, 5.0]])


def unit(v):
    """``v / |v|`` with the norm as a scalar sum, as the scenario loader
    forms it, so the pinned inputs do not depend on the BLAS kernel."""
    x, y, z = (float(c) for c in v)
    return np.array([x, y, z]) / math.sqrt(x * x + y * y + z * z)


Z_BORESIGHT = np.array([0.0, 0.0, 1.0])
# off every body axis, so no product in the frame arithmetic is trivial
OBLIQUE_BORESIGHT = unit([0.3, -0.2, 0.93])

TARGET = unit([-0.866, 0.5, 0.0])
CONE_AXES = (np.array([0.5145, 0.8575, 0.0]),
             np.array([-0.099, 0.990, -0.099]))


# unit-vector pairs on which a compensated sum of the three products, as
# ``sum()`` of floats forms it from Python 3.12, differs from adding them
# left to right, both in the dot product and in the kernel's x_e and
# goal_separation
SUM_ORDER_PAIRS = tuple(
    tuple(tuple(float.fromhex(x) for x in v) for v in pair) for pair in (
        (("0x1.42de00a3c7f4cp-1", "-0x1.78b3987100059p-1",
          "-0x1.f9e99caa50e23p-3"),
         ("0x1.68bb518e9f9d3p-1", "-0x1.4db9c4102bd33p-1",
          "0x1.1f5bf27eb10fap-2")),
        (("0x1.05e6c3e8d6514p-1", "0x1.05790791a56edp-3",
          "0x1.b30fc87ed791cp-1"),
         ("0x1.d53e1e39841eap-1", "0x1.86ee6c385784cp-2",
          "0x1.e9ccef842c479p-4"))))


def compensated_sum(terms):
    """Neumaier summation of floats, the algorithm of ``sum()`` from
    Python 3.12, written out so any interpreter can run it."""
    total = compensation = 0.0
    for x in terms:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def make_scenario(n_obstacles=1, inertia=None, boresight=None, target=None,
                  axes=CONE_AXES, **ctrl_over):
    """Hand-built scenario; by default a cone lies close to the slew path."""
    ctrl_kw = dict(k1=0.3, k_p=0.5, k_omega=10.0, g=1.0, big_f=0.25, k_a=2.5,
                   eta=2e-4, sigma=1e-6, td_r=20.0, td_a1=1.0, td_a2=2.0)
    ctrl_kw.update(ctrl_over)
    ctrl = ControllerConfig(**ctrl_kw)
    if inertia is None:
        inertia = np.diag([5.08, 5.14, 5.0])
    params = SpacecraftParams(inertia=inertia,
                              torque_limit=0.5, disturbance_bound=0.1)
    target = TARGET if target is None else np.asarray(target, dtype=float)
    cones = []
    for axis in axes[:n_obstacles]:
        axis = unit(axis)
        sep = goal_separation(target, axis)
        k_r = ctrl.k_a * (1.0 - math.cos(sep - math.radians(27.0)))
        cones.append(ObstacleCone(axis_inertial=axis,
                                  theta_f=math.radians(20.0),
                                  theta_0=math.radians(36.0),
                                  theta_1=math.radians(27.0),
                                  k_r=k_r, r_slope=0.3))
    switch = SwitchConfig(v1=math.cos(math.radians(36.0)),
                          p1=math.cos(math.radians(30.0)),
                          delta=0.005, m=5.0, n=2.0)
    return Scenario(
        name="engine-test",
        description="hand-built fixture",
        params=params,
        initial=BodyState(UnitQuaternion(0.0, 0.0, 0.0, 1.0), np.zeros(3)),
        boresight_body=Z_BORESIGHT if boresight is None else boresight,
        target_inertial=target,
        obstacles=tuple(cones),
        envelope=EnvelopeConfig(rho_0=3.0, rho_inf=1e-3, k_rho=0.1),
        switch=switch,
        controller=ctrl,
        sim=SimConfig(),
        theta_df=math.radians(50.0),
    )


def oracle_scenarios(n_obstacles=2):
    """Two-cone scenarios over both inertias and both boresights."""
    return [make_scenario(n_obstacles, inertia=inertia, boresight=b)
            for inertia in (None, FULL_INERTIA)
            for b in (Z_BORESIGHT, OBLIQUE_BORESIGHT)]


def hamilton(a, b):
    """Independent Hamilton product oracle, scalar-last 4-vectors."""
    av, aw = np.asarray(a[:3], dtype=float), float(a[3])
    bv, bw = np.asarray(b[:3], dtype=float), float(b[3])
    vec = aw * bv + bw * av + np.cross(av, bv)
    return np.array([vec[0], vec[1], vec[2], aw * bw - float(np.dot(av, bv))])


def quat_conj(q):
    return np.array([-q[0], -q[1], -q[2], q[3]])


def axis_angle(axis, angle):
    """Rotation of ``angle`` [rad] about ``axis`` as a 4-vector."""
    axis = np.asarray(axis, dtype=float)
    s = math.sin(0.5 * angle) / np.linalg.norm(axis)
    return np.array([*(axis * s), math.cos(0.5 * angle)])


def quat_taking(body_dir, inertial_dir):
    """Quaternion q at which the kernel resolves inertial_dir along
    body_dir."""
    c = float(np.dot(body_dir, inertial_dir))
    axis = np.cross(body_dir, inertial_dir)
    if np.linalg.norm(axis) < 1e-12:
        return UnitQuaternion(0.0, 0.0, 0.0, 1.0)
    return UnitQuaternion(*axis_angle(axis, math.acos(c)))


def state(q, omega=(0.0, 0.0, 0.0), rho=1.0, x1=(0.0, 0.0, 0.0),
          x2=(0.0, 0.0, 0.0)):
    """The 14-component coupled state from its parts."""
    return np.concatenate([[q.x, q.y, q.z, q.w], omega, [rho], x1, x2])


def sample_states(rng, sc, n):
    """Random coupled states with cone angles spread across every regime."""
    b = sc.boresight_body
    side = np.cross([0.0, 1.0, 0.0], b)
    side /= np.linalg.norm(side)
    states = []
    gammas = [15.0, 25.0, 28.0, 31.0, 33.0, 35.0, 36.5, 40.0, 80.0]
    for i in range(n):
        gamma = math.radians(gammas[i % len(gammas)])
        f_body = math.sin(gamma) * side + math.cos(gamma) * b
        quat = quat_taking(f_body, sc.obstacles[0].axis_inertial)
        spin = axis_angle(rng.normal(size=3) * 0.0 + b,
                          rng.uniform(-math.pi, math.pi))
        y = np.zeros(14)
        y[0:4] = hamilton([quat.x, quat.y, quat.z, quat.w], spin)
        y[4:7] = rng.normal(size=3) * 0.1
        y[7] = rng.uniform(0.3, 3.0)
        y[8:11] = rng.normal(size=3) * 0.05
        y[11:14] = rng.normal(size=3) * 0.2
        states.append(y)
    return states


# the kernel's stage quantities by name, in the order ``rhs`` returns them
Stage = namedtuple("Stage", "r_b x_e betas eps s_eff v_eff v_cmd e2 u")


def kernel(sc, y, t=0.0, sim=None):
    """The kernel's derivative at ``(t, y)`` as an array, and its stage
    quantities as a :data:`Stage`."""
    ctx = _LoopContext(sc, sim if sim is not None else sc.sim)
    dy, stage = ctx.rhs(t, [float(v) for v in y])
    return np.array(dy), Stage(*stage)


def to_body(q, v):
    """``v`` resolved in body axes at attitude ``q``: the kernel's ``r_b``
    with ``v`` as the target, from the package's one frame rotation."""
    _, stage = kernel(make_scenario(n_obstacles=0, target=v), state(q))
    return np.array(stage.r_b)


def initial_report(sc):
    """The validation report of ``sc`` as ``run_scenario`` forms it, from
    the pointing error and cone cosines of the stage the run starts from."""
    _, stage = _LoopContext(sc, sc.sim).initial_state()
    return validate_config(sc, stage[1], stage[2])


def slice_flow(sc, y, keep):
    """``f(t, z)``: the kernel's derivative of the components ``keep`` of
    ``y`` at ``z``, with every other component held at its value in ``y``."""
    ctx = _LoopContext(sc, sc.sim)
    keep = list(keep)

    def f(t, z):
        full = [float(v) for v in y]
        for i, v in zip(keep, z):
            full[i] = float(v)
        dy = ctx.rhs(t, full)[0]
        return np.array([dy[i] for i in keep])

    return f


def rk4(f, y, t, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def load_cases():
    """The benchmark's seeded inputs, ``perfbench/cases.py``, loaded by
    path."""
    spec = importlib.util.spec_from_file_location("perfbench_cases", CASES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
