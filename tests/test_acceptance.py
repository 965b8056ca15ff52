"""End-to-end acceptance suite.

Each test prints one pass/fail line for its criterion; run with

    pytest -s tests/test_acceptance.py

to see them.  Full-length preset runs are shared across criteria through
session fixtures, so the whole suite costs about a dozen 120 s simulations.
"""

import hashlib
import math

import numpy as np
import pytest

from slewguard.engine import run_scenario, write_trajectory_csv
from slewguard.envelope import blf_value
from slewguard.potential import ObstacleCone, bridge, repulsion_grad_beta
from slewguard.scenario import PRESET_NAMES, load_preset

AVOIDANCE_PRESETS = tuple(n for n in PRESET_NAMES if n != "paper-compare-1")

# sha256 of every preset's full-length trajectory.csv.  The last digits come
# from the platform's libm (sin, cos, tanh, acos), so these hold on x86-64
# Linux with glibc; elsewhere a mismatch may be the platform, not the code.
TRAJECTORY_SHA256 = {
    "paper-single-1":
        "826f54bfa2743a98a21042614251e4f1eee4d3793271c3dda1f9e0ba9ed8ddc4",
    "paper-single-2":
        "802b000849383143a7851333ac0a282443e6c8cbafbcf3c5afeb98525cea1f45",
    "paper-single-3":
        "5a1e2aee15e94007eb9633fd19224878dda8a0e04451c6dccca31779dc540cd2",
    "paper-two-1":
        "f7a3d679c4474cf61afe472ff6a6cc8605a932b6d6f2ddb15ce89b3fd4665004",
    "paper-two-2":
        "eb23019ccd5630756feeaa4f633c1b879bdeb1ee1dbc65275bd66ccb61278ec6",
    "paper-two-3":
        "6b7dc3db25ed568d3b47da659af05de4dc425151d79994ae50443eeeb631c225",
    "paper-two-4":
        "c968318d9f835829aaa51d7b7fa97257d7e60d6deb187c582f3309134d47f9e0",
    "paper-three-1":
        "331fdc3aed471aa7f5f5ed1ffa69ddce59fce9f52fb9f6f81abcf7064bc5493c",
    "paper-compare-1":
        "826f54bfa2743a98a21042614251e4f1eee4d3793271c3dda1f9e0ba9ed8ddc4",
}

# sha256 of the field-only baseline's full-length trajectory_benchmark.csv
# for the presets ``run --compare`` is benchmarked on; same platform caveat.
BASELINE_SHA256 = {
    "paper-compare-1":
        "d93d020f1433b2dab0ba207ceeebc2d2dd4fadb2f6fa0b22253c46630fa94ea8",
    "paper-two-1":
        "c5c45a40ecfa50207da05b4dbb844e11b25c88a04b11265eeb48b26cc75ae9d9",
    "paper-three-1":
        "b46846fc7c09e908ad95c87fa74531bd1915dfa56d4aaec6cc4095399d5ea397",
}


def check(num, description, ok, detail):
    line = (f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - "
            f"{description} ({detail})")
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def preset_runs():
    """One full-length run of every bundled preset, recorded at every step."""
    return {name: run_scenario(load_preset(name)) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def benchmark_runs():
    """One full-length baseline run of each ``BASELINE_SHA256`` preset."""
    return {name: run_scenario(load_preset(name).with_sim(
        controller_mode="benchmark_apf")) for name in BASELINE_SHA256}


@pytest.fixture(scope="session")
def benchmark_run(benchmark_runs):
    return benchmark_runs["paper-compare-1"]


@pytest.fixture(scope="session")
def repeat_run():
    return run_scenario(load_preset("paper-single-1"))


@pytest.fixture(scope="session")
def half_step_run():
    return run_scenario(load_preset("paper-single-1").with_sim(dt=0.005))


def row_at(records, t_want):
    """Index of the record logged at ``t_want``."""
    i = int(np.argmin(np.abs(records["t"] - t_want)))
    assert abs(records["t"][i] - t_want) < 1e-9, f"no record at t={t_want}"
    return i


def test_criterion_01_keep_out_clearance(preset_runs):
    worst, worst_name = math.inf, ""
    slowest = 0.0
    ok = True
    for name in AVOIDANCE_PRESETS:
        s = preset_runs[name].summary
        ok = ok and s["dt"] == 0.01
        for clear_deg, limit_deg in zip(s["min_clearance_deg"],
                                        s["theta_f_deg"]):
            ok = ok and clear_deg >= limit_deg
            if clear_deg < worst:
                worst, worst_name = clear_deg, name
        slowest = max(slowest, s["wall_clock_s"])
        ok = ok and s["wall_clock_s"] <= 10.0
    check(1, "boresight stays >= 20 deg from every forbidden axis, "
             "<= 10 s wall per run", ok,
          f"worst clearance {worst:.2f} deg on {worst_name}, "
          f"slowest run {slowest:.2f} s")


def test_criterion_02_performance_envelope(preset_runs):
    recs = preset_runs["paper-single-1"].records
    t, angle = recs["t"], recs["pointing_angle_deg"]
    err_50 = angle[row_at(recs, 50.0)]
    after_50 = angle[t >= 50.0].max()
    tail = angle[t > 80.0].max()
    ok = err_50 < 1.0 and after_50 < 1.0 and tail < 0.1
    check(2, "single-obstacle run settles under 1 deg by 50 s and under "
             "0.1 deg after 80 s", ok,
          f"error at 50 s {err_50:.3f} deg, worst after 80 s {tail:.4f} deg")


def test_criterion_03_comparison_ordering(preset_runs, benchmark_run):
    prop = preset_runs["paper-compare-1"].summary["terminal_error_deg"]
    bench = benchmark_run.summary["terminal_error_deg"]
    ok = prop is not None and bench is not None and prop < bench and prop <= 0.1
    check(3, "proposed terminal error beats the field-only baseline and "
             "stays within 0.1 deg", ok,
          f"proposed {prop:.4f} deg vs baseline {bench:.4f} deg")


def test_criterion_04_funnel_shrink_oracle(preset_runs):
    run = preset_runs["paper-single-1"]
    env = load_preset("paper-single-1").envelope
    assert np.all(run.records["omega_s_eff"] == 0.0), \
        "run must stay in shrink mode for the closed form to apply"
    worst = 0.0
    for t_want in (1.0, 10.0, 50.0):
        rho = run.records["rho"][row_at(run.records, t_want)]
        want = env.rho_inf + (env.rho_0 - env.rho_inf) * math.exp(
            -env.k_rho * t_want)
        worst = max(worst, abs(rho - want))
    ok = worst < 1e-8
    check(4, "integrated funnel radius matches the exponential closed form "
             "at t = 1, 10, 50 s within 1e-8", ok,
          f"worst deviation {worst:.2e}")


def test_criterion_05_freeze_holds_ratio(preset_runs):
    drifts = []
    for name in AVOIDANCE_PRESETS:
        recs = preset_runs[name].records
        t, eps, s = recs["t"], recs["eps"], recs["omega_s_eff"]
        frozen = (s[:-1] == 1.0) & (s[1:] == 1.0)
        drifts.append((np.abs(eps[1:] - eps[:-1]) / (t[1:] - t[:-1]))[frozen])
    drifts = np.concatenate(drifts)
    ok = drifts.size > 0
    drift = float(drifts.max()) if ok else math.inf
    ok = ok and drift < 1e-6
    check(5, "normalized error is frozen while the envelope follows the "
             "error (drift < 1e-6 per second)", ok,
          f"{drifts.size} fully frozen steps, worst drift {drift:.2e} /s")


def test_criterion_06_repulsion_gradient():
    # slope ceiling is a global bound only when the bridge is steep enough
    # that its interior maximum sits at the midpoint; this shape is in that
    # regime (see the sharp/gentle split in the potential tests)
    cone = ObstacleCone(axis_inertial=np.array([0.0, 0.0, 1.0]),
                        theta_f=math.radians(20.0),
                        theta_0=math.radians(60.0),
                        theta_1=math.radians(25.0),
                        k_r=0.9, r_slope=3.0)
    lo, hi = cone.shape.lo, cone.shape.hi
    grid = np.arange(lo + 1e-4, hi - 1e-4, 1e-4)
    h = 1e-4
    worst_rel = 0.0
    worst_slope = 0.0
    for beta in grid:
        analytic = repulsion_grad_beta(cone, beta)
        fd = (bridge(cone.shape, beta + h, cone.k_r)
              - bridge(cone.shape, beta - h, cone.k_r)) / (2 * h)
        # measured against the slope ceiling, the natural scale of the field
        worst_rel = max(worst_rel, abs(analytic - fd) / cone.r_slope)
        worst_slope = max(worst_slope, analytic)
    ok = worst_rel < 1e-5 and worst_slope <= cone.r_slope + 1e-9
    check(6, "analytic repulsion gradient matches finite differences "
             "(1e-5) and respects the slope ceiling", ok,
          f"worst relative mismatch {worst_rel:.2e}, "
          f"max slope {worst_slope:.6f} vs ceiling {cone.r_slope}")


def test_criterion_07_barrier_inequality():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 100.0, size=10000)
    vals = xs * np.tanh(xs) - np.array([blf_value(x, 1.0, 1.0) for x in xs])
    ok = bool(np.all(vals >= 0.0))
    check(7, "x tanh(x) - ln cosh(x) is nonnegative on 10^4 samples in "
             "[0, 100]", ok, f"min value {vals.min():.3e}")


def test_criterion_08_envelope_containment(preset_runs):
    worst, worst_name = 0.0, "(never tracking)"
    ok = True
    for name in PRESET_NAMES:
        recs = preset_runs[name].records
        tracking = np.abs(recs["eps"][recs["omega_s_eff"] < 0.5])
        if tracking.size and tracking.max() > worst:
            worst, worst_name = float(tracking.max()), name
    ok = worst < 1.0
    check(8, "normalized error stays inside the unit funnel whenever "
             "tracking dominates", ok,
          f"max |eps| {worst:.3f} on {worst_name}")


def test_criterion_09_torque_saturation(preset_runs, benchmark_run):
    limit = 0.5
    worst = 0.0
    ok = True
    runs = [preset_runs[n] for n in PRESET_NAMES] + [benchmark_run]
    for run in runs:
        for axis in "xyz":
            torque = np.abs(run.records[f"torque_{axis}"])
            worst = max(worst, float(torque.max()))
            ok = ok and bool(np.all(torque <= limit))
    check(9, "every commanded torque component is within the 0.5 N m "
             "actuator limit", ok, f"max |torque| {worst:.6f} N m")


def test_criterion_10_numerical_hygiene(preset_runs, repeat_run,
                                        half_step_run):
    base = preset_runs["paper-single-1"]
    identical = (base.records.columns == repeat_run.records.columns
                 and np.array_equal(base.records.data,
                                    repeat_run.records.data))
    drift = max(preset_runs[n].summary["max_quat_norm_error"]
                for n in PRESET_NAMES)
    step_diff = abs(base.records["x_e"][-1] - half_step_run.records["x_e"][-1])
    ok = identical and drift < 1e-9 and step_diff < 1e-6
    check(10, "repeat runs are bit-identical, quaternion drift < 1e-9, "
              "halving the step moves terminal error < 1e-6", ok,
          f"identical={identical}, quat drift {drift:.2e}, "
          f"terminal shift {step_diff:.2e}")


def changed_digests(runs, digests, tmp_path):
    """Names whose written trajectory CSV differs from the recorded sha256."""
    changed = []
    for name, want in digests.items():
        path = tmp_path / f"{name}.csv"
        write_trajectory_csv(runs[name].records, path)
        if hashlib.sha256(path.read_bytes()).hexdigest() != want:
            changed.append(name)
    return changed


def test_trajectories_bit_identical(preset_runs, tmp_path):
    changed = changed_digests(preset_runs, TRAJECTORY_SHA256, tmp_path)
    line = (f"golden trajectories: {'PASS' if not changed else 'FAIL'} - "
            f"trajectory.csv bytes of {len(PRESET_NAMES)} presets match the "
            f"recorded sha256 (changed: {', '.join(changed) or 'none'}; "
            f"digests assume x86-64 glibc libm)")
    print(line)
    assert not changed, line


def test_baseline_trajectories_bit_identical(benchmark_runs, tmp_path):
    changed = changed_digests(benchmark_runs, BASELINE_SHA256, tmp_path)
    line = (f"golden baseline trajectories: "
            f"{'PASS' if not changed else 'FAIL'} - "
            f"trajectory_benchmark.csv bytes of {len(BASELINE_SHA256)} "
            f"presets match the recorded sha256 (changed: "
            f"{', '.join(changed) or 'none'}; digests assume x86-64 glibc "
            f"libm)")
    print(line)
    assert not changed, line
