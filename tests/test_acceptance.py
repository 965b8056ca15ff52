"""End-to-end acceptance suite.

Each test prints one pass/fail line for its criterion; run with

    pytest -s tests/test_acceptance.py

to see them.  Full-length preset runs are shared across criteria through
session fixtures, so the whole suite costs about a dozen 120 s simulations.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from slewguard.engine import run_scenario, write_trajectory_csv
from slewguard.envelope import blf_value
from slewguard.potential import ObstacleCone, bridge, repulsion_grad_beta
from slewguard.scenario import PRESET_NAMES, load_preset

AVOIDANCE_PRESETS = tuple(n for n in PRESET_NAMES if n != "paper-compare-1")

# sha256 of every preset's full-length trajectory.csv.  The last digits come
# from the platform's libm and from nothing else:
# - sin, cos, tanh and acos;
# - exp and log1p: ``envelope._ln_cosh`` feeds ``v_q``, and
#   ``potential.bridge_grad`` feeds P1;
# - pow: the ``** 2`` in ``engine.step``'s renormalization and in
#   ``engine._quat_norm_error``.
# The compiled kernel calls the same libm: it is built with
# ``-ffp-contract=off`` and calls ``pow``, ``sin`` and ``cos`` through
# volatile pointers, so no ``pow(x, 2.0)`` is folded to ``x * x`` and no
# sine and cosine are merged.  The digests are checked on both paths.
# No BLAS or LAPACK result reaches a written value, so the BLAS kernel numpy
# picks does not matter.  These hold on x86-64 Linux with glibc; elsewhere a
# mismatch may be the platform, not the code.
TRAJECTORY_SHA256 = {
    "paper-single-1":
        "603ada8ac4b1ca899ae4bfa0d886a8f094fb64ef26506261e3ad1ca5c02fa085",
    "paper-single-2":
        "8cfc201bce4a8d1d9d9b323f8ff7108d948710fcbe99bff7cdbb1263204e80a4",
    "paper-single-3":
        "0346066945394953c127532772f68d4ad81266e9d8ba7d9546de3ad1c80ab848",
    "paper-two-1":
        "99f2694d307c98bdc9c30080d69792188df785cd964e881b22d9a6dd599a1e86",
    "paper-two-2":
        "5464e04041945dee7dca1ec2bb1e6a8f5233f68d051c90e70e9d4fa9e79b7a46",
    "paper-two-3":
        "ca989aa7ab8f4fd5dcbd759ddb0fa16460ad8099895c11d2fe81b726df43bbf8",
    "paper-two-4":
        "57ac85c1801952e6c9db566b11c59fb59c8ecef508da68c1c64caed826eae26d",
    "paper-three-1":
        "319732e9ab67b432a3c6afa7c8f02970d0a0bed42854debc62676b5ae604d211",
    "paper-compare-1":
        "603ada8ac4b1ca899ae4bfa0d886a8f094fb64ef26506261e3ad1ca5c02fa085",
}

# sha256 of the field-only baseline's full-length trajectory_benchmark.csv
# for the presets ``run --compare`` is benchmarked on; same platform caveat.
BASELINE_SHA256 = {
    "paper-compare-1":
        "074de3e63370d238358339e871172a8cad6189ea38a83da04d87736223677528",
    "paper-two-1":
        "fac1e6b19dfba3ae1389094572151456cb82e31a9c64c55ba16e67a5859e3d8c",
    "paper-three-1":
        "2243e69f42f346c674618223fe48e871decc63f8120d7bf818a945e6e0fb84ac",
}

# sha256 of each preset's summary, as ``summary_sha256`` forms it: every
# field but the wall time, in canonical JSON.  Same platform caveat.
SUMMARY_SHA256 = {
    "paper-single-1":
        "50b4779437caf43e3a6dc05f62dd20ce2f88b67ae8cf8a6fd4e33dbf42270ccf",
    "paper-single-2":
        "90f43657fe1e2bf700805ab81ead1d1db10363420ff6331c5ac901366350c82b",
    "paper-single-3":
        "2a089e91efd45d828e1e767f1c01f6bc97ebf4e67727abbd901fe65d79673efa",
    "paper-two-1":
        "c4629ed70a3ea4cd478e25b40ea75b78287b8830677895c40a701c57b39e9d8a",
    "paper-two-2":
        "c7c781d02214f211d729797f5ccdb909c86d88992f25bdefc27e15021c92cc2a",
    "paper-two-3":
        "473a5190afd10fb230fe36a8c8ee02b4ce2cfea5f8a65b40b4048fa80e889468",
    "paper-two-4":
        "33f980391f0840b5c89e5643e6b83d0c3d28fa181a29c5741bbd561c47430c64",
    "paper-three-1":
        "f14c7ab84f412e464daa2a2d901c2ffcf66c6326991ffac4fe6174af4d6fc50c",
    "paper-compare-1":
        "29b618aede39dff30f4f77a499aefc3cf4da769cb771ca8f8bac2677c7cd272a",
}

# sha256 of the baseline summary of each ``BASELINE_SHA256`` preset.
BASELINE_SUMMARY_SHA256 = {
    "paper-compare-1":
        "4f1a9171b5b9adf108b8a3420c32d4e40b9d305ec6648c8310edbbfe0113ed9b",
    "paper-two-1":
        "0f682e06bbcd873026ba794b19859039ca049637b0391962a696a8c54eae7e9a",
    "paper-three-1":
        "8f13acbc4e38a6d15b18098f6a38eb3c7b84fd5e1a8b3b9d2e3fa52c91670d48",
}


def check(num, description, ok, detail):
    line = (f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - "
            f"{description} ({detail})")
    print(line)
    assert ok, line


def full_runs(mode="proposed"):
    """One full-length run of every bundled preset, recorded at every step,
    or of each ``BASELINE_SHA256`` preset in the baseline mode."""
    names = PRESET_NAMES if mode == "proposed" else tuple(BASELINE_SHA256)
    return {name: run_scenario(load_preset(name).with_sim(
        controller_mode=mode)) for name in names}


@pytest.fixture(scope="session")
def preset_runs():
    return full_runs()


@pytest.fixture(scope="session")
def benchmark_runs():
    return full_runs("benchmark_apf")


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
    i = int(np.argmin(np.abs(np.asarray(records["t"]) - t_want)))
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
    t, angle = np.asarray(recs["t"]), np.asarray(recs["pointing_angle_deg"])
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
    assert np.all(np.asarray(run.records["omega_s_eff"]) == 0.0), \
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
        t, eps, s = (np.asarray(recs[c]) for c in ("t", "eps", "omega_s_eff"))
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
        eps, s = np.asarray(recs["eps"]), np.asarray(recs["omega_s_eff"])
        tracking = np.abs(eps[s < 0.5])
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


def golden(label, kind, changed, detail):
    line = (f"golden {kind}{label}: {'PASS' if not changed else 'FAIL'} - "
            f"{detail} (changed: {', '.join(changed) or 'none'})")
    print(line)
    assert not changed, line


def trajectories_pinned(preset_runs, tmp_path, label=""):
    golden(label, "trajectories",
           changed_digests(preset_runs, TRAJECTORY_SHA256, tmp_path),
           f"trajectory.csv bytes of {len(PRESET_NAMES)} presets match the "
           f"recorded sha256; digests assume x86-64 glibc libm")


def baselines_pinned(benchmark_runs, tmp_path, label=""):
    golden(label, "baseline trajectories",
           changed_digests(benchmark_runs, BASELINE_SHA256, tmp_path),
           f"trajectory_benchmark.csv bytes of {len(BASELINE_SHA256)} "
           f"presets match the recorded sha256; digests assume x86-64 "
           f"glibc libm")


def summary_sha256(summary):
    """sha256 of a summary's canonical JSON without ``wall_clock_s``."""
    fields = {k: v for k, v in summary.items() if k != "wall_clock_s"}
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()).hexdigest()


def summaries_pinned(preset_runs, benchmark_runs, label=""):
    changed = [name for name, want in SUMMARY_SHA256.items()
               if summary_sha256(preset_runs[name].summary) != want]
    changed += [f"{name} (baseline)"
                for name, want in BASELINE_SUMMARY_SHA256.items()
                if summary_sha256(benchmark_runs[name].summary) != want]
    golden(label, "summaries", changed,
           f"summary fields of {len(SUMMARY_SHA256)} presets and "
           f"{len(BASELINE_SUMMARY_SHA256)} baselines match the recorded "
           f"sha256")


# the runs above take the compiled kernel wherever a library can be built
# (``test_kernel``); these take the reference loop


def test_trajectories_bit_identical(preset_runs, tmp_path):
    trajectories_pinned(preset_runs, tmp_path)


def test_baseline_trajectories_bit_identical(benchmark_runs, tmp_path):
    baselines_pinned(benchmark_runs, tmp_path)


def test_summaries_pinned(preset_runs, benchmark_runs):
    summaries_pinned(preset_runs, benchmark_runs)


@pytest.mark.usefixtures("reference_path")
def test_digests_hold_on_the_reference_loop(tmp_path):
    preset_runs, benchmark_runs = full_runs(), full_runs("benchmark_apf")
    label = " (reference loop)"
    trajectories_pinned(preset_runs, tmp_path, label)
    baselines_pinned(benchmark_runs, tmp_path, label)
    summaries_pinned(preset_runs, benchmark_runs, label)
