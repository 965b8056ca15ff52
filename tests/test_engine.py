"""Closed-loop engine tests: RHS composition, determinism, logging, aborts."""

import json
import math
import pickle
import re
from array import array

import numpy as np
import pytest

import slewguard.controller as controller_module
import slewguard.engine as engine_module
from slewguard import _kernel
from slewguard.controller import benchmark_apf_law, torque_law, virtual_law
from slewguard.engine import (
    SimConfig,
    SimulationAbort,
    Trajectory,
    ValidationFailure,
    _LoopContext,
    _check_state,
    _columns,
    disturbance_torque,
    run_scenario,
    write_summary_json,
    write_trajectory_csv,
)
from slewguard.envelope import ERROR_RATIO_FLOOR, blf_value
from slewguard.potential import bridge, repulsion_grad_beta, total_potential
from slewguard.scenario import Targets, load_preset, scenario_from_dict

from loop_fixtures import (
    Stage,
    hamilton,
    kernel,
    load_cases,
    make_scenario,
    oracle_scenarios,
    quat_conj,
    sample_states,
)


class TestDisturbance:
    def test_initial_value(self):
        d0 = np.array(disturbance_torque(0.0))
        np.testing.assert_allclose(d0, [-0.037, 0.048, 0.032], atol=1e-15)

    def test_bounded_by_declared_limit(self):
        worst = max(math.hypot(*disturbance_torque(t))
                    for t in np.linspace(0.0, 4000.0, 40001))
        assert worst < 0.1
        assert worst > 0.05  # sanity: the signal is not trivially small

    @pytest.mark.usefixtures("reference_path")
    def test_disabled_is_zero(self, monkeypatch):
        # a disabled disturbance is never evaluated, and the kernel matches
        # the textbook composition with d = 0
        def fail(t):
            raise AssertionError("disturbance evaluated while disabled")

        monkeypatch.setattr(engine_module, "disturbance_torque", fail)
        sim = SimConfig(disturbance_enabled=False)
        sc = make_scenario()
        for y in sample_states(np.random.default_rng(13), sc, 3):
            np.testing.assert_allclose(kernel(sc, y, 37.5, sim)[0],
                                       reference_rhs(37.5, y, sc, sim),
                                       rtol=1e-12, atol=1e-12)


def reference_rhs(t, y, sc, sim):
    """The coupled derivative from textbook formulas and the two laws.

    Frames come from Hamilton products, the rigid body from a linear solve,
    and the funnel, switches and differentiator from their defining
    formulas, all with numpy; only the laws, the bridge and the repulsion
    gradient are the package's own.
    """
    q = np.asarray(y[0:4], dtype=float)
    qn = q / np.linalg.norm(q)
    w = np.asarray(y[4:7], dtype=float)
    rho = float(y[7])
    x1 = np.asarray(y[8:11], dtype=float)
    x2 = np.asarray(y[11:14], dtype=float)
    b = sc.boresight_body

    def to_body(v):  # q* [v, 0] q
        return hamilton(hamilton(quat_conj(qn), [*v, 0.0]), qn)[:3]

    r_b = to_body(sc.target_inertial)
    x_e = 1.0 - float(np.dot(b, r_b))
    obstacles = []
    for cone in sc.obstacles:
        f_b = to_body(cone.axis_inertial)
        obstacles.append((cone, f_b, float(np.dot(b, f_b))))

    benchmark = sim.controller_mode == "benchmark_apf"
    if benchmark:
        s_eff = v_eff = 1.0
    else:
        s_eff = max([0.0] + [bridge(sc.switch.s_shape, beta)
                             for _, _, beta in obstacles])
        v_eff = max([0.0] + [bridge(sc.switch.v_shape, beta)
                             for _, _, beta in obstacles])
    r_cross_b = np.cross(r_b, b)
    p1 = np.zeros(3)
    if v_eff > 0.0:
        p1 = sc.controller.k_a * r_cross_b
        for cone, f_b, beta in obstacles:
            p1 = p1 - repulsion_grad_beta(cone, beta) * np.cross(f_b, b)
    terms = dict(gyro=tuple(np.cross(w, sc.params.inertia @ w).tolist()),
                 e2=tuple((w - x1).tolist()), sd_dot=tuple(x2.tolist()),
                 x_e=x_e, r_cross_b=tuple(r_cross_b.tolist()),
                 p1=tuple(p1.tolist()), boresight_body=tuple(b.tolist()),
                 params=sc.params, cfg=sc.controller)
    if benchmark:
        v_cmd = virtual_law(terms["r_cross_b"], terms["p1"], 0.0, 1.0, 1.0,
                            sc.controller)
        u = benchmark_apf_law(**terms)
        rho_dot = 0.0  # no funnel in the baseline
    else:
        eps = x_e / rho
        v_cmd = virtual_law(terms["r_cross_b"], terms["p1"], eps, rho, v_eff,
                            sc.controller)
        u = torque_law(eps=eps, rho=rho, omega_s_eff=s_eff,
                       omega_v_eff=v_eff, **terms)
        # r_b_dot = -w x r_b, so x_e_dot = -B . (r_b x w)
        e_dot = -float(np.dot(b, np.cross(r_b, w)))
        env = sc.envelope
        follow = 0.0 if abs(x_e) < ERROR_RATIO_FLOOR else e_dot / x_e * rho
        rho_dot = ((1.0 - s_eff) * -env.k_rho * (rho - env.rho_inf)
                   + s_eff * follow)

    d = np.array(disturbance_torque(t)) if sim.disturbance_enabled else 0.0
    j = sc.params.inertia
    w_dot = np.linalg.solve(j, -np.cross(w, j @ w) + np.asarray(u) + d)
    q_dot = 0.5 * hamilton(q, [*w, 0.0])
    c = sc.controller
    r2 = c.td_r * c.td_r
    x2_dot = (-r2 * c.td_a1 * np.tanh(x1 - np.asarray(v_cmd))
              - r2 * c.td_a2 * np.tanh(x2 / c.td_r))
    return np.concatenate([q_dot, w_dot, [rho_dot], x2, x2_dot])


class TestCoupledRhs:
    def test_matches_module_composition(self):
        # products of inertia and an oblique boresight are where the kernel's
        # scalar arithmetic can differ from numpy's in the last bit; the
        # tolerance covers that
        sim = SimConfig()
        for sc in oracle_scenarios():
            rng = np.random.default_rng(11)
            for y in sample_states(rng, sc, 27):
                t = rng.uniform(0.0, 100.0)
                got = kernel(sc, y, t, sim)[0]
                want = reference_rhs(t, y, sc, sim)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_composition_in_benchmark_mode(self):
        sim = SimConfig(controller_mode="benchmark_apf")
        for sc in oracle_scenarios():
            rng = np.random.default_rng(12)
            for y in sample_states(rng, sc, 9):
                got = kernel(sc, y, 3.0, sim)[0]
                want = reference_rhs(3.0, y, sc, sim)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_disturbance_toggle(self):
        sc = make_scenario()
        y = np.zeros(14)
        y[3] = 1.0
        y[7] = 3.0
        on = kernel(sc, y, 5.0, SimConfig(disturbance_enabled=True))[0]
        off = kernel(sc, y, 5.0, SimConfig(disturbance_enabled=False))[0]
        d = np.array(disturbance_torque(5.0))
        np.testing.assert_allclose(
            on[4:7] - off[4:7], np.linalg.inv(sc.params.inertia) @ d,
            atol=1e-15)

    def test_aborts_on_collapsed_funnel(self):
        sc = make_scenario()
        y = np.zeros(14)
        y[3] = 1.0
        with pytest.raises(SimulationAbort):
            kernel(sc, y)


def bits(values):
    return [float(v).hex() for v in values]


class TestSharedStageTerms:
    """Each stage forms P1 and the disturbance once, and reuses nothing stale."""

    @staticmethod
    def count_gradients(monkeypatch):
        calls = [0]
        real = controller_module.repulsion_grad_beta

        def counted(cone, beta):
            calls[0] += 1
            return real(cone, beta)

        monkeypatch.setattr(controller_module, "repulsion_grad_beta", counted)
        return calls

    @pytest.mark.parametrize("mode", ["proposed", "benchmark_apf"])
    @pytest.mark.usefixtures("reference_path")
    def test_one_gradient_per_cone_per_stage(self, monkeypatch, mode):
        sc = make_scenario(n_obstacles=2)
        ctx = _LoopContext(sc.with_sim(controller_mode=mode))
        calls = self.count_gradients(monkeypatch)
        avoiding = set()
        for y in sample_states(np.random.default_rng(13), sc, 27):
            before = calls[0]
            v_eff = Stage(*ctx.rhs(1.0, [float(v) for v in y])[1]).v_eff
            assert calls[0] - before == (2 if v_eff > 0.0 else 0)
            avoiding.add(v_eff > 0.0)
        # the proposed law meets both regimes; the baseline is always on
        assert avoiding == ({True, False} if mode == "proposed" else {True})

    @pytest.mark.usefixtures("reference_path")
    def test_gradient_counts_over_a_run(self, monkeypatch):
        sc = load_preset("paper-single-1").with_sim(duration=0.5)
        calls = self.count_gradients(monkeypatch)
        res = run_scenario(sc)
        # this preset never enters the avoidance blend
        assert all(v == 0.0 for v in res.records["omega_v_eff"])
        assert calls[0] == 0
        run_scenario(sc.with_sim(controller_mode="benchmark_apf"))
        # one per cone in each of 4 stages of 50 steps, the final sample and
        # the initial command
        assert calls[0] == len(sc.obstacles) * (4 * 50 + 1 + 1)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_disturbance_cache_is_never_stale(self, enabled):
        sc = make_scenario(n_obstacles=2).with_sim(
            disturbance_enabled=enabled)
        y = [float(v) for v in
             sample_states(np.random.default_rng(3), sc, 1)[0]]
        t1 = 12.5
        ctx = _LoopContext(sc)
        got = {}
        for t in (t1, t1 + 5.0, t1, t1, math.nextafter(t1, math.inf), 0.0,
                  -0.0, t1):
            got[t] = ctx.rhs(t, y)[0]
            assert bits(got[t]) == bits(_LoopContext(sc).rhs(t, y)[0])
        # the disturbance reaches the derivative only when enabled
        assert (bits(got[t1]) != bits(got[t1 + 5.0])) == enabled

    @pytest.mark.parametrize("n,stride", [(1, 1), (10, 1), (10, 3)])
    @pytest.mark.usefixtures("reference_path")
    def test_one_rhs_evaluation_per_stage(self, monkeypatch, n, stride):
        # the initial command, four stages per step and the final sample:
        # each sample is evaluated once, as the first stage of its step
        rhs = _LoopContext.rhs
        times = []

        def counted(ctx, t, y):
            times.append(t)
            return rhs(ctx, t, y)

        monkeypatch.setattr(_LoopContext, "rhs", counted)
        sc = load_preset("paper-single-1").with_sim(duration=n * 0.01,
                                                    record_stride=stride)
        run_scenario(sc)
        assert len(times) == 4 * n + 2
        assert times[1::4] == [k * sc.sim.dt for k in range(n + 1)]


class TestRunScenario:
    def test_tracking_converges(self):
        sc = load_preset("paper-single-1").with_sim(duration=40.0,
                                                    record_stride=10)
        res = run_scenario(sc)
        s = res.summary
        assert s["final_error_deg"] < 1.0
        assert s["initial_error_deg"] == pytest.approx(90.0, abs=0.01)
        assert s["constraint_satisfied"]
        assert s["max_quat_norm_error"] < 1e-12
        # obstacle stays far from the slew path in this preset
        assert s["min_clearance_deg"][0] > 80.0
        assert all(s == 0.0 for s in res.records["omega_s_eff"])
        # funnel follows the mode-1 shrink law the whole way
        env = sc.envelope
        for t, rho in zip(res.records["t"].tolist(),
                          res.records["rho"].tolist()):
            want = env.rho_inf + (env.rho_0 - env.rho_inf) * math.exp(
                -env.k_rho * t)
            assert rho == pytest.approx(want, abs=1e-6)

    def test_record_layout(self):
        sc = load_preset("paper-single-1").with_sim(duration=1.05,
                                                    record_stride=10)
        res = run_scenario(sc)
        ts = res.records["t"].tolist()
        assert ts[:3] == [0.0, pytest.approx(0.1), pytest.approx(0.2)]
        assert ts[-1] == pytest.approx(1.05)
        assert len(ts) == 12
        assert len(res.records) == 12
        assert len(res.records.data) == 12 * len(res.records.columns)
        assert [c for c in res.records.columns
                if c.startswith("beta_")] == ["beta_1"]

    def test_bit_identical_repeats(self):
        sc = load_preset("paper-two-1").with_sim(duration=3.0)
        r1 = run_scenario(sc)
        r2 = run_scenario(sc)
        assert r1.records.columns == r2.records.columns
        assert np.array_equal(r1.records.data, r2.records.data)
        s1, s2 = dict(r1.summary), dict(r2.summary)
        s1.pop("wall_clock_s")
        s2.pop("wall_clock_s")
        assert s1 == s2

    @pytest.mark.parametrize("stride, same_as", [(2.0, 2), (True, None)])
    def test_record_stride_is_an_int(self, stride, same_as):
        # an integral float is kept as the int, so a run logs what the int
        # stride logs; a bool is no stride, as in the loader
        sc = load_preset("paper-two-1").with_sim(duration=3.0)
        if same_as is None:
            with pytest.raises(ValueError, match="positive integer"):
                sc.with_sim(record_stride=stride)
            return
        got = run_scenario(sc.with_sim(record_stride=stride)).records
        want = run_scenario(sc.with_sim(record_stride=same_as)).records
        assert got.data == want.data

    @pytest.mark.parametrize("name", ["paper-two-1", "corridor-1-001-beside"])
    def test_summary_independent_of_record_stride(self, name):
        # paper-two-1 settles, enters avoidance and has its terminal window
        # inside 40 s; the corridor draw spends much of its run beside a
        # cone, where the Lyapunov pairs start and stop
        if name == "paper-two-1":
            sc = load_preset(name).with_sim(duration=40.0)
            t = sc.targets
            sc.targets = Targets(t.settle_deg, t.settle_time_s,
                                 t.terminal_deg, terminal_time_s=30.0)
        else:
            doc = load_cases().corridor_scenario_docs(1)[1]
            assert doc["name"] == name
            sc = scenario_from_dict(doc)
        # on the kernel and on the reference loop, whose statistics fold
        # every sample the same way
        summaries = []
        for path in ("kernel", "reference"):
            with pytest.MonkeyPatch.context() as mp:
                if path == "reference":
                    mp.setattr(_kernel, "load", lambda: None)
                for stride in (1, 7, 20):
                    s = run_scenario(sc.with_sim(record_stride=stride)).summary
                    s.pop("wall_clock_s")
                    summaries.append(s)
        for s in summaries[1:]:
            assert s == summaries[0]

    def test_validation_failure_raises_unless_forced(self):
        sc = make_scenario(k1=0.05)  # violates gain ordering
        with pytest.raises(ValidationFailure):
            run_scenario(sc.with_sim(duration=1.0))
        res = run_scenario(sc.with_sim(duration=1.0), force=True)
        assert res.summary["validation_failures"]

    @pytest.mark.parametrize("duration, rows", [(1e300, "1e+302"),
                                                (1e13, "1e+15")],
                             ids=["1e300", "1e13"])
    def test_a_log_too_large_raises_memory_error(self, duration, rows):
        # 1e300 s needs more rows than an index holds, and 1e13 s about
        # 1.4e17 bytes, beyond any 48-bit address space, so neither touches
        # memory
        sc = load_preset("paper-two-1").with_sim(duration=duration)
        with pytest.raises(MemoryError, match=f"^the log's {re.escape(rows)} "
                                              f"rows of 19 values do not fit"):
            run_scenario(sc)

    def test_run_exceptions_survive_pickling(self):
        # a caller that runs scenarios in a process pool gets a worker's
        # exception back pickled; the round trip must keep every field and
        # the message
        sc = make_scenario(k1=0.05)
        with pytest.raises(ValidationFailure) as failed:
            run_scenario(sc.with_sim(duration=1.0))
        aborts = (SimulationAbort(1.0, "x", (1.0,), 2),
                  SimulationAbort(0.25, "funnel radius reached zero"))
        for exc in aborts:
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is SimulationAbort
            assert (back.t, back.reason, back.state, back.stage) == (
                exc.t, exc.reason, exc.state, exc.stage)
            assert str(back) == str(exc)
        exc = failed.value
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is ValidationFailure
        assert back.report == exc.report
        assert back.report.describe() == exc.report.describe()
        assert str(back) == str(exc)

    def test_abort_on_nonfinite_state(self):
        # overflow in the differentiator gain poisons a stage immediately
        sc = make_scenario(td_r=1e300)
        with pytest.raises(SimulationAbort) as err:
            run_scenario(sc.with_sim(duration=1.0), force=True)
        assert err.value.t <= 0.02
        # the abort keeps the finite state the failing step started from
        # and the stage that failed
        assert err.value.stage in (1, 2, 3, 4)
        assert len(err.value.state) == 14
        assert all(math.isfinite(v) for v in err.value.state)

    def test_state_check_names_the_non_finite_component(self):
        y = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0] + [0.0] * 6
        last = [0.0, 0.0, 0.6, 0.8, 0.1, 0.2, 0.3, 0.5] + [0.25] * 6
        # finite components whose sum overflows pass
        _check_state(1.0, y[:4] + [1e308, 1e308] + y[6:], last)
        # the first non-finite component is named, also where infinities
        # of both signs sum to NaN; the abort keeps the state the step
        # started from and names no stage
        for bad, name in (({2: math.nan}, "quat[2]"),
                          ({7: math.nan}, "rho[7]"),
                          ({13: math.inf}, "td_x2[13]"),
                          ({4: math.inf, 5: -math.inf}, "omega[4]")):
            z = list(y)
            for i, v in bad.items():
                z[i] = v
            with pytest.raises(SimulationAbort,
                               match=re.escape(f"non-finite value in {name}")
                               ) as err:
                _check_state(1.0, z, last)
            assert err.value.state == tuple(last)
            assert err.value.stage is None
            assert str(err.value) == (f"simulation aborted at t=1.0000 s: "
                                      f"non-finite value in {name}")

    @pytest.mark.parametrize("k", [3, 9])
    @pytest.mark.usefixtures("reference_path")
    def test_collapsed_funnel_aborts_when_the_state_is_next_used(
            self, monkeypatch, k):
        # a step that leaves rho = 0 aborts at the end of that step, in the
        # next step's first stage or, after the last step, in the final
        # sample
        step = _LoopContext.step

        def collapsing_step(ctx, i, y, dt, k1):
            y_next = step(ctx, i, y, dt, k1)
            if i == k:
                y_next[7] = 0.0
            return y_next

        monkeypatch.setattr(_LoopContext, "step", collapsing_step)
        sc = load_preset("paper-single-1").with_sim(duration=0.1)
        with pytest.raises(SimulationAbort,
                           match="funnel radius reached zero") as err:
            run_scenario(sc)
        assert err.value.t == (k + 1) * sc.sim.dt
        # the first stage of the next step, or the final sample after the
        # last one, fails on the finite state the collapsing step left
        assert err.value.stage == 1
        assert len(err.value.state) == 14
        assert err.value.state[7] == 0.0
        assert all(math.isfinite(v) for v in err.value.state)

    @pytest.mark.parametrize("failing", [1, 2, 3, 4])
    @pytest.mark.usefixtures("reference_path")
    def test_abort_names_the_failing_stage(self, monkeypatch, failing):
        # one call for the initial command, then four per step: make stage
        # ``failing`` of step 5 raise, and keep the state that step began at
        rhs = _LoopContext.rhs
        calls, starts = [], []

        def failing_rhs(ctx, t, y):
            calls.append(t)
            if len(calls) == 1 + 4 * 5 + 1:
                starts.append(tuple(y))
            if len(calls) == 1 + 4 * 5 + failing:
                raise SimulationAbort(t, "stage failed")
            return rhs(ctx, t, y)

        monkeypatch.setattr(_LoopContext, "rhs", failing_rhs)
        sc = load_preset("paper-single-1").with_sim(duration=0.1)
        with pytest.raises(SimulationAbort, match="stage failed") as err:
            run_scenario(sc)
        assert err.value.stage == failing
        assert err.value.state == starts[0]

    def test_benchmark_mode_pins_switches(self):
        sc = load_preset("paper-single-1").with_sim(
            duration=2.0, controller_mode="benchmark_apf")
        res = run_scenario(sc)
        assert all(s == 1.0 for s in res.records["omega_s_eff"])
        assert all(v == 1.0 for v in res.records["omega_v_eff"])
        assert res.summary["controller_mode"] == "benchmark_apf"
        # the baseline has no funnel: the radius is a spectator, held fixed
        assert all(rho == sc.envelope.rho_0 for rho in res.records["rho"])


ONE_CONE_COLUMNS = ("t", "x_e", "pointing_angle_deg", "beta_1", "rho", "eps",
                    "omega_s_eff", "omega_v_eff",
                    "omega_x", "omega_y", "omega_z",
                    "torque_x", "torque_y", "torque_z",
                    "v_q", "v_omega", "td_error", "quat_norm_error")


def synthetic_stats(energies, angles=None, omega_s=0.0, targets=None):
    """The run statistics of ``make_scenario()`` fed logged samples one
    second apart: ``v_q`` steps through ``energies`` and the pointing angle
    through ``angles`` (60 deg by default)."""
    sc = make_scenario()
    sc.targets = targets
    stats = engine_module._RunStats(_LoopContext(sc))
    if angles is None:
        angles = [60.0] * len(energies)
    for i, (v_q, angle) in enumerate(zip(energies, angles)):
        fixed = {"t": float(i), "pointing_angle_deg": angle, "beta_1": 0.1,
                 "eps": 0.5, "omega_s_eff": omega_s, "v_q": v_q}
        row = tuple(fixed.get(name, 0.0) for name in ONE_CONE_COLUMNS)
        stage = Stage((0.0, 0.0, 1.0), 0.5, [0.1], 0.5, omega_s, 0.0,
                      (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        stats.add(float(i), [0.0, 0.0, 0.0, 1.0], stage, row)
    return stats


def within_ulps(got, want, n=2):
    return abs(got - want) <= n * math.ulp(want)


class TestRecord:
    @pytest.mark.parametrize("index", range(4), ids=[
        "diagonal-z", "diagonal-oblique", "full-z", "full-oblique"])
    def test_row_is_the_csv_row(self, index):
        # the row of record is the CSV row: one value per column, in header
        # order, with v_omega and td_error as numpy forms them per row up to
        # rounding
        sc = oracle_scenarios()[index]
        ctx = _LoopContext(sc)
        columns = _columns(len(sc.obstacles))
        t = 1.25
        for y in sample_states(np.random.default_rng(23), sc, 18):
            y = y.tolist()
            st = Stage(*ctx.rhs(t, y)[1])
            values = ctx.record(t, y, st)
            assert len(values) == len(columns)
            row = dict(zip(columns, values))
            want = {"t": t, "x_e": st.x_e,
                    "pointing_angle_deg":
                        math.degrees(math.acos(1.0 - st.x_e)),
                    "rho": y[7], "eps": st.eps,
                    "omega_s_eff": st.s_eff, "omega_v_eff": st.v_eff,
                    "omega_x": y[4], "omega_y": y[5], "omega_z": y[6],
                    "torque_x": st.u[0], "torque_y": st.u[1],
                    "torque_z": st.u[2],
                    "quat_norm_error": abs(math.sqrt(
                        sum(v * v for v in y[:4])) - 1.0)}
            want.update((f"beta_{i + 1}", b)
                        for i, b in enumerate(st.betas))
            want["v_q"] = blf_value(st.eps, sc.controller.g,
                                    sc.controller.big_f) + total_potential(
                st.x_e, sc.controller.k_a, zip(sc.obstacles, st.betas))
            assert sorted(want) == sorted(set(columns)
                                          - {"v_omega", "td_error"})
            for name, value in want.items():
                assert row[name] == value, name
            e = np.array(st.e2)
            v_omega = 0.5 * float(e @ (sc.params.inertia @ e))
            td_error = float(np.linalg.norm(np.array(y[8:11])
                                            - np.array(st.v_cmd)))
            assert within_ulps(row["v_omega"], v_omega)
            assert within_ulps(row["td_error"], td_error)


class TestLyapunovMonitor:
    """The run statistics' count of Lyapunov pairs."""

    def test_descending_energy_flags_nothing(self):
        stats = synthetic_stats([5.0, 4.0, 3.0, 2.5, 2.4])
        # the pair starting at t = 0 is inside the first second
        assert (stats.n_pairs, stats.n_rising) == (3, 0)

    def test_positive_jump_is_counted(self):
        stats = synthetic_stats([5.0, 4.0, 4.7, 3.0, 2.0])
        assert (stats.n_pairs, stats.n_rising) == (3, 1)

    def test_switching_windows_excluded(self):
        stats = synthetic_stats([5.0, 4.0, 6.0, 3.0], omega_s=0.2)
        assert stats.n_pairs == 0

    def test_real_run_descends_outside_switching(self, monkeypatch):
        made = []

        class Kept(engine_module._RunStats):
            def __init__(self, ctx):
                super().__init__(ctx)
                made.append(self)

        monkeypatch.setattr(engine_module, "_RunStats", Kept)
        sc = load_preset("paper-single-1").with_sim(duration=30.0,
                                                    record_stride=5)
        res = run_scenario(sc)
        assert made[0].n_pairs > 100
        assert res.summary["lyapunov_positive_fraction"] < 0.2


class TestRunStats:
    def test_settling_and_terminal_window(self):
        # the settling time is that of the first sample after the last one
        # not below the level; NaN is not below, and a max keeps a leading
        # NaN and skips a later one, as max() over the samples does
        targets = Targets(settle_deg=0.5, settle_time_s=5.0,
                          terminal_time_s=3.0)
        angles = [2.0, 0.4, 0.7, math.nan, 0.4, 0.3, 0.2]
        stats = synthetic_stats([0.0] * 7, angles, targets=targets)
        assert stats.settled[1.0] == 4.0
        assert stats.settled[0.5] == 4.0
        assert (stats.initial_angle, stats.final_angle) == (2.0, 0.2)
        assert math.isnan(stats.terminal_err)
        stats = synthetic_stats([0.0] * 4, [0.2, 0.3, 0.9, 0.6],
                                targets=targets)
        assert stats.settled[1.0] == 0.0
        assert stats.settled[0.5] is None
        assert stats.terminal_err == 0.6
        stats = synthetic_stats([0.0] * 5, [0.2, 0.3, 0.6, 0.9, math.nan],
                                targets=targets)
        assert stats.terminal_err == 0.9
        assert stats.settled[1.0] is None


class TestOutputs(object):
    def test_csv_round_trip(self, tmp_path):
        sc = load_preset("paper-two-1").with_sim(duration=0.5,
                                                 record_stride=10)
        res = run_scenario(sc)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(res.records, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.dtype.names[:5] == ("t", "x_e", "pointing_angle_deg",
                                        "beta_1", "beta_2")
        assert len(data) == len(res.records)
        for name in res.records.columns:
            # 17 digits round-trip exactly
            assert np.array_equal(data[name], res.records[name]), name

    def test_columns_are_the_csv_header(self, tmp_path):
        for name in ("paper-single-1", "paper-three-1"):
            res = run_scenario(load_preset(name).with_sim(duration=0.1))
            path = tmp_path / f"{name}.csv"
            write_trajectory_csv(res.records, path)
            header = path.read_text().splitlines()[0]
            assert tuple(header.split(",")) == res.records.columns
        assert res.records.columns[3:6] == ("beta_1", "beta_2", "beta_3")

    def test_unknown_column_raises_key_error(self):
        records = Trajectory(array("d", [0.0, 1.0, 0.5, 2.0]), ("t", "eps"))
        assert list(records["eps"]) == [1.0, 2.0]
        with pytest.raises(KeyError, match="'nope'; the columns are t, eps"):
            records["nope"]

    def test_summary_json(self, tmp_path):
        sc = load_preset("paper-single-1").with_sim(duration=0.5)
        res = run_scenario(sc)
        path = tmp_path / "summary.json"
        write_summary_json(res.summary, path)
        loaded = json.loads(path.read_text())
        assert loaded["scenario"] == "paper-single-1"
        assert loaded["dt"] == 0.01
        assert loaded["theta_f_deg"] == [pytest.approx(20.0)]
        assert "wall_clock_s" in loaded
