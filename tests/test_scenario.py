"""Scenario schema, loader diagnostics, and bundled preset integrity."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from slewguard.engine import SimConfig
from slewguard.scenario import (
    PRESET_NAMES,
    ScenarioError,
    list_presets,
    load_preset,
    load_scenario,
    scenario_from_dict,
)

from loop_fixtures import initial_report

TARGET = [-math.sqrt(3.0) / 2.0, 0.5, 0.0]  # exactly unit


def valid_doc():
    return {
        "name": "custom",
        "description": "hand written",
        "spacecraft": {"inertia_diag": [5.08, 5.14, 5.0],
                       "torque_limit": 0.5, "disturbance_bound": 0.1},
        "initial": {"attitude": [0.0, 0.0, 0.0, 1.0],
                    "omega": [0.0, 0.0, 0.0]},
        "boresight_body": [0.0, 0.0, 1.0],
        "target_inertial": list(TARGET),
        "obstacles": [{"axis_inertial": [0.6, 0.8, 0.0],
                       "theta_f_deg": 20.0, "theta_0_deg": 36.0,
                       "theta_1_deg": 27.0, "r_slope": 0.3}],
        "envelope": {"rho_0": 3.0, "rho_inf": 1e-3, "k_rho": 0.1},
        "switching": {"delta": 0.005, "m": 5.0, "n": 2.0,
                      "theta_p1_deg": 30.0},
        "controller": {"k1": 0.3, "k_p": 0.5, "k_omega": 10.0, "g": 1.0,
                       "big_f": 0.25, "k_a": 2.5, "eta": 2e-4,
                       "sigma": 1e-6, "td_r": 20.0},
        "theta_df_deg": 50.0,
        "sim": {"dt": 0.01, "duration": 60.0},
        "targets": {"settle_deg": 1.0, "settle_time_s": 50.0},
    }


_DELETE = object()


def edited(changes):
    """``valid_doc()`` with each ``path: value`` of ``changes`` applied; a
    path is a tuple of keys, and the value ``_DELETE`` removes the key."""
    doc = valid_doc()
    for path, value in changes.items():
        *parents, key = path
        owner = doc
        for name in parents:
            owner = owner[name]
        if value is _DELETE:
            del owner[key]
        else:
            owner[key] = value
    return doc


class TestSchema:
    def test_valid_document_loads_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = scenario_from_dict(valid_doc())
        assert sc.name == "custom"
        assert sc.theta_df == pytest.approx(math.radians(50.0))
        assert sc.targets.settle_deg == 1.0
        assert sc.targets.terminal_deg is None
        assert sc.sim.duration == 60.0

    def test_auto_repulsion_gain_balances_attraction(self):
        sc = scenario_from_dict(valid_doc())
        cone = sc.obstacles[0]
        sep = math.acos(float(np.dot(sc.target_inertial, cone.axis_inertial)))
        want = 2.5 * (1.0 - math.cos(sep - math.radians(27.0)))
        assert cone.k_r == pytest.approx(want, rel=1e-12)

    def test_explicit_repulsion_gain_wins(self):
        doc = valid_doc()
        doc["obstacles"][0]["k_r"] = 0.77
        sc = scenario_from_dict(doc)
        assert sc.obstacles[0].k_r == 0.77

    def test_missing_sections_name_their_paths(self):
        doc = valid_doc()
        del doc["spacecraft"]
        del doc["envelope"]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "schema"
        joined = "\n".join(err.value.errors)
        assert "$.spacecraft" in joined
        assert "$.envelope" in joined

    def test_wrong_types_are_reported_per_field(self):
        doc = valid_doc()
        doc["spacecraft"]["torque_limit"] = "high"
        doc["initial"]["attitude"] = [0.0, 0.0, 1.0]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        joined = "\n".join(err.value.errors)
        assert "$.spacecraft.torque_limit" in joined
        assert "$.initial.attitude" in joined
        assert len(err.value.errors) >= 2

    def test_normalization_warning_on_sloppy_target(self):
        doc = valid_doc()
        doc["target_inertial"] = [-0.866, 0.5, 0.0]  # norm off by 2e-5
        with pytest.warns(UserWarning, match="target_inertial"):
            sc = scenario_from_dict(doc)
        assert np.linalg.norm(sc.target_inertial) == pytest.approx(1.0,
                                                                   abs=1e-15)

    def test_goal_inside_buffer_blocks_auto_gain(self):
        doc = valid_doc()
        doc["obstacles"][0]["axis_inertial"] = list(TARGET)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert any("automatic value undefined" in e for e in err.value.errors)

    def test_bad_cone_ordering_reported(self):
        doc = valid_doc()
        doc["obstacles"][0]["theta_1_deg"] = 40.0  # buffer wider than outer
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert any(e.startswith("$.obstacles[0]") for e in err.value.errors)

    def test_theta_df_range(self):
        doc = valid_doc()
        doc["theta_df_deg"] = 200.0
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert any("$.theta_df_deg" in e for e in err.value.errors)

    def test_zero_obstacles_allowed(self):
        doc = valid_doc()
        doc["obstacles"] = []
        with pytest.warns(UserWarning, match=re.escape(
                "$.switching.theta_p1_deg: ignored, there are no obstacles")):
            sc = scenario_from_dict(doc)
        assert sc.obstacles == ()
        # placeholder switch band sits just below beta = 1, out of reach
        assert sc.switch.v1 < 1.0

    def test_bad_sim_settings(self):
        doc = valid_doc()
        doc["sim"]["controller_mode"] = "magic"
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert any("$.sim" in e for e in err.value.errors)

    @pytest.mark.parametrize("key,value", [
        ("dt", math.nan), ("duration", math.inf), ("dt", -math.inf),
        *(pytest.param(key, 10 ** 400, id=f"{key}-10**400")
          for key in ("dt", "duration", "record_stride"))])
    def test_non_finite_sim_settings_rejected(self, key, value):
        # an integer beyond the double range is rejected as in every other
        # section; a non-finite float by SimConfig
        doc = valid_doc()
        doc["sim"][key] = value
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert (f"$.sim: {key} must be finite" if isinstance(value, float)
                else f"$.sim.{key}: expected a finite number"
                ) in err.value.errors

    @pytest.mark.parametrize("key", ["dt", "duration", "record_stride"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, pytest.param(10 ** 400, id="10**400")])
    def test_sim_config_rejects_non_finite(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            SimConfig(**{key: value})

    def test_sim_config_rejects_a_step_count_that_overflows(self):
        with pytest.raises(ValueError, match="duration / dt must be finite"):
            SimConfig(dt=1e-300, duration=1e10)

    def test_integrator_key_accepts_rk4_only(self):
        doc = valid_doc()
        doc["sim"]["integrator"] = "rk4"
        assert scenario_from_dict(doc).sim == scenario_from_dict(valid_doc()).sim
        for value in ("euler", 4):
            doc["sim"]["integrator"] = value
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(doc)
            assert err.value.errors == [
                '$.sim.integrator: only "rk4" is supported']

    def test_fractional_record_stride_rejected(self):
        doc = valid_doc()
        doc["sim"]["record_stride"] = 2.5
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert any(e.startswith("$.sim.record_stride") for e in err.value.errors)
        doc["sim"]["record_stride"] = 2.0
        assert scenario_from_dict(doc).sim.record_stride == 2

    @pytest.mark.parametrize("section,key,value", [
        ("controller", "k_p", math.nan), ("controller", "td_r", math.inf),
        ("controller", "eta", math.inf),
        pytest.param("controller", "k1", 10 ** 400, id="controller-k1-1e400"),
        ("spacecraft", "disturbance_bound", math.nan),
        ("spacecraft", "torque_limit", math.inf),
        ("switching", "m", math.nan), ("envelope", "rho_0", -math.inf),
        ("targets", "settle_deg", math.nan)])
    def test_non_finite_numbers_rejected(self, section, key, value):
        doc = valid_doc()
        doc[section][key] = value
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert f"$.{section}.{key}: expected a finite number" in err.value.errors

    def test_non_finite_top_level_and_cone_numbers_rejected(self):
        doc = valid_doc()
        doc["theta_df_deg"] = math.nan
        doc["obstacles"][0]["r_slope"] = math.inf
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert "$.theta_df_deg: expected a finite number" in err.value.errors
        assert ("$.obstacles[0].r_slope: expected a finite number"
                in err.value.errors)

    @pytest.mark.parametrize("section,key,vec,bad", [
        ("initial", "omega", [math.nan, 0.0, 0.0], [0]),
        ("spacecraft", "inertia_diag", [math.inf, 5.0, 5.0], [0]),
        ("initial", "attitude", [0.0, math.nan, 0.0, -math.inf], [1, 3])])
    def test_non_finite_vector_entries_rejected(self, section, key, vec, bad):
        doc = valid_doc()
        doc[section][key] = vec
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.errors == [
            f"$.{section}.{key}[{i}]: expected a finite number" for i in bad]

    @pytest.mark.parametrize("entry", ["5.08", True, math.nan, math.inf, None,
                                       pytest.param(10 ** 400, id="1e400")])
    def test_inertia_matrix_entries_must_be_finite_numbers(self, entry):
        doc = valid_doc()
        del doc["spacecraft"]["inertia_diag"]
        doc["spacecraft"]["inertia"] = [[5.08, 0.0, 0.0],
                                        [0.0, 5.14, 0.0],
                                        [0.0, entry, 5.0]]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.errors == [
            "$.spacecraft.inertia[2][1]: expected a finite number"]

    def test_overflowing_bridge_steepness_reported_on_its_cone(self):
        doc = valid_doc()
        doc["obstacles"][0].update(r_slope=1e308, k_r=1e-3)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.errors == [
            "$.obstacles[0]: bridge steepness must be positive and finite, "
            "got inf"]

    def test_full_inertia_matrix_accepted(self):
        doc = valid_doc()
        del doc["spacecraft"]["inertia_diag"]
        doc["spacecraft"]["inertia"] = [[5.08, 0.01, 0.0],
                                        [0.01, 5.14, 0.0],
                                        [0.0, 0.0, 5.0]]
        sc = scenario_from_dict(doc)
        assert sc.params.inertia[0][1] == 0.01

    def test_switching_p1_as_cosine_matches_the_angle(self):
        doc = valid_doc()
        del doc["switching"]["theta_p1_deg"]
        doc["switching"]["p1"] = math.cos(math.radians(30.0))
        assert scenario_from_dict(doc).switch == scenario_from_dict(
            valid_doc()).switch

    @pytest.mark.parametrize("theta_p1_deg,message", [
        (20.0, "$.switching: p1 must not exceed the repulsion plateau edge"),
        (36.0, "$.switching: switch knots must satisfy v1 < p1"),
        (40.0, "$.switching: switch knots must satisfy v1 < p1")])
    def test_switching_p1_outside_the_blend_band_rejected(
            self, theta_p1_deg, message):
        # the cone's plateau edge sits at 27 deg and its onset at 36 deg
        doc = valid_doc()
        del doc["switching"]["theta_p1_deg"]
        doc["switching"]["p1"] = math.cos(math.radians(theta_p1_deg))
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.errors == [message]

    def test_switching_p1_and_theta_p1_deg_together_rejected(self):
        doc = valid_doc()
        doc["switching"]["p1"] = math.cos(math.radians(28.0))
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.errors == [
            "$.switching: give p1 or theta_p1_deg, not both"]

    @pytest.mark.parametrize("key,value", [
        ("p1", 5.0), ("theta_p1_deg", 30.0)])
    def test_switching_p1_without_obstacles_warns(self, key, value):
        doc = valid_doc()
        doc["obstacles"] = []
        del doc["switching"]["theta_p1_deg"]
        doc["switching"][key] = value
        message = f"$.switching.{key}: ignored, there are no obstacles"
        with pytest.warns(UserWarning) as record:
            scenario_from_dict(doc)
        assert [str(w.message) for w in record] == [message]

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", ".."])
    def test_name_must_be_one_path_component(self, name):
        # a run writes into a directory of this name under its --out
        doc = valid_doc()
        doc["name"] = name
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "schema"
        assert err.value.errors == [
            f"$.name: expected one plain path component, got {name!r}"]

    def test_zero_attitude_quaternion_rejected(self):
        doc = valid_doc()
        doc["initial"]["attitude"] = [0, 0, 0, 0]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.errors == ["$.initial: zero quaternion"]

    def test_overflowing_attitude_quaternion_rejected(self):
        # finite components whose norm overflows, which would divide to the
        # zero quaternion
        doc = valid_doc()
        doc["initial"]["attitude"] = [1e200, 1e200, 0, 0]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.errors == ["$.initial: quaternion norm overflows"]

    @pytest.mark.parametrize("doc,message", [
        pytest.param([valid_doc()], "$: top level must be an object",
                     id="top-level"),
        pytest.param(edited({("name",): ""}),
                     "$.name: expected a nonempty string", id="name"),
        pytest.param(edited({("description",): 5}),
                     "$.description: expected a string", id="description"),
        pytest.param(edited({("spacecraft", "inertia_diag"): _DELETE,
                             ("spacecraft", "inertia"): [[5.0, 0.0, 0.0],
                                                         [0.0, 5.0, 0.0]]}),
                     "$.spacecraft.inertia: expected a 3x3 matrix "
                     "(or use inertia_diag)", id="inertia"),
        pytest.param(edited({("boresight_body",): _DELETE}),
                     "$.boresight_body: missing required 3-vector",
                     id="missing-vector"),
        pytest.param(edited({("envelope",): []}),
                     "$.envelope: expected an object", id="section"),
        pytest.param(edited({("target_inertial",): [0.0, 0.0, 0.0]}),
                     "$.target_inertial: zero vector cannot be normalized",
                     id="zero-vector"),
        # finite components whose norm overflows, which would divide to a
        # zero vector
        pytest.param(edited({("target_inertial",): [1e308, 1e308, 0.0]}),
                     "$.target_inertial: norm overflows, cannot be normalized",
                     id="overflowing-target"),
        pytest.param(edited({("boresight_body",): [1e308, 1e308, 0.0]}),
                     "$.boresight_body: norm overflows, cannot be normalized",
                     id="overflowing-boresight"),
        pytest.param(edited({("obstacles", 0, "axis_inertial"):
                             [1e308, 1e308, 0.0]}),
                     "$.obstacles[0].axis_inertial: norm overflows, cannot "
                     "be normalized", id="overflowing-cone-axis"),
        pytest.param(edited({("obstacles",): {},
                             ("switching", "theta_p1_deg"): _DELETE}),
                     "$.obstacles: expected a list (may be empty)",
                     id="obstacles"),
        pytest.param(edited({("obstacles",): [5]}),
                     "$.obstacles[0]: expected an object", id="cone"),
        pytest.param(edited({("sim",): 5}), "$.sim: expected an object",
                     id="sim"),
        pytest.param(edited({("sim", "record_stride"): 2.5}),
                     "$.sim.record_stride: expected an integer",
                     id="record-stride"),
        pytest.param(edited({("sim", "controller_mode"): 5}),
                     "$.sim.controller_mode: expected a string",
                     id="controller-mode"),
        pytest.param(edited({("sim", "disturbance_enabled"): "yes"}),
                     "$.sim.disturbance_enabled: expected a boolean",
                     id="disturbance-enabled"),
        pytest.param(edited({("targets",): []}),
                     "$.targets: expected an object", id="targets"),
        pytest.param(edited({("sim", "duration"): 0.005}),
                     "$.sim: duration must cover at least one step",
                     id="duration-short"),
        pytest.param(edited({("sim", "duration"): 60.005}),
                     "$.sim: duration must be a whole number of steps of dt",
                     id="duration-fraction"),
    ])
    def test_each_loader_message(self, doc, message):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert err.value.kind == "schema"
        assert message in err.value.errors

    @pytest.mark.parametrize("duration", [0.015, 0.025, 10.005, 0.5 + 1e-6])
    def test_duration_must_be_a_whole_number_of_steps(self, duration):
        # a rounded step count would end the run at another time than the
        # summary's duration_s: 0.015 and 0.025 s both at 0.02 s
        with pytest.raises(ValueError, match="duration must be a whole "
                                             "number of steps of dt"):
            SimConfig(dt=0.01, duration=duration)

    @pytest.mark.parametrize("dt,duration", [
        (0.01, 17.85), (0.01, 120.0), (0.01, 0.01), (0.005, 0.015),
        (0.03, 120.0), (0.1, 0.3)])
    def test_whole_step_durations_within_rounding_pass(self, dt, duration):
        # 17.85 / 0.01 is 1784.9999999999998, inside the relative 1e-9
        assert SimConfig(dt=dt, duration=duration).duration == duration

    def test_non_unit_attitude_normalized_with_warning(self):
        doc = valid_doc()
        doc["initial"]["attitude"] = [0, 0, 0, 2]
        with pytest.warns(UserWarning) as record:
            sc = scenario_from_dict(doc)
        q = sc.initial.attitude
        assert (q.x, q.y, q.z, q.w) == (0.0, 0.0, 0.0, 1.0)
        assert [str(w.message) for w in record] == [
            "$.initial.attitude: normalized (norm correction 1.000e+00)"]


def sloppy_doc(kind):
    """A valid document that loads with exactly one warning of ``kind``."""
    doc = valid_doc()
    if kind == "attitude":
        doc["initial"]["attitude"] = [0, 0, 0, 2]
    elif kind == "unit-vector":
        doc["target_inertial"] = [2.0 * c for c in doc["target_inertial"]]
    else:
        doc["obstacles"] = []
    return doc


@pytest.mark.parametrize("kind", ["attitude", "unit-vector", "switching"])
class TestWarningAttribution:
    """A load warning names the line that called the loader, so that a
    ``-W`` filter on the caller's module selects it."""

    def test_scenario_from_dict(self, kind):
        with pytest.warns(UserWarning) as record:
            scenario_from_dict(sloppy_doc(kind))
        assert [w.filename for w in record] == [__file__]

    def test_load_scenario(self, kind, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(sloppy_doc(kind)))
        with pytest.warns(UserWarning) as record:
            load_scenario(path)
        assert [w.filename for w in record] == [__file__]


class TestLoadScenario:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(valid_doc()))
        sc = load_scenario(path)
        assert sc.name == "custom"

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            load_scenario(tmp_path / "absent.json")
        assert err.value.kind == "parse"

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not valid json")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.kind == "parse"
        assert "invalid JSON" in err.value.errors[0]

    def test_text_that_is_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.kind == "parse"
        assert err.value.errors[0].startswith(f"{path}: not UTF-8 text")


class TestPresets:
    def test_listing_matches_names(self):
        listed = list_presets()
        assert tuple(name for name, _ in listed) == PRESET_NAMES
        assert len(listed) == 9
        assert all(desc for _, desc in listed)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            load_preset("paper-ten-7")

    def test_presets_load_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in PRESET_NAMES:
                load_preset(name)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_pass_validation(self, name):
        sc = load_preset(name)
        report = initial_report(sc)
        assert report.ok, f"{name}: {report.describe()}"
        assert not report.warnings, f"{name}: {report.describe()}"

    def test_preset_specific_geometry(self):
        assert len(load_preset("paper-single-1").obstacles) == 1
        assert len(load_preset("paper-two-3").obstacles) == 2
        assert len(load_preset("paper-three-1").obstacles) == 3
        narrow = load_preset("paper-two-4")
        assert math.degrees(narrow.obstacles[0].theta_0) == pytest.approx(30.0)
        assert math.degrees(narrow.obstacles[0].theta_1) == pytest.approx(25.0)
        assert math.degrees(narrow.theta_df) == pytest.approx(38.0)
        strict = load_preset("paper-compare-1")
        assert strict.targets.terminal_deg == pytest.approx(0.1)

    def test_forbidden_halves_never_relax(self):
        # every preset keeps the hard exclusion half-angle at 20 degrees
        for name in PRESET_NAMES:
            sc = load_preset(name)
            for cone in sc.obstacles:
                assert math.degrees(cone.theta_f) == pytest.approx(20.0)

    def test_with_sim_does_not_mutate_original(self):
        sc = load_preset("paper-single-1")
        short = sc.with_sim(duration=1.0)
        assert sc.sim.duration != 1.0
        assert short.sim.duration == 1.0
        assert short.controller is sc.controller
