"""Command line behavior: outputs, overrides, and exit codes."""

import json
import math
import re

import pytest

from slewguard.cli import main
from test_scenario import valid_doc


def write_scenario(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestListPresets:
    def test_lists_all(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "paper-single-1" in out
        assert "paper-three-1" in out
        assert len(out.strip().splitlines()) == 9


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "slewguard" in capsys.readouterr().out


class TestRun:
    def test_scenario_file_happy_path(self, tmp_path, capsys):
        doc = valid_doc()
        del doc["targets"]  # no targets: success is just the constraint
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "runs"
        code = main(["run", "--scenario", str(path), "--duration", "2",
                     "--out", str(out)])
        assert code == 0
        assert (out / "custom" / "trajectory.csv").exists()
        summary = json.loads((out / "custom" / "summary.json").read_text())
        assert summary["scenario"] == "custom"
        assert summary["duration_s"] == 2.0
        assert "[ok]" in capsys.readouterr().out

    def test_overrides_reach_summary(self, tmp_path):
        doc = valid_doc()
        del doc["targets"]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "runs"
        code = main(["run", "--scenario", str(path), "--duration", "1",
                     "--dt", "0.02", "--no-disturbance", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "custom" / "summary.json").read_text())
        assert summary["dt"] == 0.02
        assert summary["disturbance_enabled"] is False

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = main(["run", "--preset", "paper-ten-7",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_broken_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_schema_error_exits_3(self, tmp_path, capsys):
        doc = valid_doc()
        del doc["controller"]
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "$.controller" in capsys.readouterr().err

    def test_parameter_validation_exits_3(self, tmp_path, capsys):
        doc = valid_doc()
        doc["controller"]["k1"] = 0.05  # breaks the gain ordering rule
        del doc["targets"]
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "gain-ordering" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("dt", math.nan),
                                           ("duration", math.inf)])
    def test_non_finite_sim_setting_exits_3(self, tmp_path, capsys, key,
                                            value):
        doc = valid_doc()
        doc["sim"][key] = value  # written as the JSON literal NaN/Infinity
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert f"$.sim: {key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value,message", [
        ("controller", "k_p", math.nan,
         "$.controller.k_p: expected a finite number"),
        ("spacecraft", "torque_limit", math.inf,
         "$.spacecraft.torque_limit: expected a finite number"),
        ("switching", "m", math.nan, "$.switching.m: expected a finite number"),
        ("initial", "omega", [math.nan, 0.0, 0.0],
         "$.initial.omega[0]: expected a finite number"),
        ("spacecraft", "inertia_diag", [math.inf, 5.0, 5.0],
         "$.spacecraft.inertia_diag[0]: expected a finite number")])
    def test_non_finite_scenario_number_exits_3(self, tmp_path, capsys,
                                                section, key, value, message):
        doc = valid_doc()
        doc[section][key] = value  # written as the JSON literal NaN/Infinity
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_inertia_matrix_with_a_string_entry_exits_3(self, tmp_path, capsys):
        doc = valid_doc()
        del doc["spacecraft"]["inertia_diag"]
        doc["spacecraft"]["inertia"] = [["5.08", 0, 0], [0, 5.14, 0],
                                        [0, 0, 5.0]]
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert ("$.spacecraft.inertia[0][0]: expected a finite number"
                in capsys.readouterr().err)

    def test_bridge_steepness_overflow_exits_3(self, tmp_path, capsys):
        doc = valid_doc()
        doc["obstacles"][0].update(r_slope=1e308, k_r=1e-3)
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert ("$.obstacles[0]: bridge steepness must be positive and finite"
                in capsys.readouterr().err)

    def test_p1_beyond_the_plateau_edge_exits_3(self, tmp_path, capsys):
        doc = valid_doc()
        del doc["switching"]["theta_p1_deg"]
        doc["switching"]["p1"] = math.cos(math.radians(20.0))
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: $.switching: p1 must not exceed the repulsion plateau "
            "edge\n")

    def test_p1_and_theta_p1_deg_together_exit_3(self, tmp_path, capsys):
        doc = valid_doc()
        doc["switching"]["p1"] = math.cos(math.radians(28.0))
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: $.switching: give p1 or theta_p1_deg, not both\n")

    def test_cone_free_scenario_with_a_wide_switch_band_runs(self, tmp_path):
        doc = valid_doc()
        del doc["targets"]
        doc["obstacles"] = []
        doc["switching"]["delta"] = 0.6
        path = write_scenario(tmp_path, doc)
        with pytest.warns(UserWarning, match=re.escape(
                "$.switching.theta_p1_deg: ignored, there are no obstacles")):
            code = main(["run", "--scenario", str(path), "--duration", "1",
                         "--out", str(tmp_path / "runs")])
        assert code == 0

    def test_integrator_other_than_rk4_exits_3(self, tmp_path, capsys):
        doc = valid_doc()
        doc["sim"]["integrator"] = "euler"
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert ('$.sim.integrator: only "rk4" is supported'
                in capsys.readouterr().err)

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "paper-single-1", "--seed", "3",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--duration", "inf", "duration must be finite"),
        ("--dt", "nan", "dt must be finite"),
        ("--dt", "0", "dt must be positive")])
    def test_bad_sim_override_exits_3(self, tmp_path, capsys, flag, value,
                                      message):
        code = main(["run", "--preset", "paper-single-1", flag, value,
                     "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == f"error: paper-single-1: {message}\n"

    def test_missed_targets_exit_5(self, tmp_path, capsys):
        # 2 simulated seconds cannot settle, so declared targets are missed
        doc = valid_doc()
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--duration", "2",
                     "--out", str(tmp_path / "runs")])
        assert code == 5
        assert "[MISS]" in capsys.readouterr().out

    def test_compare_writes_baseline_artifacts(self, tmp_path):
        doc = valid_doc()
        del doc["targets"]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "runs"
        code = main(["run", "--scenario", str(path), "--duration", "2",
                     "--compare", "--out", str(out)])
        assert code == 0
        case = out / "custom"
        assert (case / "trajectory_benchmark.csv").exists()
        assert (case / "summary_benchmark.json").exists()
        comparison = json.loads((case / "comparison.json").read_text())
        assert comparison["benchmark_apf"]["controller_mode"] == "benchmark_apf"
        assert "proposed_not_worse" in comparison

    def test_preset_runs_end_to_end(self, tmp_path, capsys):
        code = main(["run", "--preset", "paper-single-1", "--duration", "2",
                     "--out", str(tmp_path)])
        # too short for its targets, but must run and write artifacts
        assert code in (0, 5)
        assert (tmp_path / "paper-single-1" / "summary.json").exists()
        capsys.readouterr()
