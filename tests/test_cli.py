"""Command line behavior: outputs, overrides, and exit codes."""

import glob
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from io import TextIOBase
from pathlib import Path

import pytest

import slewguard
from slewguard import cli, engine
from slewguard.cli import main
from slewguard.engine import (
    SimulationAbort,
    _csv_text,
    run_scenario,
    write_trajectory_csv,
)
from slewguard.scenario import list_presets, load_preset, load_scenario
from loop_fixtures import SUM_ORDER_PAIRS
from test_acceptance import (
    BASELINE_SHA256,
    BASELINE_SUMMARY_SHA256,
    SUMMARY_SHA256,
    TRAJECTORY_SHA256,
    summary_sha256,
)
from test_scenario import valid_doc

SRC = Path(slewguard.__file__).resolve().parents[1]


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


# every user path in one interpreter: the package, both commands, a
# comparison run, and a scenario file through the library; the modules it
# loaded of numpy and of multiprocessing are printed
NO_NUMPY_PROBE = """
import sys
import slewguard
from slewguard import cli
from slewguard.engine import run_scenario
from slewguard.scenario import load_scenario

out, example = sys.argv[1:]
assert cli.main(["list-presets"]) == 0
assert cli.main(["run", "--preset", "paper-three-1", "--compare",
                 "--duration", "2", "--out", out]) in (0, 5)
run_scenario(load_scenario(example).with_sim(duration=2.0))
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("numpy", "multiprocessing")))
"""


def test_user_paths_do_not_import_numpy(tmp_path):
    # the package computes in Python floats; importing an array library
    # would cost every cold start its import time.  And the comparison's
    # baseline runs on a thread, so no path needs multiprocessing
    root = SRC.parent
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, str(tmp_path),
         str(root / "docs" / "example_scenario.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_footprint():
    # no path starts a process, so none pays for multiprocessing (a
    # --compare run is checked above).  The value classes are plain
    # classes, so dataclasses and the inspect module it pulls in stay out
    # of every start.  The compiled kernel is loaded by the first run, so
    # ctypes stays out too, and its build, one call of the C compiler,
    # needs no setuptools.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, slewguard.cli; print(sorted({'ctypes', 'dataclasses', "
         "'inspect', 'multiprocessing', 'setuptools'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]", proc.stderr


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

    def test_text_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_boresight_whose_norm_overflows_exits_3(self, tmp_path, capsys):
        # it would divide to a zero vector, which no cone or goal constrains
        doc = json.loads((SRC.parent / "docs" / "example_scenario.json"
                          ).read_text())
        doc["boresight_body"] = [1e308, 1e308, 0]
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "$.boresight_body: norm overflows" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key,value", [
        ("dt", math.nan), ("duration", math.inf),
        *(pytest.param(key, 10 ** 400, id=f"{key}-10**400")
          for key in ("dt", "duration", "record_stride"))])
    def test_non_finite_sim_setting_exits_3(self, tmp_path, capsys, key,
                                            value):
        # NaN and Infinity are written as those JSON literals, and 10**400
        # as an integer that no double can hold
        doc = valid_doc()
        doc["sim"][key] = value
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert (f"$.sim: {key} must be finite" if isinstance(value, float)
                else f"$.sim.{key}: expected a finite number"
                ) in capsys.readouterr().err

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
        ("--dt", "0", "dt must be positive"),
        ("--duration", "10.005",
         "duration must be a whole number of steps of dt"),
        ("--dt", "0.007", "duration must be a whole number of steps of dt")])
    def test_bad_sim_override_exits_3(self, tmp_path, capsys, flag, value,
                                      message):
        code = main(["run", "--preset", "paper-single-1", flag, value,
                     "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == f"error: paper-single-1: {message}\n"

    @pytest.mark.parametrize("compare", [[], ["--compare"]],
                             ids=["alone", "compare"])
    @pytest.mark.parametrize("duration, rows", [("1e300", "1e+302"),
                                                ("1e13", "1e+15")],
                             ids=["1e300", "1e13"])
    def test_a_log_too_large_exits_3(self, tmp_path, capsys, duration, rows,
                                     compare):
        # neither log can be allocated, so no memory is touched
        code = main(["run", "--preset", "paper-two-1", "--duration", duration,
                     *compare, "--out", str(tmp_path / "runs")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: paper-two-1: the log's {rows} rows of 19 values do not "
            f"fit in memory\n")
        assert list((tmp_path / "runs" / "paper-two-1").iterdir()) == []

    def test_missed_targets_exit_5(self, tmp_path, capsys):
        # 2 simulated seconds cannot settle, so declared targets are missed
        doc = valid_doc()
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", str(path), "--duration", "2",
                     "--out", str(tmp_path / "runs")])
        assert code == 5
        assert "[MISS]" in capsys.readouterr().out

    @pytest.mark.parametrize("name,given,code,case", [
        (None, "absolute", 0, "noname"), (None, "relative", 0, "noname"),
        ("../escaped", "absolute", 3, None)],
        ids=["unnamed-absolute", "unnamed-relative", "escaping-name"])
    def test_scenario_name_is_a_directory_under_out(
            self, tmp_path, capsys, monkeypatch, name, given, code, case):
        # an unnamed file is named after its stem; a name that would leave
        # --out is a schema error
        doc = doc_without_targets()
        del doc["name"]
        if name is not None:
            doc["name"] = name
        path = write_scenario(tmp_path, doc, "noname.json")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "cases" / "runs"
        assert main(["run", "--scenario",
                     str(path) if given == "absolute" else path.name,
                     "--duration", "2", "--out", str(out)]) == code
        got = capsys.readouterr()
        if case is None:
            assert got.err == ("error: $.name: expected one plain path "
                               f"component, got {name!r}\n")
            assert not (tmp_path / "cases").exists()
        else:
            assert got.out.startswith(f"{case}: clearance ")
            assert [p.name for p in out.iterdir()] == [case]

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


def doc_without_targets(**initial):
    doc = valid_doc()
    del doc["targets"]
    doc["initial"].update(initial)
    return doc


def run_compare(path, out):
    return main(["run", "--scenario", str(path), "--duration", "2",
                 "--compare", "--out", str(out)])


class TestCompareInASecondProcess:
    """``--compare`` runs the baseline on a thread beside the proposed
    run; every failure keeps the sequential run's exit code and message,
    and leaves neither a thread nor a baseline file behind."""

    @pytest.mark.parametrize("doc,code,message", [
        (doc_without_targets(omega=[1e100, 0.0, 0.0]), 4,
         "error: custom: simulation aborted at t=0.0100 s: non-finite value "
         "in quat[0]\n"),
        (dict(doc_without_targets(),
              controller=dict(valid_doc()["controller"], k1=0.05)), 3,
         "error: custom:\n[fail] gain-ordering: k1=0.05 vs k_rho=0.1 "
         "(need k1 > k_rho)\n")], ids=["abort", "validation"])
    def test_failing_proposed_run(self, tmp_path, capsys, doc, code,
                                  message):
        path = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", str(path), "--duration", "2",
                     "--out", str(tmp_path / "alone")]) == code
        alone = capsys.readouterr()
        assert run_compare(path, tmp_path / "runs") == code
        got = capsys.readouterr()
        assert got.out == alone.out == ""
        assert got.err == alone.err
        assert got.err.startswith(message)
        assert list((tmp_path / "runs" / "custom").iterdir()) == []

    def test_proposed_abort_after_the_baseline_wrote(self, tmp_path, capsys,
                                                     monkeypatch):
        # the proposed run fails once the baseline's files exist under
        # their temporary names: the baseline is waited for and they are
        # removed
        case = tmp_path / "runs" / "custom"
        run_scenario = cli.run_scenario

        def run(scenario):
            if scenario.sim.controller_mode == "benchmark_apf":
                return run_scenario(scenario)
            deadline = time.monotonic() + 60.0
            while (len(list(case.iterdir())) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            raise SimulationAbort(0.5, "stopped by the test")

        monkeypatch.setattr(cli, "run_scenario", run)
        path = write_scenario(tmp_path, doc_without_targets())
        assert run_compare(path, tmp_path / "runs") == 4
        assert capsys.readouterr().err == (
            "error: custom: simulation aborted at t=0.5000 s: stopped by the "
            "test\n")
        assert list(case.iterdir()) == []

    @pytest.mark.parametrize("loop", ["kernel", "reference"])
    def test_both_sides_write_their_pinned_bytes(self, tmp_path, capsys,
                                                 request, loop):
        # the two sides share a process but no mutable state: each writes
        # the bytes of its pins, whether their kernel calls overlap or
        # their reference loops take turns, here every few bytecodes
        if loop == "reference":
            request.getfixturevalue("reference_path")
        name = "paper-compare-1"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert main(["run", "--preset", name, "--compare",
                         "--out", str(tmp_path)]) == 0
        finally:
            sys.setswitchinterval(interval)
        capsys.readouterr()
        case = tmp_path / name
        assert [hashlib.sha256((case / csv).read_bytes()).hexdigest()
                for csv in ("trajectory.csv", "trajectory_benchmark.csv")
                ] == [TRAJECTORY_SHA256[name], BASELINE_SHA256[name]]
        assert [summary_sha256(json.loads((case / f).read_text()))
                for f in ("summary.json", "summary_benchmark.json")
                ] == [SUMMARY_SHA256[name], BASELINE_SUMMARY_SHA256[name]]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="placement needs Linux and two CPUs")
    def test_baseline_is_kept_off_the_run_cpu(self, tmp_path, capsys,
                                              monkeypatch):
        # the baseline, a run's only thread, may use one CPU fewer than the
        # run
        allowed = os.sched_getaffinity(0)
        started = started_threads(monkeypatch)
        path = write_scenario(tmp_path, doc_without_targets())
        assert run_compare(path, tmp_path / "runs") == 0
        capsys.readouterr()
        ((name, placed),) = started
        assert name == "baseline"
        assert placed < allowed and len(placed) == len(allowed) - 1

    def test_failing_baseline(self, tmp_path, capsys, monkeypatch):
        # as in a sequential run, the proposed case is written and printed
        # before the baseline's abort is reported
        run_scenario = cli.run_scenario

        def run(scenario):
            if scenario.sim.controller_mode == "benchmark_apf":
                raise SimulationAbort(1.0, "baseline stopped by the test",
                                      (0.0,) * 14, 3)
            return run_scenario(scenario)

        monkeypatch.setattr(cli, "run_scenario", run)
        path = write_scenario(tmp_path, doc_without_targets())
        assert run_compare(path, tmp_path / "runs") == 4
        got = capsys.readouterr()
        assert got.out.startswith("custom: clearance ")
        assert len(got.out.splitlines()) == 1
        assert got.err == ("error: custom: simulation aborted at t=1.0000 s: "
                           "baseline stopped by the test\n")
        case = tmp_path / "runs" / "custom"
        assert sorted(p.name for p in case.iterdir()) == [
            "summary.json", "trajectory.csv"]

    def test_baseline_write_error_names_its_file(self, tmp_path, capsys,
                                                 monkeypatch):
        # the baseline writes two files; the one that failed is named
        write_json = cli.write_summary_json

        def full_disk(summary, path):
            if Path(path).name == ".summary_benchmark.json.part":
                raise OSError(28, "No space left on device")
            write_json(summary, path)

        monkeypatch.setattr(cli, "write_summary_json", full_disk)
        path = write_scenario(tmp_path, doc_without_targets())
        assert run_compare(path, tmp_path / "runs") == 6
        assert capsys.readouterr().err == (
            "error: custom: summary_benchmark.json not written: [Errno 28] "
            "No space left on device\n")
        case = tmp_path / "runs" / "custom"
        assert sorted(p.name for p in case.iterdir()) == [
            "summary.json", "trajectory.csv"]


# every file a --compare run writes, in the order it is put in place
OUTPUTS = ("trajectory.csv", "summary.json", "trajectory_benchmark.csv",
           "summary_benchmark.json", "comparison.json")


class _SizesAtPrint(TextIOBase):
    """stdout that notes, as each ``<name>: ...`` line is completed, the
    size of ``<out>/<name>/trajectory.csv`` (None while it does not exist),
    as the benchmark stamps each line with the time."""

    def __init__(self, out):
        self.out = out
        self.sizes = {}
        self._part = ""

    def write(self, s):
        self._part += s
        while "\n" in self._part:
            line, self._part = self._part.split("\n", 1)
            path = self.out / line.split(":", 1)[0] / "trajectory.csv"
            self.sizes[path] = path.stat().st_size if path.exists() else None
        return len(s)


def started_threads(monkeypatch):
    """The names of the :class:`cli._Beside` threads started from now on,
    with the CPUs each was left to use, read on the thread as it ends."""
    started = []

    class Beside(cli._Beside):
        def run(self):
            super().run()
            started.append((self.name, os.sched_getaffinity(0)
                            if hasattr(os, "sched_getaffinity") else None))

    monkeypatch.setattr(cli, "_Beside", Beside)
    return started


def full_disk_after(monkeypatch, limit):
    """Make each file that ``engine`` opens for binary writing, the
    trajectory CSVs, fail as on a full disk once more than ``limit`` bytes
    would be in it."""
    class Full(io.FileIO):
        def write(self, b):
            if self.tell() + len(memoryview(b)) > limit:
                raise OSError(28, "No space left on device")
            return super().write(b)

    def opener(path, mode="r", **kwargs):
        if mode != "wb":
            return open(path, mode, **kwargs)
        return io.BufferedWriter(Full(path, "w"))

    monkeypatch.setattr(engine, "open", opener, raising=False)


class TestTrajectoryWriter:
    """A run writes ``trajectory.csv`` itself, with the bytes of
    :func:`write_trajectory_csv` on either formatter, and starts no thread;
    the file is complete when the run's line prints, and an output that
    cannot be written exits 6 (every test is checked for a thread or a
    temporary file left behind, see ``conftest.py``)."""

    @pytest.mark.parametrize("rows,stride", [
        (2, 1), (3, 1), (255, 1), (256, 1), (257, 1), (769, 1), (287, 7)])
    def test_bytes_equal_the_library_writer(self, tmp_path, capsys, rows,
                                            stride):
        doc = doc_without_targets()
        doc["sim"].update(duration=(rows - 1) * stride * 0.01,
                          record_stride=stride)
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "runs"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        result = run_scenario(load_scenario(path))
        assert len(result.records) == rows
        write_trajectory_csv(result.records, tmp_path / "library.csv")
        written = (out / "custom" / "trajectory.csv").read_bytes()
        assert written == (tmp_path / "library.csv").read_bytes()
        # and the Python formatter's text, which runs without a library
        assert written == "".join(
            _csv_text(result.records.data, result.records.columns)).encode()

    def test_golden_preset(self, tmp_path, capsys):
        name = "paper-single-1"
        assert load_preset(name).sim.duration == 120.0
        assert main(["run", "--preset", name, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        written = (tmp_path / name / "trajectory.csv").read_bytes()
        assert hashlib.sha256(written).hexdigest() == TRAJECTORY_SHA256[name]

    def test_file_is_complete_when_its_line_prints(self, tmp_path):
        stdout = _SizesAtPrint(tmp_path)
        with redirect_stdout(stdout):
            # three simulated seconds: 301 rows per preset
            assert main(["run", "--all-presets", "--duration", "3",
                         "--out", str(tmp_path)]) == 5
        assert len(stdout.sizes) == 9
        for path, size in stdout.sizes.items():
            assert size == path.stat().st_size, path

    def test_a_plain_run_starts_no_child(self, tmp_path, capsys,
                                         monkeypatch):
        started = started_threads(monkeypatch)
        path = write_scenario(tmp_path, doc_without_targets())
        assert main(["run", "--scenario", str(path), "--duration", "10",
                     "--out", str(tmp_path / "runs")]) == 0
        capsys.readouterr()
        assert started == []
        assert sorted(p.name for p in (tmp_path / "runs" / "custom").iterdir()
                      ) == ["summary.json", "trajectory.csv"]

    def test_validation_failure_starts_no_writer(self, tmp_path, capsys,
                                                 monkeypatch):
        started = started_threads(monkeypatch)
        doc = doc_without_targets()
        doc["controller"]["k1"] = 0.05
        path = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", str(path), "--out",
                     str(tmp_path / "runs")]) == 3
        assert "gain-ordering" in capsys.readouterr().err
        assert started == []
        assert list((tmp_path / "runs" / "custom").iterdir()) == []

    def test_abort_starts_no_writer(self, tmp_path, capsys, monkeypatch):
        # the run aborts part way: nothing is written and no thread started
        case = tmp_path / "runs" / "custom"
        started = started_threads(monkeypatch)

        def run(scenario):
            raise SimulationAbort(2.56, "stopped by the test")

        monkeypatch.setattr(cli, "run_scenario", run)
        path = write_scenario(tmp_path, doc_without_targets())
        assert main(["run", "--scenario", str(path), "--duration", "10",
                     "--out", str(tmp_path / "runs")]) == 4
        assert started == []
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == ("error: custom: simulation aborted at t=2.5600 s: "
                           "stopped by the test\n")
        assert list(case.iterdir()) == []

    def test_writer_error_is_reported(self, tmp_path, capsys, monkeypatch):
        # the first write, the header's, fails
        full_disk_after(monkeypatch, 0)
        path = write_scenario(tmp_path, doc_without_targets())
        case = tmp_path / "runs" / "custom"
        assert main(["run", "--scenario", str(path), "--duration", "10",
                     "--out", str(tmp_path / "runs")]) == 6
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == ("error: custom: trajectory.csv not written: "
                           "[Errno 28] No space left on device\n")
        assert list(case.iterdir()) == []

    def test_writer_error_on_the_final_block(self, tmp_path, capsys,
                                             monkeypatch):
        # every byte of trajectory.csv but its last is written: no
        # summary.json is written beside the missing trajectory.csv
        path = write_scenario(tmp_path, doc_without_targets())
        library = tmp_path / "library.csv"
        write_trajectory_csv(run_scenario(
            load_scenario(path).with_sim(duration=10.0)).records, library)
        full_disk_after(monkeypatch, library.stat().st_size - 1)
        case = tmp_path / "runs" / "custom"
        assert main(["run", "--scenario", str(path), "--duration", "10",
                     "--out", str(tmp_path / "runs")]) == 6
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == ("error: custom: trajectory.csv not written: "
                           "[Errno 28] No space left on device\n")
        assert list(case.iterdir()) == []

    def test_proposed_csv_error_under_compare(self, tmp_path, capsys,
                                              monkeypatch):
        # with --compare the proposed run writes its own trajectory.csv; a
        # write that fails part way leaves neither the file nor a thread
        write_csv = cli.write_trajectory_csv

        def full_disk(records, path):
            if Path(path).name != ".trajectory.csv.part":
                return write_csv(records, path)
            Path(path).write_text("time")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_trajectory_csv", full_disk)
        path = write_scenario(tmp_path, doc_without_targets())
        case = tmp_path / "runs" / "custom"
        assert run_compare(path, tmp_path / "runs") == 6
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == ("error: custom: trajectory.csv not written: "
                           "[Errno 28] No space left on device\n")
        assert list(case.iterdir()) == []
        assert threading.enumerate() == [threading.main_thread()]

    @pytest.mark.parametrize("taken", OUTPUTS)
    def test_file_that_cannot_be_moved_into_place(self, tmp_path, capsys,
                                                  taken):
        # a directory where an output goes: the file is neither written nor
        # moved there, the files before it in OUTPUTS are in place, and no
        # file after it (a failed CSV leaves no new summary.json)
        path = write_scenario(tmp_path, doc_without_targets())
        case = tmp_path / "runs" / "custom"
        (case / taken / "taken").mkdir(parents=True)
        assert main(["run", "--scenario", str(path), "--duration", "3",
                     "--compare", "--out", str(tmp_path / "runs")]) == 6
        got = capsys.readouterr()
        assert got.err.startswith(f"error: custom: {taken} not written: "
                                  "[Errno 21] Is a directory")
        assert len(got.err.splitlines()) == 1
        written = OUTPUTS[:OUTPUTS.index(taken) + 1]
        assert sorted(p.name for p in case.iterdir()) == sorted(written)


class TestEarlierOutputs:
    """A scenario's directory holds only the outputs of its latest run: a
    run that fails, or writes fewer files, leaves none of an earlier run's
    behind to pass for its own."""

    @pytest.mark.parametrize("compare", [[], ["--compare"]],
                             ids=["alone", "compare"])
    def test_a_log_too_large(self, tmp_path, capsys, compare):
        out = tmp_path / "runs"
        argv = ["run", "--preset", "paper-two-1", *compare, "--out", str(out)]
        # five simulated seconds miss the preset's settling target
        assert main([*argv, "--duration", "5"]) == 5
        assert main([*argv, "--duration", "1e13"]) == 3
        assert capsys.readouterr().err.endswith("do not fit in memory\n")
        assert list((out / "paper-two-1").iterdir()) == []

    def test_an_abort(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, doc_without_targets())
        case = tmp_path / "runs" / "custom"
        assert run_compare(path, tmp_path / "runs") == 0
        assert sorted(p.name for p in case.iterdir()) == sorted(OUTPUTS)

        def run(scenario):
            raise SimulationAbort(1.0, "stopped by the test")

        monkeypatch.setattr(cli, "run_scenario", run)
        assert main(["run", "--scenario", str(path), "--duration", "2",
                     "--out", str(tmp_path / "runs")]) == 4
        assert capsys.readouterr().err == (
            "error: custom: simulation aborted at t=1.0000 s: stopped by the "
            "test\n")
        assert list(case.iterdir()) == []

    def test_an_output_that_cannot_be_written(self, tmp_path, capsys,
                                              monkeypatch):
        path = write_scenario(tmp_path, doc_without_targets())
        argv = ["run", "--scenario", str(path), "--duration", "2",
                "--out", str(tmp_path / "runs")]
        assert main(argv) == 0
        full_disk_after(monkeypatch, 0)
        assert main(argv) == 6
        assert capsys.readouterr().err == (
            "error: custom: trajectory.csv not written: [Errno 28] No space "
            "left on device\n")
        assert list((tmp_path / "runs" / "custom").iterdir()) == []

    def test_a_plain_run_after_a_comparison(self, tmp_path, capsys):
        path = write_scenario(tmp_path, doc_without_targets())
        case = tmp_path / "runs" / "custom"
        assert run_compare(path, tmp_path / "runs") == 0
        assert main(["run", "--scenario", str(path), "--duration", "1",
                     "--out", str(tmp_path / "runs")]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in case.iterdir()) == [
            "summary.json", "trajectory.csv"]
        summary = json.loads((case / "summary.json").read_text())
        assert summary["duration_s"] == 1.0

    def test_scenarios_after_a_failing_one_are_not_touched(
            self, tmp_path, capsys, monkeypatch):
        # --all-presets stops at the first failure: the failing preset's
        # directory is cleared, and those of the presets after it, which
        # are not run, are not touched
        out = tmp_path / "runs"
        argv = ["run", "--all-presets", "--duration", "1", "--out", str(out)]
        # one simulated second misses every preset's settling target
        assert main(argv) == 5
        names = [name for name, _ in list_presets()]
        before = {name: (out / name / "summary.json").read_bytes()
                  for name in names}
        run_scenario = cli.run_scenario

        def run(scenario):
            if scenario.name == names[1]:
                raise SimulationAbort(0.5, "stopped by the test")
            return run_scenario(scenario)

        monkeypatch.setattr(cli, "run_scenario", run)
        assert main(argv) == 4
        capsys.readouterr()
        assert list((out / names[1]).iterdir()) == []
        for name in names[2:]:
            assert (out / name / "summary.json").read_bytes() == before[name]


def test_all_presets_compare_prints_each_line_once(tmp_path):
    # stdout on a pipe: each preset's line, then its baseline's, once and
    # in order
    proc = subprocess.run(
        [sys.executable, "-m", "slewguard.cli", "run", "--all-presets",
         "--compare", "--duration", "1", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300)
    # one simulated second misses every preset's settling target
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr == ""
    heads = [line.split(":", 1)[0] for line in proc.stdout.splitlines()]
    assert heads == [head for name, _ in list_presets()
                     for head in (name, f"{name} baseline")]


# the compare path under -W error: a warning from any supported interpreter
# fails, such as the one 3.12 and later give when a process that runs a
# thread, as --compare does, forks
COMPARE_ARGS = ("run", "--preset", "paper-three-1", "--compare",
                "--duration", "2")
THIS_VERSION = "%d.%d" % sys.version_info[:2]
OTHER_VERSIONS = [v for v in ("3.10", "3.11", "3.12", "3.13")
                  if v != THIS_VERSION]


def oblique_doc():
    """An oblique boresight that starts in the cone's field band, with a goal
    and cone axis on which a compensated ``sum()`` of the goal separation's
    products (Python 3.12 on) differs from adding them left to right.  The
    loader sets the omitted ``k_r`` from that separation, and the 2 s run
    depends on it: the compensated sum moves ``k_r`` by 10 ulp and the
    CSV's digest with it."""
    target, axis = SUM_ORDER_PAIRS[1]
    doc = valid_doc()
    doc.update(name="oblique", boresight_body=[0.64, 0.48, 0.6],
               target_inertial=list(target))
    doc["obstacles"][0].update(axis_inertial=list(axis), theta_1_deg=26.0)
    return doc


def cli_run(python, args, case):
    """Exit code, stderr and the CSV digests of ``python -W error -m
    slewguard.cli *args --out <case's parent>``, which writes the directory
    ``case``."""
    proc = subprocess.run(
        [python, "-W", "error", "-m", "slewguard.cli", *args,
         "--out", str(case.parent)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300)
    return (proc.returncode, proc.stderr, {
        csv: hashlib.sha256((case / csv).read_bytes()).hexdigest()
        for csv in ("trajectory.csv", "trajectory_benchmark.csv")
        if (case / csv).exists()})


def compare_run(python, out):
    """Exit code, stderr and the CSV digests of the compare run and of a run
    of :func:`oblique_doc` read from a file, by case name."""
    scenario = write_scenario(out, oblique_doc())
    runs = {"paper-three-1": COMPARE_ARGS,
            "oblique": ("run", "--scenario", str(scenario),
                        "--duration", "2")}
    return {name: cli_run(python, args, out / name)
            for name, args in runs.items()}


@pytest.fixture(scope="module")
def reference_compare_run(tmp_path_factory):
    return compare_run(sys.executable, tmp_path_factory.mktemp("reference"))


def find_python(version):
    """A working interpreter of ``version`` (major.minor), from pyenv's
    versions or the PATH, or None."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = sorted(glob.glob(str(
        root / "versions" / f"{version}.*" / "bin" / f"python{version}")))
    candidates.append(shutil.which(f"python{version}"))
    for python in filter(None, candidates):
        probe = subprocess.run(
            [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return python
    return None


def test_reference_compare_run(reference_compare_run):
    # two simulated seconds miss each case's settling target: exit 5
    assert {name: (code, err, len(digests))
            for name, (code, err, digests) in reference_compare_run.items()
            } == {"paper-three-1": (5, "", 2), "oblique": (5, "", 1)}


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_compare_run_on_other_interpreters(version, tmp_path,
                                           reference_compare_run):
    # the package needs nothing outside the standard library, so every
    # supported interpreter must run the compare path without a warning
    # and write the same bytes
    python = find_python(version)
    if python is None:
        pytest.skip(f"no Python {version} found; nothing was compared")
    assert compare_run(python, tmp_path) == reference_compare_run
