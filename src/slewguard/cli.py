"""Command line front end: run scenarios or presets, write CSV/JSON results.

Exit codes:
    0  run(s) completed, constraint held, declared targets met
    2  could not parse inputs (bad JSON, unknown preset)
    3  scenario failed schema or parameter validation
    4  numeric abort during integration
    5  run completed but violated the constraint or missed its targets
    6  an output file could not be written (the file and why are printed)

A run writes its outputs itself, and starts no process.  With
``--compare`` the baseline runs beside it on a thread, a :class:`_Beside`
kept off the run's CPU, which writes the baseline's files.  A run's line is
printed once its ``trajectory.csv`` is complete.  Before a scenario runs,
the files it writes are removed from its directory, so the directory holds
only the outputs of its latest run, and each output is moved into place
under a free name.  No file is synced to disk.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

from . import __version__
from .engine import (
    SimulationAbort,
    ValidationFailure,
    run_scenario,
    write_summary_json,
    write_trajectory_csv,
)
from .scenario import ScenarioError, list_presets, load_preset, load_scenario

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_VALIDATION = 3
_EXIT_NUMERIC = 4
_EXIT_PERFORMANCE = 5
_EXIT_OUTPUT = 6  # any output file, the run's or the baseline's

# every file a run writes, in the order it is put in place; the last three
# only with --compare
_OUTPUTS = ("trajectory.csv", "summary.json", "trajectory_benchmark.csv",
            "summary_benchmark.json", "comparison.json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slewguard",
        description="Attitude pointing simulation with keep-out cone avoidance")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or bundled preset")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", metavar="PATH",
                     help="path to a scenario JSON file")
    src.add_argument("--preset", metavar="NAME",
                     help="name of a bundled preset (see list-presets)")
    src.add_argument("--all-presets", action="store_true",
                     help="run every bundled preset")
    run.add_argument("--out", metavar="DIR", default="runs",
                     help="output directory (default: runs); each run writes "
                          "into DIR/<scenario-name>/")
    run.add_argument("--compare", action="store_true",
                     help="also run the potential-field-only baseline, in "
                          "parallel; writes trajectory_benchmark.csv, "
                          "summary_benchmark.json and comparison.json")
    run.add_argument("--dt", type=float, default=None,
                     help="override integration step [s]")
    run.add_argument("--duration", type=float, default=None,
                     help="override simulated duration [s]")
    run.add_argument("--no-disturbance", action="store_true",
                     help="disable the environmental disturbance torque")

    sub.add_parser("list-presets", help="list bundled presets")
    return parser


def _apply_overrides(scenario, args):
    changes = {}
    if args.dt is not None:
        changes["dt"] = args.dt
    if args.duration is not None:
        changes["duration"] = args.duration
    if args.no_disturbance:
        changes["disturbance_enabled"] = False
    if changes:
        scenario = scenario.with_sim(**changes)
    return scenario


def _fmt(value, spec=".4g"):
    return "n/a" if value is None else format(value, spec)


def _partial(path: Path) -> Path:
    """Where an output file is written before it is moved into place."""
    return path.with_name(f".{path.name}.part")


def _output(path: Path, write, *args) -> None:
    """Call ``write(*args)``, which writes ``path`` or its temporary name;
    an :class:`OSError` it raises is raised again naming ``path``'s file."""
    try:
        write(*args)
    except OSError as exc:
        raise OSError(f"{path.name} not written: {exc}") from None


def _place(path: Path) -> None:
    """Move the file written under ``path``'s temporary name to ``path``."""
    _output(path, _partial(path).replace, path)


def _other_cpus():
    """The CPUs this process may use other than the one this thread runs on
    now, where the platform tells which one that is (Linux); else None.

    A new thread starts on its creator's CPU.  Where the kernel does not
    balance load across CPUs (a cpuset with ``sched_load_balance`` 0), it
    can stay there: the baseline then shares the run's core and overlaps
    nothing.
    """
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            here = int(fh.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here} or None
    except (AttributeError, OSError, IndexError, ValueError):
        return None  # no such interface here: the kernel places the thread


class _Beside(threading.Thread):
    """``target(*args)`` run on a thread of its own, started when this is
    made and kept off the CPU of the thread that made it.

    :meth:`result` waits for it and returns what the target returned, or
    raises what it raised.
    """

    def __init__(self, name, target, *args):
        super().__init__(name=name)
        self._call = target, args
        self._cpus = _other_cpus()
        self._reply = None
        self.start()

    def run(self) -> None:
        if self._cpus is not None:
            try:
                os.sched_setaffinity(0, self._cpus)  # this thread only
            except OSError:
                pass  # the kernel places the thread
        target, args = self._call
        try:
            self._reply = target(*args)
        except BaseException as exc:  # raised again by result()
            self._reply = exc

    def result(self):
        self.join()
        if isinstance(self._reply, BaseException):
            raise self._reply
        return self._reply


def _run_and_write(scenario, trajectory: Path,
                   summary: Path | None = None) -> dict:
    """Run ``scenario`` and write its trajectory, and its summary if given,
    under their temporary names; return its summary.  Every run writes
    here.  The two sides of a comparison, on two threads, share only the
    kernel's read-only disturbance table; on first use each may fill its
    own, of the same bits.  So the files are the bytes a sequential run
    writes."""
    result = run_scenario(scenario)
    _output(trajectory, write_trajectory_csv, result.records,
            _partial(trajectory))
    if summary is not None:
        _output(summary, write_summary_json, result.summary, _partial(summary))
    return result.summary


def _clear(path: Path) -> None:
    """Remove the file ``path`` if there is one: an earlier run's output,
    which would otherwise pass for this run's, and which an output moved
    onto it would replace.  (On ext4 such a replace waits for the new
    file's blocks to be written out, tens of milliseconds for a preset's
    CSV; onto a free name it takes well under one.)  A directory there is
    left for the write to report."""
    try:
        path.unlink(missing_ok=True)
    except IsADirectoryError:
        pass
    except OSError as exc:
        raise OSError(f"{path.name} not written: {exc}") from None


def _run_one(scenario, args, out_root: Path) -> int:
    """Run one scenario (plus baseline when comparing); returns an exit code.

    The scenario's earlier outputs are removed first.  With ``--compare``
    the baseline runs on a thread beside the proposed run, and each side
    writes its own files.  The two overlap where the simulation and the
    CSV formatting run in the compiled kernel, whose calls release the
    interpreter lock; without a library they take turns.  Every output is
    written under its temporary name and moved into place in the order of
    ``_OUTPUTS``.  However the run ends, the baseline is waited for before
    the temporary files are removed.
    """
    out_dir = out_root / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in _OUTPUTS]
    for path in paths:
        _clear(path)
    trajectory, summary, *baseline_outputs, comparison_path = paths
    baseline = None  # joined however the run ends

    try:
        if args.compare:
            baseline = _Beside(
                "baseline", _run_and_write,
                scenario.with_sim(controller_mode="benchmark_apf"),
                *baseline_outputs)
        s = _run_and_write(scenario, trajectory)
        _place(trajectory)
        # after the CSV, so a failed CSV leaves no new summary
        _output(summary, write_summary_json, s, _partial(summary))
        _place(summary)
        ok = s["constraint_satisfied"] and s["targets_met"] is not False
        clear = min(s["min_clearance_deg"]) if s["min_clearance_deg"] else None
        print(f"{scenario.name}: clearance {_fmt(clear)} deg, "
              f"settle(1 deg) {_fmt(s['settling_time_1deg_s'])} s, "
              f"terminal {_fmt(s['terminal_error_deg'])} deg, "
              f"wall {s['wall_clock_s']:.2f} s "
              f"[{'ok' if ok else 'MISS'}]")

        if baseline is not None:
            b = baseline.result()  # the baseline's summary
            for path in baseline_outputs:
                _place(path)
            comparison = {
                "scenario": scenario.name,
                "proposed": s,
                "benchmark_apf": b,
                "proposed_terminal_error_deg": s["terminal_error_deg"],
                "benchmark_terminal_error_deg": b["terminal_error_deg"],
                "proposed_not_worse": (
                    s["terminal_error_deg"] is not None
                    and b["terminal_error_deg"] is not None
                    and s["terminal_error_deg"] <= b["terminal_error_deg"]),
            }
            _output(comparison_path, write_summary_json, comparison,
                    _partial(comparison_path))
            _place(comparison_path)
            print(f"{scenario.name} baseline: terminal "
                  f"{_fmt(b['terminal_error_deg'])} deg vs proposed "
                  f"{_fmt(s['terminal_error_deg'])} deg")
    finally:
        if baseline is not None:
            baseline.join()
        for path in paths:
            _partial(path).unlink(missing_ok=True)

    return _EXIT_OK if ok else _EXIT_PERFORMANCE


def _cmd_run(args) -> int:
    out_root = Path(args.out)

    try:
        if args.all_presets:
            scenarios = [load_preset(name) for name, _ in list_presets()]
        elif args.preset is not None:
            scenarios = [load_preset(args.preset)]
        else:
            scenarios = [load_scenario(args.scenario)]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return _EXIT_PARSE
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return _EXIT_PARSE if exc.kind == "parse" else _EXIT_VALIDATION

    worst = _EXIT_OK
    for scenario in scenarios:
        try:
            scenario = _apply_overrides(scenario, args)
        except ValueError as exc:
            print(f"error: {scenario.name}: {exc}", file=sys.stderr)
            return _EXIT_VALIDATION
        try:
            code = _run_one(scenario, args, out_root)
        except ValidationFailure as exc:
            print(f"error: {scenario.name}:", file=sys.stderr)
            print(exc.report.describe(), file=sys.stderr)
            return _EXIT_VALIDATION
        except MemoryError as exc:  # a log too large to allocate
            print(f"error: {scenario.name}: {exc}", file=sys.stderr)
            return _EXIT_VALIDATION
        except SimulationAbort as exc:
            print(f"error: {scenario.name}: {exc}", file=sys.stderr)
            return _EXIT_NUMERIC
        except OSError as exc:  # an output could not be written
            print(f"error: {scenario.name}: {exc}", file=sys.stderr)
            return _EXIT_OUTPUT
        worst = max(worst, code)
    return worst


def _cmd_list_presets() -> int:
    for name, desc in list_presets():
        print(f"{name:18s} {desc}")
    return _EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-presets":
        return _cmd_list_presets()
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
