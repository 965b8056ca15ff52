"""Command line front end: run scenarios or presets, write CSV/JSON results.

Exit codes:
    0  run(s) completed, constraint held, declared targets met
    2  could not parse inputs (bad JSON, unknown preset)
    3  scenario failed schema or parameter validation
    4  numeric abort during integration
    5  run completed but violated the constraint or missed its targets
"""

from __future__ import annotations

import argparse
import sys
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
                     help="also run the potential-field-only baseline and "
                          "write comparison.json; the baseline runs in a "
                          "second process at the same time as the proposed "
                          "run, and its outputs are byte-identical to a "
                          "sequential run")
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
    """Where a baseline file is written before it is moved into place."""
    return path.with_name(f".{path.name}.part")


def _run_baseline(scenario, paths, conn) -> None:
    """Child process: run and write the baseline, then send back its
    summary, or the exception that stopped it."""
    try:
        result = run_scenario(scenario)
        write_trajectory_csv(result.records, _partial(paths[0]))
        write_summary_json(result.summary, _partial(paths[1]))
    except Exception as exc:
        conn.send(exc)
    else:
        conn.send(result.summary)
    finally:
        conn.close()


class _Baseline:
    """The potential-field-only baseline of a scenario, run in a second
    process while this one runs the proposed controller.

    The two runs share no state, so the written files are the bytes a run
    after the proposed one would write.  The child writes under temporary
    names; :meth:`summary` moves its files into place, :meth:`close` stops
    the child and removes what it left.
    """

    def __init__(self, scenario, out_dir: Path):
        import multiprocessing  # only comparisons pay for its import

        self._paths = (out_dir / "trajectory_benchmark.csv",
                       out_dir / "summary_benchmark.json")
        self._conn, child_conn = multiprocessing.Pipe(duplex=False)
        self._proc = multiprocessing.Process(
            target=_run_baseline,
            args=(scenario.with_sim(controller_mode="benchmark_apf"),
                  self._paths, child_conn))
        self._proc.start()
        child_conn.close()

    def summary(self) -> dict:
        """Wait for the baseline and return its summary; its exception is
        raised here."""
        try:
            reply = self._conn.recv()
        except EOFError:
            reply = None
        self._proc.join()
        if reply is None:
            raise RuntimeError("the baseline process exited with code "
                               f"{self._proc.exitcode} and sent no result")
        if isinstance(reply, Exception):
            raise reply
        for path in self._paths:
            _partial(path).replace(path)
        return reply

    def close(self) -> None:
        # stopped before the pipe closes, so the child never writes into a
        # closed pipe; a child that has exited is left alone
        self._proc.terminate()
        self._proc.join()
        self._proc.close()
        self._conn.close()
        for path in self._paths:
            _partial(path).unlink(missing_ok=True)


def _run_one(scenario, args, out_root: Path) -> int:
    """Run one scenario (plus baseline when comparing); returns an exit code."""
    out_dir = out_root / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)

    baseline = _Baseline(scenario, out_dir) if args.compare else None
    try:
        result = run_scenario(scenario)
        write_trajectory_csv(result.records, out_dir / "trajectory.csv")
        write_summary_json(result.summary, out_dir / "summary.json")
        s = result.summary
        ok = s["constraint_satisfied"] and s["targets_met"] is not False
        clear = min(s["min_clearance_deg"]) if s["min_clearance_deg"] else None
        print(f"{scenario.name}: clearance {_fmt(clear)} deg, "
              f"settle(1 deg) {_fmt(s['settling_time_1deg_s'])} s, "
              f"terminal {_fmt(s['terminal_error_deg'])} deg, "
              f"wall {s['wall_clock_s']:.2f} s "
              f"[{'ok' if ok else 'MISS'}]")

        if baseline is not None:
            b = baseline.summary()
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
            write_summary_json(comparison, out_dir / "comparison.json")
            print(f"{scenario.name} baseline: terminal "
                  f"{_fmt(b['terminal_error_deg'])} deg vs proposed "
                  f"{_fmt(s['terminal_error_deg'])} deg")
    finally:
        if baseline is not None:
            baseline.close()

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
        except SimulationAbort as exc:
            print(f"error: {scenario.name}: {exc}", file=sys.stderr)
            return _EXIT_NUMERIC
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
