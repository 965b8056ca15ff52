"""Command line front end: run scenarios or presets, write CSV/JSON results.

Exit codes:
    0  run(s) completed, constraint held, declared targets met
    2  could not parse inputs (bad JSON, unknown preset)
    3  scenario failed schema or parameter validation
    4  numeric abort during integration
    5  run completed but violated the constraint or missed its targets
    6  an output file could not be written (the file and why are printed)

Each run has one helper, a :class:`_Child` process kept off the run's CPU:
the writer, which formats the second half of the rows of ``trajectory.csv``
once the run is over while the run's own process formats the first, or
with ``--compare`` the baseline, beside which each side formats its own.
The bytes are those of :func:`write_trajectory_csv`; a run's line is
printed once its file is complete.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .engine import (
    SimulationAbort,
    ValidationFailure,
    _csv_text,
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
_EXIT_OUTPUT = 6  # any output file, written here or by a child process


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


def _keep_apart(pid: int) -> None:
    """Keep process ``pid`` off the CPU this process runs on now, where the
    platform tells which one that is (Linux) and allows another.

    A forked child starts on its parent's CPU.  Where the kernel does not
    balance load across CPUs (a cpuset with ``sched_load_balance`` 0), the
    child can stay there: the writer or the baseline then shares the run's
    core and overlaps nothing.
    """
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            here = int(fh.read().rsplit(")", 1)[1].split()[36])
        others = os.sched_getaffinity(0) - {here}
        if others:
            os.sched_setaffinity(pid, others)
    except (AttributeError, OSError, IndexError, ValueError):
        pass  # no such interface here: the kernel places the child


def _serve(conn, parent_end, target, args) -> None:
    """Child process: reply with what ``target(*args)`` returns, or with
    the exception it raises.

    ``parent_end`` is the parent's end of the pipe, which a forked child
    holds a copy of; it is closed so that the parent's exit ends a wait for
    its messages.
    """
    import signal  # only the child needs it; its import costs set-up

    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops it
    with conn:
        try:
            reply = target(*args)
        except Exception as exc:
            reply = exc
        try:
            conn.send(reply)
        except OSError:
            pass  # the parent is gone


class _Child:
    """``target(*args, *outputs)`` run in a process of its own, named
    ``name`` and kept off this process's CPU, which writes the files
    ``outputs`` under their temporary names.  The child gets ``args`` by
    fork, or by pickle where processes are spawned.

    :meth:`result` waits for the child's reply; :meth:`close` stops the
    child and removes what it left, however the run ended.
    """

    def __init__(self, name, target, outputs, *args):
        import multiprocessing

        self._outputs = outputs
        self._conn, child_conn = multiprocessing.Pipe()
        self._proc = multiprocessing.Process(
            target=_serve, name=name,
            args=(child_conn, self._conn, target, (*args, *outputs)))
        self._proc.start()
        child_conn.close()
        _keep_apart(self._proc.pid)

    def result(self):
        """What the target returned; what it raised is raised here, and an
        :class:`OSError` naming the first output if it sent no reply."""
        try:
            reply = self._conn.recv()
        except (OSError, EOFError):
            self._proc.join()
            raise OSError(f"{self._outputs[0].name} not written: the "
                          f"{self._proc.name} process exited with code "
                          f"{self._proc.exitcode}") from None
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        # stopped before the pipe closes, so the child never writes into a
        # closed pipe; a child that has exited is left alone
        self._proc.terminate()
        self._proc.join()
        self._proc.close()
        self._conn.close()
        for path in self._outputs:
            _partial(path).unlink(missing_ok=True)


def _run_and_write(scenario, trajectory: Path,
                   summary: Path | None = None) -> dict:
    """Run ``scenario`` and write its trajectory, and its summary if given,
    under their temporary names; return its summary.  Both sides of a
    comparison run here, sharing no state, so the files are the bytes a
    sequential run writes."""
    result = run_scenario(scenario)
    _output(trajectory, write_trajectory_csv, result.records,
            _partial(trajectory))
    if summary is not None:
        _output(summary, write_summary_json, result.summary, _partial(summary))
    return result.summary


def _write_rows(records, start: int, stop: int, path: Path,
                part: Path | None = None) -> None:
    """Write the CSV text of ``records``' rows ``start`` to ``stop - 1``,
    after the header line if they are the first, to ``part``, by default
    ``path``'s temporary name; an :class:`OSError` names ``path``."""
    width = len(records.columns)
    # a view, where a slice of the array would copy the rows
    rows = memoryview(records.data)[start * width:stop * width]

    def write():
        with open(part or _partial(path), "w", encoding="utf-8") as fh:
            fh.writelines(_csv_text(rows, records.columns, start == 0))

    _output(path, write)


def _join(head: Path, tail: Path, path: Path) -> None:
    """Append the file ``tail`` to the file ``head``, then move that to
    ``path``."""
    import shutil  # multiprocessing has loaded it

    with open(tail, "rb") as src, open(head, "ab") as dst:
        shutil.copyfileobj(src, dst)
    head.replace(path)


def _run_one(scenario, args, out_root: Path) -> int:
    """Run one scenario (plus baseline when comparing); returns an exit code.

    Once a single run is over, a writer process formats the second half of
    the rows of ``trajectory.csv`` while this one formats the header and
    the first.  With ``--compare`` the baseline's process takes the
    writer's place, and the proposed run writes its own file.
    """
    out_dir = out_root / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory = out_dir / "trajectory.csv"
    # the first half of trajectory.csv, to which the writer's is appended
    head = _partial(out_dir / "trajectory.head.csv")
    baseline_outputs = (out_dir / "trajectory_benchmark.csv",
                        out_dir / "summary_benchmark.json")
    children = []  # closed however the run ends

    try:
        if args.compare:
            from . import _kernel

            # loaded, or built, before the fork: the baseline inherits the
            # kernel and never builds one of its own
            _kernel.load()
            children.append(_Child(
                "baseline", _run_and_write, baseline_outputs,
                scenario.with_sim(controller_mode="benchmark_apf")))
            s = _run_and_write(scenario, trajectory)
            _output(trajectory, _partial(trajectory).replace, trajectory)
        else:
            result = run_scenario(scenario)
            records, half = result.records, len(result.records) // 2
            children.append(_Child("writer", _write_rows, (trajectory,),
                                   records, half, len(records)))
            _write_rows(records, 0, half, trajectory, head)
            children[0].result()
            _output(trajectory, _join, head, _partial(trajectory), trajectory)
            s = result.summary
        # after the CSV, so a failed CSV leaves no new summary
        _output(out_dir / "summary.json", write_summary_json, s,
                out_dir / "summary.json")
        ok = s["constraint_satisfied"] and s["targets_met"] is not False
        clear = min(s["min_clearance_deg"]) if s["min_clearance_deg"] else None
        print(f"{scenario.name}: clearance {_fmt(clear)} deg, "
              f"settle(1 deg) {_fmt(s['settling_time_1deg_s'])} s, "
              f"terminal {_fmt(s['terminal_error_deg'])} deg, "
              f"wall {s['wall_clock_s']:.2f} s "
              f"[{'ok' if ok else 'MISS'}]")

        if args.compare:
            b = children[0].result()  # the baseline's summary
            for path in baseline_outputs:
                _output(path, _partial(path).replace, path)
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
            _output(out_dir / "comparison.json", write_summary_json,
                    comparison, out_dir / "comparison.json")
            print(f"{scenario.name} baseline: terminal "
                  f"{_fmt(b['terminal_error_deg'])} deg vs proposed "
                  f"{_fmt(s['terminal_error_deg'])} deg")
    finally:
        for child in children:
            child.close()
        _partial(trajectory).unlink(missing_ok=True)
        head.unlink(missing_ok=True)

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
