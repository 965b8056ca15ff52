"""Command line front end: run scenarios or presets, write CSV/JSON results.

Exit codes:
    0  run(s) completed, constraint held, declared targets met
    2  could not parse inputs (bad JSON, unknown preset)
    3  scenario failed schema or parameter validation
    4  numeric abort during integration
    5  run completed but violated the constraint or missed its targets
    6  trajectory.csv could not be written (the writer process failed)

Each run streams its logged rows, a block at a time, to one writer process
per call of :func:`main`, which formats ``trajectory.csv`` on another core
while the run integrates; a run's line is printed once its file is
complete.  The bytes are those of :func:`write_trajectory_csv`.
"""

from __future__ import annotations

import argparse
import os
import sys
from array import array
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
_EXIT_OUTPUT = 6


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
                          "process of its own at the same time as the "
                          "proposed run (whose trajectory.csv another "
                          "process writes as it goes), and its outputs are "
                          "byte-identical to a sequential run")
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
        import multiprocessing

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


def _keep_apart(pid: int) -> None:
    """Keep process ``pid`` off the CPU this process runs on now, where the
    platform tells which one that is (Linux) and allows another.

    A forked child starts on its parent's CPU.  Where the kernel does not
    balance load across CPUs (a cpuset with ``sched_load_balance`` 0), the
    writer, woken by each block, stays there: it shares the run's core and
    overlaps nothing.
    """
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            here = int(fh.read().rsplit(")", 1)[1].split()[36])
        others = os.sched_getaffinity(0) - {here}
        if others:
            os.sched_setaffinity(pid, others)
    except (AttributeError, OSError, IndexError, ValueError):
        pass  # no such interface here: the kernel places the child


def _write_trajectories(conn, parent_end) -> None:
    """Writer process: for each ``(path, columns)`` received, write the CSV
    text of the blocks of raw doubles that follow to ``path`` until an empty
    block, then reply ``None``.  The first exception is sent back instead,
    and ends the process.

    ``parent_end`` is the parent's end of the pipe, which a forked child
    holds a copy of; it is closed so that the parent's exit ends the loop.
    """
    import signal  # only the child needs it; its import costs set-up

    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops it
    try:
        while True:
            path, columns = conn.recv()
            with open(path, "w", encoding="utf-8") as fh:
                header = True
                while block := conn.recv_bytes():
                    rows = array("d")
                    rows.frombytes(block)
                    fh.writelines(_csv_text(rows, columns, header))
                    header = False
            conn.send(None)
    except EOFError:
        pass  # the parent closed the pipe
    except Exception as exc:
        conn.send(exc)
    finally:
        conn.close()


class _WriteFailure(RuntimeError):
    """The writer process could not complete a ``trajectory.csv``."""


class _Writer:
    """The process that writes each run's ``trajectory.csv`` while the run
    integrates.

    :meth:`rows_to` gives a run's ``on_rows`` consumer, which sends the rows
    logged since its last call down the pipe as raw doubles; the child
    formats them with the CSV writer's code into a temporary file, and
    :meth:`finish` waits until that file is complete and moves it into
    place.  The child starts with the first rows sent, so a call of
    :func:`main` whose runs all fail before logging starts none.  After an
    exception the writer is not reused: :meth:`close` stops the child and
    removes the temporary file.

    ``keep_apart`` keeps the child off the run's CPU.  A comparison leaves
    it where the kernel puts it: with the baseline's process as a third,
    keeping the writer apart made ``--compare`` slower (per preset 0.56 s
    against 0.63 s normalized, over 10 alternating pairs on a 2-vCPU x86-64
    host, ``BENCH_20.json`` rounds 5 and 6).
    """

    def __init__(self, keep_apart: bool):
        self._keep_apart = keep_apart
        self._proc = self._conn = self._path = None
        self._sent = 0

    def rows_to(self, path: Path):
        """The ``on_rows`` consumer of the run whose file is ``path``."""
        self._path, self._sent = path, 0
        return self._send

    def _send(self, records) -> None:
        if self._proc is None:
            import multiprocessing

            self._conn, child_conn = multiprocessing.Pipe()
            self._proc = multiprocessing.Process(
                target=_write_trajectories, args=(child_conn, self._conn))
            self._proc.start()
            child_conn.close()
            if self._keep_apart:
                _keep_apart(self._proc.pid)
        data = records.data
        try:
            if not self._sent:
                self._conn.send((_partial(self._path), records.columns))
            # as bytes: a view of doubles would be copied whole on 3.10
            self._conn.send_bytes(memoryview(data).cast("B"),
                                  data.itemsize * self._sent)
        except OSError:
            raise self._failure(self._reply()) from None
        self._sent = len(data)

    def _reply(self):
        """The child's next reply, or the error its silent exit stands for."""
        try:
            return self._conn.recv()
        except (OSError, EOFError):
            self._proc.join()
            return RuntimeError("the writer process exited with code "
                                f"{self._proc.exitcode}")

    def _failure(self, error) -> _WriteFailure:
        return _WriteFailure(f"{self._path.name} not written: {error}")

    def finish(self) -> None:
        """Wait until the run's file is complete, then move it into place."""
        try:
            self._conn.send_bytes(b"")
        except OSError:
            pass  # the reply says why
        reply = self._reply()
        if reply is not None:
            raise self._failure(reply)
        try:
            _partial(self._path).replace(self._path)
        except OSError as exc:
            raise self._failure(exc) from None

    def close(self) -> None:
        """Stop the child, and remove the temporary file it may have left."""
        if self._proc is not None:
            self._proc.terminate()
            self._proc.join()
            self._proc.close()
            self._conn.close()
            self._proc = None
        if self._path is not None:
            _partial(self._path).unlink(missing_ok=True)


def _run_one(scenario, args, out_root: Path, writer: _Writer) -> int:
    """Run one scenario (plus baseline when comparing); returns an exit code."""
    out_dir = out_root / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)

    baseline = _Baseline(scenario, out_dir) if args.compare else None
    try:
        result = run_scenario(
            scenario, on_rows=writer.rows_to(out_dir / "trajectory.csv"))
        writer.finish()  # first, so a failed CSV leaves no new summary
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
    writer = _Writer(keep_apart=not args.compare)
    try:
        for scenario in scenarios:
            try:
                scenario = _apply_overrides(scenario, args)
            except ValueError as exc:
                print(f"error: {scenario.name}: {exc}", file=sys.stderr)
                return _EXIT_VALIDATION
            try:
                code = _run_one(scenario, args, out_root, writer)
            except ValidationFailure as exc:
                print(f"error: {scenario.name}:", file=sys.stderr)
                print(exc.report.describe(), file=sys.stderr)
                return _EXIT_VALIDATION
            except SimulationAbort as exc:
                print(f"error: {scenario.name}: {exc}", file=sys.stderr)
                return _EXIT_NUMERIC
            except _WriteFailure as exc:
                print(f"error: {scenario.name}: {exc}", file=sys.stderr)
                return _EXIT_OUTPUT
            worst = max(worst, code)
    finally:
        writer.close()
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
