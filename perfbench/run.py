"""Benchmark of slewguard: three closed-loop workloads, one scenario in flight.

    python3 perfbench/run.py --workload presets-cli --seed 1 --seconds 10 --trace 0

Run it from the repository root; the program is imported from ``src/``.

Workloads (inputs in ``cases.py``):

presets-cli
    ``cli.main(["run", "--all-presets", ...])``: the nine bundled presets,
    120 s each at dt 0.01 and record stride 1, with their CSV and JSON
    writes.  The path users and the acceptance suite pay for: logging,
    summary and I/O carry a large share, avoidance almost none.
corridor-sweep
    Seeded one- and two-cone geometries on and beside the slew corridor,
    each through ``engine.run_scenario``: short runs, a large record stride,
    no files.  Monte Carlo traffic that loads avoidance and validation.
compare-baseline
    ``cli.main(["run", "--preset", p, "--compare", ...])`` for three
    presets, twice each.  The potential-field baseline holds the avoidance
    blend at 1, so the field vector and repulsion gradients run at every
    stage.

A run measures set-up (median of several cold starts: import plus building
every scenario), does one untimed warm-up, then runs whole rounds of its
workload until at least ``--seconds`` have passed, and checks the outputs:
a repeated run gives the same trajectory digest, the traced run the same
digest as the untraced one, every CLI run exits 0, and every output is
finite.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced round with the tracing overhead.  The last
line of output is one JSON object with the metrics named in BENCHMARK.json.

The timed end-to-end metrics (``setup_s``, ``sim_rate``, ``run_s_p50``,
``run_s_p90``) are normalized for host speed by ``gauge.py``: a fixed
calibration kernel is timed every quarter second during the timed rounds
(and after each cold set-up), and each run's wall time is rescaled by the
readings around it, so the figures read as times on a host where the
kernel takes ``gauge.NOMINAL_S``.  The raw wall-time figures are printed on
``raw`` lines.  The traced run does not tick the gauge; its per-layer
metrics are raw.
"""

from __future__ import annotations

import os

# numpy reads these when it is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import cases  # noqa: E402
import gauge  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("presets-cli", "corridor-sweep", "compare-baseline")
SETUP_STARTS = 7
# wall seconds between gauge ticks in the timed rounds; a tick takes about
# 12 ms, and the host's speed shifts over a second or more
GAUGE_INTERVAL_S = 0.25
# untraced/traced runs of the check case, interleaved, for the overhead
OVERHEAD_PAIRS = 3
# a compare-baseline round runs its three pairs twice, so that the median
# pair time rests on six samples
COMPARE_PASSES = 2
# The check runs are cut to 10 s; a cut preset misses its 50 s settling
# target, so the CLI exits 5 for it by design.
CHECK_DURATION_S = 10.0
CHECK_EXIT_CODES = (0, 5)
# bytes a finite CSV body may contain: digits, signs, exponent, separators
_CSV_NUMBER_BYTES = b"0123456789.eE+-,\r\n"

clock = time.perf_counter


@dataclass
class Run:
    """Outcome of one run of a workload case."""

    case: str
    status: str                 # "ok", "rejected" or "failed"
    wall: float | None = None   # seconds
    sim_s: float = 0.0          # simulated scenario-seconds
    digest: str | None = None
    finite: bool = True
    quality: dict | None = None  # proposed-controller summary fields
    detail: str = ""
    norm_wall: float | None = None  # wall at the gauge's nominal host speed

    def __post_init__(self):
        if self.norm_wall is None:
            self.norm_wall = self.wall


class _StampedLines(io.TextIOBase):
    """Text sink that stamps each completed line with ``now()``."""

    def __init__(self, now):
        self.lines: list[tuple[float, str]] = []
        self._part = ""
        self._now = now

    def write(self, s):
        self._part += s
        while "\n" in self._part:
            line, self._part = self._part.split("\n", 1)
            self.lines.append((self._now(), line))
        return len(s)


def load_program():
    """Import slewguard from this checkout's ``src`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        from slewguard import cli, engine, scenario
    except ImportError as exc:
        sys.exit(f"error: cannot import slewguard from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: slewguard imported from {cli.__file__}, not {SRC}")
    return cli, engine, scenario


def call_cli(cli, argv, now=clock):
    """Run ``cli.main`` quietly.

    Returns the exit code (or the traceback of an exception), the start and
    end times by ``now``, the stamped stdout lines and the stderr text.
    """
    out, err = _StampedLines(now), io.StringIO()
    t0 = now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # counted as a failed run, traceback kept
            rc = traceback.format_exc()
    return rc, t0, now(), out.lines, err.getvalue().strip()


def csv_finite(data: bytes) -> bool:
    body = data.partition(b"\n")[2]
    return not body.translate(None, _CSV_NUMBER_BYTES)


def numbers_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(numbers_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(numbers_finite(v) for v in obj)
    return True


def digest_files(paths) -> tuple[str, bool]:
    h = hashlib.sha256()
    finite = True
    for path in paths:
        data = Path(path).read_bytes()
        h.update(data)
        finite = finite and csv_finite(data)
    return h.hexdigest(), finite


def quality(summary: dict) -> dict:
    return {"keepout_ok": summary.get("constraint_satisfied"),
            "funnel_ok": summary.get("envelope_contained"),
            "terminal_deg": summary.get("terminal_error_deg")}


def file_run(case, status, wall, sim_s, out_dir, csv_names) -> Run:
    """A CLI run judged by the files it wrote into ``out_dir``."""
    try:
        digest, finite = digest_files(out_dir / n for n in csv_names)
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return Run(case, "failed", wall, detail=repr(exc))
    return Run(case, status, wall, sim_s if status == "ok" else 0.0, digest,
               finite and numbers_finite(summary), quality(summary))


def cli_run(meter, cli, argv, ok_codes, case, sim_s, csv_names) -> Run:
    """One ``cli.main`` call that runs the scenario ``case``, timed by the
    gauge ``meter``."""
    out = Path(argv[argv.index("--out") + 1])
    rc, t0, t1, _, err = call_cli(cli, argv, meter.now)
    ok = rc in ok_codes
    run = file_run(case, "ok" if ok else "failed", t1 - t0, sim_s,
                   out / case, csv_names)
    run.norm_wall = meter.normalized(t0, t1)
    if not ok:
        run.detail = f"exit {rc!r}: {err}"
    return run


# ---------------------------------------------------------------------------
# workloads: build(), round() -> runs, check() -> Run
# ---------------------------------------------------------------------------

class _Workload:
    def __init__(self, prog, seed, work: Path, gauged=True):
        self.cli, self.engine, self.scenario = prog
        self.seed = seed
        self.work = work
        self.gauge = gauge.Gauge(enabled=gauged)
        self.scenarios = self.build()

    def build(self):
        return cases.build(self.scenario, cases.inputs(self.name, self.seed))


class PresetsCli(_Workload):
    name = "presets-cli"

    def round(self):
        out = self.work / "round"
        rc, t0, _, lines, err = call_cli(
            self.cli, ["run", "--all-presets", "--out", str(out)],
            self.gauge.now)
        # each preset prints "<name>: ..." once its files are written, so the
        # gap between lines is that preset's run including its writes
        names = {s.name: s for s in self.scenarios}
        seen = {}
        for t, line in lines:
            name = line.split(":", 1)[0]
            if name in names and name not in seen:
                seen[name] = (t, line)
        runs, prev = [], t0
        for name, (t, line) in sorted(seen.items(), key=lambda kv: kv[1][0]):
            ok = rc == 0 or line.rstrip().endswith("[ok]")
            runs.append(file_run(name, "ok" if ok else "failed", t - prev,
                                 names[name].sim.duration, out / name,
                                 ["trajectory.csv"]))
            runs[-1].norm_wall = self.gauge.normalized(prev, t)
            if not ok:
                runs[-1].detail = line
            prev = t
        runs += [Run(n, "failed", detail=f"no output, exit {rc!r}: {err}")
                 for n in names if n not in seen]
        return runs

    def check(self):
        name = cases.check_case(self.name, self.seed)
        return cli_run(self.gauge, self.cli, [
            "run", "--preset", name, "--duration", str(CHECK_DURATION_S),
            "--out", str(self.work / "check")],
            CHECK_EXIT_CODES, name, CHECK_DURATION_S, ["trajectory.csv"])


class CompareBaseline(_Workload):
    name = "compare-baseline"
    CSVS = ["trajectory.csv", "trajectory_benchmark.csv"]

    def round(self):
        return [cli_run(self.gauge, self.cli, [
            "run", "--preset", scn.name, "--compare",
            "--out", str(self.work / "round")],
            (0,), scn.name, 2.0 * scn.sim.duration, self.CSVS)
            for scn in self.scenarios * COMPARE_PASSES]

    def check(self):
        name = cases.check_case(self.name, self.seed)
        return cli_run(self.gauge, self.cli, [
            "run", "--preset", name, "--compare",
            "--duration", str(CHECK_DURATION_S),
            "--out", str(self.work / "check")],
            CHECK_EXIT_CODES, name, 2.0 * CHECK_DURATION_S, self.CSVS)


class CorridorSweep(_Workload):
    name = "corridor-sweep"

    def _case(self, scn):
        now = self.gauge.now
        t0 = now()
        try:
            result = self.engine.run_scenario(scn)
        except self.engine.ValidationFailure as exc:
            rules = ",".join(i.rule for i in exc.report.failures)
            t1 = now()
            return Run(scn.name, "rejected", t1 - t0, detail=rules,
                       norm_wall=self.gauge.normalized(t0, t1))
        except Exception:  # counted as a failed run, traceback kept
            t1 = now()
            return Run(scn.name, "failed", t1 - t0,
                       detail=traceback.format_exc(),
                       norm_wall=self.gauge.normalized(t0, t1))
        t1 = now()
        wall, norm_wall = t1 - t0, self.gauge.normalized(t0, t1)
        path = self.work / "corridor.csv"
        try:
            self.engine.write_trajectory_csv(result.records, path)
            digest, finite = digest_files([path])
        except (OSError, TypeError, AttributeError) as exc:
            return Run(scn.name, "failed", wall, detail=repr(exc),
                       norm_wall=norm_wall)
        return Run(scn.name, "ok", wall, scn.sim.duration, digest,
                   finite and numbers_finite(result.summary),
                   quality(result.summary), norm_wall=norm_wall)

    def round(self):
        return [self._case(scn) for scn in self.scenarios]

    def check(self):
        # the first admitted draw; rejected draws before it are cheap
        for scn in self.scenarios:
            run = self._case(scn)
            if run.status != "rejected":
                return run
        return Run("corridor", "failed", detail="no draw was admitted")


WORKLOAD_TYPES = {w.name: w for w in (PresetsCli, CorridorSweep,
                                      CompareBaseline)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Cold set-up times, each in a fresh interpreter, with the gauge
    reading taken in that interpreter right after."""
    times = []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        setup_s, gauge_s = map(float, proc.stdout.split()[-2:])
        times.append((setup_s, gauge_s))
    return times


def busy_seconds(runs) -> float:
    """Wall seconds spent in the program by the timed runs."""
    return sum(r.wall for r in runs if r.wall is not None)


def measure(wl, seconds: float):
    """Whole rounds until ``seconds`` have passed, the gauge ticking
    throughout: (runs, rounds)."""
    runs, rounds = [], 0
    t0 = clock()
    with wl.gauge.ticking(GAUGE_INTERVAL_S):
        while rounds == 0 or clock() - t0 < seconds:
            runs += wl.round()
            rounds += 1
    return runs, rounds


def quantile(values, q):
    """Quantile ``q`` (0..1) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def end_to_end(runs, setup, normalized=True):
    """The end-to-end metrics, from gauge-normalized times or raw ones."""
    def wall(r):
        return r.norm_wall if normalized else r.wall

    def setup_time(s, g):
        return s * gauge.NOMINAL_S / g if normalized else s

    ok = [r for r in runs if r.status == "ok"]
    walls = [wall(r) for r in ok]
    busy = sum(wall(r) for r in runs if r.wall is not None)
    return {
        "setup_s": statistics.median(setup_time(s, g) for s, g in setup),
        "sim_rate": sum(r.sim_s for r in ok) / busy,
        "run_s_p50": quantile(walls, 0.5) if walls else math.nan,
        "run_s_p90": quantile(walls, 0.9) if walls else math.nan,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def outcomes(runs):
    """Failure share and the proposed controller's guidance outcomes."""
    ok = [r for r in runs if r.status == "ok" and r.quality]
    terminal = [r.quality["terminal_deg"] for r in ok
                if r.quality["terminal_deg"] is not None]
    n = len(ok)
    return {
        "ops_failed_frac": sum(r.status == "failed" for r in runs) / len(runs),
        "keepout_breach_frac":
            sum(r.quality["keepout_ok"] is False for r in ok) / n if n else None,
        "funnel_breach_frac":
            sum(r.quality["funnel_ok"] is False for r in ok) / n if n else None,
        "terminal_err_deg_max": max(terminal) if terminal else None,
    }


def per_layer(stats, counts, busy, setup_stats, absent):
    """Per-layer metrics from the traced round and the traced set-up."""
    out = {}
    for _, _, name in spans.TARGETS:
        if name in absent:
            continue
        src = setup_stats if name.startswith("scenario.") else stats
        calls, total, self_s = src.get(name, (0, 0.0, 0.0))
        per = 1.0 / calls if calls else 0.0
        out[f"{name}.calls"] = calls
        out[f"{name}.self_us"] = self_s * per * 1e6
        out[f"{name}.self_ms"] = self_s * per * 1e3
        out[f"{name}.ms"] = total * per * 1e3
        out[f"{name}.self_share"] = self_s / busy
        if name in spans.PROBES:
            out[f"{name}.{spans.PROBES[name][0]}"] = counts.get(name, 0) * per
    return out


def environment():
    import numpy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    e2e_units, layer_units = declared_metrics()
    prog = load_program()
    setup = setup_seconds(args.workload, args.seed)
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        return _measure_and_report(args, prog, setup, work,
                                   e2e_units, layer_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def _measure_and_report(args, prog, setup, work, e2e_units, layer_units):
    # the traced run reports raw per-layer times; the gauge stays off there
    wl = WORKLOAD_TYPES[args.workload](prog, args.seed, work,
                                       gauged=not args.trace)
    print("env", json.dumps(environment(), sort_keys=True))
    print(f"setup {args.workload}: "
          + " ".join(f"{s:.4f}/{g * 1e3:.2f}ms" for s, g in setup)
          + f" (s / gauge kernel) over {len(setup)} cold starts")
    checks = []
    warm = wl.check()   # untimed warm-up, also the determinism reference
    checks.append(("check-run-completes", warm.status == "ok", warm.detail))

    if args.trace:
        tracer = spans.Tracer()
        installed = spans.Installed(tracer)
        pairs = []
        for _ in range(OVERHEAD_PAIRS):
            ref = wl.check()
            with installed:
                traced = wl.check()
            pairs.append((ref, traced))
        tracer.take()
        with installed:
            wl.build()
            setup_stats, _ = tracer.take()
            runs, rounds = measure(wl, args.seconds)
            stats, counts = tracer.take()
        busy = busy_seconds(runs)
        digests = {run.digest for pair in pairs for run in pair}
        checks.append(("traced-equals-untraced", digests == {warm.digest},
                       " / ".join(sorted(map(str, digests)))))
        values = per_layer(stats, counts, busy, setup_stats,
                           installed.absent_names)
        values["trace.sim_rate_ratio"] = statistics.median(
            ref.wall / traced.wall for ref, traced in pairs)
        units = layer_units
        if installed.absent:
            print("absent:", ", ".join(installed.absent))
    else:
        runs, rounds = measure(wl, args.seconds)
        busy = busy_seconds(runs)
        again = wl.check()
        checks.append(("repeat-digest-identical", again.digest == warm.digest,
                       f"{warm.digest} / {again.digest}"))
        values = end_to_end(runs, setup)
        units = e2e_units
        for name, value in end_to_end(runs, setup, normalized=False).items():
            print(f"raw {args.workload} {name} {_fmt(value)} {units[name]}")
        readings = wl.gauge.readings
        print(f"gauge {args.workload}: kernel median "
              f"{statistics.median(readings) * 1e3:.3f} ms, range "
              f"{min(readings) * 1e3:.3f}-{max(readings) * 1e3:.3f} ms over "
              f"{len(readings)} ticks, nominal {gauge.NOMINAL_S * 1e3:g} ms")

    by_case = {}
    for r in runs:
        if r.digest is not None:
            by_case.setdefault(r.case, set()).add(r.digest)
    checks.append(("rounds-digest-identical",
                   all(len(d) == 1 for d in by_case.values()),
                   f"{rounds} round(s)"))
    failed = [r for r in runs if r.status == "failed"]
    checks.append(("runs-exit-0", not failed,
                   "; ".join(f"{r.case}: {r.detail}" for r in failed)))
    checks.append(("outputs-finite", all(r.finite for r in runs), ""))

    first = {}
    for r in runs:
        first.setdefault(r.case, r)
    for r in first.values():
        shown = r.digest or r.status + (f":{r.detail}" if r.detail else "")
        print(f"digest {args.workload} {r.case} {shown}")
    walls = [r.wall for r in runs if r.status == "ok"]
    print(f"runs {args.workload}: {len(runs)} attempted over {rounds} "
          f"round(s), {len(walls)} timed, "
          f"{sum(r.status == 'rejected' for r in runs)} rejected by validation,"
          f" {len(failed)} failed, {busy:.3f} s in the program")
    for name, value in outcomes(runs).items():
        print(f"outcome {args.workload} {name} {_fmt(value)}")
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAIL'} {detail}".rstrip())
    for name, unit in units.items():
        print(f"metric {args.workload} {name} {_fmt(values.get(name))} {unit}")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()
               if math.isfinite(values.get(name, math.nan))}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print("absent metrics:", ", ".join(missing))
    print(json.dumps({"correct": all(ok for _, ok, _ in checks),
                      "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
