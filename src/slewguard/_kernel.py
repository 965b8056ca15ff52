"""The compiled per-sample kernel: ``_kernel.c``, built on first use and
called through :mod:`ctypes`.

:func:`engine.run_scenario` runs its samples with it wherever a library
can be built or found, and with the reference, ``_LoopContext.rhs``,
``step`` and ``record`` and ``_RunStats.add``, everywhere else; both give
the same bits (``_kernel.c`` says how).  One call runs the whole run: it
propagates the state, writes each logged row in place into the run's log
and folds every sample into the run's statistics record, both the
``array("d")`` buffers that the reference writes and folds into as well.
The kernel stops short of the first sample the reference would raise on,
and the run hands that sample and the rest to the reference, once, so
every abort comes from the Python code.
The disturbance torque depends on the time alone, and runs of one ``dt``
and length sample it at the same times, so the library evaluates it into
a table that every such run reads and none writes: :func:`disturbances`
keeps the most recent one, of at most ``TABLE_STEPS`` steps, beyond which
a run fills a private block of its own.  The library also formats
``trajectory.csv`` (:func:`csv_chunks`), each value as Python's
``'%.17g' % v`` writes it, where ``engine._csv_text`` is the fallback.

The library is built by one call of the C compiler, never at import: ``$CC``
where it is set, else the compiler the interpreter was built with, else
``cc``.  Only ``FLAGS`` reach the arithmetic, no ``CFLAGS`` or ``LDFLAGS``
from the environment or the interpreter's configuration, and no Python
package takes part; the layouts shared with Python and the disturbance
frequency come as ``-D`` :func:`definitions`.  The library is cached in the
package's ``__pycache__`` under a name keyed by the sha256 of the source,
the flags and the definitions, and written under a unique temporary name
first, so processes that build at the same time leave one complete file.
It is a plain C library, so any interpreter loads it.  The build is tried
once per process; where it fails, as where no compiler is found, runs take
the reference loop.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from array import array
from itertools import accumulate
from pathlib import Path

from . import engine
from .controller import ANTIPODAL_NUDGE_FRACTION, ANTIPODAL_THRESHOLD
from .envelope import _LN2, ERROR_RATIO_FLOOR
from .potential import _KNOT_GUARD

SOURCE = Path(__file__).with_name("_kernel.c")
# held while :func:`load` finds or builds the library
_BUILDING = threading.Lock()
# no contraction into fused multiply-adds and no value-changing
# optimization, so each operation rounds as the interpreter's does
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off")

# The scenario constants, (name, width) in the order they are packed, at
# ``P_<name>`` in C; then from ``P_CONES`` each cone's, at ``C_<name>``.
CONSTANTS = (
    ("B", 3), ("R", 3), ("J", 9), ("JI", 9), ("NEG_K_RHO", 1),
    ("RHO_INF", 1), ("TD", 3), ("S_SHAPE", 4), ("V_SHAPE", 4),
    ("BENCHMARK", 1), ("K1", 1), ("K_P", 1), ("K_OMEGA", 1), ("G", 1),
    ("BIG_F", 1), ("K_A", 1), ("ETA", 1), ("SIGMA", 1), ("TORQUE_LIMIT", 1),
    ("DIST_BOUND", 1), ("ANTIPODAL", 1), ("NUDGE", 1), ("RATIO_FLOOR", 1),
    ("KNOT_GUARD", 1), ("LN2", 1), ("RAD_TO_DEG", 1), ("N_CONES", 1))
CONE = (("AXIS", 3), ("SHAPE", 4), ("K_R", 1))

# The bytes of the longest value in ``trajectory.csv`` with its separator,
# "-1.2345678901234567e-308,", and of the buffer its rows are formatted in
CSV_VALUE_BYTES = 25
CSV_BUFFER_BYTES = 1 << 16

# The steps of the longest disturbance table, 2 entries of 3 doubles
# each: 3 MiB
TABLE_STEPS = 2 ** 16


def compiler() -> list[str]:
    """The C compiler's command: ``$CC``, else the interpreter's own, else
    ``cc``."""
    import shlex
    import sysconfig

    return shlex.split(os.environ.get("CC")
                       or sysconfig.get_config_var("CC") or "cc")


def definitions() -> list[str]:
    """The layouts ``_kernel.c`` reads, and the disturbance frequency
    exactly, as ``-D`` definitions."""
    out = [f"-D{name[1:]}={i}" for name, i in vars(engine).items()
           if name.startswith("_S_")]
    out.append(f"-DDIST_OMEGA={engine._DIST_OMEGA.hex()}")
    out.append(f"-DROW_WIDTH={len(engine._columns(0))}")
    out.append(f"-DCSV_VALUE_BYTES={CSV_VALUE_BYTES}")
    for layout, prefix, end in ((CONSTANTS, "P_", "P_CONES"),
                                (CONE, "C_", "CONE_WIDTH")):
        names = [prefix + name for name, _ in layout] + [end]
        offsets = accumulate((width for _, width in layout), initial=0)
        out += map("-D{}={}".format, names, offsets)
    return out


def build(target: Path, flags=FLAGS) -> None:
    """Compile ``_kernel.c`` with ``flags`` and :func:`definitions` into the
    shared library ``target``; raise :class:`OSError` with the compiler's
    output if that fails, or if there is no compiler."""
    import subprocess

    try:
        subprocess.run(
            [*compiler(), *flags, *definitions(), "-fPIC", "-shared", "-o",
             str(target), str(SOURCE), "-lm"],
            capture_output=True, text=True, check=True, timeout=300)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"kernel build failed:\n{exc.stdout}{exc.stderr}"
                      ) from None
    except subprocess.TimeoutExpired:
        raise OSError("kernel build timed out") from None
    except ValueError as exc:  # a $CC that shlex cannot split
        raise OSError(f"no compiler could be run: {exc}") from None


def library_path() -> Path:
    """Where the library of this source, ``FLAGS`` and :func:`definitions`
    is cached."""
    # the interpreter's own sha256, as ``random`` takes its sha512: hashlib
    # would load OpenSSL, about 4 MB, into every run's process
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    key = sha256(SOURCE.read_bytes()
                 + "\0".join((*FLAGS, *definitions())).encode()).hexdigest()
    return SOURCE.parent / "__pycache__" / f"_kernel-{key[:16]}.so"


@functools.cache
def load():
    """The kernel's library, with the argument types of its entry points,
    ``slewguard_run``, ``slewguard_disturbance`` and ``slewguard_csv``,
    set; or None where no library can be built or loaded.  Cached; threads
    that call it at once find or build the library one at a time, so it is
    built once."""
    try:
        import ctypes

        path = library_path()
        with _BUILDING:
            if not path.exists():
                import tempfile

                path.parent.mkdir(exist_ok=True)
                with tempfile.TemporaryDirectory(dir=path.parent,
                                                 prefix=".build-") as tmp:
                    part = Path(tmp) / path.name
                    build(part)
                    os.replace(part, path)
            lib = ctypes.CDLL(str(path))
    except (ImportError, OSError):
        return None
    # every buffer is an array, passed by address
    buf, long, ulong = ctypes.c_void_p, ctypes.c_long, ctypes.c_ulong
    double = ctypes.c_double
    lib.slewguard_run.argtypes = (buf, buf, long, double, long, buf, buf,
                                  buf, ulong)
    lib.slewguard_disturbance.argtypes = (double, ulong, ulong, buf)
    lib.slewguard_csv.argtypes = (buf, long, long, buf, long)
    lib.slewguard_run.restype = lib.slewguard_csv.restype = long
    lib.slewguard_disturbance.restype = ulong
    return lib


@functools.lru_cache(maxsize=1)
def disturbances(lib, dt: float, steps: int) -> array:
    """The disturbance table of ``steps`` steps of ``dt``: entry j is
    ``engine.disturbance_torque`` at (j // 2) dt, plus dt / 2 where j is
    odd, 3 values to an entry, its ``2 * steps + 1`` entries filled by
    ``slewguard_disturbance``.  Where an entry would raise, the table ends
    before it, and a run stops at the first sample that needs it.

    The most recent table is kept and never written, so the runs of one
    ``dt`` and length share it; a run of another fills its own.  Two
    threads that miss at once, as a ``--compare`` run's two may on first
    use, each fill one of the same bits, about 1.3 ms for 120 s at ``dt``
    = 0.01."""
    table = array("d", [0.0]) * (3 * (2 * steps + 1))
    done = lib.slewguard_disturbance(dt, 0, 2 * steps + 1,
                                     table.buffer_info()[0])
    del table[3 * done:]
    return table


def run(ctx, y: list, stats: array, log: array, dt: float, n_steps: int,
        stride: int) -> tuple[int, list]:
    """Samples 0 to ``n_steps`` of a run of ``n_steps`` steps of ``dt`` of
    the closed loop ``ctx`` (an ``engine._LoopContext``), from the state
    ``y`` of sample 0, up to the first one the reference would raise on:
    each folded into the statistics record ``stats`` and, where
    ``k % stride == 0`` or it is the final one, its row written into row
    ceil(k / stride) of ``log``, sized for every such row.  Returns the
    number of samples completed and the state of the sample after the
    last.

    Completes none, and returns ``(0, y)``, where the run takes the
    reference loop: no library, a sample count that a C ``long`` cannot
    hold, since ctypes would wrap it, or a scenario constant that is not a
    float, since the kernel repeats only float arithmetic."""
    lib = load()
    long_max = 2 ** (8 * array("l").itemsize - 1) - 1  # the largest C long
    if lib is None or n_steps + 1 > long_max:
        return 0, y
    ctrl, params = ctx.ctrl, ctx.params

    def pack(layout, **values):
        out = []
        for name, width in layout:
            v = values[name]
            out += v if width > 1 else (v,)
        return out

    def shape(s):
        return s.lo, s.hi, s.mid, s.steepness

    consts = pack(
        CONSTANTS, B=ctx.b, R=ctx.r_i,
        J=[v for row in ctx.j_rows for v in row],
        JI=[v for row in ctx.j_inv_rows for v in row],
        NEG_K_RHO=ctx.neg_k_rho, RHO_INF=ctx.rho_inf, TD=ctx.td,
        S_SHAPE=shape(ctx.s_shape), V_SHAPE=shape(ctx.v_shape),
        BENCHMARK=float(ctx.benchmark), K1=ctrl.k1, K_P=ctrl.k_p,
        K_OMEGA=ctrl.k_omega, G=ctrl.g, BIG_F=ctrl.big_f, K_A=ctrl.k_a,
        ETA=ctrl.eta, SIGMA=ctrl.sigma, TORQUE_LIMIT=params.torque_limit,
        DIST_BOUND=params.disturbance_bound, ANTIPODAL=ANTIPODAL_THRESHOLD,
        NUDGE=ANTIPODAL_NUDGE_FRACTION, RATIO_FLOOR=ERROR_RATIO_FLOOR,
        KNOT_GUARD=_KNOT_GUARD, LN2=_LN2, RAD_TO_DEG=math.degrees(1.0),
        N_CONES=float(len(ctx.cones)))
    for cone, axis in zip(ctx.cones, ctx.axes):
        consts += pack(CONE, AXIS=axis, SHAPE=shape(cone.shape), K_R=cone.k_r)
    if not all(isinstance(v, float) for v in consts):
        return 0, y
    if len(y) != 14:  # the kernel reads and writes 14 components
        raise ValueError("not a state of 14 components")
    # the arrays, not only their addresses, are held here: the kernel reads
    # and writes through those addresses.  The table's entry 0, at t = 0,
    # is always filled, so a table is never empty and never passes as NULL
    consts, state = array("d", consts), array("d", y)
    table = (disturbances(lib, dt, min(n_steps, TABLE_STEPS))
             if ctx.dist_on else None)
    # the stride clamped to n_steps, which logs the rows of every larger
    # one, samples 0 and n_steps, and fits the C long that ctypes would
    # wrap a larger one into (2**64 to 0, 2**64 + 1 to 1)
    done = lib.slewguard_run(
        consts.buffer_info()[0], state.buffer_info()[0], n_steps, dt,
        min(stride, n_steps), stats.buffer_info()[0], log.buffer_info()[0],
        None if table is None else table.buffer_info()[0],
        0 if table is None else len(table) // 3)
    return done, state.tolist()


def csv_chunks(data, width: int):
    """The ``trajectory.csv`` rows of ``data``, an ``array("d")`` of
    ``width`` values to a row, each value as ``'%.17g' % v`` writes it: a
    generator of views of one buffer of about ``CSV_BUFFER_BYTES``, each
    valid until the next is taken; until the last is, ``data`` cannot be
    resized.  None where no library is loaded, or ``data`` is no
    ``array("d")``."""
    lib = load()
    if lib is None or not isinstance(data, array) or data.typecode != "d":
        return None
    return _chunks(lib.slewguard_csv, data, width)


def _chunks(csv, data: array, width: int):
    step = max(1, CSV_BUFFER_BYTES // (CSV_VALUE_BYTES * width)) * width
    out = array("B", [0]) * (step * CSV_VALUE_BYTES)
    with memoryview(data), memoryview(out) as text:  # neither resizable
        at, end = data.buffer_info()
        for i in range(0, end, step):
            n = min(step, end - i)
            size = csv(at + i * data.itemsize, n, width, out.buffer_info()[0],
                       len(out))
            if size < 0:
                raise ValueError("not a whole number of rows")
            yield text[:size]
