"""The compiled per-sample kernel: ``_kernel.c``, built on first use and
called through :mod:`ctypes`.

:func:`engine.run_scenario` runs its samples with it wherever a library
can be built or found, and with the reference, ``_LoopContext.rhs``,
``step`` and ``record`` and ``_RunStats.add``, everywhere else; both give
the same bits (``_kernel.c`` says how).  A call propagates the state over
up to a block of logged rows, writes those rows and folds every sample
into the run's statistics record, the ``array("d")`` that
``_RunStats.add`` folds into as well.  Where the kernel stops short of a
sample the reference would raise on, the run replays that sample with the
reference, so every abort and arithmetic error comes from the Python code.

The library is built by one call of the C compiler, never at import:
``$CC`` where it is set, else the compiler the interpreter was built
with, else ``cc``.  Only ``FLAGS`` reach the arithmetic, no ``CFLAGS`` or
``LDFLAGS`` from the environment or the interpreter's configuration, and
no Python package takes part.  The library is cached in the package's
``__pycache__`` under a name keyed by the sha256 of the source and the
flags, and written under a unique temporary name first, so processes that
build at the same time leave one complete file.  It is a plain C library,
so any interpreter loads it.  The build is tried once per process; where
it fails, as where no compiler is found, runs take the reference loop.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from pathlib import Path

from .controller import ANTIPODAL_NUDGE_FRACTION, ANTIPODAL_THRESHOLD
from .envelope import _LN2, ERROR_RATIO_FLOOR
from .potential import _KNOT_GUARD

SOURCE = Path(__file__).with_name("_kernel.c")
# no contraction into fused multiply-adds and no value-changing
# optimization, so each operation rounds as the interpreter's does
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off")

# the columns of a logged row beyond its cone cosines
_ROW_WIDTH = 17


def compiler() -> list[str]:
    """The C compiler's command: ``$CC``, else the interpreter's own, else
    ``cc``."""
    import shlex
    import sysconfig

    return shlex.split(os.environ.get("CC")
                       or sysconfig.get_config_var("CC") or "cc")


def build(target: Path, flags=FLAGS) -> None:
    """Compile ``_kernel.c`` with ``flags`` into the shared library
    ``target``; raise :class:`OSError` with the compiler's output if that
    fails, or if there is no compiler."""
    import subprocess

    try:
        subprocess.run(
            [*compiler(), *flags, "-fPIC", "-shared", "-o", str(target),
             str(SOURCE), "-lm"],
            capture_output=True, text=True, check=True, timeout=300)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"kernel build failed:\n{exc.stdout}{exc.stderr}"
                      ) from None
    except subprocess.TimeoutExpired:
        raise OSError("kernel build timed out") from None
    except ValueError as exc:  # a $CC that shlex cannot split
        raise OSError(f"no compiler could be run: {exc}") from None


def library_path() -> Path:
    """Where the library of this source and ``FLAGS`` is cached."""
    # the interpreter's own sha256, as ``random`` takes its sha512: hashlib
    # would load OpenSSL, about 4 MB, into every run's process
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    key = sha256(SOURCE.read_bytes() + "\0".join(FLAGS).encode()).hexdigest()
    return SOURCE.parent / "__pycache__" / f"_kernel-{key[:16]}.so"


@functools.cache
def load():
    """The kernel's entry point, or None where no library can be built or
    loaded.  Called once per process; a forked child inherits the result."""
    try:
        import ctypes

        path = library_path()
        if not path.exists():
            import tempfile

            path.parent.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=path.parent,
                                             prefix=".build-") as tmp:
                part = Path(tmp) / path.name
                build(part)
                os.replace(part, path)
        run = ctypes.CDLL(str(path)).slewguard_run
    except (ImportError, OSError):
        return None
    # every buffer is an array("d"), or array("l") for the row count,
    # passed by address
    buf = ctypes.c_void_p
    run.argtypes = (buf, buf, ctypes.c_long, ctypes.c_long, ctypes.c_long,
                    ctypes.c_double, ctypes.c_long, buf, buf, buf)
    run.restype = ctypes.c_long
    return run


class Propagator:
    """The kernel bound to one run: its scenario constants, its statistics
    record and one block of rows, each an ``array`` that it holds while the
    kernel writes to it and never resizes."""

    def __init__(self, run, consts: list, stats: array, width: int,
                 dt: float, n_steps: int, stride: int, block_rows: int):
        self._run = run
        self._dt = dt
        self._n = n_steps
        self._stride = stride
        self._block = block_rows * stride
        self._width = width
        self._consts = array("d", consts)
        self._stats = stats
        self._rows = array("l", [0])
        # a block's rows, and the final sample's when it falls between two
        # that are due
        self._out = array("d", bytes(8 * (block_rows + 1) * width))

    def advance(self, y: list, k: int, end: int):
        """Samples ``k`` to ``end - 1``, no more than a block of rows'
        worth, from the state ``y`` of sample ``k``, up to the first one the
        reference would raise on: each is folded into the statistics record
        and its row, when due, is logged.  Returns ``(done, rows, y)``: the
        number of samples completed, their rows as one flat ``array("d")``,
        and the state of the sample after the last."""
        if end - k > self._block or len(y) != 14:
            raise ValueError("more samples than a block, or not a state")
        state = array("d", y)
        done = self._run(self._consts.buffer_info()[0],
                         state.buffer_info()[0], k, end, self._n, self._dt,
                         self._stride, self._stats.buffer_info()[0],
                         self._out.buffer_info()[0],
                         self._rows.buffer_info()[0])
        return (done, self._out[:self._rows[0] * self._width],
                state.tolist())


def propagator(ctx, stats: array, dt: float, n_steps: int, stride: int,
               block_rows: int):
    """A :class:`Propagator` for a run of ``n_steps`` steps of ``dt`` of the
    closed loop ``ctx`` (an ``engine._LoopContext``) that logs every
    ``stride``-th sample and folds every sample into the statistics record
    ``stats``, or None where the run takes the reference loop: no library,
    a stride or sample count that a C ``long`` cannot hold, since ctypes
    would wrap it, or a scenario constant that is not a float, since the
    kernel repeats only float arithmetic."""
    run = load()
    if run is None:
        return None
    long_max = 2 ** (8 * array("l").itemsize - 1) - 1  # the largest C long
    if stride > long_max or n_steps + 1 > long_max:
        return None
    ctrl, params = ctx.ctrl, ctx.params
    consts = [*ctx.b, *ctx.r_i, *(v for row in ctx.j_rows for v in row),
              *(v for row in ctx.j_inv_rows for v in row),
              ctx.neg_k_rho, ctx.rho_inf, *ctx.td]
    for shape in (ctx.s_shape, ctx.v_shape):
        consts += (shape.lo, shape.hi, shape.mid, shape.steepness)
    consts += (ctx.switch_floor, float(ctx.benchmark),
               float(bool(ctx.dist_on)), ctrl.k1, ctrl.k_p, ctrl.k_omega,
               ctrl.g, ctrl.big_f, ctrl.k_a, ctrl.eta, ctrl.sigma,
               params.torque_limit, params.disturbance_bound,
               ANTIPODAL_THRESHOLD, ANTIPODAL_NUDGE_FRACTION,
               ERROR_RATIO_FLOOR, _KNOT_GUARD, _LN2, math.degrees(1.0),
               float(len(ctx.cones)))
    for cone, axis in zip(ctx.cones, ctx.axes):
        s = cone.shape
        consts += (*axis, s.lo, s.hi, s.mid, s.steepness, cone.k_r)
    if not all(isinstance(v, float) for v in consts):
        return None
    return Propagator(run, consts, stats, _ROW_WIDTH + len(ctx.cones), dt,
                      n_steps, stride, block_rows)
