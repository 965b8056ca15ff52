"""The compiled per-sample kernel: ``_kernel.c``, built on first use and
called through :mod:`ctypes`.

:func:`engine.run_scenario` runs its samples with it wherever a library
can be built or found, and with the reference, ``_LoopContext.rhs``,
``step`` and ``record`` and ``_RunStats.add``, everywhere else; both give
the same bits (``_kernel.c`` says how).  One call runs the whole run: it
propagates the state, writes each logged row in place into the run's log
and folds every sample into the run's statistics record, both the
``array("d")`` buffers that the reference writes and folds into as well.
Where the kernel stops short of a sample the reference would raise on,
the run replays that sample with the reference and calls the kernel again
after it, so every abort and arithmetic error comes from the Python code.

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
    # every buffer is an array("d"), passed by address
    buf = ctypes.c_void_p
    run.argtypes = (buf, buf, ctypes.c_long, ctypes.c_long, ctypes.c_long,
                    ctypes.c_double, ctypes.c_long, buf, buf)
    run.restype = ctypes.c_long
    return run


def propagator(ctx, stats: array, log: array, dt: float, n_steps: int,
               stride: int):
    """The kernel bound to a run of ``n_steps`` steps of ``dt`` of the
    closed loop ``ctx`` (an ``engine._LoopContext``) that folds every
    sample into the statistics record ``stats`` and writes every
    ``stride``-th sample's row, and the final one's, into ``log``, sized
    for all of them; or None where the run takes the reference loop: no
    library, a stride or sample count that a C ``long`` cannot hold, since
    ctypes would wrap it, or a scenario constant that is not a float, since
    the kernel repeats only float arithmetic.

    The kernel returned is ``advance(y, k, end) -> (done, y)``: samples
    ``k`` to ``end - 1`` from the state ``y`` of sample ``k``, up to the
    first one the reference would raise on, each folded into ``stats`` and
    its row, when due, written into row ceil(k / stride) of ``log``.  It
    returns the number of samples completed and the state of the sample
    after the last.  Neither buffer may be resized while it lives."""
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
    consts = array("d", consts)

    def advance(y: list, k: int, end: int):
        # the rows written are those of samples k to end - 1, which the log
        # holds only within the run
        if not 0 <= k <= end <= n_steps + 1 or len(y) != 14:
            raise ValueError("samples outside the run, or not a state")
        # the arrays, not only their addresses, are held here: the kernel
        # reads and writes through those addresses
        state = array("d", y)
        done = run(consts.buffer_info()[0], state.buffer_info()[0], k, end,
                   n_steps, dt, stride, stats.buffer_info()[0],
                   log.buffer_info()[0])
        return done, state.tolist()

    return advance
