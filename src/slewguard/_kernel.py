"""The compiled stage kernel: ``_kernel.c``, built on first use and called
through :mod:`ctypes`.

:func:`engine.run_scenario` propagates the state with it wherever a library
can be built or found, and with ``_LoopContext.rhs`` and ``step``, the
reference, everywhere else; both give the same bits (``_kernel.c`` says
how).  Where the kernel stops short of a sample the reference would abort
on, the run replays that sample with the reference, so every abort and
arithmetic error comes from the Python code.

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
import os
from array import array
from pathlib import Path

from .controller import ANTIPODAL_NUDGE_FRACTION, ANTIPODAL_THRESHOLD
from .envelope import ERROR_RATIO_FLOOR
from .potential import _KNOT_GUARD

SOURCE = Path(__file__).with_name("_kernel.c")
# no contraction into fused multiply-adds and no value-changing
# optimization, so each operation rounds as the interpreter's does
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off")

# doubles a sample takes beyond its cone cosines: the state (14) and the
# rest of the stage (16), as ``_kernel.c`` lays them out
_SAMPLE_WIDTH = 30


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
    double_p = ctypes.POINTER(ctypes.c_double)
    run.argtypes = (double_p, double_p, ctypes.c_long, ctypes.c_long,
                    ctypes.c_long, ctypes.c_double, double_p)
    run.restype = ctypes.c_long
    return run


class Propagator:
    """The kernel bound to one run: its scenario constants, the state it
    steps and one block of output samples."""

    def __init__(self, run, consts: list, n_cones: int, dt: float,
                 n_steps: int, block: int):
        import ctypes

        self._run = run
        self._dt = dt
        self._n = n_steps
        self._block = block
        self._width = _SAMPLE_WIDTH + n_cones
        self._consts = (ctypes.c_double * len(consts))(*consts)
        self._state = (ctypes.c_double * 14)()
        self._out = array("d", bytes(8 * block * self._width))
        # a view of the buffer, which cannot be resized while it exists
        self._out_p = (ctypes.c_double * len(self._out)).from_buffer(
            self._out)

    def advance(self, y: list, k: int, end: int):
        """Samples ``k`` to ``end - 1``, no more than a block, from the
        state ``y`` of sample ``k``, up to the first one the reference would
        abort on: ``(samples, y)``, an iterator over their ``(state,
        stage)`` pairs, with the stage in the form ``rhs`` gives it, and the
        state of the sample after the last.  The samples are read from the
        block, so take them before the next call."""
        if end - k > self._block:
            raise ValueError("more samples than a block")
        state = self._state
        state[:] = y
        got = self._run(self._consts, state, k, end, self._n, self._dt,
                        self._out_p)
        return self._samples(got), state[:]

    def _samples(self, got: int):
        out, w = self._out, self._width
        for i in range(0, got * w, w):
            s = out[i:i + w].tolist()
            yield s[:14], ((s[14], s[15], s[16]), s[17], s[30:], s[18], s[19],
                           s[20], (s[21], s[22], s[23]), (s[24], s[25], s[26]),
                           (s[27], s[28], s[29]))


def propagator(ctx, dt: float, n_steps: int, block: int):
    """A :class:`Propagator` for a run of ``n_steps`` steps of ``dt`` of the
    closed loop ``ctx`` (an ``engine._LoopContext``), or None where the run
    takes the reference loop: no library, or a scenario constant that is
    not a float, since the kernel repeats only float arithmetic."""
    run = load()
    if run is None:
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
               ERROR_RATIO_FLOOR, _KNOT_GUARD, float(len(ctx.cones)))
    for cone, axis in zip(ctx.cones, ctx.axes):
        s = cone.shape
        consts += (*axis, s.lo, s.hi, s.mid, s.steepness, cone.k_r)
    if not all(isinstance(v, float) for v in consts):
        return None
    return Propagator(run, consts, len(ctx.cones), dt, n_steps, block)
