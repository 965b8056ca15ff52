"""Scenario files, schema validation, and the bundled presets.

A scenario is a single JSON document carrying everything a run needs:
spacecraft constants, initial state, goal and boresight directions, the
forbidden cones, funnel and switching parameters, controller gains,
simulation settings, and optional performance targets.  Angles live in the
file as degrees with a ``_deg`` suffix and are converted to radians on load.
Vectors and the inertia are loaded as tuples of Python floats, and norms
and the goal-to-axis cosine are float sums in a fixed order, so a loaded
scenario's bits depend on nothing but the document.

Presets are built from the same loader: each combines a bundled geometry
table with the package's reference tuning file (``data/reference_tuning.json``),
so the gains are data, not code, and alternates can be swapped without
touching the package.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import warnings
from importlib import resources
from pathlib import Path
from typing import Any

from ._value import Frozen
from .attitude import BodyState, SpacecraftParams, UnitQuaternion
from .controller import ControllerConfig
from .envelope import EnvelopeConfig, SwitchConfig
from .engine import SimConfig
from .potential import ObstacleCone, balanced_k_r, goal_separation

__all__ = [
    "Targets",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "scenario_from_dict",
    "load_preset",
    "list_presets",
    "PRESET_NAMES",
]

# Ingest corrections larger than this raise a visible normalization warning.
_NORM_WARN_TOL = 1e-6


class ScenarioError(Exception):
    """Scenario could not be loaded: ``kind`` is "parse" or "schema"."""

    def __init__(self, kind: str, errors: list[str]):
        self.kind = kind
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class Targets(Frozen):
    """Optional pass/fail performance targets evaluated by the summary."""

    _fields = ("settle_deg", "settle_time_s", "terminal_deg",
               "terminal_time_s")

    def __init__(self, settle_deg: float | None = None,
                 settle_time_s: float | None = None,
                 terminal_deg: float | None = None,
                 terminal_time_s: float | None = None):
        self._set(settle_deg=settle_deg, settle_time_s=settle_time_s,
                  terminal_deg=terminal_deg, terminal_time_s=terminal_time_s)


class Scenario:
    """Fully resolved scenario ready for :func:`slewguard.engine.run_scenario`."""

    def __init__(self, name: str, description: str, params: SpacecraftParams,
                 initial: BodyState,
                 boresight_body: tuple[float, float, float],
                 target_inertial: tuple[float, float, float],
                 obstacles: tuple[ObstacleCone, ...],
                 envelope: EnvelopeConfig, switch: SwitchConfig,
                 controller: ControllerConfig, sim: SimConfig,
                 theta_df: float, targets: Targets | None = None):
        self.name = name
        self.description = description
        self.params = params
        self.initial = initial
        self.boresight_body = boresight_body
        self.target_inertial = target_inertial
        self.obstacles = obstacles
        self.envelope = envelope
        self.switch = switch
        self.controller = controller
        self.sim = sim
        self.theta_df = theta_df
        self.targets = targets

    def with_sim(self, **changes) -> "Scenario":
        """Copy with modified simulation settings."""
        new = copy.copy(self)
        sim = self.sim
        new.sim = SimConfig(**dict(zip(sim._fields, sim._key()), **changes))
        return new


# ---------------------------------------------------------------------------
# schema walking helpers: every failure names the offending field path
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    """A JSON number, not a bool, that a finite double can hold."""
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:  # an integer beyond the double range
        return False


def _as_number(errors, data, path, key, required=True, default=None):
    if key not in data:
        if required:
            errors.append(f"{path}.{key}: missing required number")
        return default
    v = data[key]
    if v is None and not required:
        return default
    if not _is_number(v):
        errors.append(f"{path}.{key}: expected a number, got {type(v).__name__}")
        return default
    if not _is_finite_number(v):
        errors.append(f"{path}.{key}: expected a finite number")
        return default
    return float(v)


def _as_vec(errors, data, path, key, n, required=True):
    if key not in data:
        if required:
            errors.append(f"{path}.{key}: missing required {n}-vector")
        return None
    v = data[key]
    if not isinstance(v, list) or len(v) != n or not all(map(_is_number, v)):
        errors.append(f"{path}.{key}: expected a list of {n} numbers")
        return None
    bad = [i for i, x in enumerate(v) if not _is_finite_number(x)]
    for i in bad:
        errors.append(f"{path}.{key}[{i}]: expected a finite number")
    return None if bad else [float(x) for x in v]


def _as_dict(errors, data, path, key, required=True):
    if key not in data:
        if required:
            errors.append(f"{path}.{key}: missing required object")
        return None
    v = data[key]
    if not isinstance(v, dict):
        errors.append(f"{path}.{key}: expected an object")
        return None
    return v


def _warn(msg):
    """Issue a load warning at the first frame outside this module, the line
    that called :func:`load_scenario` or :func:`scenario_from_dict`."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(msg, stacklevel=level)


def _unit(vec, path):
    x, y, z = vec
    n = math.sqrt(x * x + y * y + z * z)
    if n < 1e-12:
        raise ValueError(f"{path}: zero vector cannot be normalized")
    if abs(n - 1.0) > _NORM_WARN_TOL:
        _warn(f"{path}: normalized (norm correction {abs(n - 1.0):.3e})")
    return (x / n, y / n, z / n)


def scenario_from_dict(data: Any, default_name: str = "scenario") -> Scenario:
    """Build a scenario from a parsed JSON document.

    Raises :class:`ScenarioError` of kind "schema" listing every problem
    found, each prefixed with the offending field path.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError("schema", ["$: top level must be an object"])

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        errors.append("$.name: expected a nonempty string")
        name = default_name
    elif name in (".", "..") or "/" in name or "\\" in name:
        # a run writes into the directory of this name under its --out
        errors.append(f"$.name: expected one plain path component, got "
                      f"{name!r}")
    description = data.get("description", "")
    if not isinstance(description, str):
        errors.append("$.description: expected a string")
        description = ""

    params = None
    sc = _as_dict(errors, data, "$", "spacecraft")
    if sc is not None:
        inertia = None
        if "inertia_diag" in sc:
            diag = _as_vec(errors, sc, "$.spacecraft", "inertia_diag", 3)
            if diag is not None:
                d0, d1, d2 = diag
                inertia = ((d0, 0.0, 0.0), (0.0, d1, 0.0), (0.0, 0.0, d2))
        else:
            rows = sc.get("inertia")
            if (isinstance(rows, list) and len(rows) == 3
                    and all(isinstance(r, list) and len(r) == 3 for r in rows)):
                ok = True
                for i, row in enumerate(rows):
                    for j, x in enumerate(row):
                        if not _is_finite_number(x):
                            errors.append(f"$.spacecraft.inertia[{i}][{j}]: "
                                          "expected a finite number")
                            ok = False
                if ok:
                    inertia = rows
            else:
                errors.append("$.spacecraft.inertia: expected a 3x3 matrix "
                              "(or use inertia_diag)")
        tl = _as_number(errors, sc, "$.spacecraft", "torque_limit")
        db = _as_number(errors, sc, "$.spacecraft", "disturbance_bound")
        if inertia is not None and tl is not None and db is not None:
            try:
                params = SpacecraftParams(inertia=inertia, torque_limit=tl,
                                          disturbance_bound=db)
            except ValueError as exc:
                errors.append(f"$.spacecraft: {exc}")

    initial = None
    init = _as_dict(errors, data, "$", "initial")
    if init is not None:
        att = _as_vec(errors, init, "$.initial", "attitude", 4)
        om = _as_vec(errors, init, "$.initial", "omega", 3)
        if att is not None and om is not None:
            try:
                x, y, z, w = att
                n = math.sqrt(x * x + y * y + z * z + w * w)
                if n < 1e-12:
                    raise ValueError("zero quaternion")
                if abs(n - 1.0) > _NORM_WARN_TOL:
                    _warn(f"$.initial.attitude: normalized "
                          f"(norm correction {abs(n - 1.0):.3e})")
                q = UnitQuaternion(x / n, y / n, z / n, w / n)
                initial = BodyState(attitude=q, omega=om)
            except ValueError as exc:
                errors.append(f"$.initial: {exc}")

    boresight = target = None
    bb = _as_vec(errors, data, "$", "boresight_body", 3)
    if bb is not None:
        try:
            boresight = _unit(bb, "$.boresight_body")
        except ValueError as exc:
            errors.append(str(exc))
    ti = _as_vec(errors, data, "$", "target_inertial", 3)
    if ti is not None:
        try:
            target = _unit(ti, "$.target_inertial")
        except ValueError as exc:
            errors.append(str(exc))

    envelope = None
    env = _as_dict(errors, data, "$", "envelope")
    if env is not None:
        r0 = _as_number(errors, env, "$.envelope", "rho_0")
        ri = _as_number(errors, env, "$.envelope", "rho_inf")
        kr = _as_number(errors, env, "$.envelope", "k_rho")
        if None not in (r0, ri, kr):
            try:
                envelope = EnvelopeConfig(rho_0=r0, rho_inf=ri, k_rho=kr)
            except ValueError as exc:
                errors.append(f"$.envelope: {exc}")

    controller = None
    ctl = _as_dict(errors, data, "$", "controller")
    if ctl is not None:
        vals = {}
        for key in ("k1", "k_p", "k_omega", "g", "big_f", "k_a", "eta",
                    "sigma", "td_r"):
            vals[key] = _as_number(errors, ctl, "$.controller", key)
        vals["td_a1"] = _as_number(errors, ctl, "$.controller", "td_a1",
                                   required=False, default=1.0)
        vals["td_a2"] = _as_number(errors, ctl, "$.controller", "td_a2",
                                   required=False, default=2.0)
        if all(v is not None for v in vals.values()):
            try:
                controller = ControllerConfig(**vals)
            except ValueError as exc:
                errors.append(f"$.controller: {exc}")

    theta_df = _as_number(errors, data, "$", "theta_df_deg",
                          required=False, default=50.0)
    if theta_df is not None and not (0.0 < theta_df < 180.0):
        errors.append("$.theta_df_deg: must lie in (0, 180)")
        theta_df = None

    obstacles: list[ObstacleCone] = []
    obs = data.get("obstacles")
    if not isinstance(obs, list):
        errors.append("$.obstacles: expected a list (may be empty)")
        obs = []
    for i, entry in enumerate(obs):
        path = f"$.obstacles[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{path}: expected an object")
            continue
        axis = _as_vec(errors, entry, path, "axis_inertial", 3)
        tf = _as_number(errors, entry, path, "theta_f_deg")
        t0 = _as_number(errors, entry, path, "theta_0_deg")
        t1 = _as_number(errors, entry, path, "theta_1_deg")
        krep = _as_number(errors, entry, path, "k_r", required=False)
        rsl = _as_number(errors, entry, path, "r_slope")
        if None in (axis, tf, t0, t1, rsl):
            continue
        try:
            naxis = _unit(axis, f"{path}.axis_inertial")
        except ValueError as exc:
            errors.append(str(exc))
            continue
        if krep is None:
            # balance the attraction at the goal-facing buffer edge
            if target is None or controller is None:
                errors.append(f"{path}.k_r: omitted, but the automatic value "
                              "needs a valid target and controller")
                continue
            sep = goal_separation(target, naxis)
            if sep <= math.radians(t1):
                errors.append(f"{path}.k_r: automatic value undefined, goal "
                              "sits inside the buffer edge")
                continue
            krep = balanced_k_r(controller.k_a, sep, math.radians(t1))
        try:
            obstacles.append(ObstacleCone(
                axis_inertial=naxis, theta_f=math.radians(tf),
                theta_0=math.radians(t0), theta_1=math.radians(t1),
                k_r=krep, r_slope=rsl))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")

    switch = None
    sw = _as_dict(errors, data, "$", "switching")
    if sw is not None:
        delta = _as_number(errors, sw, "$.switching", "delta",
                           required=False, default=0.005)
        m = _as_number(errors, sw, "$.switching", "m", required=False, default=5.0)
        n = _as_number(errors, sw, "$.switching", "n", required=False, default=2.0)
        p1 = _as_number(errors, sw, "$.switching", "p1", required=False)
        tp1 = _as_number(errors, sw, "$.switching", "theta_p1_deg",
                         required=False)
        if p1 is not None and tp1 is not None:
            errors.append("$.switching: give p1 or theta_p1_deg, not both")
        elif tp1 is not None:
            p1 = math.cos(math.radians(tp1))
        if p1 is not None and not obs:
            key = "p1" if tp1 is None else "theta_p1_deg"
            _warn(f"$.switching.{key}: ignored, there are no obstacles")
        if None not in (delta, m, n):
            if obstacles:
                # the freeze completes at the outermost onset; the blend
                # saturates no deeper than the nearest plateau edge, and
                # there by default
                v1 = min(c.shape.lo for c in obstacles)
                hi = min(c.shape.hi for c in obstacles)
                p1 = hi if p1 is None else p1
            else:
                # no cones: park the switches in an inert band just below
                # beta = 1 so the config stays constructible; it can never
                # activate
                v1 = 1.0 - 4.0 * delta
                p1 = hi = 1.0 - delta
            try:
                if p1 > hi + 1e-12:
                    raise ValueError("p1 must not exceed the repulsion "
                                     "plateau edge")
                switch = SwitchConfig(v1=v1, p1=p1, delta=delta, m=m, n=n)
            except ValueError as exc:
                errors.append(f"$.switching: {exc}")

    sim = SimConfig()
    sm = data.get("sim")
    if sm is not None:
        if not isinstance(sm, dict):
            errors.append("$.sim: expected an object")
        else:
            # RK4 is the only integrator; the key may still name it
            if sm.get("integrator", "rk4") != "rk4":
                errors.append('$.sim.integrator: only "rk4" is supported')
            kwargs = {}
            for key, cast in (("dt", float), ("duration", float),
                              ("record_stride", int),
                              ("disturbance_enabled", bool),
                              ("controller_mode", str)):
                if key in sm:
                    val = sm[key]
                    if cast in (float, int) and (isinstance(val, bool)
                                                 or not isinstance(val, (int, float))):
                        errors.append(f"$.sim.{key}: expected a number")
                        continue
                    # an integer beyond the double range; a non-finite
                    # float is left to SimConfig
                    if (cast in (float, int) and isinstance(val, int)
                            and not _is_finite_number(val)):
                        errors.append(f"$.sim.{key}: expected a finite number")
                        continue
                    if (cast is int and isinstance(val, float)
                            and not val.is_integer()):
                        errors.append(f"$.sim.{key}: expected an integer")
                        continue
                    if cast is str and not isinstance(val, str):
                        errors.append(f"$.sim.{key}: expected a string")
                        continue
                    if cast is bool and not isinstance(val, bool):
                        errors.append(f"$.sim.{key}: expected a boolean")
                        continue
                    kwargs[key] = cast(val)
            try:
                sim = SimConfig(**kwargs)
            except ValueError as exc:
                errors.append(f"$.sim: {exc}")

    targets = None
    tg = data.get("targets")
    if tg is not None:
        if not isinstance(tg, dict):
            errors.append("$.targets: expected an object")
        else:
            vals = {}
            for key in ("settle_deg", "settle_time_s", "terminal_deg",
                        "terminal_time_s"):
                vals[key] = _as_number(errors, tg, "$.targets", key,
                                       required=False)
            targets = Targets(**vals)

    if errors:
        raise ScenarioError("schema", errors)

    return Scenario(
        name=name, description=description, params=params, initial=initial,
        boresight_body=boresight, target_inertial=target,
        obstacles=tuple(obstacles), envelope=envelope, switch=switch,
        controller=controller, sim=sim,
        theta_df=math.radians(theta_df), targets=targets)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError("parse", [f"cannot read {path}: {exc}"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("parse", [f"{path}: invalid JSON: {exc}"]) from exc
    return scenario_from_dict(data, default_name=Path(path).stem)


# ---------------------------------------------------------------------------
# bundled presets
# ---------------------------------------------------------------------------

_PRESET_GEOMETRY: dict[str, tuple[str, list[list[float]]]] = {
    "paper-single-1": ("One cone far off the slew corridor; clean funnel tracking",
                       [[0.5145, 0.8575, 0.0]]),
    "paper-single-2": ("One cone moderately close to the goal meridian",
                       [[-0.099, 0.990, -0.099]]),
    "paper-single-3": ("One cone near the mid-slew arc",
                       [[0.0, 0.980, 0.196]]),
    "paper-two-1": ("Two cones, the second intrudes on the slew corridor",
                    [[0.571, 0.816, 0.081], [-0.336, 0.842, 0.421]]),
    "paper-two-2": ("Two cones flanking the corridor",
                    [[0.512, 0.854, 0.085], [-0.188, 0.940, -0.282]]),
    "paper-two-3": ("Two cones with goal separation near the declared minimum",
                    [[0.514, 0.857, 0.0], [-0.311, 0.778, -0.544]]),
    "paper-two-4": ("Two cones with the goal close to the second cone",
                    [[0.472, 0.788, 0.394], [-0.369, 0.924, -0.092]]),
    "paper-three-1": ("Three cones combining the intruding pair with a third",
                      [[0.472, 0.788, 0.394], [-0.336, 0.842, 0.421],
                       [0.169, 0.845, -0.507]]),
    "paper-compare-1": ("Clean single-cone case for the controller comparison",
                        [[0.5145, 0.8575, 0.0]]),
}

PRESET_NAMES = tuple(_PRESET_GEOMETRY)


def _reference_tuning() -> dict:
    text = resources.files("slewguard").joinpath(
        "data/reference_tuning.json").read_text(encoding="utf-8")
    return json.loads(text)


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_preset(name: str) -> Scenario:
    """Build one bundled preset scenario by name."""
    if name not in _PRESET_GEOMETRY:
        known = ", ".join(_PRESET_GEOMETRY)
        raise KeyError(f"unknown preset {name!r}; known presets: {known}")
    description, axes = _PRESET_GEOMETRY[name]
    tuning = _reference_tuning()
    doc = tuning["default"]
    override = tuning.get("overrides", {}).get(name)
    if override:
        doc = _merge(doc, override)
    angles = doc.pop("angles")
    repulsion = doc.pop("repulsion")
    doc["name"] = name
    doc["description"] = description
    doc["obstacles"] = [
        {
            "axis_inertial": axis,
            "theta_f_deg": angles["theta_f_deg"],
            "theta_0_deg": angles["theta_0_deg"],
            "theta_1_deg": angles["theta_1_deg"],
            "r_slope": repulsion["r_slope"],
        }
        for axis in axes
    ]
    doc["switching"] = dict(doc["switching"])
    doc["switching"]["theta_p1_deg"] = angles["theta_p1_deg"]
    doc.pop("comment", None)
    with warnings.catch_warnings():
        # bundled axis tables are normalized quietly; user files still warn
        warnings.simplefilter("ignore")
        return scenario_from_dict(doc, default_name=name)


def list_presets() -> list[tuple[str, str]]:
    """Names and one-line descriptions of the bundled presets, in order."""
    return [(name, desc) for name, (desc, _) in _PRESET_GEOMETRY.items()]
