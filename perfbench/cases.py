"""Seeded inputs of the benchmark workloads.

Everything here is plain Python (``random`` and ``math``): it imports
nothing from slewguard and nothing that slewguard imports, so a scenario
document is fixed by the seed alone and building it costs nothing that the
set-up metric would count as program work.

Why the corridor family
-----------------------
The bundled presets barely exercise avoidance: only paper-two-1 and
paper-three-1 enter it, for about 2 % of their steps, and both meet the same
cone.  The open correctness question (keep-out and funnel guarantees under
the torque limit) and the planned batched sweep engine both concern Monte
Carlo traffic over cone geometry, so ``corridor-sweep`` draws cones where
the slew actually has to go around them: on the great circle from the start
boresight to the goal, beside it, and close enough to the start that the
boresight begins inside a cone's field band (between the forbidden
half-angle and the field onset).  It uses the paper-two-1 tuning, whose
angles and automatic plateau height are those of the presets.  Draws are
kept whatever validation or the run makes of them: a rejected draw is an
outcome, and a breach is a finding, so the set is never filtered.

Each draw is stratified (kind by index, corridor position and offset by a
Latin-hypercube permutation) so that the mix of kinds and positions, and
with it the share of rejected draws, varies little from seed to seed.
"""

from __future__ import annotations

import math
import random

PRESET_NAMES = (
    "paper-single-1", "paper-single-2", "paper-single-3",
    "paper-two-1", "paper-two-2", "paper-two-3", "paper-two-4",
    "paper-three-1", "paper-compare-1",
)
COMPARE_PRESETS = ("paper-compare-1", "paper-two-1", "paper-three-1")

# Corridor geometry, in degrees unless named otherwise.
START = (0.0, 0.0, 1.0)            # boresight +z with identity attitude
GOAL = (-0.866, 0.5, 0.0)          # preset goal, 90 deg from the start
THETA_F, THETA_1, THETA_0 = 20.0, 27.0, 36.0
CORRIDOR_CASES = 64                # a multiple of len(KINDS)
CORRIDOR_DURATION_S = 20.0
CORRIDOR_STRIDE = 20
# kind of draw by index: two of every four draws have one cone on the
# corridor or beside it, one starts inside a field band, one has two cones
KINDS = ("on", "beside", "start-band", "two")


def _unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return tuple(c / n for c in v)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _along(frac, offset_deg):
    """Unit axis at ``frac`` of the start-goal arc, turned ``offset_deg``
    off the corridor's plane."""
    s, g = START, _unit(GOAL)
    omega = math.acos(sum(a * b for a, b in zip(s, g)))
    a = math.sin((1.0 - frac) * omega) / math.sin(omega)
    b = math.sin(frac * omega) / math.sin(omega)
    p = tuple(a * x + b * y for x, y in zip(s, g))
    n = _unit(_cross(s, g))
    d = math.radians(offset_deg)
    return _unit(tuple(math.cos(d) * x + math.sin(d) * y
                       for x, y in zip(p, n)))


def _near_start(angle_deg, azimuth_deg):
    """Unit axis ``angle_deg`` from the start, at an azimuth measured from
    the goal direction about the start."""
    e1 = _unit(_cross(_cross(START, GOAL), START))   # toward the goal
    e2 = _unit(_cross(START, e1))
    a, z = math.radians(angle_deg), math.radians(azimuth_deg)
    return _unit(tuple(math.cos(a) * s + math.sin(a) * (math.cos(z) * x
                                                         + math.sin(z) * y)
                       for s, x, y in zip(START, e1, e2)))


def _stratified(rng, n, lo, hi):
    """``n`` draws in [lo, hi), one per equal slice, in shuffled order."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in slots]


def _cone(axis):
    # k_r is omitted: the loader balances it against the attraction, as for
    # the presets
    return {"axis_inertial": [round(c, 12) for c in axis],
            "theta_f_deg": THETA_F, "theta_0_deg": THETA_0,
            "theta_1_deg": THETA_1, "r_slope": 0.3}


def corridor_docs(seed: int) -> list[dict]:
    """The seed's cone layouts of the corridor family, each with a name and
    description, to be merged into :func:`paper_two_1_tuning`."""
    rng = random.Random(seed)
    per_kind = CORRIDOR_CASES // len(KINDS)
    fracs = {k: _stratified(rng, per_kind, 0.30, 0.65) for k in KINDS}
    offs = {k: _stratified(rng, per_kind, -1.0, 1.0) for k in KINDS}
    docs = []
    for i in range(CORRIDOR_CASES):
        kind = KINDS[i % len(KINDS)]
        j = i // len(KINDS)
        f, o = fracs[kind][j], offs[kind][j]
        if kind == "on":
            axes = [_along(f, 5.0 * o)]
        elif kind == "beside":
            axes = [_along(f, math.copysign(10.0 + 15.0 * abs(o), o))]
        elif kind == "start-band":
            # boresight starts between theta_f and theta_0 of this cone
            angle = THETA_F + 1.0 + (THETA_0 - THETA_F - 2.0) * (f - 0.30) / 0.35
            axes = [_near_start(angle, 180.0 * o)]
        else:
            axes = [_along(0.30 + 0.5 * (f - 0.30), 5.0 * o),
                    _along(0.45 + 0.2 * (f - 0.30) / 0.35,
                           math.copysign(10.0 + 15.0 * abs(o), -o))]
        docs.append({
            "name": f"corridor-{seed}-{i:03d}-{kind}",
            "description": f"corridor-sweep draw {i} of seed {seed} ({kind})",
            "obstacles": [_cone(a) for a in axes],
        })
    return docs


def paper_two_1_tuning() -> dict:
    """The paper-two-1 scenario document without obstacles, shortened for
    the sweep: a short run, a large record stride, and a terminal window
    over its last 5 s.  The gains are copied from the reference tuning so
    that a retuning of the presets leaves this workload unchanged."""
    return {
        "spacecraft": {"inertia_diag": [5.08, 5.14, 5.0], "torque_limit": 0.5,
                       "disturbance_bound": 0.1},
        "initial": {"attitude": [0.0, 0.0, 0.0, 1.0], "omega": [0.0, 0.0, 0.0]},
        "boresight_body": list(START),
        "target_inertial": list(_unit(GOAL)),
        "envelope": {"rho_0": 3.0, "rho_inf": 0.001, "k_rho": 0.1},
        "switching": {"delta": 0.005, "m": 5.0, "n": 2.0, "theta_p1_deg": 30.0},
        "controller": {"k1": 0.3, "k_p": 0.5, "k_omega": 10.0, "g": 1.0,
                       "big_f": 0.25, "k_a": 2.5, "eta": 0.0002,
                       "sigma": 1e-06, "td_r": 20.0, "td_a1": 1.0,
                       "td_a2": 2.0},
        "theta_df_deg": 44.0,
        "sim": {"dt": 0.01, "duration": CORRIDOR_DURATION_S,
                "integrator": "rk4", "record_stride": CORRIDOR_STRIDE,
                "disturbance_enabled": True, "controller_mode": "proposed"},
        "targets": {"terminal_time_s": CORRIDOR_DURATION_S - 5.0},
    }


def corridor_scenario_docs(seed: int) -> list[dict]:
    """Complete scenario documents: the tuning merged with each draw."""
    return [{**paper_two_1_tuning(), **draw} for draw in corridor_docs(seed)]


def check_case(workload: str, seed: int) -> str:
    """The preset a CLI workload runs twice (and traced) for its checks."""
    names = PRESET_NAMES if workload == "presets-cli" else COMPARE_PRESETS
    return random.Random(seed).choice(names)


def compare_order(seed: int) -> list[str]:
    """Seeded order of the compare-baseline presets."""
    order = list(COMPARE_PRESETS)
    random.Random(seed).shuffle(order)
    return order


def inputs(workload: str, seed: int) -> list:
    """What a workload's scenarios are built from: preset names or
    scenario documents, in the order the workload runs them."""
    if workload == "presets-cli":
        return list(PRESET_NAMES)
    if workload == "compare-baseline":
        return compare_order(seed)
    return corridor_scenario_docs(seed)


def build(scenario_module, items: list) -> list:
    """Build every scenario through the program's public loaders."""
    return [scenario_module.load_preset(x) if isinstance(x, str)
            else scenario_module.scenario_from_dict(x) for x in items]
