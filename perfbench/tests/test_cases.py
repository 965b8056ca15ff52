"""The corridor-sweep generator: seeded, and never filtered by outcome."""

import math
import subprocess
import sys
from pathlib import Path

import cases


def _angle_deg(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def _axes(doc):
    return [c["axis_inertial"] for c in doc["obstacles"]]


def test_same_seed_gives_identical_documents():
    assert cases.corridor_scenario_docs(7) == cases.corridor_scenario_docs(7)


def test_different_seeds_give_different_documents():
    a, b = cases.corridor_scenario_docs(7), cases.corridor_scenario_docs(8)
    assert len(a) == len(b)
    assert all(_axes(x) != _axes(y) for x, y in zip(a, b))


def test_generator_never_consults_the_program():
    # the draws cannot be filtered by validation or by run outcome if the
    # generator does not even import the program
    code = ("import sys, cases; cases.corridor_scenario_docs(3); "
            "print(any(m.startswith('slewguard') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         capture_output=True, check=True,
                         cwd=Path(cases.__file__).parent)
    assert out.stdout.strip() == "False"


def test_every_draw_is_kept_including_hard_geometry():
    for seed in range(5):
        docs = cases.corridor_docs(seed)
        assert len(docs) == cases.CORRIDOR_CASES
        kinds = [d["name"].split("-", 3)[3] for d in docs]
        assert {k: kinds.count(k) for k in cases.KINDS} == {
            k: cases.CORRIDOR_CASES // len(cases.KINDS) for k in cases.KINDS}
        axes = [a for d in docs for a in _axes(d)]
        goal = cases._unit(cases.GOAL)
        # cones closer to the goal than the declared separation: validation
        # must reject these, and they stay in the set
        assert any(_angle_deg(a, goal) < 44.0 for a in axes)
        # starts inside a cone's field band, outside its forbidden cone
        start_angles = [_angle_deg(a, cases.START) for a in axes]
        assert any(cases.THETA_F < x < cases.THETA_0 for x in start_angles)
        assert all(x > cases.THETA_F for x in start_angles)
        # cone axes on the corridor: a straight slew would cross theta_f
        normal = cases._unit(cases._cross(cases.START, goal))
        assert any(abs(90.0 - _angle_deg(a, normal)) < cases.THETA_F
                   for a in axes)


def test_documents_load_and_some_fail_validation():
    from slewguard import scenario
    from slewguard.controller import validate_config

    built = cases.build(scenario, cases.inputs("corridor-sweep", 1)[:16])
    admitted = [validate_config(s.controller, s.envelope, s.switch,
                                s.obstacles, s.boresight_body,
                                s.target_inertial, s.initial, s.theta_df).ok
                for s in built]
    assert any(admitted) and not all(admitted)
