"""The contract of the package's value classes: copies and pickles keep the
value, frozen classes refuse changes, and equality, hash and repr read the
constructor's fields only."""

import copy
import pickle

import pytest

from slewguard.attitude import BodyState, SpacecraftParams, UnitQuaternion
from slewguard.controller import (
    ControllerConfig,
    ValidationIssue,
    ValidationReport,
)
from slewguard.engine import SimConfig, SimulationResult, Trajectory, run_scenario
from slewguard.envelope import EnvelopeConfig, SwitchConfig
from slewguard.potential import BridgeShape, ObstacleCone
from slewguard.scenario import Scenario, Targets, load_preset

from loop_fixtures import initial_report

MUTABLE = (BodyState, Scenario, SimulationResult)
# frozen, compared by identity, since its array grows while a run logs
IDENTITY = (Trajectory,)
VALUE = (UnitQuaternion, SpacecraftParams, ControllerConfig,
         ValidationIssue, ValidationReport, SimConfig, EnvelopeConfig,
         SwitchConfig, BridgeShape, ObstacleCone, Targets)
FROZEN = IDENTITY + VALUE
DERIVED = {
    SpacecraftParams: ("inertia_inv_rows",),
    SwitchConfig: ("v0", "vm", "p0", "pm", "s_shape", "v_shape"),
    ObstacleCone: ("shape",),
}


def by_name(classes):
    return pytest.mark.parametrize("cls", classes, ids=lambda c: c.__name__)


@pytest.fixture(scope="module")
def samples():
    sc = load_preset("paper-two-1")
    result = run_scenario(sc.with_sim(duration=0.5, record_stride=10))
    report = initial_report(sc)
    values = (sc, sc.params, sc.initial, sc.initial.attitude, sc.obstacles[1],
              sc.obstacles[1].shape, sc.envelope, sc.switch, sc.controller,
              sc.sim, sc.targets, report, report.issues[0], result,
              result.records)
    return {type(v): v for v in values}


def test_samples_cover_every_value_class(samples):
    assert set(samples) == set(MUTABLE + FROZEN)


@by_name(MUTABLE + FROZEN)
def test_pickle_and_copy_keep_the_value(cls, samples):
    value = samples[cls]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
        assert type(twin) is cls
        # the same state, derived attributes included
        assert pickle.dumps(twin) == pickle.dumps(value)
        if cls in VALUE:
            assert twin == value
            assert hash(twin) == hash(value)


@by_name(FROZEN)
def test_frozen_fields_cannot_change(cls, samples):
    value = samples[cls]
    for name in cls._fields + DERIVED.get(cls, ()):
        with pytest.raises(AttributeError, match="frozen"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError, match="frozen"):
            delattr(value, name)


@by_name(VALUE)
def test_equality_reads_the_fields_only(cls, samples):
    value = samples[cls]
    for name in DERIVED.get(cls, ()):
        twin = copy.copy(value)
        object.__setattr__(twin, name, None)
        assert twin == value
        assert hash(twin) == hash(value)
        assert f"{name}=" not in repr(value)
    for name in cls._fields:
        twin = copy.copy(value)
        object.__setattr__(twin, name, object())
        assert twin != value
        assert f"{name}=" in repr(value)
