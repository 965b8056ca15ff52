"""Bit pins for kernel paths the bundled presets never reach.

The golden digests of ``test_acceptance`` cover a +z boresight, a diagonal
inertia and avoidance on about 2 % of the steps of two presets.  These pins
add, as the sha256 of each written ``trajectory.csv``:

- the first eight corridor-sweep draws of benchmark seed 47, whose admitted
  draws spend 10-27 % of their samples with ``omega_v_eff > 0``, one and two
  cones, and starts inside a field band;
- the kernel oracle scenarios (diagonal and full inertia, +z and oblique
  boresight), in both controller modes.

The draws come from ``perfbench/cases.py``, loaded by path as
``test_tracing`` loads the span tracer.  As with the golden digests, the
last digits come from the platform's libm, so the pins hold on x86-64 Linux
with glibc.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from slewguard.engine import ValidationFailure, run_scenario, write_trajectory_csv
from slewguard.scenario import scenario_from_dict

from loop_fixtures import oracle_scenarios

CASES = Path(__file__).resolve().parent.parent / "perfbench" / "cases.py"
SEED = 47

# corridor-sweep draws 0-7 of SEED: the sha256 of an admitted draw's CSV, or
# None for a draw validation rejects
CORRIDOR_SHA256 = {
    "corridor-47-000-on": None,
    "corridor-47-001-beside":
        "045bc5227f69e05f2abade4d7df34c473ab45e184377b587b2b50dd5a3e47dd0",
    "corridor-47-002-start-band":
        "aca721d7c741a19d2901b23fdbd1eb25c7b88f0111501fecaa0503c3780b3020",
    "corridor-47-003-two":
        "943fd2aeafc5e0b9ee6940b786c0300811d7b2e1868a25a1f121045c25608e66",
    "corridor-47-004-on": None,
    "corridor-47-005-beside":
        "2419ed0572368915f430d840e47e37d707761921f3a355a76d9b11c11c1962dd",
    "corridor-47-006-start-band":
        "4548ec347c23c5fe4b0cfd53a38f6d88034f7bc5c5a780b4fa690963542edf1c",
    "corridor-47-007-two": None,
}

# oracle_scenarios() in order (diagonal inertia +z, oblique; full inertia
# +z, oblique), 20 s at record stride 20, per controller mode
ORACLE_SHA256 = {
    "proposed": (
        "b497cb0cce869d693cecd014835f137cbc39303684e4e9f31b04e010afa95dc2",
        "5df66903b2f4e9fe01fe8d1802b8b8eb0a8b8205604103d0eeb2aae5e4426540",
        "8b6ae5a7a388113a83e17edf024008ae096b8de8e1f30d164f0f4c34ab80a953",
        "5bf48c5c16b883edc28109527e5af30414016c30cb288f097959da12a434de44",
    ),
    "benchmark_apf": (
        "58cc2f7ffd63a8977193dcf324e5e99366a211a47cd9f2fdf3cab45ac1c9fee4",
        "f055952e60dc0b338fb3b2173f02c2a1ccf05ca670ba410741f65712895933c0",
        "9f639465e4d2d3c46d0155ae941ebad4df405adf7573274a2b4173cefe6d3baf",
        "b1f17c0385a8bf97a2e14c828fb0d0b11a71d2949e4a1b56e828ac3b483df9f5",
    ),
}


def load_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", CASES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_sha256(result, path):
    write_trajectory_csv(result.records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_corridor_draws(tmp_path):
    docs = load_cases().corridor_scenario_docs(SEED)[:len(CORRIDOR_SHA256)]
    got = {}
    for doc in docs:
        sc = scenario_from_dict(doc)
        try:
            got[sc.name] = csv_sha256(run_scenario(sc), tmp_path / "t.csv")
        except ValidationFailure:
            got[sc.name] = None
    assert got == CORRIDOR_SHA256


@pytest.mark.parametrize("mode", sorted(ORACLE_SHA256))
def test_oracle_scenarios(mode, tmp_path):
    got = tuple(
        csv_sha256(run_scenario(sc.with_sim(duration=20.0, record_stride=20,
                                            controller_mode=mode)),
                   tmp_path / "t.csv")
        for sc in oracle_scenarios())
    assert got == ORACLE_SHA256[mode]
