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
last digits come from the platform's libm and from nothing else, so the pins
hold on x86-64 Linux with glibc.  The libm functions are sin, cos, tanh and
acos; exp and log1p (``envelope._ln_cosh`` feeds ``v_q``,
``potential.bridge_grad`` feeds P1); and pow, which the ``** 2`` in
``engine.step``'s renormalization and in ``engine._quat_norm_error`` calls.
The compiled kernel, built with ``-ffp-contract=off``, calls the same
functions, ``pow`` through a volatile pointer so that no ``pow(x, 2.0)`` is
folded into ``x * x``.  Each pin is checked on both loops.
"""

import hashlib

import pytest

from slewguard.engine import ValidationFailure, run_scenario, write_trajectory_csv
from slewguard.scenario import scenario_from_dict

from loop_fixtures import load_cases, oracle_scenarios

SEED = 47

# corridor-sweep draws 0-7 of SEED: the sha256 of an admitted draw's CSV, or
# None for a draw validation rejects
CORRIDOR_SHA256 = {
    "corridor-47-000-on": None,
    "corridor-47-001-beside":
        "669653932da49cde4b81d374eab4dee7a4e44cf4885bd79bec0b7920983c787c",
    "corridor-47-002-start-band":
        "e5da2f83167358e8d2bab95cf706c4e0911987f9d63c805de6cc2a6680013fdd",
    "corridor-47-003-two":
        "ad4e8a33205583ad206efaeda57f7a099a99fda3fecc650dd8a1338c03bc57c4",
    "corridor-47-004-on": None,
    "corridor-47-005-beside":
        "c07e0afb894508bdc3b22e2e14a93634250549d1aeaeae11a5768e83f98ecba3",
    "corridor-47-006-start-band":
        "5273ee01b01c1024b9dd4f5f39114571b0b72cfc4174f8a4d20a10ffc0d7fb69",
    "corridor-47-007-two": None,
}

# oracle_scenarios() in order (diagonal inertia +z, oblique; full inertia
# +z, oblique), 20 s at record stride 20, per controller mode
ORACLE_SHA256 = {
    "proposed": (
        "77344e9f744f15008f979d08a27c94b1cab784fd8d9e90ba1e31956dd6b5cf99",
        "696c8521da4edf566359f0d53d9c4f1ac12747d13dbfd71dfdaa9b70bc316139",
        "66a8c90b0d7df777eeb64597848728ff24da57aa7a308cc1f055242130f85e15",
        "fd96c27249b734cc3a9b7527ae9a9573e3946d5f1e1be86b59fb0ed053f2d6e3",
    ),
    "benchmark_apf": (
        "3b130c8874bf03ea80836d85b2919a567512dc300a45407df265a0ddfd8f86ed",
        "c76b5c69a7540bcc108a3c892058d8b384e3b67a750889fbed6586c1d955099e",
        "ca384cdcf35cd54b2a7e17babb94bd5c7117a4bff33d6abba04cb23c95167643",
        "f0f179a543fb6dbb9ecb4648f70c6e886ca53043b5982bdb8957e4c83e6648f3",
    ),
}


def csv_sha256(result, path):
    write_trajectory_csv(result.records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corridor_digests(tmp_path):
    docs = load_cases().corridor_scenario_docs(SEED)[:len(CORRIDOR_SHA256)]
    got = {}
    for doc in docs:
        sc = scenario_from_dict(doc)
        try:
            got[sc.name] = csv_sha256(run_scenario(sc), tmp_path / "t.csv")
        except ValidationFailure:
            got[sc.name] = None
    return got


def oracle_digests(mode, tmp_path):
    return tuple(
        csv_sha256(run_scenario(sc.with_sim(duration=20.0, record_stride=20,
                                            controller_mode=mode)),
                   tmp_path / "t.csv")
        for sc in oracle_scenarios())


# runs take the compiled kernel wherever a library can be built
# (``test_kernel``); the reference loop must give the same pins


def test_corridor_draws(tmp_path):
    assert corridor_digests(tmp_path) == CORRIDOR_SHA256


@pytest.mark.usefixtures("reference_path")
def test_corridor_draws_on_the_reference_loop(tmp_path):
    assert corridor_digests(tmp_path) == CORRIDOR_SHA256


@pytest.mark.parametrize("mode", sorted(ORACLE_SHA256))
def test_oracle_scenarios(mode, tmp_path):
    assert oracle_digests(mode, tmp_path) == ORACLE_SHA256[mode]


@pytest.mark.parametrize("mode", sorted(ORACLE_SHA256))
@pytest.mark.usefixtures("reference_path")
def test_oracle_scenarios_on_the_reference_loop(mode, tmp_path):
    assert oracle_digests(mode, tmp_path) == ORACLE_SHA256[mode]
