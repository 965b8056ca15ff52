"""Spacecraft attitude pointing control with keep-out cone avoidance.

The package couples a reduced-attitude rigid-body simulator with a switching
controller that blends a shrinking-funnel tracking law and an artificial
potential field, so a body-fixed boresight reaches an inertial target
direction without ever entering configured forbidden cones.
"""

__version__ = "0.1.0"

from .attitude import (
    BodyState,
    SpacecraftParams,
    UnitQuaternion,
)
from .potential import (
    BridgeShape,
    ObstacleCone,
    bridge,
    bridge_grad,
    repulsion_grad_beta,
    total_potential,
)
from .envelope import (
    EnvelopeConfig,
    SwitchConfig,
    blf_value,
)
from .controller import (
    ControllerConfig,
    ValidationReport,
    apf_vector,
    benchmark_apf_law,
    min_sin_theta_d,
    torque_law,
    validate_config,
    virtual_law,
)
from .engine import (
    SimConfig,
    SimulationAbort,
    SimulationResult,
    Trajectory,
    disturbance_torque,
    run_scenario,
    write_summary_json,
    write_trajectory_csv,
)
from .scenario import (
    Scenario,
    ScenarioError,
    list_presets,
    load_preset,
    load_scenario,
)
