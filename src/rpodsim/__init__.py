"""Relative-motion RPOD simulator.

Quantifies the Δv cost of flying CW-guided impulsive maneuvers (natural
motion circumnavigation, forced circles, intercepts) against a two-body
truth model.
"""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    intercept_experiment,
    run_campaign,
    sweep_circumnavigation,
)
from .constants import MU_EARTH, R_EARTH
from .dynamics import TargetOrbit, cw_stm
from .errors import (
    KeplerNonConvergence,
    RpodError,
    SingularRadius,
    SingularTransferTime,
    UnboundOrbit,
    UnphysicalBurn,
)
from .frames import (
    InertialState,
    RelativeState,
    eci_to_hill,
    hill_basis,
    hill_to_eci,
)
from .guidance import (
    ImpulseRecord,
    cw_target_impulse,
    cw_targeting,
    drift_determinant,
    nmc_initial_state,
    waypoints_circle,
    waypoints_line,
    waypoints_nmc,
)

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ImpulseRecord",
    "InertialState",
    "KeplerNonConvergence",
    "MU_EARTH",
    "R_EARTH",
    "RelativeState",
    "RpodError",
    "SingularRadius",
    "SingularTransferTime",
    "TargetOrbit",
    "UnboundOrbit",
    "UnphysicalBurn",
    "cw_stm",
    "cw_target_impulse",
    "cw_targeting",
    "drift_determinant",
    "eci_to_hill",
    "hill_basis",
    "hill_to_eci",
    "intercept_experiment",
    "nmc_initial_state",
    "run_campaign",
    "sweep_circumnavigation",
    "waypoints_circle",
    "waypoints_line",
    "waypoints_nmc",
]
