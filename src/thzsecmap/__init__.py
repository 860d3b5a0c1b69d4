"""Secrecy-map planning for line-of-sight THz wiretap links.

Computes achievable semantic-security levels for indoor THz links under
finite-blocklength wiretap coding and renders them as secrecy maps, radial
profiles, and parameter-sweep tables.
"""

__version__ = "0.1.0"

from .antenna import Antenna, KRAUS_BEAM_CONSTANT_DEG2, beamwidth_from_gain, cone_radius, pattern_gain
from .bounds import (
    BoundFreeParams,
    SecrecyCode,
    channel_divergence,
    eve_error_floor,
    min_reliability,
    min_security,
    reliability_bound,
    renyi_bivariate_gaussian,
    security_bound,
)
from .errors import ConfigError, GeometryError, InfeasiblePlanError, ProfileError
from .geometry import CELL, DIRECTED, ScenarioConfig, grid_axes, offset_angle, path, receiver_x, transmitter
from .linkmodel import (
    BOLTZMANN_J_K,
    LinkState,
    RadioEnvironment,
    SPEED_OF_LIGHT_M_S,
    db_to_ratio,
    dbm_to_watts,
    fspl_gain,
    link_budget,
    link_from_capacity_bits,
    link_from_snr,
    noise_power,
    ratio_to_db,
    watts_to_dbm,
)
from .planner import PlanResult, plan_cell, plan_directed, require_feasible
from .secmap import (
    RadialProfile,
    SecrecyMapGrid,
    evaluate_map,
    insecure_fraction,
    radial_profile,
    sweep,
    threshold_radius,
)
