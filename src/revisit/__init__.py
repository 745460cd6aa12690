"""revisit - semi-analytical revisit-time analysis for LEO constellations.

Computes maximum/average revisit time, coverage fraction and time to full
coverage at a target latitude for single satellites and Walker patterns
with discontinuous coverage, and cross-checks the result with a built-in
brute-force point-coverage simulation.
"""
from .cases import CaseConfig, SweepSpec, run_sweep
from .coverage import AccessTable, LongitudeGrid, RevisitReport, build_grid, revisit_stats
from .earth import EARTH, EarthConstants, geodetic_radius, sso_inclination
from .engine import EngineSettings, analyze, oracle_analyze
from .errors import (
    ConfigError,
    KeplerConvergenceError,
    LatitudeUnreachableError,
    PoleOverlapError,
    RevisitError,
    SunSyncInfeasibleError,
)
from .oracle import SimConfig, plane_elements, propagate_j2
from .passes import (
    OrbitElements,
    PassSet,
    PlaneSpec,
    WalkerConfig,
    ground_track_shift,
    keplerian_period,
    nodal_period,
    pass_series,
    raan_drift_rate,
    walker_planes,
)
from .sensor import (
    FootprintAtLatitude,
    SensorSpec,
    dihedral_half_angle,
    ground_range_from_boresight,
    ground_range_from_elevation,
    radius_at_latitude,
    resolve_footprint,
)

__version__ = "0.1.0"

__all__ = [
    "AccessTable",
    "CaseConfig",
    "ConfigError",
    "EARTH",
    "EarthConstants",
    "EngineSettings",
    "FootprintAtLatitude",
    "KeplerConvergenceError",
    "LatitudeUnreachableError",
    "LongitudeGrid",
    "OrbitElements",
    "PassSet",
    "PlaneSpec",
    "PoleOverlapError",
    "RevisitError",
    "RevisitReport",
    "SensorSpec",
    "SimConfig",
    "SunSyncInfeasibleError",
    "SweepSpec",
    "WalkerConfig",
    "analyze",
    "build_grid",
    "dihedral_half_angle",
    "geodetic_radius",
    "ground_range_from_boresight",
    "ground_range_from_elevation",
    "ground_track_shift",
    "keplerian_period",
    "nodal_period",
    "oracle_analyze",
    "pass_series",
    "plane_elements",
    "propagate_j2",
    "raan_drift_rate",
    "radius_at_latitude",
    "resolve_footprint",
    "revisit_stats",
    "run_sweep",
    "sso_inclination",
    "walker_planes",
]
