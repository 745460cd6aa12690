"""End-to-end semi-analytical revisit analysis for one configuration.

Chains the Earth model, sensor geometry, pass schedule and coverage
engine; also provides the matching brute-force simulation setup so the
two paths can be compared on identical inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .coverage import (
    BINS_PER_CELL,
    LongitudeGrid,
    RevisitReport,
    _check_grid_resolution,
    access_tiles,
    build_grid,
    revisit_stats,
    tile_stats,
)
from .errors import ConfigError, is_count
from .oracle import DEFAULT_STEP, SimConfig, plane_elements, simulate_access_table
from .passes import (
    SEGMENT_PAD,
    OrbitElements,
    PassSet,
    TrackSegment,
    WalkerConfig,
    ground_track_segment,
    ground_track_shift,
    nodal_period,
    pass_series,
    raan_drift_rate,
)
from .sensor import FootprintAtLatitude, SensorSpec, radius_at_latitude, resolve_footprint

DEFAULT_WINDOW_DAYS = 60.0
DEFAULT_GRID_RES_DEG = 0.1
DEFAULT_SEGMENT_SAMPLES = 1000

# Bounds that keep a case's arrays allocatable.
# Longest window: ten years.
MAX_WINDOW_DAYS = 3660.0
# Most samples of a track segment; each holds about 190 B while a case runs.
MAX_SEGMENT_SAMPLES = 1_000_000


@dataclass(frozen=True)
class EngineSettings:
    """Tunable discretisation of the semi-analytical engine."""

    window: float = DEFAULT_WINDOW_DAYS * 86400.0
    grid_res: float = math.radians(DEFAULT_GRID_RES_DEG)
    segment_samples: int = DEFAULT_SEGMENT_SAMPLES
    # Fixed discretisation and footprint; class attributes, not settings, so
    # that the staged benchmark chain (perfbench/staged.py) can read them.
    bins_per_cell: ClassVar[int] = BINS_PER_CELL
    segment_pad: ClassVar[float] = SEGMENT_PAD
    footprint_scale: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.window < math.inf:
            raise ConfigError(f"window must be positive and finite, got {self.window}")
        if self.window > MAX_WINDOW_DAYS * 86400.0:
            raise ConfigError(
                f"window must be at most {MAX_WINDOW_DAYS:g} days, got {self.window:g} s"
            )
        _check_grid_resolution(self.grid_res, "grid_res")
        if not is_count(self.segment_samples):
            raise ConfigError(f"segment_samples must be an integer, got {self.segment_samples!r}")
        if not 3 <= self.segment_samples <= MAX_SEGMENT_SAMPLES:
            raise ConfigError(
                f"segment_samples must be in [3, {MAX_SEGMENT_SAMPLES}], "
                f"got {self.segment_samples}"
            )


def build_pass_set(
    el: OrbitElements,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    planes: None = None,
    settings: EngineSettings = EngineSettings(),
) -> PassSet:
    """Pass schedule at the target latitude of the Walker pattern.

    ``planes`` must be None; it stays as the fourth positional parameter
    only because the staged benchmark chain (perfbench/staged.py) passes it.
    """
    if planes is not None:
        raise ConfigError(f"planes must be None, got {planes!r}; pass a WalkerConfig")
    p_n = nodal_period(el.a, el.e, el.inc)
    shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
    return pass_series(el, lat, shift, p_n, settings.window, walker)


def branch_inputs(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
) -> tuple[PassSet, dict[bool, TrackSegment], dict[bool, FootprintAtLatitude], LongitudeGrid]:
    """A case's pass set, track segments and footprints by branch (True =
    ascending) and grid, in `access_tiles`' argument order."""
    pset = build_pass_set(el, lat, walker, settings=settings)
    _, _, r_asc, r_desc = radius_at_latitude(el, lat)
    footprints, segments = {}, {}
    for asc, r_s in ((True, r_asc), (False, r_desc)):
        footprints[asc] = resolve_footprint(sensor, r_s, lat)
        segments[asc] = ground_track_segment(
            el, lat, pset.shift_per_rev, settings.segment_samples,
            reach=footprints[asc].ground_range, ascending=asc,
        )
    return pset, segments, footprints, build_grid(settings.grid_res)


def analyze(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
    threads: int | None = None,
) -> RevisitReport:
    """Semi-analytical revisit report for one configuration.

    The access table is reduced tile by tile, on up to ``threads``
    threads (by default one per usable core; see `tile_stats`), and never
    held whole.  The report does not depend on the thread count.
    """
    acc = access_tiles(*branch_inputs(el, sensor, lat, walker, settings), lat)
    return tile_stats(acc, threads=threads)


def oracle_sim_config(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
    step: float = DEFAULT_STEP,
) -> SimConfig:
    """Brute-force simulation setup matching the engine's conventions."""
    grid = build_grid(settings.grid_res)
    return SimConfig(
        elements=tuple(plane_elements(el, walker)),
        sensor=sensor,
        lat=lat,
        lons=grid.lon,
        window=settings.window,
        step=step,
    )


def oracle_analyze(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
) -> RevisitReport:
    """Brute-force revisit report on the same grid and window."""
    cfg = oracle_sim_config(el, sensor, lat, walker, settings)
    return revisit_stats(simulate_access_table(cfg))
