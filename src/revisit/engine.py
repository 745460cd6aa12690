"""End-to-end semi-analytical revisit analysis for one configuration.

Chains the Earth model, sensor geometry, pass schedule and coverage
engine; also provides the matching brute-force simulation setup so the
two paths can be compared on identical inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

from .coverage import (
    BINS_PER_CELL,
    MAX_GRID_RES_DEG,
    MAX_GRID_RESOLUTION,
    MIN_GRID_RES_DEG,
    LongitudeGrid,
    RevisitReport,
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
    PlaneSpec,
    TrackSegment,
    WalkerConfig,
    ground_track_segment,
    ground_track_shift,
    nodal_period,
    pass_series,
    raan_drift_rate,
    walker_planes,
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
    # Fixed discretisation; class attributes, not settings, so that the
    # staged benchmark chain (perfbench/staged.py) can read them here.
    bins_per_cell: ClassVar[int] = BINS_PER_CELL
    segment_pad: ClassVar[float] = SEGMENT_PAD
    # Sensitivity knob: scales both footprint half-sizes.  Used to probe
    # whether a result hinges on marginal grazing accesses; 1.0 for
    # normal analysis.
    footprint_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("window", "grid_res", "footprint_scale"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.window > MAX_WINDOW_DAYS * 86400.0:
            raise ConfigError(
                f"window must be at most {MAX_WINDOW_DAYS:g} days, got {self.window:g} s"
            )
        if not math.radians(MIN_GRID_RES_DEG) <= self.grid_res <= MAX_GRID_RESOLUTION:
            raise ConfigError(
                f"grid_res must be in [{MIN_GRID_RES_DEG:g}, {MAX_GRID_RES_DEG:g}] deg, "
                f"got {self.grid_res:g} rad"
            )
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
    planes: list[PlaneSpec] | None = None,
    settings: EngineSettings = EngineSettings(),
) -> PassSet:
    """Pass schedule at the target latitude of ``planes``, else of the Walker pattern."""
    p_n = nodal_period(el.a, el.e, el.inc)
    shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
    if planes is None:
        planes = walker_planes(walker)
    return pass_series(el, lat, shift, p_n, settings.window, planes)


def branch_inputs(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
) -> tuple[PassSet, dict[bool, TrackSegment], dict[bool, FootprintAtLatitude], LongitudeGrid]:
    """A case's pass set, track segments and footprints by branch (True =
    ascending) and grid, in `access_tiles`' argument order.  Both footprint
    half-sizes are scaled by ``settings.footprint_scale``."""
    pset = build_pass_set(el, lat, walker, settings=settings)
    _, _, r_asc, r_desc = radius_at_latitude(el, lat)
    scale = settings.footprint_scale
    footprints, segments = {}, {}
    for asc, r_s in ((True, r_asc), (False, r_desc)):
        fp = resolve_footprint(sensor, r_s, lat)
        footprints[asc] = replace(
            fp, ground_range=fp.ground_range * scale, lon_half_width=fp.lon_half_width * scale,
        )
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
        elements=tuple(plane_elements(el, walker_planes(walker))),
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
