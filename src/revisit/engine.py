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
    AccessTable,
    RevisitReport,
    accesses_for_passes,
    build_grid,
    revisit_stats,
)
from .oracle import SimConfig, plane_elements, simulate_coverage
from .passes import (
    SEGMENT_PAD,
    OrbitElements,
    PassSet,
    PlaneSpec,
    WalkerConfig,
    ground_track_segment,
    ground_track_shift,
    nodal_period,
    pass_series,
    raan_drift_rate,
    walker_planes,
)
from .sensor import SensorSpec, radius_at_latitude, resolve_footprint

DEFAULT_WINDOW = 60.0 * 86400.0
DEFAULT_GRID_RES = math.radians(0.1)
DEFAULT_SEGMENT_SAMPLES = 1000


@dataclass(frozen=True)
class EngineSettings:
    """Tunable discretisation of the semi-analytical engine."""

    window: float = DEFAULT_WINDOW
    grid_res: float = DEFAULT_GRID_RES
    segment_samples: int = DEFAULT_SEGMENT_SAMPLES
    # Fixed discretisation; class attributes, not settings, so that the
    # staged benchmark chain (perfbench/staged.py) can read them here.
    bins_per_cell: ClassVar[int] = BINS_PER_CELL
    segment_pad: ClassVar[float] = SEGMENT_PAD
    # Sensitivity knob: scales both footprint half-sizes.  Used to probe
    # whether a result hinges on marginal grazing accesses; 1.0 for
    # normal analysis.
    footprint_scale: float = 1.0


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


def access_table(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
) -> tuple[AccessTable, bool]:
    """Access table plus a flag noting a beyond-horizon footprint clamp."""
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
    grid = build_grid(settings.grid_res)
    table = accesses_for_passes(pset, segments, footprints, grid, lat)
    clamped = footprints[True].clamped or footprints[False].clamped
    return table, clamped


def analyze(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
) -> RevisitReport:
    """Semi-analytical revisit report for one configuration."""
    table, clamped = access_table(el, sensor, lat, walker, settings)
    return revisit_stats(table, clamped=clamped)


def oracle_sim_config(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig = WalkerConfig(),
    settings: EngineSettings = EngineSettings(),
    step: float = 10.0,
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
    step: float = 10.0,
) -> RevisitReport:
    """Brute-force revisit report on the same grid and window."""
    cfg = oracle_sim_config(el, sensor, lat, walker, settings, step)
    return simulate_coverage(cfg)
