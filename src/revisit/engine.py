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
from .oracle import SimConfig, simulate_coverage, walker_elements
from .passes import (
    SEGMENT_PAD,
    OrbitElements,
    PassSet,
    PlaneSpec,
    WalkerConfig,
    custom_expand,
    ground_track_segment,
    ground_track_shift,
    nodal_period,
    pass_series,
    raan_drift_rate,
    walker_expand,
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
    walker: WalkerConfig | None = None,
    planes: list[PlaneSpec] | None = None,
    settings: EngineSettings = EngineSettings(),
) -> PassSet:
    """Pass schedule for the constellation at the target latitude."""
    p_n = nodal_period(el.a, el.e, el.inc)
    shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
    base = pass_series(el, lat, shift, p_n, settings.window)
    if planes is not None:
        return custom_expand(base, planes)
    if walker is not None:
        return walker_expand(base, walker)
    return base


def access_table(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig | None = None,
    planes: list[PlaneSpec] | None = None,
    settings: EngineSettings = EngineSettings(),
) -> tuple[AccessTable, bool]:
    """Access table plus a flag noting a beyond-horizon footprint clamp."""
    pset = build_pass_set(el, lat, walker, planes, settings)
    _, _, r_asc, r_desc = radius_at_latitude(el, lat)
    footprints = {
        True: resolve_footprint(sensor, r_asc, lat),
        False: resolve_footprint(sensor, r_desc, lat),
    }
    if settings.footprint_scale != 1.0:
        footprints = {
            k: replace(
                fp,
                ground_range=fp.ground_range * settings.footprint_scale,
                lon_half_width=fp.lon_half_width * settings.footprint_scale,
            )
            for k, fp in footprints.items()
        }
    segments = {
        asc: ground_track_segment(
            el, lat, pset.shift_per_rev, settings.segment_samples,
            reach=footprints[asc].ground_range, ascending=asc,
        )
        for asc in (True, False)
    }
    grid = build_grid(settings.grid_res)
    table = accesses_for_passes(pset, segments, footprints, grid, lat)
    clamped = footprints[True].clamped or footprints[False].clamped
    return table, clamped


def analyze(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig | None = None,
    planes: list[PlaneSpec] | None = None,
    settings: EngineSettings = EngineSettings(),
) -> RevisitReport:
    """Semi-analytical revisit report for one configuration."""
    table, clamped = access_table(el, sensor, lat, walker, planes, settings)
    return revisit_stats(table, clamped=clamped)


def oracle_sim_config(
    el: OrbitElements,
    sensor: SensorSpec,
    lat: float,
    walker: WalkerConfig | None = None,
    settings: EngineSettings = EngineSettings(),
    step: float = 10.0,
) -> SimConfig:
    """Brute-force simulation setup matching the engine's conventions."""
    sats = walker_elements(el, walker) if walker is not None else [el]
    grid = build_grid(settings.grid_res)
    return SimConfig(
        elements=tuple(sats),
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
    walker: WalkerConfig | None = None,
    settings: EngineSettings = EngineSettings(),
    step: float = 10.0,
) -> RevisitReport:
    """Brute-force revisit report on the same grid and window."""
    cfg = oracle_sim_config(el, sensor, lat, walker, settings, step)
    return simulate_coverage(cfg)
