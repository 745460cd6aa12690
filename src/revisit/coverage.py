"""Longitude-grid coverage intersection and revisit statistics.

Each pass deposits access intervals on a discretised longitude grid at the
target latitude: a grid point is visible at a track sample when it falls
inside the footprint ellipse (half-width in longitude, half ground range
in latitude) centred on that sample.  Access start/end times come from
the first/last visible sample of the pass.

Because every pass of a branch shares the same track segment shape, the
visibility lens (first/last visible sample time as a function of the
longitude offset from the crossing) is precomputed once per branch on a
fine offset grid and then looked up for every pass, which keeps a 60-day
default case well under a second.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .passes import PassSet, TrackSegment
from .sensor import FootprintAtLatitude

TWO_PI = 2.0 * math.pi
MAX_GRID_RESOLUTION = math.radians(1.0)
# Lens bins per longitude grid cell.
BINS_PER_CELL = 64


@dataclass(frozen=True)
class LongitudeGrid:
    """Uniform longitude grid over [-pi, pi), first point at -pi."""

    spacing: float
    lon: np.ndarray

    @property
    def size(self) -> int:
        return int(self.lon.size)


def build_grid(resolution: float) -> LongitudeGrid:
    """Build the longitude grid; resolution in rad, at most 1 degree."""
    if not 0.0 < resolution <= MAX_GRID_RESOLUTION + 1e-15:
        raise ValueError("grid resolution must be in (0, 1 deg]")
    n = int(round(TWO_PI / resolution))
    spacing = TWO_PI / n
    return LongitudeGrid(spacing=spacing, lon=-math.pi + spacing * np.arange(n))


@dataclass(frozen=True)
class AccessTable:
    """Per-grid-point visibility intervals over the analysis window.

    Parallel arrays sorted by (point index, start time); intervals may
    still overlap within a point and are merged during statistics.
    """

    point: np.ndarray
    start: np.ndarray
    end: np.ndarray
    grid: LongitudeGrid
    window: float
    merge_tol: float
    pass_count: int


@dataclass(frozen=True)
class RevisitReport:
    """Revisit statistics over the grid.

    mrt/art are None when no gap exists (never revisited, or the window
    was exceeded before full coverage); time_to_full_coverage is defined
    only at full coverage.
    """

    mrt_hours: float | None
    art_hours: float | None
    coverage_fraction: float
    time_to_full_coverage_hours: float | None
    uncovered_count: int
    pass_count: int
    gap_count: int
    grid_size: int
    clamped: bool = False

    @property
    def window_exceeded(self) -> bool:
        return self.coverage_fraction < 1.0 or self.mrt_hours is None


def _branch_lens(
    segment: TrackSegment,
    t: np.ndarray,
    footprint: FootprintAtLatitude,
    lat: float,
    bin_width: float,
) -> tuple[float, float, np.ndarray, np.ndarray] | None:
    """First/last visible sample time versus longitude offset, one branch.

    Built by sweeping the segment samples (times ``t``, in time order) and
    painting each sample's visible offset interval [lon_off - w,
    lon_off + w] onto a fine offset grid, where w is the ellipse
    half-chord at the sample's latitude distance from the target.
    Returns (x_min, x_max, first, last) with bin j + 1 at offset
    x_min + j * bin_width, or None when no sample sees the target
    latitude.  Bins no sample sees, including one padding bin at each
    end, hold first = inf and last = -inf.
    """
    theta = footprint.ground_range
    lam = footprint.lon_half_width
    dlat = (segment.lat - lat) / theta if theta > 0.0 else np.full_like(segment.lat, np.inf)
    w2 = 1.0 - dlat * dlat
    valid = w2 >= 0.0
    if not np.any(valid) or lam <= 0.0:
        return None
    w = lam * np.sqrt(np.where(valid, w2, 0.0))
    left = segment.lon_off - w
    right = segment.lon_off + w
    x_min = float(np.min(left[valid]))
    x_max = float(np.max(right[valid]))
    nb = int(math.ceil((x_max - x_min) / bin_width)) + 1
    first = np.full(nb + 2, np.inf)
    last = np.full(nb + 2, -np.inf)
    los = np.ceil((left - x_min) / bin_width - 1e-9).astype(np.int64) + 1
    his = np.floor((right - x_min) / bin_width + 1e-9).astype(np.int64) + 2
    for k in np.flatnonzero(valid):
        lo, hi = los[k], his[k]
        np.minimum(first[lo:hi], t[k], out=first[lo:hi])
        last[lo:hi] = t[k]
    return x_min, x_max, first, last


def accesses_for_passes(
    pset: PassSet,
    segments: dict[bool, TrackSegment],
    footprints: dict[bool, FootprintAtLatitude],
    grid: LongitudeGrid,
    lat: float,
    bins_per_cell: int = BINS_PER_CELL,
) -> AccessTable:
    """Intersect every pass with the grid and assemble the access table.

    segments/footprints are keyed by branch (True = ascending).  The
    computation order is deterministic: results are sorted by
    (grid point, start time) regardless of pass order.
    """
    points, starts, ends = [], [], []
    window = pset.window
    merge_tol = 0.0
    bin_width = grid.spacing / bins_per_cell
    for is_asc in (True, False):
        seg = segments[is_asc]
        t = seg.time_frac * pset.nodal_period
        if t.size > 1:
            merge_tol = max(merge_tol, float(np.max(np.abs(np.diff(t)))))
        lens = _branch_lens(seg, t, footprints[is_asc], lat, bin_width)
        if lens is None:
            continue
        x_min, x_max, first, last = lens
        sel = pset.ascending == is_asc
        lam_c = pset.lon[sel]
        epoch = pset.epoch[sel]
        n_cand = int(math.floor((x_max - x_min) / grid.spacing)) + 2
        base = np.ceil((lam_c + x_min + math.pi) / grid.spacing).astype(np.int64)
        idx = base[:, None] + np.arange(n_cand)[None, :]
        x = idx * grid.spacing - math.pi - lam_c[:, None]
        # Offsets off the lens land in its padding bins, which no sample sees.
        b = np.clip(np.rint((x - x_min) / bin_width), -1, first.size - 2).astype(np.int64) + 1
        st = epoch[:, None] + first[b]
        en = epoch[:, None] + last[b]
        ok = (en >= 0.0) & (st <= window)
        points.append((idx % grid.size)[ok])
        starts.append(np.clip(st[ok], 0.0, window))
        ends.append(np.clip(en[ok], 0.0, window))
    return sorted_access_table(
        points, starts, ends, grid=grid, window=window,
        merge_tol=merge_tol, pass_count=len(pset),
    )


def sorted_access_table(
    points: list[np.ndarray],
    starts: list[np.ndarray],
    ends: list[np.ndarray],
    *, grid: LongitudeGrid, window: float, merge_tol: float, pass_count: int,
) -> AccessTable:
    """Concatenate interval parts into a table sorted by (point, start).

    The sort is stable, so equal keys keep the order of the parts.
    """
    point = np.concatenate([np.empty(0, dtype=np.int64), *points])
    start = np.concatenate([np.empty(0), *starts])
    end = np.concatenate([np.empty(0), *ends])
    order = np.lexsort((start, point))
    return AccessTable(
        point=point[order], start=start[order], end=end[order], grid=grid,
        window=window, merge_tol=merge_tol, pass_count=pass_count,
    )


def revisit_stats(table: AccessTable, clamped: bool = False) -> RevisitReport:
    """Merge intervals, collect gaps, and compute the revisit report.

    Gaps are measured between consecutive accesses of the same grid point;
    the leading and trailing boundary gaps of the window are excluded.
    Intervals closer than the merge tolerance (one segment-sample step)
    are treated as one access.
    """
    n_grid = table.grid.size
    pt, st, en = table.point, table.start, table.end
    # Segmented running max of interval ends: offsetting by point index
    # keeps the accumulate from leaking across grid points.
    k = table.window + 1.0
    run_end = np.maximum.accumulate(en + pt * k) - pt * k
    same = pt[1:] == pt[:-1]
    raw = st[1:] - run_end[:-1]
    mask = same & (raw > table.merge_tol)
    gaps = raw[mask]
    first_of_point = np.ones(pt.size, dtype=bool)
    first_of_point[1:] = ~same
    covered = int(np.count_nonzero(first_of_point))
    coverage = covered / n_grid
    ttc = None
    if covered == n_grid:
        ttc = float(np.max(st[first_of_point])) / 3600.0
    mrt = float(np.max(gaps)) / 3600.0 if gaps.size else None
    art = float(np.mean(gaps)) / 3600.0 if gaps.size else None
    return RevisitReport(
        mrt_hours=mrt,
        art_hours=art,
        coverage_fraction=coverage,
        time_to_full_coverage_hours=ttc,
        uncovered_count=n_grid - covered,
        pass_count=table.pass_count,
        gap_count=int(gaps.size),
        grid_size=n_grid,
        clamped=clamped,
    )
