"""Reference access evaluations for the engine's shortcuts.

`painted_lens` paints the bin ranges that `revisit.coverage._lens_ranges`
finds, one track sample at a time, the reference for the range fold of
`revisit.coverage._fold_lens`; `folded_lens` folds the same ranges into
fresh +inf rows.  The ranges take what each sample sees from
`FootprintAtLatitude.half_chord`.

The engine looks up each grid point's first/last visible track sample in
a per-branch lens binned on a fine longitude-offset grid
(`revisit.coverage.accesses_for_passes`).  `visible_sample_span` and
`pass_accesses` evaluate the footprint-ellipse inequality at every sample
for every grid point instead, so tests can check the lens against them.

The engine also builds the table one tile of grid points at a time and
sorts each tile by itself.  `dense_access_table` builds it the untiled
way, one dense (pass, candidate offset) block per branch and one global
sort, so tests can check the tiles against it.  A tile takes the laps of
only the passes whose runs start near it; `full_scan_runs` computes the
laps of every pass for every tile, the reference for that selection in
`revisit.coverage._run_selector`.  `point_by_point_gaps`
merges a table's intervals one grid point at a time, the reference for
the gap merge of `revisit.coverage.revisit_stats`.
"""
from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from revisit.coverage import (
    BINS_PER_CELL,
    AccessTable,
    LongitudeGrid,
    _fold_lens,
    _lens_ranges,
    sorted_access_table,
)
from revisit.passes import PassSet, TrackSegment
from revisit.sensor import FootprintAtLatitude


def folded_lens(
    segment: TrackSegment,
    t: np.ndarray,
    footprint: FootprintAtLatitude,
    lat: float,
    bin_width: float,
    fold: Callable = _fold_lens,
) -> tuple[float, float, np.ndarray, np.ndarray] | None:
    """(x_min, x_max, first, last) of one branch: ``fold`` of the bin
    ranges of `revisit.coverage._lens_ranges` into fresh +inf rows, one
    lens long, as `access_tiles` folds them into its layout."""
    ranges = _lens_ranges(segment, t, footprint, lat, bin_width)
    if ranges is None:
        return None
    x_min, x_max, los, his, t = ranges
    first, last = np.full((2, math.ceil((x_max - x_min) / bin_width) + 3), np.inf)
    fold(los, his, t, first, last)
    return x_min, x_max, first, last


def _paint(los: np.ndarray, his: np.ndarray, t: np.ndarray, first: np.ndarray,
           last: np.ndarray) -> None:
    """Paints each sample's bin range [lo, hi) in time order: first keeps
    the least time written to a bin and last the latest write."""
    for lo, hi, tk in zip(los, his, t):
        np.minimum(first[lo:hi], tk, out=first[lo:hi])
        last[lo:hi] = tk


def painted_lens(*lens_args) -> tuple[float, float, np.ndarray, np.ndarray] | None:
    """`folded_lens` with the ranges painted one sample at a time."""
    return folded_lens(*lens_args, fold=_paint)


def visible_sample_span(
    x: np.ndarray,
    segment: TrackSegment,
    footprint: FootprintAtLatitude,
    lat: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact first/last visible sample per longitude offset.

    Reference path: evaluates the ellipse inequality at every sample for
    every offset.  Sentinels (n, -1) mark offsets visible at no sample.
    """
    theta, lam = footprint.ground_range, footprint.lon_half_width
    n = segment.lat.size
    if theta <= 0.0 or lam <= 0.0:
        return np.full(x.size, n, np.int32), np.full(x.size, -1, np.int32)
    du = (x[:, None] - segment.lon_off[None, :]) / lam
    dv = (lat - segment.lat[None, :]) / theta
    # Slack keeps the inclusive boundary robust to rounding.
    inside = du * du + dv * dv <= 1.0 + 1e-12
    any_vis = inside.any(axis=1)
    kf = np.where(any_vis, inside.argmax(axis=1), n)
    kl = np.where(any_vis, n - 1 - inside[:, ::-1].argmax(axis=1), -1)
    return kf.astype(np.int32), kl.astype(np.int32)


def pass_accesses(
    crossing_lon: float,
    epoch: float,
    segment: TrackSegment,
    footprint: FootprintAtLatitude,
    grid: LongitudeGrid,
    p_n: float,
    lat: float,
) -> list[tuple[int, float, float]]:
    """Access intervals of a single pass, exact per-sample evaluation.

    Returns (grid index, start, end) triples; grid points visible at no
    sample yield nothing.
    """
    lam = footprint.lon_half_width
    reach = lam + float(np.max(np.abs(segment.lon_off)))
    lo = int(np.ceil((crossing_lon - reach + math.pi) / grid.spacing - 1e-9))
    hi = int(np.floor((crossing_lon + reach + math.pi) / grid.spacing + 1e-9))
    if hi < lo:
        return []
    idx = np.arange(lo, hi + 1)
    x = idx * grid.spacing - math.pi - crossing_lon
    kf, kl = visible_sample_span(x, segment, footprint, lat)
    t = segment.time_frac * p_n
    out = []
    for i, f, l in zip(idx % grid.size, kf, kl):
        if f <= l:
            out.append((int(i), epoch + float(t[f]), epoch + float(t[l])))
    return out


def full_scan_runs(
    run_start: np.ndarray, n_cand: np.ndarray, n: int
) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """`revisit.coverage._run_selector` with no selection: each tile takes
    the lap offsets of every pass and keeps the laps that meet it."""
    lap_shift = n * np.arange(-(-int(np.max(n_cand, initial=0)) // n) + 1) - n

    def runs(p0: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        j = ((p0 - run_start) % n)[:, None] + lap_shift
        meets = (j > -rows) & (j < n_cand[:, None])
        return np.nonzero(meets)[0], j[meets]

    return runs


def dense_access_table(
    pset: PassSet,
    segments: dict[bool, TrackSegment],
    footprints: dict[bool, FootprintAtLatitude],
    grid: LongitudeGrid,
    lat: float,
    bins_per_cell: int = BINS_PER_CELL,
) -> tuple[AccessTable, np.ndarray]:
    """`revisit.coverage.accesses_for_passes` without tiles.

    Each branch evaluates every pass at every candidate offset in one
    dense block, and one stable np.lexsort orders all the rows.  Returns
    the table and each pass's candidate offset count, 0 on a branch
    without a lens.
    """
    points, starts, ends = [], [], []
    cand = np.zeros(len(pset), dtype=np.int64)
    window = pset.window
    merge_tol = 0.0
    bin_width = grid.spacing / bins_per_cell
    for is_asc in (True, False):
        seg = segments[is_asc]
        t = seg.time_frac * pset.nodal_period
        if t.size > 1:
            merge_tol = max(merge_tol, float(np.max(np.abs(np.diff(t)))))
        lens = folded_lens(seg, t, footprints[is_asc], lat, bin_width)
        if lens is None:
            continue
        x_min, x_max, first, last = lens
        sel = pset.ascending == is_asc
        lam_c = pset.lon[sel]
        epoch = pset.epoch[sel]
        n_cand = int(math.floor((x_max - x_min) / grid.spacing)) + 2
        cand[sel] = n_cand
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
    table = sorted_access_table(
        points, starts, ends, grid_size=grid.size, merge_tol=merge_tol, pass_count=len(pset),
    )
    return table, cand


def point_by_point_gaps(table: AccessTable) -> tuple[np.ndarray, np.ndarray]:
    """Grid point and length of each gap of a table sorted by (point,
    start), in table order.

    Each point's running max of interval ends is taken over its own rows
    alone, so every gap is the exact difference of two table times.
    """
    points, gaps = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    cuts = np.flatnonzero(np.diff(table.point)) + 1
    for pt, st, en in zip(*(np.split(a, cuts) for a in (table.point, table.start, table.end))):
        raw = st[1:] - np.maximum.accumulate(en)[:-1]
        keep = raw > table.merge_tol
        points.append(pt[1:][keep])
        gaps.append(raw[keep])
    return np.concatenate(points), np.concatenate(gaps)
