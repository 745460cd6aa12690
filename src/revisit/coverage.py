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
default case well under a second.  The lens folds every sample's range
of offset bins into one row of bins at once, by min and max over
power-of-two blocks, with no loop over the samples.

The table is built one tile of TILE_POINTS grid points at a time.  A tile
is one dense block, a row per grid point and a cell per (lap, pass) that
can reach it, with each row sorted by start and its unreached cells
padded last.  Tiles are independent: a thread pool, one thread per usable
core, builds each tile and reduces it to a few partial statistics on the
same thread, and the partials are folded in tile order.  So
`engine.analyze` never holds the whole table, only one tile per thread,
and the report does not depend on the thread count.
`accesses_for_passes` joins the tiles, without their padding, when a
caller wants the table itself.
"""
from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .passes import PassSet, TrackSegment
from .sensor import FootprintAtLatitude

TWO_PI = 2.0 * math.pi
MAX_GRID_RESOLUTION = math.radians(1.0)
# Lens bins per longitude grid cell.
BINS_PER_CELL = 64
# Grid points per tile of the access table.
TILE_POINTS = 64


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    still overlap within a point and are merged during statistics.  The
    engine's table is its tiles' rows joined without their padding, so
    rows with equal (point, start) come in (lap, pass-epoch) order, which
    may differ from the order of an untiled sort.
    """

    point: np.ndarray
    start: np.ndarray
    end: np.ndarray
    grid: LongitudeGrid
    window: float
    merge_tol: float
    pass_count: int


@dataclass(frozen=True)
class AccessTiles:
    """The access table as `count` tiles, each built on demand.

    ``build(k)`` returns tile k: grid points k * TILE_POINTS onwards,
    TILE_POINTS of them (fewer in the last tile), as two dense
    (points, cells) arrays.  Row i holds the intervals of point
    k * TILE_POINTS + i sorted by start, then padding cells with start +inf
    and end -inf.  A build only reads the shared inputs, so tiles may be
    built in any order, again, or on several threads at once.
    """

    build: Callable[[int], tuple[np.ndarray, np.ndarray]]
    count: int
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

    Sample k of the segment (times ``t``, in time order) sees the offsets
    [lon_off - w, lon_off + w], where w is the ellipse half-chord at the
    sample's latitude distance from the target; on a fine offset grid
    that is the bin range [lo_k, hi_k).  Each bin takes the least time of
    the samples that see it (first) and the time of the latest such
    sample k (last).  As t rises with k, last is also their greatest time.

    The ranges are folded in without a per-sample loop.  A nonempty range
    is the union of two power-of-two blocks of the same level,
    floor(log2(hi_k - lo_k)), one starting at lo_k and one ending at
    hi_k.  Each block's value goes to its start in a row of bins; then,
    from the top level down, the row is pushed down one level (a block
    of length 2h passes its value to its halves at s and s + h) and the
    next level's blocks are added.  The row then holds each bin's value.
    Min and max only compare, so first is exactly the least t that a
    per-sample loop would write, and last, folded as the sample index k,
    is the time its last write leaves.

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
    w = lam * np.sqrt(w2[valid])
    left = segment.lon_off[valid] - w
    right = segment.lon_off[valid] + w
    x_min = float(np.min(left))
    x_max = float(np.max(right))
    nb = int(math.ceil((x_max - x_min) / bin_width)) + 1
    los = np.ceil((left - x_min) / bin_width - 1e-9).astype(np.int64) + 1
    his = np.floor((right - x_min) / bin_width + 1e-9).astype(np.int64) + 2
    seen = his > los
    los, his, t = los[seen], his[seen], t[valid][seen]
    k = np.arange(t.size)
    # floor(log2(hi - lo)), exact for integers.
    level = np.frexp(his - los)[1] - 1
    first = np.full(nb + 2, np.inf)
    k_last = np.full(nb + 2, -1, dtype=np.int64)
    for lv in range(int(np.max(level, initial=-1)), -1, -1):
        at = level == lv
        starts = np.concatenate([los[at], his[at] - (1 << lv)])
        np.minimum.at(first, starts, np.tile(t[at], 2))
        np.maximum.at(k_last, starts, np.tile(k[at], 2))
        if lv:
            h = 1 << (lv - 1)
            np.minimum(first[h:], first[:-h], out=first[h:])
            np.maximum(k_last[h:], k_last[:-h], out=k_last[h:])
    # k_last = -1, a bin no sample sees, picks the appended -inf.
    last = np.append(t, -np.inf)[k_last]
    return x_min, x_max, first, last


def access_tiles(
    pset: PassSet,
    segments: dict[bool, TrackSegment],
    footprints: dict[bool, FootprintAtLatitude],
    grid: LongitudeGrid,
    lat: float,
    bins_per_cell: int = BINS_PER_CELL,
) -> AccessTiles:
    """Intersect every pass with the grid, one tile of grid points at a time.

    segments/footprints are keyed by branch (True = ascending).  Pass k
    reaches the grid points base_k + j, j < n_cand (modulo the grid),
    where n_cand covers its branch's lens.  For each point q of a tile
    and each pass whose run meets the tile, the offsets j congruent to
    q - base_k are evaluated in one (points, laps, passes) block; a run
    longer than the grid reaches a point once per lap.  Cells outside a
    run or the window become padding, one stable sort orders each point's
    cells, and the columns that are padding in every row are cut.  Both
    branches' lenses are joined, and each pass keeps its offset into them,
    so one lookup serves every pass.  The lenses are built here; each tile
    is built only when the returned `AccessTiles` builds it.
    """
    n, window = grid.size, pset.window
    merge_tol = 0.0
    bin_width = grid.spacing / bins_per_cell
    x_min = np.zeros(len(pset))
    n_cand = np.zeros(len(pset), dtype=np.int64)
    offset = np.zeros(len(pset), dtype=np.int64)
    top = np.zeros(len(pset), dtype=np.int64)
    firsts, lasts = [np.empty(0)], [np.empty(0)]
    for is_asc in (True, False):
        seg = segments[is_asc]
        t = seg.time_frac * pset.nodal_period
        if t.size > 1:
            merge_tol = max(merge_tol, float(np.max(np.abs(np.diff(t)))))
        lens = _branch_lens(seg, t, footprints[is_asc], lat, bin_width)
        if lens is None:
            continue
        lo, hi, first, last = lens
        sel = pset.ascending == is_asc
        x_min[sel] = lo
        n_cand[sel] = int(math.floor((hi - lo) / grid.spacing)) + 2
        offset[sel] = sum(f.size for f in firsts)
        top[sel] = first.size - 2
        firsts.append(first)
        lasts.append(last)
    first, last = np.concatenate(firsts), np.concatenate(lasts)
    # Passes of a branch without a lens see nothing.
    keep = n_cand > 0
    lam_c, epoch = pset.lon[keep], pset.epoch[keep]
    x_min, n_cand, offset, top = x_min[keep], n_cand[keep], offset[keep], top[keep]
    base = np.ceil((lam_c + x_min + math.pi) / grid.spacing).astype(np.int64)
    run_start = base % n
    laps = np.arange(-(-int(np.max(n_cand, initial=0)) // n))[:, None]

    def tile(k: int) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) of tile k, each row sorted."""
        p0 = k * TILE_POINTS
        q = np.arange(p0, min(p0 + TILE_POINTS, n))
        sel = ((run_start >= p0) & (run_start <= q[-1])) | ((p0 - run_start) % n < n_cand)
        j = ((q[:, None] - base[sel]) % n)[:, None, :] + n * laps
        # The lens bin of each offset, computed in place to spare the block copies.
        x = (base[sel] + j) * grid.spacing
        x -= math.pi
        x -= lam_c[sel]
        x -= x_min[sel]
        x /= bin_width
        # Offsets off the lens, j >= n_cand among them, land in its padding
        # bins, which no sample sees; n_cand only picks the passes and laps.
        b = np.clip(np.rint(x, out=x), -1, top[sel], out=x).astype(np.int64)
        b += offset[sel] + 1
        st, en = first[b], last[b]
        st += epoch[sel]
        en += epoch[sel]
        off = (en < 0.0) | (st > window)
        del j, x, b
        np.clip(st, 0.0, window, out=st)
        np.clip(en, 0.0, window, out=en)
        st[off] = np.inf
        en[off] = -np.inf
        width = off[0].size - int(np.min(np.count_nonzero(off, axis=(1, 2))))
        st, en = st.reshape(q.size, -1), en.reshape(q.size, -1)
        # A stable sort keeps each point's equal starts in (lap, pass)
        # order and moves the padding last; width, the most real cells of
        # any row, cuts off the columns that hold only padding.
        order = np.argsort(st, axis=1, kind="stable")[:, :width]
        order += np.arange(q.size)[:, None] * st.shape[1]
        return st.ravel()[order], en.ravel()[order]

    return AccessTiles(
        build=tile, count=-(-n // TILE_POINTS), grid=grid, window=window,
        merge_tol=merge_tol, pass_count=len(pset),
    )


def accesses_for_passes(
    pset: PassSet,
    segments: dict[bool, TrackSegment],
    footprints: dict[bool, FootprintAtLatitude],
    grid: LongitudeGrid,
    lat: float,
    bins_per_cell: int = BINS_PER_CELL,
) -> AccessTable:
    """The whole access table of `access_tiles`."""
    return join_tiles(access_tiles(pset, segments, footprints, grid, lat, bins_per_cell))


def join_tiles(acc: AccessTiles) -> AccessTable:
    """Build the tiles in point order and join them into one table without padding."""
    points, starts, ends = [np.empty(0, dtype=np.int64)], [np.empty(0)], [np.empty(0)]
    p0 = 0
    for k in range(acc.count):
        start, end = acc.build(k)
        real = start < np.inf
        points.append(p0 + np.nonzero(real)[0])
        starts.append(start[real])
        ends.append(end[real])
        p0 += start.shape[0]
    return AccessTable(
        point=np.concatenate(points), start=np.concatenate(starts), end=np.concatenate(ends),
        grid=acc.grid, window=acc.window, merge_tol=acc.merge_tol, pass_count=acc.pass_count,
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
    """Revisit report of a table sorted by (point, start).

    The table is cut at the TILE_POINTS boundaries of the engine's tiles,
    and each cut is padded into a tile as `access_tiles` gives it for
    `tile_stats`.  ART sums the gaps tile by tile, so this common cut is
    what makes a table and its tiles give the same report.
    """
    n = table.grid.size
    bounds = np.searchsorted(table.point, np.r_[0:n:TILE_POINTS, n])

    def tile(k: int) -> tuple[np.ndarray, np.ndarray]:
        a, z = bounds[k], bounds[k + 1]
        cut = table.point[a:z] - k * TILE_POINTS
        counts = np.bincount(cut, minlength=min(TILE_POINTS, n - k * TILE_POINTS))
        start = np.full((counts.size, int(np.max(counts))), np.inf)
        end = np.full(start.shape, -np.inf)
        # Row r of point p goes to row p, column r - (p's first row).
        first_row = np.cumsum(counts) - counts
        cell = cut * start.shape[1] + np.arange(z - a) - first_row[cut]
        start.ravel()[cell] = table.start[a:z]
        end.ravel()[cell] = table.end[a:z]
        return start, end

    return tile_stats(
        AccessTiles(
            build=tile, count=bounds.size - 1, grid=table.grid,
            window=table.window, merge_tol=table.merge_tol, pass_count=table.pass_count,
        ),
        clamped=clamped,
    )


def _tile_partials(acc: AccessTiles, k: int) -> tuple[float, float, int, int, float]:
    """Tile k's longest gap, gap sum and count, covered points and latest first access."""
    start, end = acc.build(k)
    # Running max of each point's interval ends along its row, so that it
    # only compares values and the ends come back unrounded.  A padding
    # cell starts at +inf, so its raw gap is +inf.
    raw = start[:, 1:] - np.maximum.accumulate(end, axis=1)[:, :-1]
    gaps = raw[(raw > acc.merge_tol) & (raw < np.inf)]
    first = start[:, :1][start[:, :1] < np.inf]
    return (
        float(np.max(gaps, initial=-math.inf)), float(np.sum(gaps)), gaps.size,
        first.size, float(np.max(first, initial=-math.inf)),
    )


def tile_stats(
    acc: AccessTiles, clamped: bool = False, threads: int | None = None
) -> RevisitReport:
    """Merge intervals, collect gaps, and compute the revisit report.

    Gaps are measured between consecutive accesses of the same grid point;
    the leading and trailing boundary gaps of the window are excluded.
    Intervals closer than the merge tolerance (one segment-sample step)
    are treated as one access.

    Each tile is built and reduced to five partials on one thread: the
    largest gap, the sum and count of gaps, the covered point count and
    the latest first access.  Up to ``threads`` threads (default: one per
    usable core) reduce the tiles, so at most that many tiles are held at
    once and the peak memory grows by one tile block per thread.  The pool
    lives only for this call.  The partials are folded in tile order, so
    the report is the same on any number of threads.  ART adds the tiles'
    gap sums in tile order, so it depends on where the tiles are cut: the
    engine and `revisit_stats` cut at the same TILE_POINTS boundaries, and
    that is what makes a table and its tiles give the same report.
    """
    threads = min(usable_cores() if threads is None else threads, acc.count)
    reduce = partial(_tile_partials, acc)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(reduce, range(acc.count)))
    else:
        partials = list(map(reduce, range(acc.count)))
    n_grid = acc.grid.size
    longest = latest = -math.inf
    total = 0.0
    n_gaps = covered = 0
    for tile_longest, tile_total, tile_gaps, tile_covered, tile_latest in partials:
        longest = max(longest, tile_longest)
        total += tile_total
        n_gaps += tile_gaps
        covered += tile_covered
        latest = max(latest, tile_latest)
    ttc = latest / 3600.0 if covered == n_grid else None
    mrt = longest / 3600.0 if n_gaps else None
    art = total / n_gaps / 3600.0 if n_gaps else None
    return RevisitReport(
        mrt_hours=mrt, art_hours=art, coverage_fraction=covered / n_grid,
        time_to_full_coverage_hours=ttc, uncovered_count=n_grid - covered,
        pass_count=acc.pass_count, gap_count=n_gaps, grid_size=n_grid, clamped=clamped,
    )
