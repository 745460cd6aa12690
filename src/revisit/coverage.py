"""Longitude-grid coverage intersection and revisit statistics.

Each pass deposits access intervals on a discretised longitude grid at the
target latitude: a grid point is visible at a track sample when it falls
inside the footprint ellipse (half-width in longitude, half ground range
in latitude) centred on that sample, whose one home is
`FootprintAtLatitude.half_chord`.  Access start/end times come from
the first/last visible sample of the pass.

Because every pass of a branch shares the same track segment shape, the
visibility lens (first/last visible sample time as a function of the
longitude offset from the crossing) is precomputed once per branch on a
fine offset grid, BINS_PER_CELL bins to a grid cell; a pass's grid points
fall on every BINS_PER_CELL-th bin from one integer phase per pass.  The
fold writes every sample's range of offset bins into the lens at once, by
min and max over power-of-two blocks, with no loop over samples.

The table is built one tile of grid points at a time: tile k holds the
points k * r onward, where r, tile 0's row count, is the most rows whose
mean cells fit in TILE_CELLS, at least 1 and at most TILE_POINTS.  So a
tile's block stays near TILE_CELLS cells however large the fleet.  One
(first, last) pair of arrays, the layout, is allocated once at +inf, and
each branch's lens is folded in place into its slice: +inf is the one
padding value of unseen bins and trailing padding, from the fold to the
gather.  A tile is one dense block, a row per grid point and a column
per run of a pass's offsets that meets the tile, one run a lap.  The
passes are sorted by run start once, so a tile finds the few passes that
reach it by a binary search, not a scan of every pass.  A cell's bin is
its run's first bin plus one integer add, read by one gather from the
layout; only the passes whose accesses can reach past the window's ends
are clipped.  Cells that no pass reaches read padding.  Tiles are
independent: a thread pool, one thread per usable core, builds each tile
and reduces it to a few partial statistics on the same thread.  So
`engine.analyze` never holds the whole table, only one tile per thread.
The reduction sorts each row's starts and each row's ends on their own:
as no interval ends before it starts, a point has a gap after its i-th
interval exactly when its i-th least end is below its (i+1)-th least
start, and that difference is the gap, written over the ends in place
(see `_tile_partials`).  ART adds each grid point's gaps on their own,
so no report depends on where the tiles are cut or on the thread count.
`accesses_for_passes` sorts each tile's rows by start and joins them,
without their padding, for a caller that wants the table itself.
"""
from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, is_count
from .passes import TWO_PI, PassSet, TrackSegment
from .sensor import FootprintAtLatitude

# Grid spacing bounds, in degrees: the finest is a 360 000-point grid.
MIN_GRID_RES_DEG = 0.001
MAX_GRID_RES_DEG = 1.0
MAX_GRID_RESOLUTION = math.radians(MAX_GRID_RES_DEG)
# Lens bins per longitude grid cell.
BINS_PER_CELL = 64
# Most grid points per tile of the access table.
TILE_POINTS = 64
# Cells per tile: a tile's rows are cut so that their mean cells fit.  2**19
# cells are a 4 MB float block.
TILE_CELLS = 2**19


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn: Callable, units: Sequence, threads: int | None = None) -> list:
    """``[fn(u) for u in units]``, on up to ``threads`` threads (default: one per usable core).

    No more threads than units are started, and the pool lives only for
    this call; with one thread or one unit the calls run in order on the
    calling thread, with no pool.
    """
    if threads is not None and not (is_count(threads) and threads >= 1):
        raise ConfigError(f"threads must be an integer of at least 1, got {threads!r}")
    threads = min(usable_cores() if threads is None else threads, len(units))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, units))
    return list(map(fn, units))


@dataclass(frozen=True)
class LongitudeGrid:
    """Uniform longitude grid over [-pi, pi), first point at -pi."""

    spacing: float
    lon: np.ndarray

    @property
    def size(self) -> int:
        return int(self.lon.size)


def build_grid(resolution: float) -> LongitudeGrid:
    """Build the longitude grid; resolution in rad, MIN_GRID_RES_DEG to MAX_GRID_RES_DEG deg."""
    if not math.radians(MIN_GRID_RES_DEG) <= resolution <= MAX_GRID_RESOLUTION + 1e-15:
        raise ConfigError(f"grid resolution must be in [{MIN_GRID_RES_DEG:g}, "
                          f"{MAX_GRID_RES_DEG:g}] deg, got {resolution!r} rad")
    n = int(round(TWO_PI / resolution))
    spacing = TWO_PI / n
    return LongitudeGrid(spacing=spacing, lon=-math.pi + spacing * np.arange(n))


@dataclass(frozen=True)
class AccessTable:
    """Visibility intervals of the points 0 to grid_size - 1 of a grid.

    Parallel arrays sorted by (point index, start time), with finite
    times in seconds inside the analysis window and start <= end in every
    row; intervals may still overlap within a point and are merged during
    statistics.  The engine's table is its tiles' rows, each sorted by one
    stable sort on start, joined without their padding, so rows with equal
    (point, start) come in (pass-epoch, lap) order, which may differ from
    the order of an untiled sort.
    """

    point: np.ndarray
    start: np.ndarray
    end: np.ndarray
    grid_size: int
    merge_tol: float
    pass_count: int


@dataclass(frozen=True)
class AccessTiles:
    """The access table as `count` tiles, each built on demand.

    ``build(k)`` returns tile k: grid points k * r onwards, where r is
    tile 0's row count, r of them (fewer in the last tile, which ends at
    point grid_size - 1), as two dense (points, cells) arrays.  Row i
    holds the intervals of point k * r + i, each with start <= end, and
    padding cells with start and end +inf, in any order.  Each build
    returns two new arrays that share no memory, which the reduction sorts
    and overwrites in place.  A build only reads the shared inputs, so
    tiles may be built in any order, again, or on several threads at once.
    A tile holds whole rows, so where the tiles are cut changes no report.
    The build of `access_tiles` raises `ConfigError` for a k that is not
    an integer in [0, count).  ``clamped`` is the report's flag: a
    footprint reached past the horizon (`FootprintAtLatitude.clamped`).
    """

    build: Callable[[int], tuple[np.ndarray, np.ndarray]]
    count: int
    grid_size: int
    merge_tol: float
    pass_count: int
    clamped: bool


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
    clamped: bool

    @property
    def window_exceeded(self) -> bool:
        return self.coverage_fraction < 1.0 or self.mrt_hours is None


def _lens_ranges(
    segment: TrackSegment,
    t: np.ndarray,
    footprint: FootprintAtLatitude,
    lat: float,
    bin_width: float,
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray] | None:
    """The lens bins [lo_k, hi_k) that each sample k of one branch sees.

    Sample k (time t_k) sees the offsets lon_off_k -/+ w_k, where w_k is
    the footprint's half-chord of the target latitude circle
    (`FootprintAtLatitude.half_chord`), and bin j + 1 lies at offset
    x_min + j * bin_width, so no sample sees bin 0.  Returns (x_min, x_max,
    lo, hi, t) with the ranges and times of the samples that see a bin, in
    sample order, or None when no sample sees the target latitude.
    """
    w = footprint.half_chord(segment.lat, lat)
    valid = w >= 0.0
    if not np.any(valid):
        return None
    w = w[valid]
    left = segment.lon_off[valid] - w
    right = segment.lon_off[valid] + w
    x_min = float(np.min(left))
    x_max = float(np.max(right))
    los = np.ceil((left - x_min) / bin_width - 1e-9).astype(np.int64) + 1
    his = np.floor((right - x_min) / bin_width + 1e-9).astype(np.int64) + 2
    seen = his > los
    return x_min, x_max, los[seen], his[seen], t[valid][seen]


def _fold_lens(
    los: np.ndarray, his: np.ndarray, t: np.ndarray, first: np.ndarray, last: np.ndarray
) -> None:
    """Fold the bin ranges of `_lens_ranges` into the caller's +inf rows
    ``first`` and ``last``, at least max(hi) bins long.

    Each bin a sample sees takes the least time of the samples that see it
    (first) and the time of the latest such sample k (last); bins no
    sample sees stay +inf.  As t rises with k, last is their greatest time.

    The ranges are folded in without a per-sample loop.  A nonempty range
    is the union of two power-of-two blocks of the same level,
    floor(log2(hi_k - lo_k)), one starting at lo_k and one ending at
    hi_k.  Each block's value goes to its start in a row of bins; then,
    from the top level down, the row is pushed down one level (a block
    of length 2h passes its value to its halves at s and s + h) and the
    next level's blocks are added.  The row then holds each bin's value.
    Min and max only compare, so first is exactly the least t that a
    per-sample loop would write, and last, folded as the sample index k,
    is the time its last write leaves.  No block reaches max(hi), so the
    fold reads and writes only the bins below it.
    """
    end = int(np.max(his, initial=0))
    first = first[:end]
    # floor(log2(hi - lo)), exact for integers.
    level = np.frexp(his - los)[1] - 1
    k_last = np.full(end, -1, dtype=np.int64)
    for lv in range(int(np.max(level, initial=-1)), -1, -1):
        at = level == lv
        starts = np.concatenate([los[at], his[at] - (1 << lv)])
        np.minimum.at(first, starts, np.tile(t[at], 2))
        np.maximum.at(k_last, starts, np.tile(np.flatnonzero(at), 2))
        if lv:
            h = 1 << (lv - 1)
            np.minimum(first[h:], first[:-h], out=first[h:])
            np.maximum(k_last[h:], k_last[:-h], out=k_last[h:])
    # k_last = -1, a bin no sample sees, keeps its +inf.
    np.copyto(last[:end], t[k_last], where=k_last >= 0)


def _run_selector(
    run_start: np.ndarray, n_cand: np.ndarray, n: int
) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """The runs of offsets that meet a tile, as a function of the tile.

    Pass k reaches the grid points run_start_k + j, j < n_cand_k, modulo n.
    ``runs(p0, rows)`` gives (col, j) for the grid points p0 to p0 + rows -
    1: lap m of pass k meets them as the run of offsets j_m + row, with j_m
    = ((p0 - run_start_k) mod n) - n + m * n, and each lap whose run meets
    [0, n_cand_k) is one (col, j) pair, in (pass, lap) order.

    A lap meets the tile only if its pass's run starts in the circular
    window [p0 - max(n_cand) + 1, p0 + rows - 1].  The passes are sorted by
    run start once, so a tile finds the passes whose run starts there by
    one or two `searchsorted` ranges and takes the laps of those alone, put
    back in pass order.  Where the window covers the grid, every pass is
    taken.
    """
    longest = int(np.max(n_cand, initial=0))
    lap_shift = n * np.arange(-(-longest // n) + 1) - n
    order = np.argsort(run_start, kind="stable")
    sorted_start = run_start[order]

    def runs(p0: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        if longest + rows <= n:
            lo = p0 - longest + 1
            a, z = np.searchsorted(sorted_start, [lo % n, p0 + rows])
            # A window that starts below point 0 wraps past point n - 1.
            picked = order[a:z] if lo >= 0 else np.concatenate([order[a:], order[:z]])
            col = np.sort(picked)
        else:
            col = np.arange(run_start.size)
        j = ((p0 - run_start[col]) % n)[:, None] + lap_shift
        meets = (j > -rows) & (j < n_cand[col, None])
        return col[np.nonzero(meets)[0]], j[meets]

    return runs


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
    where n_cand covers its branch's lens, and offset j reads lens bin
    phase_k + bins_per_cell * j.  One (first, last) pair, the layout, is
    allocated once at +inf, and each branch's lens is folded in place into
    its slice (`_fold_lens`).  So every bin that no sample sees holds
    (+inf, +inf), and so does each branch's trailing padding, long enough
    that any offset of a tile past its lens reads it.

    A tile holds r rows, the grid points p0 to p0 + r - 1 (fewer in the
    last tile).  r is the most rows whose mean cells, sum(n_cand) / n a
    row, fit in TILE_CELLS, at least 1 and at most TILE_POINTS.  Each lap
    of a pass whose run of offsets meets the tile is one column, in (pass,
    lap) order (see `_run_selector`): where no pass reaches a point twice,
    that is pass order.  A cell's bin is its column's first bin plus
    bins_per_cell * row, one integer add.  A run that starts inside the
    tile has offsets below 0 in its first rows; those cells read a padding
    bin.  Only the passes whose accesses can leave [0, window], found once
    for the whole set, have their columns clipped to the window and the
    cells wholly off it blanked.  The layout, the integer phases and the
    passes sorted by run start are computed here; each tile only when the
    returned `AccessTiles` builds it.
    """
    n, window = grid.size, pset.window
    merge_tol = 0.0
    bin_width = grid.spacing / bins_per_cell
    n_cand, base, phase = (np.zeros(len(pset), dtype=np.int64) for _ in range(3))
    edge = np.zeros(len(pset), dtype=bool)
    branches = []
    for is_asc in (True, False):
        seg = segments[is_asc]
        t = seg.time_frac * pset.nodal_period
        merge_tol = max(merge_tol, float(np.max(np.abs(np.diff(t)))))
        ranges = _lens_ranges(seg, t, footprints[is_asc], lat, bin_width)
        if ranges is None:
            continue
        lo, hi, _, _, seen_t = ranges
        sel = pset.ascending == is_asc
        lam_c, epoch = pset.lon[sel], pset.epoch[sel]
        cand = int(math.floor((hi - lo) / grid.spacing)) + 2
        n_cand[sel] = cand
        base[sel] = np.ceil((lam_c + lo + math.pi) / grid.spacing)
        # Offset j's lens bin, rint(((base + j) * spacing - pi - lam_c - lo) / bin_width),
        # is its value at j = 0 plus bins_per_cell * j: bins_per_cell is even, so
        # a half-bin tie rounds alike at every j.  base rounds up, so no bin is
        # below lo's.  phase is the bin at j = 0 counted from the bin before the
        # lens, at most 1 + bins_per_cell; the lens's row in the layout is added
        # below.
        phase[sel] = 1 + np.rint((base[sel] * grid.spacing - math.pi - lam_c - lo) / bin_width)
        # Adding an epoch rounds monotonically, so a pass whose earliest and
        # latest seeing sample land in [0, window] has every access there.
        edge[sel] = ((epoch + np.min(seen_t, initial=np.inf) < 0.0)
                     | (epoch + np.max(seen_t, initial=-np.inf) > window))
        branches.append((sel, cand, ranges[2:]))
    # Read once, so the layout's padding and every tile agree on them.
    row_cells = max(1, -(-int(np.sum(n_cand)) // n))
    tile_points = max(1, min(TILE_POINTS, TILE_CELLS // row_cells))
    most_rows = min(tile_points, n)
    rows_at = [0]
    for sel, cand, _ in branches:
        phase[sel] += rows_at[-1]
        # A tile reads offsets up to n_cand + most_rows - 2, so bins up to
        # its row + 1 + bins_per_cell * (n_cand + most_rows - 1).  That covers
        # the lens's at most (hi - lo) / bin_width + 4 bins too, as
        # bins_per_cell * n_cand >= (hi - lo) / bin_width + bins_per_cell.
        rows_at.append(rows_at[-1] + 2 + bins_per_cell * (cand + most_rows - 1))
    first, last = np.full((2, rows_at[-1]), np.inf)
    for row, (_, _, ranges) in zip(rows_at, branches):
        _fold_lens(*ranges, first[row:], last[row:])
    # Passes of a branch without a lens see nothing.
    keep = n_cand > 0
    epoch, n_cand, phase, edge = pset.epoch[keep], n_cand[keep], phase[keep], edge[keep]
    runs = _run_selector(base[keep] % n, n_cand, n)
    row_ids = np.arange(most_rows)[:, None]
    row_bins = bins_per_cell * row_ids
    count = -(-n // tile_points)

    def tile(k: int) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) of tile k, each row's cells in (pass, lap) order."""
        if not (is_count(k) and 0 <= k < count):
            raise ConfigError(f"tile index must be an integer in [0, {count}), got {k!r}")
        p0 = k * tile_points
        rows = min(tile_points, n - p0)
        col, j = runs(p0, rows)
        # The starts and the ends are the two halves of one allocation, freed
        # together: glibc's malloc then keeps it for the thread's next tile,
        # where two blocks of their own were trimmed back to the OS after most
        # tiles and paged in again (about 70 000 minor page faults a pass of
        # the 24/6/0 case at 0.1 deg and 60 days, against none).
        block = np.empty((2, rows, col.size), dtype=np.int64)
        at = np.add(phase[col] + bins_per_cell * j, row_bins[:rows], out=block[0])
        # A run that starts inside the tile has -j rows at offsets below 0.
        # Their cells read bin 0 of the layout, a padding bin: the bin at
        # offset -1 may be the lens's first.
        np.putmask(at, row_ids[:rows] < -j, 0)
        # Every index is in range, and mode="clip" keeps take from buffering
        # `out`, so the ends are gathered into the second half and the starts
        # into the index block itself, after the ends.
        en = last.take(at, mode="clip", out=block[1].view(np.float64))
        st = first.take(at, mode="clip", out=at.view(np.float64))
        ep = epoch[col]
        st += ep
        en += ep
        clip = np.flatnonzero(edge[col])
        s, e = st[:, clip], en[:, clip]
        off = (e < 0.0) | (s > window)
        st[:, clip] = np.where(off, np.inf, np.clip(s, 0.0, window))
        en[:, clip] = np.where(off, np.inf, np.clip(e, 0.0, window))
        return st, en

    return AccessTiles(
        build=tile, count=count, grid_size=n, merge_tol=merge_tol, pass_count=len(pset),
        clamped=any(fp.clamped for fp in footprints.values()),
    )


def accesses_for_passes(
    pset: PassSet,
    segments: dict[bool, TrackSegment],
    footprints: dict[bool, FootprintAtLatitude],
    grid: LongitudeGrid,
    lat: float,
    bins_per_cell: int = BINS_PER_CELL,
) -> AccessTable:
    """The whole access table of `access_tiles`: its tiles, built in point
    order and joined into one table sorted by (point, start), without
    padding."""
    acc = access_tiles(pset, segments, footprints, grid, lat, bins_per_cell)
    points, starts, ends = [np.empty(0, dtype=np.int64)], [np.empty(0)], [np.empty(0)]
    p0 = 0
    for k in range(acc.count):
        start, end = acc.build(k)
        # A stable sort keeps each point's equal starts in (pass, lap) order
        # and moves the padding last.
        order = np.argsort(start, axis=1, kind="stable")
        start, end = (np.take_along_axis(a, order, axis=1) for a in (start, end))
        real = start < np.inf
        points.append(p0 + np.nonzero(real)[0])
        starts.append(start[real])
        ends.append(end[real])
        p0 += start.shape[0]
    return AccessTable(
        point=np.concatenate(points), start=np.concatenate(starts), end=np.concatenate(ends),
        grid_size=acc.grid_size, merge_tol=acc.merge_tol, pass_count=acc.pass_count,
    )


def sorted_access_table(
    points: list[np.ndarray],
    starts: list[np.ndarray],
    ends: list[np.ndarray],
    *, grid_size: int, merge_tol: float, pass_count: int,
) -> AccessTable:
    """Concatenate interval parts into a table sorted by (point, start).

    The sort is stable, so equal keys keep the order of the parts.
    """
    point = np.concatenate([np.empty(0, dtype=np.int64), *points])
    start = np.concatenate([np.empty(0), *starts])
    end = np.concatenate([np.empty(0), *ends])
    order = np.lexsort((start, point))
    return AccessTable(
        point=point[order], start=start[order], end=end[order], grid_size=grid_size,
        merge_tol=merge_tol, pass_count=pass_count,
    )


def revisit_stats(table: AccessTable, clamped: bool = False) -> RevisitReport:
    """Revisit report of a table ordered by point.

    The table must keep the `AccessTable` rules that the reduction relies
    on: grid_size is a count of at least 1, points are integers,
    non-decreasing and in [0, grid_size), times are finite, no interval
    ends before it starts, and merge_tol is at least 0.  A table that
    breaks one raises `ConfigError`.  The order of a point's rows does not
    matter.

    The table is cut every r grid points, and each cut is padded to its
    widest row into a tile as `access_tiles` gives it for `tile_stats`.  r
    is the most rows of the table's widest row that fit in TILE_CELLS, at
    least 1 and at most TILE_POINTS, so a padded block holds at most
    max(TILE_CELLS, widest row) cells.  The cuts only bound the memory of
    one padded block.
    """
    n = table.grid_size
    if not (is_count(n) and n >= 1):
        raise ConfigError(f"table grid_size must be an integer of at least 1, got {n!r}")
    point, start, end = table.point, table.start, table.end
    if not point.size == start.size == end.size:
        raise ConfigError("table point, start and end must have one entry a row")
    if not np.issubdtype(point.dtype, np.integer):
        raise ConfigError(f"table points must be integers, got {point.dtype}")
    if point.size and not (0 <= point[0] and point[-1] < n and np.all(point[1:] >= point[:-1])):
        raise ConfigError(f"table points must be non-decreasing and in [0, {n})")
    if not (np.all(np.isfinite(start)) and np.all(np.isfinite(end))):
        raise ConfigError("table start and end times must be finite")
    if np.any(end < start):
        raise ConfigError("no table interval may end before it starts")
    if not table.merge_tol >= 0.0:
        raise ConfigError(f"table merge_tol must be at least 0, got {table.merge_tol!r}")
    widest = int(np.max(np.bincount(point), initial=1))
    points = max(1, min(TILE_POINTS, TILE_CELLS // widest))
    bounds = np.searchsorted(point, np.r_[0:n:points, n])

    def tile(k: int) -> tuple[np.ndarray, np.ndarray]:
        a, z = bounds[k], bounds[k + 1]
        cut = point[a:z] - k * points
        counts = np.bincount(cut, minlength=min(points, n - k * points))
        start, end = np.full((2, counts.size, int(np.max(counts))), np.inf)
        # Row r of point p goes to row p, column r - (p's first row).
        first_row = np.cumsum(counts) - counts
        cell = cut * start.shape[1] + np.arange(z - a) - first_row[cut]
        start.ravel()[cell] = table.start[a:z]
        end.ravel()[cell] = table.end[a:z]
        return start, end

    return tile_stats(AccessTiles(
        build=tile, count=bounds.size - 1, grid_size=n, merge_tol=table.merge_tol,
        pass_count=table.pass_count, clamped=clamped,
    ))


def _tile_partials(acc: AccessTiles, k: int) -> tuple[float, np.ndarray, int, int, float]:
    """Tile k's longest gap, each point's gap sum, gap count, covered points
    and latest first access.

    Each row's starts S and ends E are sorted on their own, padding last.
    No interval ends before it starts, so a point has a gap after its i-th
    interval in start order exactly when E[i] < S[i + 1], and then E[i] is
    the greatest end of its first i + 1 intervals: S[i + 1] - E[i] is the
    exact difference of two table times that a running max of the ends in
    start order gives.  Where there is no gap, both differences are at
    most 0, so neither counts.  The differences are written over E, so the
    reduction holds no third block.
    """
    start, end = acc.build(k)
    start.sort(axis=1)
    end.sort(axis=1)
    # Past a row's last interval the raw gap is inf - E[i] = inf, then
    # inf - inf = NaN; neither passes `keep`, so padding adds no gap.
    # The gaps overwrite the ends, which nothing reads after them: a build's
    # two arrays share no memory.
    with np.errstate(invalid="ignore"):
        raw = np.subtract(start[:, 1:], end[:, :-1], out=end[:, :-1])
    keep = (raw > acc.merge_tol) & (raw < np.inf)
    gaps = raw[keep]
    # A point's gaps are one run of `gaps`, so its sum depends on that
    # point alone, not on the tile's width or on which tile holds it.
    counts = np.count_nonzero(keep, axis=1)
    offsets = (np.cumsum(counts) - counts)[counts > 0]
    first = start[:, :1][start[:, :1] < np.inf]
    return (
        float(np.max(gaps, initial=-math.inf)), np.add.reduceat(gaps, offsets), gaps.size,
        first.size, float(np.max(first, initial=-math.inf)),
    )


def tile_stats(acc: AccessTiles, threads: int | None = None) -> RevisitReport:
    """Merge intervals, collect gaps, and compute the revisit report.

    Gaps are measured between consecutive accesses of the same grid point;
    the leading and trailing boundary gaps of the window are excluded.
    Intervals closer than the merge tolerance (one segment-sample step)
    are treated as one access.

    Each tile is built, its rows' starts and ends sorted on their own, and
    reduced to five partials on one thread (see `_tile_partials`): the
    largest gap, each point's gap sum, the gap count, the covered point
    count and the latest first access.  Up to ``threads`` threads (default:
    one per usable core) reduce the tiles, so at most that many tiles are
    held at once and the peak memory grows by one tile block per thread.
    The pool lives only for this call.  ART's numerator is the correctly
    rounded sum of the points' gap sums, and the other partials are maxima
    and integer counts, so the report depends neither on the thread count
    nor on where the tiles are cut.
    """
    partials = thread_map(partial(_tile_partials, acc), range(acc.count), threads)
    n_grid = acc.grid_size
    longest, point_sums, n_gaps, covered, latest = zip(*partials)
    n_gaps, covered = sum(n_gaps), sum(covered)
    # The correctly rounded sum of the points' gap sums: no order of tiles
    # or threads can change it.
    total = math.fsum(np.concatenate(point_sums).tolist())
    ttc = max(latest) / 3600.0 if covered == n_grid else None
    mrt = max(longest) / 3600.0 if n_gaps else None
    art = total / n_gaps / 3600.0 if n_gaps else None
    return RevisitReport(
        mrt_hours=mrt, art_hours=art, coverage_fraction=covered / n_grid,
        time_to_full_coverage_hours=ttc, uncovered_count=n_grid - covered,
        pass_count=acc.pass_count, gap_count=n_gaps, grid_size=n_grid, clamped=acc.clamped,
    )
