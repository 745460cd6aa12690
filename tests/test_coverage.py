import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import revisit as rv
from revisit import coverage, engine
from revisit.coverage import (
    BINS_PER_CELL,
    AccessTable,
    AccessTiles,
    _run_selector,
    _tile_partials,
    access_tiles,
    accesses_for_passes,
    build_grid,
    revisit_stats,
    tile_stats,
)
from revisit.engine import EngineSettings, analyze, branch_inputs, build_pass_set
from revisit.passes import (
    TrackSegment,
    ground_track_segment,
    ground_track_shift,
    nodal_period,
    raan_drift_rate,
    wrap_angle,
)
from revisit.sensor import FootprintAtLatitude, resolve_footprint

from conftest import make_orbit
from reference_access import (
    dense_access_table,
    folded_lens,
    full_scan_runs,
    painted_lens,
    pass_accesses,
    point_by_point_gaps,
    visible_sample_span,
)


class TestBuildGrid:
    def test_default_resolution_point_count(self):
        assert build_grid(math.radians(0.1)).size == 3600

    def test_one_degree_point_count(self):
        assert build_grid(math.radians(1.0)).size == 360

    def test_uniform_spacing_from_minus_pi(self):
        g = build_grid(math.radians(0.25))
        assert g.lon[0] == pytest.approx(-math.pi, abs=1e-15)
        assert np.ptp(np.diff(g.lon)) < 1e-12
        assert g.lon[-1] < math.pi

    def test_finest_resolution_point_count(self):
        assert build_grid(math.radians(coverage.MIN_GRID_RES_DEG)).size == 360_000

    @pytest.mark.parametrize("bad", [
        0.0, -0.1, math.radians(1.5), math.nan, 1e-300, math.radians(0.0005),
    ])
    def test_rejects_bad_resolution(self, bad):
        # Below the floor, 1e-300 once raised a stray ValueError from numpy,
        # and half the floor built a 720 000-point grid.
        with pytest.raises(rv.ConfigError, match="grid resolution"):
            build_grid(bad)


def _point_segment(lat: float) -> TrackSegment:
    return TrackSegment(
        lat=np.array([lat]),
        lon_off=np.array([0.0]),
        time_frac=np.array([0.0]),
    )


def _footprint(theta: float, lam: float) -> FootprintAtLatitude:
    return FootprintAtLatitude(ground_range=theta, lon_half_width=lam, clamped=False)


class TestPassAccesses:
    def test_point_at_ellipse_centre_visible(self):
        grid = build_grid(math.radians(1.0))
        lat = math.radians(20)
        acc = pass_accesses(
            float(grid.lon[10]), 1000.0, _point_segment(lat),
            _footprint(math.radians(3), math.radians(2)), grid, 6000.0, lat,
        )
        assert any(idx == 10 for idx, _, _ in acc)

    def test_boundary_point_inclusive(self):
        # A grid point exactly one longitude half-width east of the centre
        # sits on the ellipse boundary and counts as visible.
        grid = build_grid(math.radians(1.0))
        lat = math.radians(20)
        lam = 5.0 * grid.spacing
        acc = pass_accesses(
            float(grid.lon[0]), 0.0, _point_segment(lat),
            _footprint(math.radians(3), lam), grid, 6000.0, lat,
        )
        indices = {idx for idx, _, _ in acc}
        assert 5 in indices
        assert 6 not in indices

    def test_unreachable_point_yields_nothing(self):
        grid = build_grid(math.radians(1.0))
        lat = math.radians(20)
        # Track sample sits farther from the target latitude than the
        # footprint can reach.
        seg = _point_segment(lat + math.radians(10))
        acc = pass_accesses(
            0.0, 0.0, seg, _footprint(math.radians(3), math.radians(2)),
            grid, 6000.0, lat,
        )
        assert acc == []

    @pytest.mark.slow
    def test_matches_dense_sampling(self):
        # Visible-point counts per pass against a 10x-dense direct
        # evaluation of the ellipse inequality.
        el = make_orbit(500.0, 97.41)
        lat = math.radians(40)
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        sensor = rv.SensorSpec.boresight(math.radians(45))
        fp = resolve_footprint(sensor, el.a, lat)
        grid = build_grid(math.radians(0.1))
        ps = build_pass_set(el, lat, settings=EngineSettings(window=6 * p_n))
        for k in range(min(6, len(ps))):
            asc = bool(ps.ascending[k])
            seg = ground_track_segment(el, lat, shift, 1001, reach=fp.ground_range, ascending=asc)
            acc = pass_accesses(float(ps.lon[k]), float(ps.epoch[k]), seg, fp, grid, p_n, lat)
            dense = ground_track_segment(el, lat, shift, 10001, reach=fp.ground_range, ascending=asc)
            du = (grid.lon[None, :] - (float(ps.lon[k]) + dense.lon_off[:, None]) + math.pi) % (
                2 * math.pi
            ) - math.pi
            inside = (du / fp.lon_half_width) ** 2 + (
                (lat - dense.lat[:, None]) / fp.ground_range
            ) ** 2 <= 1.0
            n_dense = int(np.count_nonzero(inside.any(axis=0)))
            assert abs(len(acc) - n_dense) <= 1


def _random_case(rng, index):
    """Orbit, sensor and target latitude of one random LEO configuration."""
    alt = rng.uniform(400.0, 1500.0)
    inc_deg = rng.uniform(20.0, 98.0)
    reach_deg = min(inc_deg, 180.0 - inc_deg, 80.0)
    lat = math.radians(rng.uniform(0.0, 0.9) * reach_deg)
    el = rv.OrbitElements(
        a=rv.EARTH.equatorial_radius + alt, inc=math.radians(inc_deg),
        raan=rng.uniform(-math.pi, math.pi), nu0=rng.uniform(0.0, 2 * math.pi),
    )
    if index % 2:
        sensor = rv.SensorSpec.elevation(math.radians(rng.uniform(0.0, 40.0)))
    else:
        sensor = rv.SensorSpec.boresight(math.radians(rng.uniform(10.0, 60.0)))
    return el, sensor, lat


def _subset(pset, sel):
    """The passes of ``pset`` that ``sel`` selects, as a pass set."""
    return replace(
        pset, lon=pset.lon[sel], epoch=pset.epoch[sel], ascending=pset.ascending[sel],
        plane_index=pset.plane_index[sel], sat_index=pset.sat_index[sel],
    )


def _branch_accesses(el, sensor, lat, st):
    """Binned and exact accesses of each branch of one configuration.

    Yields (branch, segment, footprint, binned, exact, merge_tol) per branch:
    ``binned`` and ``exact`` map (grid point, pass) to (start, end).
    """
    pset, segs, fps, grid = branch_inputs(el, sensor, lat, settings=st)
    for asc in (True, False):
        branch = _subset(pset, pset.ascending == asc)
        table = accesses_for_passes(branch, segs, fps, grid, lat)
        # One branch's passes are a nodal period apart, so the
        # nearest epoch names the pass of each interval.
        k_of = np.abs(table.start[:, None] - branch.epoch[None, :]).argmin(axis=1)
        binned = {
            (int(i), int(k)): (s, e)
            for i, k, s, e in zip(table.point, k_of, table.start, table.end)
        }
        exact = {}
        for k, (lon, epoch) in enumerate(zip(branch.lon, branch.epoch)):
            for i, s, e in pass_accesses(
                float(lon), float(epoch), segs[asc], fps[asc], grid,
                pset.nodal_period, lat,
            ):
                if e >= 0.0 and s <= st.window:
                    exact[(i, k)] = (min(max(s, 0.0), st.window), min(e, st.window))
        yield branch, segs[asc], fps[asc], binned, exact, table.merge_tol


def _visible_either_side(keys, branch, segment, footprint, lat, st):
    """Exact visibility one lens bin west and east of each (grid point,
    pass) key, as two rows."""
    grid = build_grid(st.grid_res)
    dx = grid.spacing / BINS_PER_CELL
    i_arr, k_arr = np.array(keys).T
    x = wrap_angle(grid.lon[i_arr] - branch.lon[k_arr])
    kf, kl = visible_sample_span(np.concatenate([x - dx, x + dx]), segment, footprint, lat)
    return (kf <= kl).reshape(2, -1)


def _disagreements(branch, segment, footprint, binned, exact, merge_tol, lat, st):
    """(accesses, disagreements): binned and exact must see the same
    points, start and end within one sample step, outside boundary cells."""
    keys = sorted(set(exact) | set(binned))
    vis = _visible_either_side(keys, branch, segment, footprint, lat, st)
    # A boundary cell: exact visibility changes within one bin either side.
    here = np.array([key in exact for key in keys])
    n_bad = 0
    for key, at_boundary in zip(keys, (vis[0] != vis[1]) | (vis[0] != here)):
        if key in exact and key in binned:
            d = np.abs(np.subtract(exact[key], binned[key]))
            agree = bool(np.all(d <= merge_tol * (1 + 1e-9)))
        else:
            agree = False
        if not agree:
            assert at_boundary, (key, exact.get(key), binned.get(key))
            n_bad += 1
    return len(keys), n_bad


class TestBinnedLensAgainstExact:
    @pytest.mark.slow
    def test_accesses_match_exact_path_outside_boundary_cells(self):
        # The engine looks each grid point up in a lens binned at
        # grid.spacing / bins_per_cell, so it evaluates visibility at an
        # offset up to half a bin from the point.  Outside boundary cells
        # (points whose exact visibility changes within one bin either
        # side) every pass must see the same points as the exact
        # per-sample path, with start and end within one sample step.
        rng = np.random.default_rng(2024)
        st = EngineSettings(window=2 * 86400.0, segment_samples=501)
        n_access = n_boundary = 0
        for case in range(12):
            el, sensor, lat = _random_case(rng, case)
            for branch_data in _branch_accesses(el, sensor, lat, st):
                n, n_bad = _disagreements(*branch_data, lat, st)
                n_access += n
                n_boundary += n_bad
        assert n_access > 100_000
        assert n_boundary <= 1e-4 * n_access

    def test_sparse_samples_leave_empty_interior_bins(self):
        # Five samples along a 10 deg inclined track lie about 41 deg of
        # longitude apart, farther than their footprints reach, so the lens
        # has empty bins between painted ones.  Grid points there are seen
        # by no sample and must get no access.
        el = rv.OrbitElements(a=rv.EARTH.equatorial_radius + 700.0, inc=math.radians(10.0))
        sensor = rv.SensorSpec.elevation(math.radians(10.0))
        st = EngineSettings(window=86400.0, grid_res=math.radians(0.25), segment_samples=5)
        grid = build_grid(st.grid_res)
        for branch, seg, fp, binned, exact, merge_tol in _branch_accesses(el, sensor, 0.0, st):
            # Grid points of each pass between its first and last visible
            # point, by offset from the crossing, that no sample sees.
            hidden = []
            for k in range(branch.lon.size):
                pts = np.array([i for i, kk in exact if kk == k])
                x = wrap_angle(grid.lon[pts] - branch.lon[k])
                n_span = round((x.max() - x.min()) / grid.spacing) + 1
                inner = (pts[x.argmin()] + np.arange(n_span)) % grid.size
                hidden += [(int(i), k) for i in inner if (int(i), k) not in exact]
            vis = _visible_either_side(hidden, branch, seg, fp, 0.0, st)
            hidden = np.array(hidden)[~vis[0] & ~vis[1]]
            assert len(hidden) > 100 * branch.lon.size
            assert not set(map(tuple, hidden.tolist())) & set(binned)
            n, n_bad = _disagreements(branch, seg, fp, binned, exact, merge_tol, 0.0, st)
            assert n > 500 * branch.lon.size and n_bad <= 1e-2 * n


def _lens_inputs(name):
    """(segment, times, footprint, lat, bin_width) of one lens case."""
    if name.startswith(("elevation", "boresight")):
        kind, e, asc = name.split("_")
        sensor = (rv.SensorSpec.elevation(math.radians(10.0)) if kind == "elevation"
                  else rv.SensorSpec.boresight(math.radians(30.0)))
        el = make_orbit(700.0, 60.0, e=float(e), argp=1.0)
        st = EngineSettings(window=86400.0, segment_samples=1001)
        pset, segs, fps, grid = branch_inputs(el, sensor, math.radians(40.0), settings=st)
        seg = segs[asc == "asc"]
        return (seg, seg.time_frac * pset.nodal_period, fps[asc == "asc"],
                math.radians(40.0), grid.spacing / BINS_PER_CELL)
    if name == "sparse":
        # The 5-sample track of test_sparse_samples_leave_empty_interior_bins.
        el = rv.OrbitElements(a=rv.EARTH.equatorial_radius + 700.0, inc=math.radians(10.0))
        st = EngineSettings(window=86400.0, grid_res=math.radians(0.25), segment_samples=5)
        pset, segs, fps, grid = branch_inputs(el, rv.SensorSpec.elevation(math.radians(10.0)),
                                              0.0, settings=st)
        return (segs[True], segs[True].time_frac * pset.nodal_period, fps[True], 0.0,
                grid.spacing / BINS_PER_CELL)
    lat = math.radians(20.0)
    if name == "one_valid_sample":
        seg = TrackSegment(lat=lat + np.radians([-5.0, 1.0, 5.0]),
                           lon_off=np.array([-0.1, 0.0, 0.1]), time_frac=np.array([-1.0, 0.0, 1.0]))
        return seg, 60.0 * seg.time_frac, _footprint(math.radians(3.0), 0.02), lat, 1e-3
    if name.startswith("power_of_two"):
        # Samples on the target latitude, whole bins apart, each seeing
        # 2 ** k bins.
        k = int(name[-1])
        seg = TrackSegment(lat=np.full(9, lat), lon_off=np.arange(9) * 3.0 - 11.0,
                           time_frac=np.linspace(-0.1, 0.1, 9))
        return seg, 6e3 * seg.time_frac, _footprint(0.1, (2**k - 1) / 2), lat, 1.0
    if name == "times_not_rising":
        # last is the time of the last sample that sees a bin, as painting
        # leaves it, even where that is not the latest time.
        seg, t, fp, lat, bin_width = _lens_inputs("sparse")
        return seg, t[[3, 0, 4, 1, 2]], fp, lat, bin_width
    if name == "no_sample_sees_the_latitude":
        return _point_segment(lat + 0.1), np.zeros(1), _footprint(0.05, 0.05), lat, 1e-3
    assert name == "zero_width"
    return _point_segment(lat), np.zeros(1), _footprint(0.05, 0.0), lat, 1e-3


class TestLensAgainstPainting:
    @pytest.mark.parametrize("name", [
        *(f"{kind}_{e}_{asc}" for kind in ("elevation", "boresight") for e in ("0", "0.02")
          for asc in ("asc", "desc")),
        "sparse", "one_valid_sample", *(f"power_of_two_{k}" for k in range(1, 6)),
        "times_not_rising", "no_sample_sees_the_latitude", "zero_width",
    ])
    def test_fold_equals_painting(self, name):
        # The range fold must leave the bits that painting each sample's
        # bin range in time order leaves.
        args = _lens_inputs(name)
        lens, painted = folded_lens(*args), painted_lens(*args)
        if painted is None:
            assert lens is None
            return
        x_min, x_max, first, last = lens
        assert (x_min, x_max) == painted[:2]
        assert np.array_equal(first, painted[2])
        assert np.array_equal(last, painted[3])
        seen = np.isfinite(first)
        assert np.array_equal(seen, np.isfinite(last))
        if name == "sparse":
            # Holes: unseen bins between seen ones.
            inner = seen[np.argmax(seen):seen.size - np.argmax(seen[::-1])]
            assert not np.all(inner)
        if name.startswith("power_of_two"):
            # Nine ranges of 2 ** k bins, starting 3 bins apart.
            size = 2 ** int(name[-1])
            assert np.count_nonzero(seen) == 8 * min(size, 3) + size


def _seam_orbit(el, lat, st):
    """``el`` turned in RAAN so that its first pass crosses the target
    latitude 0.01 deg east of the grid's seam at -180 deg."""
    first = build_pass_set(el, lat, settings=st).lon[0]
    return replace(el, raan=el.raan - float(first) - math.pi + math.radians(0.01))


_DAY = 86400.0
_FLEET_ORBIT = make_orbit(700.0, 60.0)
_ELEV_10 = rv.SensorSpec.elevation(math.radians(10.0))
_LAT_40 = math.radians(40.0)
_SSO_500 = rv.OrbitElements(
    a=rv.EARTH.equatorial_radius + 500.0,
    inc=rv.sso_inclination(rv.EARTH.equatorial_radius + 500.0),
)
_TILE_CASES = {
    # name: (orbit, sensor, lat, walker, settings, pass filter, least mean n_cand)
    "walker_6_3_2": (
        _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(6, 3, 2),
        EngineSettings(window=2 * _DAY), None, 0,
    ),
    "walker_24_6_0": (
        _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(24, 6, 0),
        EngineSettings(window=_DAY), None, 0,
    ),
    # Each pass reaches 1297 grid points, far more than a tile holds.
    "sso_500km_lat80": (
        _SSO_500, rv.SensorSpec.elevation(math.radians(30.0)), math.radians(80.0),
        rv.WalkerConfig(), EngineSettings(window=2 * _DAY), None, 1200,
    ),
    # 514 grid points: the last tile holds 2.
    "grid_0p7deg": (
        _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(6, 6, 0),
        EngineSettings(window=2 * _DAY, grid_res=math.radians(0.7)), None, 0,
    ),
    "seam_crossing": (
        _seam_orbit(_FLEET_ORBIT, _LAT_40, EngineSettings(window=2 * _DAY)), _ELEV_10,
        _LAT_40, rv.WalkerConfig(), EngineSettings(window=2 * _DAY), None, 0,
    ),
    # Unequal crossing radii: each branch has its own footprint and lens.
    "eccentric_0p02": (
        make_orbit(700.0, 60.0, e=0.02, argp=1.0), _ELEV_10, _LAT_40, rv.WalkerConfig(3, 3, 1),
        EngineSettings(window=2 * _DAY), None, 0,
    ),
    "elevation_0": (
        _FLEET_ORBIT, rv.SensorSpec.elevation(0.0), _LAT_40, rv.WalkerConfig(2, 2, 0),
        EngineSettings(window=2 * _DAY), None, 0,
    ),
    # A footprint that nearly reaches the pole: one pass's candidate run
    # is longer than the 360-point grid and reaches some points twice.
    "run_longer_than_grid": (
        make_orbit(400.0, 80.5), rv.SensorSpec.elevation(math.radians(0.3)),
        math.radians(80.0), rv.WalkerConfig(),
        EngineSettings(window=2 * _DAY, grid_res=math.radians(1.0)), None, 361,
    ),
    "ascending_only": (
        _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(), EngineSettings(window=2 * _DAY),
        lambda pset: pset.ascending, 0,
    ),
    "descending_only": (
        _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(), EngineSettings(window=2 * _DAY),
        lambda pset: ~pset.ascending, 0,
    ),
    "no_passes": (
        _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(), EngineSettings(window=2 * _DAY),
        lambda pset: np.zeros(len(pset), dtype=bool), 0,
    ),
    # No lens on either branch.
    "zero_width_sensor": (
        _FLEET_ORBIT, rv.SensorSpec.boresight(0.0), _LAT_40, rv.WalkerConfig(),
        EngineSettings(window=2 * _DAY), None, 0,
    ),
}


def _canonical_rows(table):
    order = np.lexsort((table.end, table.start, table.point))
    return table.point[order], table.start[order], table.end[order]


class TestTilesAgainstDense:
    def test_point_order_keeps_ties_in_order(self):
        # Eight passes at each ascending epoch, an eighth of a cell apart,
        # share many first visible samples and so many starts, with other
        # ends.  Each point's rows must keep (pass, lap) order among equal
        # starts, as np.lexsort((start, point)) does over the dense block of
        # one branch, whose passes each reach a point at most once.
        st = EngineSettings(window=2 * _DAY, grid_res=math.radians(1.0))
        pset, segs, fps, grid = branch_inputs(_FLEET_ORBIT, _ELEV_10, _LAT_40, settings=st)
        pset = _subset(pset, np.repeat(np.flatnonzero(pset.ascending), 8))
        shift = np.tile(np.arange(8) / 8, len(pset) // 8) * grid.spacing
        pset = replace(pset, lon=wrap_angle(pset.lon + shift))
        tiled = accesses_for_passes(pset, segs, fps, grid, _LAT_40)
        dense, n_cand = dense_access_table(pset, segs, fps, grid, _LAT_40)
        assert np.all(n_cand <= grid.size)
        tie = (np.diff(tiled.point) == 0) & (np.diff(tiled.start) == 0.0)
        assert np.count_nonzero(tie & (np.diff(tiled.end) != 0.0)) > 1000
        for col in ("point", "start", "end"):
            assert np.array_equal(getattr(tiled, col), getattr(dense, col))

    @pytest.mark.parametrize("name", sorted(_TILE_CASES))
    def test_tiled_table_equals_the_dense_table(self, name):
        # Each streamed tile holds TILE_POINTS grid points, each row its
        # point's cells and padding cells (+inf, +inf), in no set order.
        # The tiles and the tiled table must hold the rows of the untiled
        # dense table, the table sorted by (point, start), and both tables
        # and the streamed tiles must give the same report.
        el, sensor, lat, walker, st, select, least_cand = _TILE_CASES[name]
        pset, segs, fps, grid = branch_inputs(el, sensor, lat, walker, st)
        if select is not None:
            pset = _subset(pset, select(pset))
        acc = access_tiles(pset, segs, fps, grid, lat)
        tiles = [acc.build(k) for k in range(acc.count)]
        rows = [min(coverage.TILE_POINTS, grid.size - p0)
                for p0 in range(0, grid.size, coverage.TILE_POINTS)]
        assert [start.shape[0] for start, _ in tiles] == rows
        points, starts, ends = [], [], []
        for k, (start, end) in enumerate(tiles):
            real = start < np.inf
            assert np.array_equal(real, end < np.inf)
            assert np.all(start[~real] == np.inf) and np.all(end[~real] == np.inf)
            points.append(k * coverage.TILE_POINTS + np.nonzero(real)[0])
            starts.append(start[real])
            ends.append(end[real])
        cells = AccessTable(
            point=np.concatenate(points), start=np.concatenate(starts), end=np.concatenate(ends),
            grid_size=grid.size, merge_tol=acc.merge_tol, pass_count=acc.pass_count,
        )
        tiled = accesses_for_passes(pset, segs, fps, grid, lat)
        dense, n_cand = dense_access_table(pset, segs, fps, grid, lat)
        assert np.sum(n_cand) >= least_cand * len(pset)
        assert dense.point.size == tiled.point.size == cells.point.size
        for got, want in zip(_canonical_rows(cells), _canonical_rows(dense)):
            assert np.array_equal(got, want)
        assert np.all(np.diff(tiled.point) >= 0)
        same_point = tiled.point[1:] == tiled.point[:-1]
        assert np.all(np.diff(tiled.start)[same_point] >= 0.0)
        for got, want in zip(_canonical_rows(tiled), _canonical_rows(dense)):
            assert np.array_equal(got, want)
        assert (tiled.merge_tol, tiled.pass_count) == (dense.merge_tol, dense.pass_count)
        report = revisit_stats(dense)
        assert revisit_stats(tiled) == report
        assert tile_stats(replace(acc, build=tiles.__getitem__)) == report
        if name == "seam_crossing":
            # The first pass reaches points on both sides of the seam.
            assert pset.lon[0] == pytest.approx(-math.pi + math.radians(0.01), abs=1e-9)
            first_pass = np.abs(dense.start - pset.epoch[0]) < 0.1 * pset.nodal_period
            assert {0, grid.size - 1} <= set(dense.point[first_pass].tolist())

    def test_passes_at_the_window_edges_are_clipped(self):
        # A tile clips only the passes whose accesses can leave [0, window].
        # Here the first pass crosses at t = 0 and the last at the window's
        # end, so some of their accesses are cut at an edge and some lie
        # wholly outside the window.
        st = EngineSettings(window=2 * _DAY, grid_res=math.radians(1.0))
        pset, segs, fps, grid = branch_inputs(_FLEET_ORBIT, _ELEV_10, _LAT_40, settings=st)
        pset = replace(pset, epoch=np.r_[0.0, pset.epoch[1:-1], st.window])
        dense, _ = dense_access_table(pset, segs, fps, grid, _LAT_40)
        assert np.count_nonzero(dense.start == 0.0) > 10
        assert np.count_nonzero(dense.end == st.window) > 10
        tiled = accesses_for_passes(pset, segs, fps, grid, _LAT_40)
        for got, want in zip(_canonical_rows(tiled), _canonical_rows(dense)):
            assert np.array_equal(got, want)

    def test_run_from_phase_65_inside_a_tile(self):
        # Pass 0's offset 0 lies 63.75 bins past its lens's first bin, so its
        # phase rounds to 64 bins, and offset -1 would read the lens's first
        # bin, which a sample sees.  Its run starts at grid point 100, inside
        # tile 1, so that tile's rows for points 64 to 99 hold its offsets
        # -36 to -1.  None of them is an access of the pass.
        st = EngineSettings(window=2 * _DAY, grid_res=math.radians(1.0))
        pset, segs, fps, grid = branch_inputs(_FLEET_ORBIT, _ELEV_10, _LAT_40, settings=st)
        asc = bool(pset.ascending[0])
        bin_width = grid.spacing / BINS_PER_CELL
        seg = segs[asc]
        x_min, _, first, _ = folded_lens(seg, seg.time_frac * pset.nodal_period, fps[asc],
                                          _LAT_40, bin_width)
        assert first[1] < np.inf
        lam = wrap_angle(100 * grid.spacing - math.pi - x_min - 63.75 * bin_width)
        assert math.ceil((lam + x_min + math.pi) / grid.spacing) == 100
        assert np.rint((100 * grid.spacing - math.pi - lam - x_min) / bin_width) == BINS_PER_CELL
        assert 100 % coverage.TILE_POINTS
        pset = replace(pset, lon=np.r_[lam, pset.lon[1:]])
        dense, _ = dense_access_table(pset, segs, fps, grid, _LAT_40)
        tiled = accesses_for_passes(pset, segs, fps, grid, _LAT_40)
        for got, want in zip(_canonical_rows(tiled), _canonical_rows(dense)):
            assert np.array_equal(got, want)


class TestRunSelection:
    # Each case takes 0.6 to 1.5 s; 24/6/0's 3600 one-row tiles the longest.
    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(_TILE_CASES))
    def test_tiles_equal_the_full_scan(self, name, monkeypatch):
        # A tile takes the laps of only the passes whose runs start in its
        # window, or of every pass where the window covers the grid.  With
        # TILE_CELLS set so that tiles hold 1, 7 and 64 rows, every tile's
        # blocks must be those that the full scan of every pass gives, bit
        # for bit and in the same column order.  Tile 0's window always
        # wraps past the grid's last point.
        el, sensor, lat, walker, st, select, _ = _TILE_CASES[name]
        pset, segs, fps, grid = branch_inputs(el, sensor, lat, walker, st)
        if select is not None:
            pset = _subset(pset, select(pset))
        _, n_cand = dense_access_table(pset, segs, fps, grid, lat)
        row_cells = max(1, -(-int(np.sum(n_cand)) // grid.size))
        for rows in (1, 7, 64):
            monkeypatch.setattr(coverage, "TILE_CELLS", rows * row_cells)
            acc = access_tiles(pset, segs, fps, grid, lat)
            with monkeypatch.context() as m:
                m.setattr(coverage, "_run_selector", full_scan_runs)
                ref = access_tiles(pset, segs, fps, grid, lat)
            assert acc.count == ref.count == -(-grid.size // rows)
            got = [acc.build(k) for k in range(acc.count)]
            want = [ref.build(k) for k in range(ref.count)]
            assert [start.shape[0] for start, _ in got] == [
                min(rows, grid.size - p0) for p0 in range(0, grid.size, rows)]
            # The reduction overwrites a build's ends with the gaps, so no
            # build, of the engine or of `revisit_stats`, may share memory.
            cut = []
            with monkeypatch.context() as m:
                m.setattr(coverage, "tile_stats", lambda acc, **kw: cut.append(acc))
                revisit_stats(accesses_for_passes(pset, segs, fps, grid, lat))
            built = [cut[0].build(k) for k in range(cut[0].count)]
            assert not any(np.may_share_memory(start, end) for start, end in got + built)
            for i in (0, 1):
                assert [tile[i].shape for tile in got] == [tile[i].shape for tile in want]
                assert (np.concatenate([tile[i].ravel() for tile in got]).tobytes()
                        == np.concatenate([tile[i].ravel() for tile in want]).tobytes())

    def test_a_window_that_wraps_past_the_last_point(self):
        # On a 100-point grid, pass 0's run covers points 99 and 0 to 3, so
        # it meets tile [0, 7) from offset 1; pass 1's starts inside it, at
        # point 3.  Passes 2 and 4 end at point 98 and meet only the last
        # tile, [93, 100), where passes 0, 2 and 4 all start.
        run_start = np.array([99, 3, 97, 50, 98, 10])
        n_cand = np.array([5, 4, 2, 5, 1, 5])
        runs = _run_selector(run_start, n_cand, 100)
        ref = full_scan_runs(run_start, n_cand, 100)
        for p0, rows, cols, offsets in [
            (0, 7, [0, 1], [1, -3]),
            (0, 1, [0], [1]),
            (93, 7, [0, 2, 4], [-6, -4, -5]),
            (98, 2, [0, 2, 4], [-1, 1, 0]),
        ]:
            col, j = runs(p0, rows)
            assert col.tolist() == cols and j.tolist() == offsets
            for got, want in zip((col, j), ref(p0, rows)):
                assert np.array_equal(got, want)


def _phase_and_float_bins(pset, segs, fps, grid, lat):
    """Yield (phase, bins) for each branch with a lens.

    ``phase`` is each pass's lens bin at offset 0, computed as in
    `access_tiles`.  ``bins`` has one row per pass.  It holds the float
    form that tiles used to evaluate cell by cell, at every offset
    j < n_cand: rint(((base + j) * spacing - pi - lam - x_min) / bin_width).
    """
    bin_width = grid.spacing / BINS_PER_CELL
    for asc in (True, False):
        seg = segs[asc]
        lens = folded_lens(seg, seg.time_frac * pset.nodal_period, fps[asc], lat, bin_width)
        if lens is None:
            continue
        x_min, x_max, _, _ = lens
        lam = pset.lon[pset.ascending == asc][:, None]
        n_cand = int(math.floor((x_max - x_min) / grid.spacing)) + 2
        base = np.ceil((lam + x_min + math.pi) / grid.spacing).astype(np.int64)
        phase = np.rint((base * grid.spacing - math.pi - lam - x_min) / bin_width)
        j = np.arange(n_cand)
        yield phase, np.rint(((base + j) * grid.spacing - math.pi - lam - x_min) / bin_width)


def _half_bin_lon(pset, segs, fps, grid, lat):
    """A longitude for pass 0 that keeps its base and puts its phase
    argument exactly on a half bin m + 1/2, with m even.

    It is the first exact tie found within 64 ulps of each even m.
    """
    asc = bool(pset.ascending[0])
    bin_width = grid.spacing / BINS_PER_CELL
    seg = segs[asc]
    x_min = folded_lens(seg, seg.time_frac * pset.nodal_period, fps[asc], lat, bin_width)[0]
    base = math.ceil((pset.lon[0] + x_min + math.pi) / grid.spacing)
    for m in range(0, BINS_PER_CELL, 2):
        near = base * grid.spacing - math.pi - x_min - (m + 0.5) * bin_width
        for lam in near + math.ulp(near) * np.arange(-64, 65):
            tie = (base * grid.spacing - math.pi - lam - x_min) / bin_width == m + 0.5
            if tie and math.ceil((lam + x_min + math.pi) / grid.spacing) == base:
                return float(lam)
    raise AssertionError("no longitude puts the phase argument on a half bin")


_ELEV_30 = rv.SensorSpec.elevation(math.radians(30.0))
_PHASE_CASES = {
    # name: (orbit, sensor, lat, walker)
    "sso_500km_lat0": (_SSO_500, _ELEV_30, 0.0, rv.WalkerConfig()),
    "sso_500km_lat40": (_SSO_500, _ELEV_30, _LAT_40, rv.WalkerConfig()),
    "sso_500km_lat70": (_SSO_500, _ELEV_30, math.radians(70.0), rv.WalkerConfig()),
    "walker_6_6_0": (_FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(6, 6, 0)),
    "eccentric_0p02": (
        make_orbit(700.0, 60.0, e=0.02, argp=1.0), _ELEV_10, _LAT_40, rv.WalkerConfig(3, 3, 1),
    ),
}


class TestPassPhase:
    @pytest.mark.parametrize("res_deg", [1.0, 0.1])
    @pytest.mark.parametrize("name", sorted(_PHASE_CASES))
    def test_phase_plus_whole_cells_is_the_float_bin(self, name, res_deg):
        # A tile reads offset j's lens bin as phase + BINS_PER_CELL * j, an
        # integer per pass, where it once evaluated the float form per cell.
        # The two must agree at every (pass, j < n_cand) of a 60-day window.
        el, sensor, lat, walker = _PHASE_CASES[name]
        st = EngineSettings(grid_res=math.radians(res_deg))
        pset, segs, fps, grid = branch_inputs(el, sensor, lat, walker, st)
        pairs = 0
        for phase, bins in _phase_and_float_bins(pset, segs, fps, grid, lat):
            assert np.array_equal(phase + BINS_PER_CELL * np.arange(bins.shape[1]), bins)
            pairs += bins.size
        assert pairs > 20000

    def test_half_bin_phase_rounds_every_offset_like_offset_0(self):
        # BINS_PER_CELL (64) is even, so when offset 0's phase argument is
        # exactly m + 1/2 with m even, the offset j argument is exactly
        # m + 1/2 + 64 j, also with an even integer part.  Rounding half to
        # even then takes offset 0 to m and every offset j to m + 64 j, in
        # the float form and in phase + 64 j alike.  But the float form
        # computes the argument at j > 0 with its own rounding error, about
        # 1e-12 of a bin, which breaks the tie either way.  On this pass it
        # keeps the tie at 12 of 67 offsets, and 11 of its 65 accesses
        # then move by one track sample.  So the pass's tiles are compared
        # with the float form just below the tie, which rounds every
        # offset down.  Just above the tie, the table differs, which shows
        # that the tie decides accesses.
        st = EngineSettings(window=2 * _DAY, grid_res=math.radians(1.0))
        pset, segs, fps, grid = branch_inputs(_FLEET_ORBIT, _ELEV_10, _LAT_40, settings=st)
        lam = _half_bin_lon(pset, segs, fps, grid, _LAT_40)

        def dense(lon0):
            moved = replace(pset, lon=np.r_[lon0, pset.lon[1:]])
            return _canonical_rows(dense_access_table(moved, segs, fps, grid, _LAT_40)[0])

        at_tie = replace(pset, lon=np.r_[lam, pset.lon[1:]])
        tiled = _canonical_rows(accesses_for_passes(at_tie, segs, fps, grid, _LAT_40))
        # 1e-12 rad is about 4e-9 of a bin, far above the float form's error.
        below, above = dense(lam + 1e-12), dense(lam - 1e-12)
        assert all(np.array_equal(got, want) for got, want in zip(tiled, below))
        assert not all(np.array_equal(got, want) for got, want in zip(tiled, above))


def _engine_table(el, sensor, lat, walker=rv.WalkerConfig(), settings=EngineSettings()):
    """The whole access table that `analyze` reduces tile by tile."""
    return accesses_for_passes(*branch_inputs(el, sensor, lat, walker, settings), lat)


def _table(point, start, end, n_grid=360, merge_tol=1.0, passes=0):
    point = np.asarray(point, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.lexsort((start, point))
    return AccessTable(
        point=point[order], start=start[order], end=end[order], grid_size=n_grid,
        merge_tol=merge_tol, pass_count=passes,
    )


# Rows per point of the sparse table: a few far-apart points hold 1 to 700
# rows, so its tiles are padded unevenly and whole tiles are empty.
_SPARSE_COUNTS = {0: 700, 63: 1, 64: 2, 1500: 40, 3599: 300}


def _sparse_table() -> AccessTable:
    rng = np.random.default_rng(11)
    point = np.repeat(list(_SPARSE_COUNTS), list(_SPARSE_COUNTS.values()))
    start = rng.uniform(0.0, 1e6, point.size)
    return _table(point, start, start + rng.uniform(0.0, 2e3, point.size), n_grid=3600,
                  merge_tol=100.0)


class TestRevisitStats:
    def test_single_gap(self):
        t = _table([5, 5], [0.0, 10 * 3600.0], [3600.0, 11 * 3600.0])
        rep = revisit_stats(t)
        assert rep.mrt_hours == pytest.approx(9.0, abs=1e-12)
        assert rep.art_hours == pytest.approx(9.0, abs=1e-12)
        assert rep.gap_count == 1

    def test_boundary_gaps_excluded(self):
        # Only the inter-access gap counts; window edges contribute nothing.
        t = _table([0, 0], [40 * 3600.0, 60 * 3600.0], [41 * 3600.0, 61 * 3600.0])
        rep = revisit_stats(t)
        assert rep.mrt_hours == pytest.approx(19.0, abs=1e-12)
        assert rep.gap_count == 1

    def test_empty_table(self):
        t = _table([], [], [])
        rep = revisit_stats(t)
        assert rep.mrt_hours is None
        assert rep.art_hours is None
        assert rep.coverage_fraction == 0.0
        assert rep.uncovered_count == 360
        assert rep.window_exceeded

    def test_merge_tolerance_joins_abutting(self):
        tol = 10.0
        t = _table([0, 0, 0], [0.0, 3605.0, 40_000.0], [3600.0, 7200.0, 41_000.0], merge_tol=tol)
        rep = revisit_stats(t)
        # First two intervals abut within tolerance: one merged access.
        assert rep.gap_count == 1
        assert rep.mrt_hours == pytest.approx((40_000.0 - 7200.0) / 3600.0, abs=1e-12)

    def test_overlapping_intervals_merge(self):
        t = _table([0, 0, 0], [0.0, 1800.0, 50_000.0], [3600.0, 5400.0, 51_000.0])
        rep = revisit_stats(t)
        assert rep.gap_count == 1
        assert rep.mrt_hours == pytest.approx((50_000.0 - 5400.0) / 3600.0, abs=1e-12)

    def test_unsorted_interval_containment(self):
        # A long interval followed by one it fully contains: no phantom gap.
        t = _table([0, 0, 0], [0.0, 100.0, 50_000.0], [10_000.0, 200.0, 50_100.0])
        rep = revisit_stats(t)
        assert rep.gap_count == 1
        assert rep.mrt_hours == pytest.approx((50_000.0 - 10_000.0) / 3600.0, abs=1e-9)

    def test_coverage_and_ttc(self):
        n = 4
        pts, ss, ee = [], [], []
        for p in range(n):
            pts += [p, p]
            ss += [p * 3600.0, 50_000.0 + p]
            ee += [p * 3600.0 + 60.0, 50_060.0 + p]
        t = _table(pts, ss, ee, n_grid=n)
        rep = revisit_stats(t)
        assert rep.coverage_fraction == 1.0
        assert rep.uncovered_count == 0
        assert rep.time_to_full_coverage_hours == pytest.approx(3.0, abs=1e-12)
        assert not rep.window_exceeded

    def test_partial_coverage_has_no_ttc(self):
        t = _table([0, 0], [0.0, 10_000.0], [100.0, 10_100.0], n_grid=8)
        rep = revisit_stats(t)
        assert rep.coverage_fraction == pytest.approx(1 / 8)
        assert rep.time_to_full_coverage_hours is None
        assert rep.uncovered_count == 7
        assert rep.window_exceeded

    def test_gaps_are_exact_differences_of_table_times(self):
        # Over a 60-day window at 0.1 deg, a running max of
        # end + point * (window + 1) rounds the ends of point 3599 by up to
        # 1.9 us.  Each gap must be the exact difference of two table times,
        # as a merge of each point's rows alone gives it.  ART is the fsum
        # of each point's gap sum, summed by np.add.reduceat as the engine
        # sums it: np.sum adds some gaps in another order.  A second, sparse
        # table pads its tiles unevenly: a few far-apart points hold 1 to
        # 700 rows, and whole tiles are empty.
        args = (make_orbit(700.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                math.radians(40))
        table = _engine_table(*args)
        assert table.grid_size == 3600
        assert analyze(*args) == revisit_stats(table)
        for table in (table, _sparse_table()):
            point, gaps = point_by_point_gaps(table)
            point_sums = np.add.reduceat(gaps, np.flatnonzero(np.r_[True, np.diff(point) != 0]))
            rep = revisit_stats(table)
            assert rep.gap_count == gaps.size
            assert rep.mrt_hours == float(np.max(gaps)) / 3600.0
            assert rep.art_hours == math.fsum(point_sums.tolist()) / gaps.size / 3600.0
        assert rep.uncovered_count == 3600 - len(_SPARSE_COUNTS)

    def test_art_not_above_mrt(self):
        t = _table(
            [0, 0, 0, 1, 1], [0.0, 10_000.0, 30_000.0, 0.0, 5_000.0],
            [100.0, 10_100.0, 30_100.0, 100.0, 5_100.0],
        )
        rep = revisit_stats(t)
        assert rep.art_hours <= rep.mrt_hours

    @pytest.mark.parametrize("field, value, match", [
        ("grid_size", 0, "grid_size"),
        ("grid_size", -1, "grid_size"),
        ("grid_size", 360.0, "grid_size"),
        ("grid_size", True, "grid_size"),
        ("point", [0, 360], "points"),
        ("point", [-1, 0], "points"),
        ("point", [1, 0], "points"),
        ("point", np.zeros(2), "points"),
        ("start", [0.0, math.nan], "finite"),
        ("start", [-math.inf, 100.0], "finite"),
        ("end", [50.0, math.inf], "finite"),
        ("end", [50.0, math.nan], "finite"),
        # A gap of 50 s by a running max of the ends, 80 s by the ends
        # sorted on their own.
        ("end", [50.0, 20.0], "end before it starts"),
        ("end", [50.0], "one entry a row"),
        ("merge_tol", -1.0, "merge_tol"),
        ("merge_tol", math.nan, "merge_tol"),
    ])
    def test_table_breaking_the_contract_is_named_config_error(self, field, value, match):
        # Points at or above grid_size used to be dropped without a word,
        # and grid_size 0 raised a bare ValueError.
        good = _table([0, 0], [0.0, 100.0], [50.0, 200.0])
        assert revisit_stats(good).gap_count == 1
        if isinstance(value, list):
            value = np.array(value, dtype=getattr(good, field).dtype)
        with pytest.raises(rv.ConfigError, match=match):
            revisit_stats(replace(good, **{field: value}))


class TestEngineTable:
    def test_deterministic(self):
        el = make_orbit(600.0, 55.0)
        sensor = rv.SensorSpec.elevation(math.radians(15))
        st = EngineSettings(window=3 * 86400.0, grid_res=math.radians(1.0))
        t1 = _engine_table(el, sensor, math.radians(20), settings=st)
        t2 = _engine_table(el, sensor, math.radians(20), settings=st)
        assert np.array_equal(t1.point, t2.point)
        assert np.array_equal(t1.start, t2.start)
        assert np.array_equal(t1.end, t2.end)

    def test_intervals_inside_window_and_ordered(self):
        el = make_orbit(600.0, 55.0)
        sensor = rv.SensorSpec.elevation(math.radians(15))
        st = EngineSettings(window=3 * 86400.0, grid_res=math.radians(1.0))
        tab = _engine_table(el, sensor, math.radians(20), settings=st)
        assert np.all(tab.start >= 0.0)
        assert np.all(tab.end <= st.window)
        assert np.all(tab.start <= tab.end)
        key = tab.point * (st.window + 1) + tab.start
        assert np.all(np.diff(key) >= 0.0)

    def test_rotation_by_whole_cells_preserves_mrt(self):
        sensor = rv.SensorSpec.elevation(math.radians(15))
        st = EngineSettings(window=4 * 86400.0, grid_res=math.radians(1.0))
        el0 = make_orbit(600.0, 55.0)
        rep0 = analyze(el0, sensor, math.radians(20), settings=st)
        shifted = rv.OrbitElements(a=el0.a, inc=el0.inc, raan=7 * st.grid_res * (360 / 360))
        rep1 = analyze(shifted, sensor, math.radians(20), settings=st)
        assert rep1.mrt_hours == pytest.approx(rep0.mrt_hours, abs=1e-6)
        assert rep1.coverage_fraction == rep0.coverage_fraction

    def test_arbitrary_rotation_bounded_change(self):
        sensor = rv.SensorSpec.elevation(math.radians(15))
        st = EngineSettings(window=4 * 86400.0, grid_res=math.radians(1.0))
        el0 = make_orbit(600.0, 55.0)
        rep0 = analyze(el0, sensor, math.radians(20), settings=st)
        el1 = rv.OrbitElements(a=el0.a, inc=el0.inc, raan=0.4 * st.grid_res)
        rep1 = analyze(el1, sensor, math.radians(20), settings=st)
        # A sub-cell shift can change which passes catch a cell edge; the
        # effect is bounded by one cell-crossing access duration.
        assert abs(rep1.mrt_hours - rep0.mrt_hours) < 0.25

    def test_analyze_peak_stays_below_half_the_table(self):
        # analyze() folds the access table into running statistics tile by
        # tile and holds no array sized by the run: its peak allocation
        # stays below a quarter of the table's bytes.
        args = (make_orbit(700.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                math.radians(40), rv.WalkerConfig(6, 6, 0), EngineSettings(window=10 * 86400.0))
        table = _engine_table(*args)
        table_bytes = table.point.nbytes + table.start.nbytes + table.end.nbytes
        assert table.point.size > 1_000_000
        del table
        tracemalloc.start()
        try:
            analyze(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * table_bytes

    def test_threaded_peak_grows_by_one_tile_per_thread(self):
        # Each thread holds the one tile it reduces, so the peak on four
        # threads stays below four times the one-thread peak, and still
        # below a quarter of the table.
        args = (make_orbit(700.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                math.radians(40), rv.WalkerConfig(6, 6, 0), EngineSettings(window=10 * 86400.0))
        table = _engine_table(*args)
        table_bytes = table.point.nbytes + table.start.nbytes + table.end.nbytes
        del table
        peaks = {}
        for threads in (1, 4):
            tracemalloc.start()
            try:
                analyze(*args, threads=threads)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[4] < 4 * peaks[1]
        assert peaks[4] < 0.25 * table_bytes

    @pytest.mark.slow
    def test_peak_grows_little_with_the_fleet(self, monkeypatch):
        # Tiles are cut by a cell budget, and a tile meets only the passes
        # that reach it, so on two threads a 96/12/1 fleet, with four times
        # the passes and cells of 24/6/0, peaks within half again of it.
        monkeypatch.setattr(coverage, "TILE_CELLS", 2**15)
        st = EngineSettings(window=5 * _DAY)
        peaks = []
        for walker in (rv.WalkerConfig(24, 6, 0), rv.WalkerConfig(96, 12, 1)):
            tracemalloc.start()
            try:
                analyze(_FLEET_ORBIT, _ELEV_10, _LAT_40, walker, st, threads=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_zero_width_sensor_covers_nothing(self):
        el = make_orbit(600.0, 55.0)
        sensor = rv.SensorSpec.boresight(0.0)
        st = EngineSettings(window=1 * 86400.0, grid_res=math.radians(1.0))
        rep = analyze(el, sensor, math.radians(20), settings=st)
        assert rep.coverage_fraction == 0.0
        assert rep.mrt_hours is None

    @pytest.mark.parametrize("half_cone_deg, clamped", [(80.0, True), (30.0, False)])
    def test_clamp_flag_reaches_every_report(self, half_cone_deg, clamped):
        # From 500 km over the equator an 80 deg cone reaches past the
        # horizon (`test_sensor.py`'s clamped case); a 30 deg one does not.
        # The tiles take the flag from their footprints, the joined table's
        # report takes it as an argument, and the oracle, which tests the
        # cone and the horizon point by point, clamps nothing.
        el = make_orbit(500.0, 60.0)
        sensor = rv.SensorSpec.boresight(math.radians(half_cone_deg))
        st = EngineSettings(window=86400.0, grid_res=math.radians(1.0))
        inputs = branch_inputs(el, sensor, 0.0, settings=st)
        rep = analyze(el, sensor, 0.0, settings=st)
        assert access_tiles(*inputs, 0.0).clamped is rep.clamped is clamped
        assert revisit_stats(accesses_for_passes(*inputs, 0.0), clamped=clamped) == rep
        assert rv.oracle_analyze(el, sensor, 0.0, settings=st).clamped is False


# Six 1-degree tiles of about 38 000 cells each, from a 6/6/0 fleet.
_MULTI_TILE_CASE = (
    _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(6, 6, 0),
    EngineSettings(window=10 * _DAY, grid_res=math.radians(1.0)),
)


class TestThreadedReduction:
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_threads_give_the_serial_report(self, threads, monkeypatch):
        # No partial depends on the order the tiles finish in, so a
        # reduction on any number of threads, here up to more threads than
        # tiles and with thread switches forced often, gives the serial
        # report bit for bit.
        monkeypatch.setattr(coverage, "usable_cores", lambda: 1)
        serial = analyze(*_MULTI_TILE_CASE)
        assert serial.gap_count > 1000 and serial.coverage_fraction == 1.0
        sparse = _sparse_table()
        sparse_serial = revisit_stats(sparse)
        monkeypatch.setattr(coverage, "usable_cores", lambda: threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert analyze(*_MULTI_TILE_CASE) == serial
            assert revisit_stats(sparse) == sparse_serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_gap_sums_add_in_point_order(self, threads):
        # 2**53 + 1 rounds back to 2**53, so a running sum from point 0 on
        # absorbs each later point's 1 s.  The points' gap sums are added
        # exactly, whether the five points share one tile or have one each.
        # Columns of padding alone add no gap: past a row's last interval
        # its raw gaps are inf - end = inf, then inf - inf = NaN, so a block
        # padded with three more +inf columns gives the same five partials.
        gaps = np.array([[2.0**53], [1.0], [1.0], [1.0], [1.0]])
        start = np.hstack([np.zeros((5, 1)), gaps])
        padded = np.hstack([start, np.full((5, 3), np.inf)])

        def tiles(points, block=start):
            def build(k):
                # Two new arrays: the reduction writes the gaps over the ends.
                rows = slice(k * points, (k + 1) * points)
                return block[rows].copy(), block[rows].copy()

            return AccessTiles(build=build, count=5 // points, grid_size=5, merge_tol=0.0,
                               pass_count=10, clamped=False)

        for points in (5, 1):
            report = tile_stats(tiles(points), threads=threads)
            assert report.gap_count == 5 and report.coverage_fraction == 1.0
            assert report.art_hours == (2.0**53 + 4.0) / 5 / 3600.0
            assert tile_stats(tiles(points, padded), threads=threads) == report
            for k in range(5 // points):
                want = _tile_partials(tiles(points), k)
                got = _tile_partials(tiles(points, padded), k)
                assert np.array_equal(got[1], want[1])
                assert got[:1] + got[2:] == want[:1] + want[2:]

    @pytest.mark.slow
    def test_no_report_depends_on_the_tile_size_or_the_thread_count(self, monkeypatch):
        # One point a tile, 7, the default 64 and the whole grid in one
        # tile, and tiles cut by a budget of 3000 cells (9 points of the
        # engine's mean row, 4 of the sparse table's widest), each on 1, 2
        # and 5 threads: the engine, `revisit_stats` of its joined table and
        # `revisit_stats` of the unevenly padded sparse table each give one
        # report.
        joined = _engine_table(*_MULTI_TILE_CASE)
        sparse = _sparse_table()
        engine_reports, sparse_reports = set(), set()
        sizes = [(p, coverage.TILE_CELLS) for p in (1, 7, 64, None)]
        sizes.append((64, 3000))
        for tile_points, tile_cells in sizes:
            monkeypatch.setattr(coverage, "TILE_CELLS", tile_cells)
            for threads in (1, 2, 5):
                monkeypatch.setattr(coverage, "usable_cores", lambda: threads)
                monkeypatch.setattr(coverage, "TILE_POINTS", tile_points or joined.grid_size)
                engine_reports.add(analyze(*_MULTI_TILE_CASE))
                engine_reports.add(revisit_stats(joined))
                monkeypatch.setattr(coverage, "TILE_POINTS", tile_points or sparse.grid_size)
                sparse_reports.add(revisit_stats(sparse))
        assert len(engine_reports) == 1 and len(sparse_reports) == 1
        (report,) = engine_reports
        assert report.gap_count > 1000 and report.coverage_fraction == 1.0

    def test_stats_blocks_are_cut_by_the_cell_budget(self, monkeypatch):
        # The sparse table's widest row holds point 0's 700 intervals.  With
        # a budget of 4096 cells, `revisit_stats` cuts it every 5 points, so
        # no padded block holds more than 4096 cells; with a budget below
        # one row, every point is a block of its own.
        sparse = _sparse_table()
        report = revisit_stats(sparse)
        tile_stats_of = coverage.tile_stats
        blocks = []

        def recording_tile_stats(acc, **kwargs):
            def build(k):
                start, end = acc.build(k)
                blocks.append(start.shape)
                return start, end

            return tile_stats_of(replace(acc, build=build), **kwargs)

        monkeypatch.setattr(coverage, "tile_stats", recording_tile_stats)
        for tile_cells, rows in ((4096, 5), (100, 1)):
            monkeypatch.setattr(coverage, "TILE_CELLS", tile_cells)
            blocks.clear()
            assert revisit_stats(sparse) == report
            assert len(blocks) == -(-sparse.grid_size // rows)
            assert {shape[0] for shape in blocks} == {rows}
            assert max(a * b for a, b in blocks) <= max(tile_cells, 700)

    def test_tile_error_comes_out_of_analyze(self, monkeypatch):
        # An error raised on a worker thread reaches the caller as itself,
        # and the pool's threads are gone when analyze() returns.
        class TileError(Exception):
            pass

        build_tiles = engine.access_tiles

        def failing_tiles(*args, **kwargs):
            acc = build_tiles(*args, **kwargs)

            def build(k):
                if k == 3:
                    raise TileError(k)
                return acc.build(k)

            return replace(acc, build=build)

        monkeypatch.setattr(engine, "access_tiles", failing_tiles)
        before = threading.active_count()
        with pytest.raises(TileError, match="^3$"):
            analyze(*_MULTI_TILE_CASE, threads=4)
        assert threading.active_count() == before


class TestBadEngineInput:
    @pytest.mark.parametrize("field, value", [
        ("window", math.inf), ("window", math.nan), ("window", 0.0), ("window", 1e12),
        ("grid_res", math.nan), ("grid_res", -0.01), ("grid_res", math.radians(2)),
        ("grid_res", 1e-9),
        ("segment_samples", 2), ("segment_samples", 10.5), ("segment_samples", True),
        ("segment_samples", engine.MAX_SEGMENT_SAMPLES + 1),
    ])
    def test_bad_setting_is_named_config_error(self, field, value):
        # Library callers get a ConfigError naming the field, not an
        # OverflowError deep in the pass comb, a silent 0% coverage, or a
        # window, grid or track segment too large to allocate.
        with pytest.raises(rv.ConfigError, match=field):
            EngineSettings(**{field: value})

    def test_footprint_scale_is_not_a_setting(self):
        with pytest.raises(TypeError, match="footprint_scale"):
            EngineSettings(footprint_scale=1.0)

    _MIN_RES = math.radians(coverage.MIN_GRID_RES_DEG)
    _MAX_RES = coverage.MAX_GRID_RESOLUTION

    @pytest.mark.parametrize("res, taken", [
        (_MIN_RES, True), (np.nextafter(_MIN_RES, 0.0), False),
        (_MAX_RES, True), (np.nextafter(_MAX_RES, 1.0), False), (_MAX_RES + 5e-16, False),
    ])
    def test_settings_take_the_grid_resolutions_that_build_grid_takes(self, res, taken):
        # The settings call the grid's own bound, so each resolution is
        # taken or refused by both, 5e-16 rad above 1 deg too.
        for call, name in ((lambda: EngineSettings(grid_res=res), "grid_res"),
                           (lambda: build_grid(res), "grid resolution")):
            if taken:
                call()
            else:
                with pytest.raises(rv.ConfigError, match=name):
                    call()

    @pytest.mark.parametrize("bins", [0, -64, 63, True, 64.0])
    def test_accesses_for_passes_refuses_another_lens_resolution(self, bins):
        st = EngineSettings(window=86400.0, grid_res=math.radians(1.0))
        inputs = branch_inputs(_FLEET_ORBIT, _ELEV_10, _LAT_40, settings=st)
        with pytest.raises(rv.ConfigError, match=f"bins_per_cell must be {BINS_PER_CELL}"):
            accesses_for_passes(*inputs, _LAT_40, bins)

    def test_orbit_below_the_surface_at_the_latitude_is_named_config_error(self):
        # Perigee clears the polar radius, so OrbitElements takes the orbit,
        # but not the equatorial surface under the target latitude.
        el = rv.OrbitElements(a=6370.0, inc=math.radians(50))
        st = EngineSettings(window=86400.0, grid_res=math.radians(1.0))
        with pytest.raises(rv.ConfigError, match=r"6370\.000 km.*6378\.137 km.*latitude 0\.00"):
            analyze(el, _ELEV_10, 0.0, settings=st)

    @pytest.mark.parametrize("lat", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("run", [analyze, rv.oracle_analyze], ids=["engine", "oracle"])
    def test_non_finite_latitude_is_named_config_error(self, run, lat):
        st = EngineSettings(window=86400.0, grid_res=math.radians(1.0))
        with pytest.raises(rv.ConfigError, match="latitude"):
            run(make_orbit(700.0, 60.0), _ELEV_10, lat, settings=st)

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True])
    def test_bad_thread_count_is_named_config_error(self, threads):
        st = EngineSettings(window=86400.0, grid_res=math.radians(1.0))
        with pytest.raises(rv.ConfigError, match="threads"):
            analyze(make_orbit(700.0, 60.0), _ELEV_10, 0.3, settings=st, threads=threads)

    @pytest.mark.parametrize("k", [-1, 6, 2.5, True, np.int64(-1)])
    def test_bad_tile_index_is_named_config_error(self, k):
        # A 360-point grid has tiles 0 to 5.  Tile -1 was once read as a
        # tile of other points' cells, and 6 and 2.5 raised a bare IndexError.
        st = EngineSettings(window=86400.0, grid_res=math.radians(1.0))
        pset, segs, fps, grid = branch_inputs(_FLEET_ORBIT, _ELEV_10, _LAT_40, settings=st)
        acc = access_tiles(pset, segs, fps, grid, _LAT_40)
        assert acc.count == 6
        assert acc.build(np.int64(5))[0].shape[0] == 360 - 5 * coverage.TILE_POINTS
        with pytest.raises(rv.ConfigError, match=r"tile index .*\[0, 6\)"):
            acc.build(k)
