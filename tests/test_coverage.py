import math
import sys
import threading
import time
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
    LongitudeGrid,
    _branch_lens,
    access_tiles,
    accesses_for_passes,
    build_grid,
    revisit_stats,
    tile_stats,
)
from revisit.engine import EngineSettings, access_table, analyze, build_pass_set
from revisit.passes import (
    TrackSegment,
    ground_track_segment,
    ground_track_shift,
    nodal_period,
    raan_drift_rate,
    wrap_angle,
)
from revisit.sensor import FootprintAtLatitude, radius_at_latitude, resolve_footprint

from conftest import make_orbit
from reference_access import (
    dense_access_table,
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

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.radians(1.5)])
    def test_rejects_bad_resolution(self, bad):
        with pytest.raises(ValueError):
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


def _engine_inputs(el, sensor, lat, st, walker=rv.WalkerConfig()):
    """Pass set, segments by branch, footprints by branch and grid of one
    configuration, as `engine.access_table` builds them."""
    grid = build_grid(st.grid_res)
    pset = build_pass_set(el, lat, walker, settings=st)
    _, _, r_asc, r_desc = radius_at_latitude(el, lat)
    fps = {
        True: resolve_footprint(sensor, r_asc, lat),
        False: resolve_footprint(sensor, r_desc, lat),
    }
    segs = {
        asc: ground_track_segment(
            el, lat, pset.shift_per_rev, st.segment_samples,
            reach=fps[asc].ground_range, ascending=asc,
        )
        for asc in (True, False)
    }
    return pset, segs, fps, grid


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
    pset, segs, fps, grid = _engine_inputs(el, sensor, lat, st)
    for asc in (True, False):
        branch = _subset(pset, pset.ascending == asc)
        table = accesses_for_passes(branch, segs, fps, grid, lat, st.bins_per_cell)
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
    dx = grid.spacing / st.bins_per_cell
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
    """(segment, times, footprint, lat, bin_width) of one `_branch_lens` case."""
    if name.startswith(("elevation", "boresight")):
        kind, e, asc = name.split("_")
        sensor = (rv.SensorSpec.elevation(math.radians(10.0)) if kind == "elevation"
                  else rv.SensorSpec.boresight(math.radians(30.0)))
        el = make_orbit(700.0, 60.0, e=float(e), argp=1.0)
        st = EngineSettings(window=86400.0, segment_samples=1001)
        pset, segs, fps, grid = _engine_inputs(el, sensor, math.radians(40.0), st)
        seg = segs[asc == "asc"]
        return (seg, seg.time_frac * pset.nodal_period, fps[asc == "asc"],
                math.radians(40.0), grid.spacing / BINS_PER_CELL)
    if name == "sparse":
        # The 5-sample track of test_sparse_samples_leave_empty_interior_bins.
        el = rv.OrbitElements(a=rv.EARTH.equatorial_radius + 700.0, inc=math.radians(10.0))
        st = EngineSettings(window=86400.0, grid_res=math.radians(0.25), segment_samples=5)
        pset, segs, fps, grid = _engine_inputs(el, rv.SensorSpec.elevation(math.radians(10.0)),
                                               0.0, st)
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
        lens, painted = _branch_lens(*args), painted_lens(*args)
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
        # ends.  Each point's rows must keep (lap, pass) order among equal
        # starts, as np.lexsort((start, point)) does over the dense block of
        # one branch, whose passes each reach a point at most once.
        st = EngineSettings(window=2 * _DAY, grid_res=math.radians(1.0))
        pset, segs, fps, grid = _engine_inputs(_FLEET_ORBIT, _ELEV_10, _LAT_40, st)
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
        # Each streamed tile holds TILE_POINTS grid points, each row sorted
        # with its padding last.  The tiled table must hold the rows of the
        # untiled dense table, sorted by (point, start), and both tables
        # and the streamed tiles must give the same report.
        el, sensor, lat, walker, st, select, least_cand = _TILE_CASES[name]
        pset, segs, fps, grid = _engine_inputs(el, sensor, lat, st, walker)
        if select is not None:
            pset = _subset(pset, select(pset))
        acc = access_tiles(pset, segs, fps, grid, lat)
        tiles = [acc.build(k) for k in range(acc.count)]
        rows = [min(coverage.TILE_POINTS, grid.size - p0)
                for p0 in range(0, grid.size, coverage.TILE_POINTS)]
        assert [start.shape[0] for start, _ in tiles] == rows
        n_real = 0
        for start, end in tiles:
            # Sorted rows, with the +inf starts of the padding last.
            assert np.all(start[:, :-1] <= start[:, 1:])
            assert np.array_equal(start < np.inf, end > -np.inf)
            n_real += np.count_nonzero(start < np.inf)
        tiled = accesses_for_passes(pset, segs, fps, grid, lat)
        dense, n_cand = dense_access_table(pset, segs, fps, grid, lat)
        assert np.sum(n_cand) >= least_cand * len(pset)
        assert dense.point.size == tiled.point.size == n_real
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


def _table(point, start, end, n_grid=360, window=100 * 3600.0, merge_tol=1.0, passes=0):
    grid = LongitudeGrid(
        spacing=2 * math.pi / n_grid, lon=-math.pi + 2 * math.pi / n_grid * np.arange(n_grid)
    )
    point = np.asarray(point, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.lexsort((start, point))
    return AccessTable(
        point=point[order], start=start[order], end=end[order], grid=grid,
        window=window, merge_tol=merge_tol, pass_count=passes,
    )


# Rows per point of the sparse table: a few far-apart points hold 1 to 700
# rows, so its tiles are padded unevenly and whole tiles are empty.
_SPARSE_COUNTS = {0: 700, 63: 1, 64: 2, 1500: 40, 3599: 300}


def _sparse_table() -> AccessTable:
    rng = np.random.default_rng(11)
    point = np.repeat(list(_SPARSE_COUNTS), list(_SPARSE_COUNTS.values()))
    start = rng.uniform(0.0, 1e6, point.size)
    return _table(point, start, start + rng.uniform(0.0, 2e3, point.size), n_grid=3600,
                  window=1e6 + 2e3, merge_tol=100.0)


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
        # as a merge of each point's rows alone gives it.  ART adds each
        # tile's gap sum in tile order.  A second, sparse table pads its
        # tiles unevenly: a few far-apart points hold 1 to 700 rows, and
        # whole tiles are empty.
        args = (make_orbit(700.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                math.radians(40))
        table, _ = access_table(*args)
        assert table.window == 60 * 86400.0 and table.grid.size == 3600
        assert analyze(*args) == revisit_stats(table)
        for table in (table, _sparse_table()):
            point, gaps = point_by_point_gaps(table)
            tile = point // coverage.TILE_POINTS
            n_tiles = -(-table.grid.size // coverage.TILE_POINTS)
            tile_sums = [float(np.sum(gaps[tile == k])) for k in range(n_tiles)]
            rep = revisit_stats(table)
            assert rep.gap_count == gaps.size
            assert rep.mrt_hours == float(np.max(gaps)) / 3600.0
            assert rep.art_hours == sum(tile_sums) / gaps.size / 3600.0
        assert rep.uncovered_count == 3600 - len(_SPARSE_COUNTS)

    def test_art_not_above_mrt(self):
        t = _table(
            [0, 0, 0, 1, 1], [0.0, 10_000.0, 30_000.0, 0.0, 5_000.0],
            [100.0, 10_100.0, 30_100.0, 100.0, 5_100.0],
        )
        rep = revisit_stats(t)
        assert rep.art_hours <= rep.mrt_hours


class TestEngineTable:
    def test_deterministic(self):
        el = make_orbit(600.0, 55.0)
        sensor = rv.SensorSpec.elevation(math.radians(15))
        st = EngineSettings(window=3 * 86400.0, grid_res=math.radians(1.0))
        t1, _ = access_table(el, sensor, math.radians(20), settings=st)
        t2, _ = access_table(el, sensor, math.radians(20), settings=st)
        assert np.array_equal(t1.point, t2.point)
        assert np.array_equal(t1.start, t2.start)
        assert np.array_equal(t1.end, t2.end)

    def test_intervals_inside_window_and_ordered(self):
        el = make_orbit(600.0, 55.0)
        sensor = rv.SensorSpec.elevation(math.radians(15))
        st = EngineSettings(window=3 * 86400.0, grid_res=math.radians(1.0))
        tab, _ = access_table(el, sensor, math.radians(20), settings=st)
        assert np.all(tab.start >= 0.0)
        assert np.all(tab.end <= tab.window)
        assert np.all(tab.start <= tab.end)
        key = tab.point * (tab.window + 1) + tab.start
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
        table, _ = access_table(*args)
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
        table, _ = access_table(*args)
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

    def test_zero_width_sensor_covers_nothing(self):
        el = make_orbit(600.0, 55.0)
        sensor = rv.SensorSpec.boresight(0.0)
        st = EngineSettings(window=1 * 86400.0, grid_res=math.radians(1.0))
        rep = analyze(el, sensor, math.radians(20), settings=st)
        assert rep.coverage_fraction == 0.0
        assert rep.mrt_hours is None


# Six 1-degree tiles of about 38 000 cells each, from a 6/6/0 fleet.
_MULTI_TILE_CASE = (
    _FLEET_ORBIT, _ELEV_10, _LAT_40, rv.WalkerConfig(6, 6, 0),
    EngineSettings(window=10 * _DAY, grid_res=math.radians(1.0)),
)


class TestThreadedReduction:
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_threads_give_the_serial_report(self, threads, monkeypatch):
        # The partials are folded in tile order, so a reduction on any
        # number of threads, here up to more threads than tiles and with
        # thread switches forced often, gives the serial report bit for bit.
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
    def test_gap_sums_add_in_tile_order(self, threads):
        # 2**53 + 1 rounds back to 2**53, so tile 0's gap sum absorbs each
        # later tile's 1 s only when it is added first.  Tile 0 is built
        # last on a pool, so a fold in completion order adds it last.
        def build(k):
            time.sleep(0.02 * (5 - k))
            gap = 2.0**53 if k == 0 else 1.0
            return np.array([[0.0, gap]]), np.array([[0.0, gap]])

        acc = AccessTiles(
            build=build, count=5, grid=LongitudeGrid(spacing=1.0, lon=np.zeros(5)),
            window=2.0**54, merge_tol=0.0, pass_count=10,
        )
        report = tile_stats(acc, threads=threads)
        assert report.gap_count == 5 and report.coverage_fraction == 1.0
        assert report.art_hours == 2.0**53 / 5 / 3600.0

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
        ("footprint_scale", math.nan), ("footprint_scale", -1.0), ("footprint_scale", 0.0),
        ("segment_samples", 2), ("segment_samples", 10.5),
    ])
    def test_bad_setting_is_named_config_error(self, field, value):
        # Library callers get a ConfigError naming the field, not an
        # OverflowError deep in the pass comb, a silent 0% coverage, or a
        # window or grid too large to allocate.
        with pytest.raises(rv.ConfigError, match=field):
            EngineSettings(**{field: value})

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
