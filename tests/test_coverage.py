import math
from dataclasses import replace

import numpy as np
import pytest

import revisit as rv
from revisit.coverage import (
    AccessTable,
    LongitudeGrid,
    accesses_for_passes,
    build_grid,
    revisit_stats,
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
from reference_access import pass_accesses, visible_sample_span


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


def _branch_accesses(el, sensor, lat, st):
    """Binned and exact accesses of each branch of one configuration.

    Yields (branch, segment, footprint, binned, exact, merge_tol) per branch:
    ``binned`` and ``exact`` map (grid point, pass) to (start, end).
    """
    grid = build_grid(st.grid_res)
    pset = build_pass_set(el, lat, settings=st)
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
    for asc in (True, False):
        sel = pset.ascending == asc
        branch = replace(
            pset, lon=pset.lon[sel], epoch=pset.epoch[sel],
            ascending=pset.ascending[sel], plane_index=pset.plane_index[sel],
            sat_index=pset.sat_index[sel],
        )
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

    def test_zero_width_sensor_covers_nothing(self):
        el = make_orbit(600.0, 55.0)
        sensor = rv.SensorSpec.boresight(0.0)
        st = EngineSettings(window=1 * 86400.0, grid_res=math.radians(1.0))
        rep = analyze(el, sensor, math.radians(20), settings=st)
        assert rep.coverage_fraction == 0.0
        assert rep.mrt_hours is None
