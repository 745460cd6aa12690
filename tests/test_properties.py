"""Randomized invariants of the geometry and coverage chain."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import revisit as rv
from revisit.coverage import AccessTable, revisit_stats
from revisit.engine import EngineSettings, analyze
from revisit.sensor import (
    SensorSpec,
    dihedral_half_angle,
    ground_range_from_boresight,
    ground_range_from_elevation,
    resolve_footprint,
)

from conftest import make_orbit
from reference_access import point_by_point_gaps

R_EQ = 6378.137

radii = st.floats(min_value=R_EQ + 150.0, max_value=R_EQ + 2500.0)
elevations = st.floats(min_value=0.0, max_value=math.pi / 2)
half_cones = st.floats(min_value=0.0, max_value=math.pi / 2 - 1e-6)
latitudes = st.floats(min_value=-math.radians(80), max_value=math.radians(80))


@given(r_s=radii, e1=elevations, e2=elevations)
def test_ground_range_decreasing_in_elevation(r_s, e1, e2):
    lo, hi = sorted((e1, e2))
    th_lo = ground_range_from_elevation(R_EQ, r_s, lo)
    th_hi = ground_range_from_elevation(R_EQ, r_s, hi)
    assert th_hi <= th_lo + 1e-12
    if hi - lo > 1e-6:
        assert th_hi < th_lo


@given(r_s=radii, p1=half_cones, p2=half_cones)
def test_ground_range_increasing_in_half_cone(r_s, p1, p2):
    lo, hi = sorted((p1, p2))
    tangency = math.asin(R_EQ / r_s)
    lo, hi = min(lo, tangency), min(hi, tangency)
    th_lo, _ = ground_range_from_boresight(R_EQ, r_s, lo)
    th_hi, _ = ground_range_from_boresight(R_EQ, r_s, hi)
    assert th_hi >= th_lo - 1e-12
    if hi - lo > 1e-6:
        assert th_hi > th_lo


@given(lat=latitudes, r_s=radii, elev=elevations)
@example(lat=0.0, r_s=6593.0, elev=1.5703125)  # a 1.6e-5 rad ground range
@settings(max_examples=200)
def test_lon_half_width_at_least_ground_range(lat, r_s, elev):
    try:
        fp = resolve_footprint(SensorSpec.elevation(elev), r_s, lat)
    except rv.PoleOverlapError:
        return  # footprint over the pole: defined error, out of domain
    assert fp.lon_half_width >= fp.ground_range - 1e-12
    if abs(lat) < 1e-12:
        assert fp.lon_half_width == pytest.approx(fp.ground_range, abs=1e-12)


def test_footprint_outputs_finite_over_random_domain():
    # 10^4 random valid inputs: every output finite and non-negative.
    rng = np.random.default_rng(42)
    n = 10_000
    r_s = R_EQ + rng.uniform(150.0, 2500.0, n)
    lat = rng.uniform(-math.radians(80), math.radians(80), n)
    use_elev = rng.uniform(size=n) < 0.5
    ang_el = rng.uniform(0.0, math.pi / 2, n)
    ang_bs = rng.uniform(0.0, math.pi / 2 - 1e-9, n)
    for k in range(n):
        spec = (
            SensorSpec.elevation(ang_el[k]) if use_elev[k] else SensorSpec.boresight(ang_bs[k])
        )
        try:
            fp = resolve_footprint(spec, float(r_s[k]), float(lat[k]))
        except rv.PoleOverlapError:
            continue  # wide footprint over the pole: defined error, not a value
        for v in (fp.ground_range, fp.lon_half_width):
            assert math.isfinite(v)
            assert v >= 0.0


@given(
    x=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_wrap_angle_range(x):
    from revisit.passes import wrap_angle

    w = float(wrap_angle(x))
    assert -math.pi <= w < math.pi
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-9)


def test_mrt_non_increasing_in_half_cone():
    # Wider field of regard never worsens the revisit beyond a grid cell.
    el = make_orbit(700.0, 97.8)
    st_ = EngineSettings(window=8 * 86400.0, grid_res=math.radians(1.0))
    lat = math.radians(30)
    mrts = []
    for psi_deg in (20.0, 30.0, 40.0, 50.0):
        rep = analyze(el, SensorSpec.boresight(math.radians(psi_deg)), lat, settings=st_)
        assert rep.mrt_hours is not None
        mrts.append(rep.mrt_hours)
    cell_time = 0.25  # generous bound for one grid-cell crossing, hours
    for a, b in zip(mrts, mrts[1:]):
        assert b <= a + cell_time


def test_mrt_non_increasing_with_fleet_growth():
    sensor = SensorSpec.elevation(math.radians(10))
    st_ = EngineSettings(window=8 * 86400.0, grid_res=math.radians(1.0))
    el = make_orbit(800.0, 70.0)
    lat = math.radians(30)
    cell_time = 0.25
    prev = None
    for total in (1, 2, 3, 4):
        rep = analyze(el, sensor, lat, walker=rv.WalkerConfig(total, 1, 0), settings=st_)
        assert rep.mrt_hours is not None
        if prev is not None:
            assert rep.mrt_hours <= prev + cell_time
        prev = rep.mrt_hours


def test_grid_determinism_and_independence_of_pass_order():
    # The engine sorts deterministically; results do not depend on the
    # construction order of equal-epoch passes.
    el = make_orbit(600.0, 55.0)
    sensor = SensorSpec.elevation(math.radians(15))
    st_ = EngineSettings(window=4 * 86400.0, grid_res=math.radians(1.0))
    reps = {analyze(el, sensor, math.radians(20), settings=st_) for _ in range(3)}
    assert len(reps) == 1


def _table_pair(point, start, end, n_grid, merge_tol, shuffle):
    """A table sorted by (point, start), and the same rows with each point's
    rows in the order of the keys ``shuffle``."""
    point, start, end = np.asarray(point), np.asarray(start), np.asarray(end)

    def table(order):
        return AccessTable(
            point=point[order], start=start[order], end=end[order], grid_size=n_grid,
            merge_tol=merge_tol, pass_count=0,
        )

    return table(np.lexsort((start, point))), table(np.lexsort((shuffle, point)))


# How an interval is placed against the one drawn before it in its row.
_KINDS = ("free", "nested", "same_start", "zero", "at_tol", "ulp_above")
_TICK = 0.5


@st.composite
def _tables(draw):
    """`_table_pair` of a random table.

    Times lie on a 0.5 s lattice, so a gap placed at merge_tol is exactly
    merge_tol, and one placed an ulp of its start above it is the next
    float.  A point holds 1 to 40 intervals, so the rows of one tile
    differ in length and the shorter ones end in padding.
    """
    merge_tol = draw(st.sampled_from([0.0, _TICK, 10.0, 600.0]))
    n_grid = draw(st.integers(1, 150))
    point, start, end = [], [], []
    for p in draw(st.lists(st.integers(0, n_grid - 1), max_size=6, unique=True)):
        size = draw(st.sampled_from([1, 2, 8, 40]))
        prev = None
        for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=size)):
            span = draw(st.integers(0, 2000)) * _TICK
            if prev is None or kind == "free":
                s = draw(st.integers(0, 20000)) * _TICK
                e = s + span
            elif kind == "nested":
                quarter = (prev[1] - prev[0]) / 4
                s, e = prev[0] + quarter, prev[1] - quarter
            elif kind == "same_start":
                s, e = prev[0], prev[0] + span
            elif kind == "zero":
                s = e = draw(st.integers(0, 20000)) * _TICK
            else:
                s = prev[1] + merge_tol
                if kind == "ulp_above":
                    s = float(np.nextafter(s, math.inf))
                e = s + span
            prev = (s, e)
            point.append(p)
            start.append(s)
            end.append(e)
    shuffle = draw(st.permutations(range(len(point))))
    return _table_pair(
        np.array(point, dtype=np.int64), np.array(start, dtype=float),
        np.array(end, dtype=float), n_grid, merge_tol, np.array(shuffle, dtype=np.int64),
    )


@given(tables=_tables())
@example(tables=_table_pair(
    # Point 0: equal starts with other ends, a nested and a zero-length
    # interval, a gap at merge_tol (110 - 100), one an ulp above it and one
    # at it again (210 - 200).  Point 1 has one interval, so its row of the
    # tile is mostly padding.
    [0, 0, 0, 0, 0, 0, 1],
    [0.0, 0.0, 20.0, 110.0, float(np.nextafter(120.0, math.inf)), 210.0, 5000.0],
    [50.0, 100.0, 30.0, 110.0, 200.0, 300.0, 5010.0],
    n_grid=2, merge_tol=10.0, shuffle=[6, 5, 4, 3, 2, 1, 0],
))
@example(tables=_table_pair(
    # Gaps 2048, 2048.5 - 2**-41 and 2**-40: added left to right they make
    # 4096.5 + 2**-40, the first plus the sum of the rest 4096.5.
    [0, 0, 0, 0], [0.0, 2048.0, 4097.0, 4097.0 + 2.0**-40],
    [0.0, 2048.5 + 2.0**-41, 4097.0, 4097.0 + 2.0**-40],
    n_grid=1, merge_tol=0.0, shuffle=[3, 2, 1, 0],
))
@settings(max_examples=300, deadline=None)
def test_gaps_of_sorted_ends_equal_the_running_max(tables):
    # The reduction sorts each point's starts and ends on their own.  Its
    # gaps, their count, MRT and ART must equal, bit for bit, those of a
    # running max of the ends in start order, merged one point at a time,
    # and must not depend on the order of a point's rows.  Each point's
    # gaps are summed by np.add.reduceat, as the engine sums them: it adds
    # the first gap to the sum of the rest, which np.sum of three gaps
    # does not, so only the gaps themselves are compared.
    table, shuffled = tables
    point, gaps = point_by_point_gaps(table)
    rep = revisit_stats(table)
    assert rep.gap_count == gaps.size
    assert rep.coverage_fraction == np.unique(table.point).size / table.grid_size
    if gaps.size:
        sums = np.add.reduceat(gaps, np.flatnonzero(np.r_[True, np.diff(point) != 0]))
        assert rep.mrt_hours == float(np.max(gaps)) / 3600.0
        assert rep.art_hours == math.fsum(sums.tolist()) / gaps.size / 3600.0
    else:
        assert rep.mrt_hours is None and rep.art_hours is None
    assert revisit_stats(shuffled) == rep
