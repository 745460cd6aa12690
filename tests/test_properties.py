"""Randomized invariants of the geometry and coverage chain."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import revisit as rv
from revisit.engine import EngineSettings, analyze
from revisit.sensor import (
    SensorSpec,
    dihedral_half_angle,
    ground_range_from_boresight,
    ground_range_from_elevation,
    resolve_footprint,
)

from conftest import make_orbit

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
