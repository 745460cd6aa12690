import math
import random
import tracemalloc

import numpy as np
import pytest

import revisit as rv
from revisit.earth import EarthConstants
from revisit.oracle import plane_elements, propagate_j2
from revisit.passes import (
    TWO_PI,
    OrbitElements,
    PlaneSpec,
    WalkerConfig,
    _mean_from_true,
    ground_track_segment,
    ground_track_shift,
    keplerian_period,
    nodal_period,
    pass_series,
    raan_drift_rate,
    time_fraction_from_node,
    walker_planes,
    wrap_angle,
)
from revisit.sensor import resolve_footprint

from conftest import make_orbit
from reference_passes import (
    crossing_events,
    math_mean_from_true,
    math_time_fraction,
    per_sample_track_segment,
    per_satellite_pass_series,
)

DAY_SIDEREAL = 86164.0905


def _single_sat_schedule(alt_km, inc_deg, lat_deg, window, **orbit_kw):
    el = make_orbit(alt_km, inc_deg, **orbit_kw)
    p_n = nodal_period(el.a, el.e, el.inc)
    shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
    return el, p_n, shift, pass_series(el, math.radians(lat_deg), shift, p_n, window)


class TestOrbitElements:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "raan", "argp", "nu0"])
    def test_non_finite_element_is_named_config_error(self, field, value):
        # A NaN passes the perigee check and an infinite semi-major axis
        # clears it; either would reach the engine or the oracle as a stray
        # IndexError, a bare ValueError or a report of a satellite nowhere.
        elements = {"a": 7078.0, "inc": math.radians(60.0), field: value}
        with pytest.raises(rv.ConfigError, match=f"^{field} must be finite"):
            rv.OrbitElements(**elements)


class TestPeriods:
    def test_keplerian_geostationary_inversion(self):
        a = (rv.EARTH.mu * (DAY_SIDEREAL / (2 * math.pi)) ** 2) ** (1.0 / 3.0)
        assert a == pytest.approx(42164.17, abs=0.01)
        assert keplerian_period(a) == pytest.approx(DAY_SIDEREAL, abs=1e-6)

    def test_keplerian_golden_400km(self):
        assert keplerian_period(6778.137) == pytest.approx(5553.624271252228, abs=1e-9)

    def test_keplerian_third_law_scaling(self):
        assert keplerian_period(2 * 7000.0) == pytest.approx(
            keplerian_period(7000.0) * 2**1.5, rel=1e-12
        )

    def test_nodal_equals_keplerian_without_j2(self):
        earth = EarthConstants(j2=0.0)
        a = 6778.137
        assert nodal_period(a, 0.0, math.radians(20), earth) == pytest.approx(
            keplerian_period(a, earth), rel=1e-15
        )

    def test_nodal_golden_400km_20deg(self):
        # Frozen after the correction-form calibration against the
        # validation tables.
        assert nodal_period(6778.137, 0.0, math.radians(20)) == pytest.approx(
            5533.477101271671, abs=1e-9
        )

    def test_nodal_perturbation_smallness(self):
        # Analytic bound: 0.75 * J2 * (Ra/p)^2 * 6 < 0.5% over LEO; the
        # correction is largest for low, near-equatorial orbits.
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rv.EARTH.equatorial_radius + rng.uniform(200.0, 2000.0)
            inc = rng.uniform(0.0, math.pi)
            e = rng.uniform(0.0, 0.02)
            p_n = nodal_period(a, e, inc)
            assert p_n > 0.0
            assert abs(p_n - keplerian_period(a)) / keplerian_period(a) < 0.005


class TestRaanDrift:
    def test_polar_orbit_has_no_drift(self):
        assert raan_drift_rate(6878.137, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-20)

    def test_drift_sign_follows_inclination(self):
        assert raan_drift_rate(6878.137, 0.0, math.radians(50)) < 0.0
        assert raan_drift_rate(6878.137, 0.0, math.radians(110)) > 0.0

    def test_sun_synchronous_drift_magnitude(self):
        got = math.degrees(raan_drift_rate(6878.137, 0.0, math.radians(97.41))) * 86400.0
        assert got == pytest.approx(0.9856, abs=0.01)


class TestGroundTrackShift:
    def test_polar_shift_is_earth_rotation_only(self):
        p_n = nodal_period(6878.137, 0.0, math.pi / 2)
        shift = ground_track_shift(p_n, 0.0)
        assert shift == pytest.approx(-rv.EARTH.rotation_rate * p_n, rel=1e-15)

    def test_synchronous_limit(self):
        assert ground_track_shift(2 * math.pi / rv.EARTH.rotation_rate, 0.0) == pytest.approx(
            -2 * math.pi, rel=1e-12
        )

    def test_golden_chained_400km_20deg(self):
        p_n = nodal_period(6778.137, 0.0, math.radians(20))
        drift = raan_drift_rate(6778.137, 0.0, math.radians(20))
        assert ground_track_shift(p_n, drift) == pytest.approx(
            -0.4119653247850268, abs=1e-12
        )

    def test_westward_and_bounded(self):
        for alt in (300.0, 800.0, 1500.0):
            for inc_deg in (10.0, 60.0, 98.0):
                a = rv.EARTH.equatorial_radius + alt
                p_n = nodal_period(a, 0.0, math.radians(inc_deg))
                shift = ground_track_shift(p_n, raan_drift_rate(a, 0.0, math.radians(inc_deg)))
                assert -2 * math.pi < shift < 0.0


def _first_crossings(el, lat, shift, p_n):
    """Longitudes of the first ascending and descending crossings."""
    ps = pass_series(el, lat, shift, p_n, 2.0 * p_n)
    return float(ps.lon[ps.ascending][0]), float(ps.lon[~ps.ascending][0])


class TestCrossingLongitudes:
    def test_node_at_prime_meridian(self):
        el = make_orbit(500.0, 60.0)
        p_n = nodal_period(el.a, el.e, el.inc)
        lon_asc, _ = _first_crossings(el, 0.0, -0.4, p_n)
        assert lon_asc == pytest.approx(0.0, abs=1e-12)

    def test_polar_track_meridian(self):
        # On a polar orbit the track runs along a meridian: the crossing
        # longitude is the rotation accrual alone.
        el = make_orbit(500.0, 90.0)
        shift = -0.41
        p_n = nodal_period(el.a, el.e, el.inc)
        lon_asc, _ = _first_crossings(el, math.radians(45), shift, p_n)
        frac = (math.radians(45)) / (2 * math.pi)
        assert lon_asc == pytest.approx(frac * shift, abs=1e-12)

    def test_against_propagated_crossings(self):
        el = rv.OrbitElements(a=6878.137, inc=math.radians(60), raan=math.radians(30))
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        lon_asc, lon_desc = _first_crossings(el, math.radians(20), shift, p_n)
        events = crossing_events(el, math.radians(20), 2.0 * p_n)
        got_asc = next(lon for _, lon, asc in events if asc)
        got_desc = next(lon for _, lon, asc in events if not asc)
        assert math.degrees(abs(lon_asc - got_asc)) < 0.05
        assert math.degrees(abs(lon_desc - got_desc)) < 0.05


class TestPassSeries:
    def test_arithmetic_series(self):
        el, p_n, shift, ps = _single_sat_schedule(400.0, 20.0, 0.0, 4 * 5533.0)
        asc = ps.lon[ps.ascending]
        d = wrap_angle(np.diff(asc))
        assert np.allclose(d, shift, atol=1e-12)

    def test_short_window_single_pair(self):
        el, p_n, shift, ps = _single_sat_schedule(400.0, 20.0, 0.0, 3000.0)
        assert len(ps) <= 2

    def test_count_matches_propagated_crossings(self):
        # nu0 offset keeps any crossing off the exact window boundary.
        window = 60 * 86400.0
        el, p_n, shift, ps = _single_sat_schedule(400.0, 20.0, 0.0, window, nu0=0.07)
        t = np.arange(0.0, window, 30.0)
        _, lat_s, _ = propagate_j2(el, t)
        s = np.sign(lat_s)
        crossings = int(np.count_nonzero(s[1:] * s[:-1] < 0))
        assert len(ps) == crossings

    def test_epochs_sorted_and_spaced(self):
        el, p_n, shift, ps = _single_sat_schedule(500.0, 97.4, 40.0, 10 * 86400.0)
        assert np.all(np.diff(ps.epoch) >= 0.0)
        assert ps.epoch.min() >= 0.0
        assert ps.epoch.max() <= ps.window
        # No two crossings of one satellite closer than half a revolution.
        for asc in (True, False):
            gaps = np.diff(ps.epoch[ps.ascending == asc])
            assert np.all(gaps > p_n / 2)

    def test_count_bound(self):
        window = 10 * 86400.0
        el, p_n, shift, ps = _single_sat_schedule(700.0, 98.0, 10.0, window)
        assert len(ps) <= 2 * math.ceil(window / p_n)

    def test_longitudes_normalized(self):
        el, p_n, shift, ps = _single_sat_schedule(400.0, 20.0, 0.0, 30 * 86400.0)
        assert np.all(ps.lon >= -math.pi)
        assert np.all(ps.lon < math.pi)


_PASS_FIELDS = ("lon", "epoch", "ascending", "plane_index", "sat_index")

# Orbit, latitude (deg), window (s) and plane list of each named comb case.
_COMB_CASES = {
    "walker_24_6_1": (
        make_orbit(700.0, 60.0, raan=0.4, nu0=0.3), 40.0, 2 * 86400.0,
        walker_planes(WalkerConfig(24, 6, 1)),
    ),
    "negative_and_multi_turn_phases": (
        make_orbit(800.0, 98.0, nu0=2.0), 55.0, 86400.0,
        [PlaneSpec(raan=0.3, phases=(-13.0, 0.0, 19.5)), PlaneSpec(raan=1.1, phases=(-0.2, 7.0))],
    ),
    "raans_beyond_pi": (
        make_orbit(600.0, 70.0, raan=-2.5), -20.0, 86400.0,
        [PlaneSpec(raan=-6.9, phases=(0.0, 3.0)), PlaneSpec(raan=4.0), PlaneSpec(raan=6.5)],
    ),
    "shorter_than_a_period": (
        make_orbit(700.0, 60.0, nu0=1.0), 30.0, 1000.0,
        walker_planes(WalkerConfig(12, 3, 2)),
    ),
    "eccentric_retrograde": (
        make_orbit(900.0, 120.0, e=0.05, argp=2.0, nu0=-1.0), -35.0, 3 * 86400.0,
        walker_planes(WalkerConfig(6, 2, 1)),
    ),
}


def _seeded_comb_case(rng):
    """A random comb case: a Walker pattern or a free plane list."""
    inc = rng.uniform(30.0, 150.0)
    el = make_orbit(
        rng.uniform(400.0, 2000.0), inc, e=rng.choice([0.0, rng.uniform(0.0, 0.05)]),
        raan=rng.uniform(-7.0, 7.0), argp=rng.uniform(-7.0, 7.0), nu0=rng.uniform(-7.0, 7.0),
    )
    lat = rng.uniform(-0.95, 0.95) * min(inc, 180.0 - inc)
    window = math.exp(rng.uniform(0.0, math.log(5 * 86400.0)))
    if rng.random() < 0.5:
        total = rng.randint(1, 40)
        planes = rng.choice([p for p in range(1, total + 1) if total % p == 0])
        return el, lat, window, walker_planes(WalkerConfig(total, planes, rng.randrange(planes)))
    return el, lat, window, [
        PlaneSpec(
            raan=rng.uniform(-7.0, 7.0),
            phases=tuple(rng.uniform(-20.0, 20.0) for _ in range(rng.randint(1, 4))),
        )
        for _ in range(rng.randint(1, 5))
    ]


def _both_pass_sets(el, lat_deg, window, planes):
    p_n = nodal_period(el.a, el.e, el.inc)
    shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
    args = (el, math.radians(lat_deg), shift, p_n, window, planes)
    return pass_series(*args), per_satellite_pass_series(*args)


def _assert_same_pass_set(got, ref):
    for name in _PASS_FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestCombsAgainstPerSatellite:
    """`pass_series` lays out every comb in one array step; it must give
    the bits of the per-satellite, per-branch reference."""

    @pytest.mark.parametrize("name", sorted(_COMB_CASES))
    def test_named_cases(self, name):
        got, ref = _both_pass_sets(*_COMB_CASES[name])
        assert len(ref) > 0
        _assert_same_pass_set(got, ref)

    def test_seeded_cases(self):
        rng = random.Random(20261020)
        for _ in range(60):
            _assert_same_pass_set(*_both_pass_sets(*_seeded_comb_case(rng)))

    def test_peak_memory_per_pass(self):
        # The comb's working arrays, not lists of small arrays, set the
        # peak: at most 80 B a pass against the result's 33 B.
        el = make_orbit(700.0, 60.0)
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        planes = walker_planes(WalkerConfig(1920, 48, 1))
        tracemalloc.start()
        try:
            ps = pass_series(el, math.radians(40.0), shift, p_n, 2 * 86400.0, planes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ps) == 111_966
        assert peak / len(ps) <= 80.0


def _expanded(planes, inc_deg=90.0, window=86400.0):
    """Polar-ish 700 km schedules at the equator: one satellite, then ``planes``."""
    el, p_n, shift, base = _single_sat_schedule(700.0, inc_deg, 0.0, window)
    return p_n, shift, base, pass_series(el, 0.0, shift, p_n, window, planes)


class TestWalkerExpand:
    def test_degenerate_identity(self):
        _, _, base, out = _expanded(walker_planes(WalkerConfig(1, 1, 0)))
        for name in ("lon", "epoch", "ascending", "plane_index", "sat_index"):
            assert np.array_equal(getattr(out, name), getattr(base, name))

    def test_three_plane_longitude_offsets(self):
        _, _, _, out = _expanded(walker_planes(WalkerConfig(3, 3, 0)))
        # f=0: all planes cross at the same epochs, offset by 120 deg.
        for m in (1, 2):
            sel = out.plane_index == m
            ref = out.plane_index == 0
            assert np.allclose(out.epoch[sel], out.epoch[ref], atol=1e-9)
            d = wrap_angle(out.lon[sel] - out.lon[ref] - 2 * math.pi * m / 3)
            assert np.allclose(d, 0.0, atol=1e-9)

    def test_expansion_multiplies_count(self):
        # Plane-only expansion leaves epochs untouched: exact multiple.
        _, _, base, out = _expanded(walker_planes(WalkerConfig(3, 3, 0)))
        assert len(out) == 3 * len(base)
        # Phased satellites cross at shifted epochs, so each may gain or
        # lose one window-edge pass.
        _, _, _, out = _expanded(walker_planes(WalkerConfig(6, 3, 2)))
        assert 6 * (len(base) - 2) <= len(out) <= 6 * (len(base) + 2)

    def test_phasing_shifts_epochs_along_drift_line(self):
        # Every satellite's crossings stay on its plane's drift line:
        # lon - shift * epoch / P_n is constant per plane and branch.
        p_n, shift, _, out = _expanded(walker_planes(WalkerConfig(3, 3, 1)), inc_deg=96.0)
        for m in (0, 1, 2):
            for asc in (True, False):
                sel = (out.plane_index == m) & (out.ascending == asc)
                resid = wrap_angle(
                    out.lon[sel]
                    - (shift / p_n) * out.epoch[sel]
                    - 2 * math.pi * m / 3
                )
                assert np.ptp(wrap_angle(resid - resid[0])) < 1e-9
        # Nonzero phasing staggers the epochs between planes.
        e0 = np.sort(out.epoch[(out.plane_index == 0) & out.ascending])
        e1 = np.sort(out.epoch[(out.plane_index == 1) & out.ascending])
        frac = ((e1[1] - e0[1]) / p_n) % 1.0
        assert min(frac, 1.0 - frac) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_raan_shift_moves_all_longitudes(self):
        window = 86400.0
        _, _, _, a0 = _single_sat_schedule(500.0, 60.0, 20.0, window)
        delta = 0.7
        _, _, _, a1 = _single_sat_schedule(500.0, 60.0, 20.0, window, raan=delta)
        assert np.allclose(a0.epoch, a1.epoch, atol=1e-9)
        d = wrap_angle(a1.lon - a0.lon - delta)
        assert np.allclose(d, 0.0, atol=1e-12)
        # Inter-pass differences unchanged.
        assert np.allclose(
            wrap_angle(np.diff(a0.lon)), wrap_angle(np.diff(a1.lon)), atol=1e-12
        )

    def test_custom_planes_match_walker(self):
        # An explicit plane list reproducing a 4/2/0 pattern equals the
        # Walker expansion.
        _, _, _, walker = _expanded(walker_planes(WalkerConfig(4, 2, 0)))
        _, _, _, custom = _expanded(
            [
                PlaneSpec(raan=0.0, phases=(0.0, math.pi)),
                PlaneSpec(raan=math.pi, phases=(0.0, math.pi)),
            ]
        )
        assert np.allclose(walker.epoch, custom.epoch, atol=1e-9)
        assert np.allclose(wrap_angle(walker.lon - custom.lon), 0.0, atol=1e-9)

    def test_custom_planes_nonuniform(self):
        p_n, shift, _, out = _expanded([PlaneSpec(raan=0.0), PlaneSpec(raan=0.3, phases=(0.1,))])
        assert set(np.unique(out.plane_index)) == {0, 1}
        sel = (out.plane_index == 1) & out.ascending
        resid = wrap_angle(out.lon[sel] - (shift / p_n) * out.epoch[sel] - 0.3)
        assert np.ptp(wrap_angle(resid - resid[0])) < 1e-9

    @pytest.mark.parametrize("pattern", [(6, 3, 2), (4, 2, 1)], ids=["6/3/2", "4/2/1"])
    def test_satellite_k_is_the_oracle_satellite_k(self, pattern):
        # The engine's satellite k and the oracle's element set k are the
        # same satellite: the same crossings, one by one.
        window, lat = 86400.0, math.radians(20.0)
        el = make_orbit(700.0, 60.0, raan=0.4, nu0=0.3)
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        planes = walker_planes(WalkerConfig(*pattern))
        ps = pass_series(el, lat, shift, p_n, window, planes)
        sats = plane_elements(el, planes)
        assert set(np.unique(ps.sat_index)) == set(range(len(sats)))
        for k, sat in enumerate(sats):
            sel = ps.sat_index == k
            t, lon, asc = (np.array(x) for x in zip(*crossing_events(sat, lat, window)))
            assert t.size == np.count_nonzero(sel)
            assert np.array_equal(asc, ps.ascending[sel])
            assert np.max(np.abs(t - ps.epoch[sel])) < 1.0
            assert np.degrees(np.max(np.abs(wrap_angle(lon - ps.lon[sel])))) < 0.01

    def test_walker_config_validation(self):
        with pytest.raises(ValueError):
            WalkerConfig(5, 3, 0)
        with pytest.raises(ValueError):
            WalkerConfig(4, 2, 2)
        with pytest.raises(ValueError):
            WalkerConfig(0, 1, 0)
        with pytest.raises(ValueError, match="integers"):
            WalkerConfig(2.0, 1, 0)


class TestGroundTrackSegment:
    def test_crossing_sample_at_origin(self):
        el = make_orbit(500.0, 97.4)
        seg = ground_track_segment(el, math.radians(40), -0.41, 1001, reach=math.radians(7))
        mid = 1001 // 2
        assert seg.lon_off[mid] == 0.0
        assert seg.lat[mid] == pytest.approx(math.radians(40), abs=1e-9)
        assert seg.time_frac[mid] == 0.0

    def test_polar_offsets_are_pure_rotation(self):
        el = make_orbit(500.0, 90.0)
        shift = -0.41
        seg = ground_track_segment(el, math.radians(40), shift, 501, reach=math.radians(8))
        assert np.allclose(seg.lon_off, seg.time_frac * shift, atol=1e-12)

    def test_matches_propagated_track(self):
        el = make_orbit(500.0, 97.41)
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        lat = math.radians(40)
        fp = resolve_footprint(rv.SensorSpec.boresight(math.radians(45)), el.a, lat)
        seg = ground_track_segment(el, lat, shift, 1001, reach=fp.ground_range)
        ps = pass_series(el, lat, shift, p_n, 2 * p_n)
        k = int(np.flatnonzero(ps.ascending)[0])
        t_abs = float(ps.epoch[k]) + seg.time_frac * p_n
        _, lat_o, lon_o = propagate_j2(el, t_abs)
        dlat = np.degrees(np.abs(lat_o - seg.lat))
        dlon = np.degrees(np.abs(wrap_angle(lon_o - (float(ps.lon[k]) + seg.lon_off))))
        assert dlat.max() < 0.05
        assert dlon.max() < 0.05

    @pytest.mark.parametrize("ascending", [True, False], ids=["asc", "desc"])
    @pytest.mark.parametrize(
        "e, argp, nu0",
        [(0.0, 0.0, 0.0), (0.0, 1.1, 2.3), (0.02, 1.0, 0.0), (0.07, 4.0, 5.5)],
        ids=["circular", "circular_argp_nu0", "e0p02", "e0p07_argp_nu0"],
    )
    def test_equals_the_per_sample_time_fractions(self, e, argp, nu0, ascending):
        # The segment's times come from one array expression; they must be
        # the bits of time_fraction_from_node taken sample by sample.  The
        # lens keeps the time of each bin's latest sample as its last
        # visible time, so the times must also rise along the segment.
        el = make_orbit(700.0, 60.0, e=e, argp=argp, nu0=nu0)
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        args = (el, math.radians(40), shift, 1001, math.radians(20), ascending)
        seg = ground_track_segment(*args)
        ref = per_sample_track_segment(*args)
        for name in ("lat", "lon_off", "time_frac"):
            assert np.array_equal(getattr(seg, name), getattr(ref, name)), name
        assert np.all(np.diff(seg.time_frac) > 0.0)
        # The crossing sample is the origin exactly, on any host.
        mid = 1001 // 2
        assert seg.time_frac[mid] == 0.0
        assert seg.lon_off[mid] == 0.0

    @pytest.mark.parametrize("ascending", [True, False], ids=["asc", "desc"])
    @pytest.mark.parametrize(
        "e, argp",
        [(0.0, 0.0), (0.0, 2.0), (0.02, 1.0), (0.1, 4.0)],
        ids=["circular", "circular_argp", "e0p02", "e0p1"],
    )
    def test_time_fractions_equal_the_math_only_conversion(self, e, argp, ascending):
        # The segment converts its samples as one array; each time must be
        # the bits of the conversion by math alone, taken sample by sample.
        el = make_orbit(1000.0, 60.0, e=e, argp=argp)
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        args = (el, math.radians(30), shift, 2001, math.radians(25), ascending)
        ref = per_sample_track_segment(*args, time_fraction=math_time_fraction)
        assert np.array_equal(ground_track_segment(*args).time_frac, ref.time_frac)

    @pytest.mark.parametrize("ascending", [True, False], ids=["asc", "desc"])
    def test_a_reach_past_the_pole_runs_to_the_apex(self, ascending):
        # 1200 km / 97 deg / 5 deg elevation at 75 deg: the padded reach of
        # 31.1 deg passes the pole.  Each segment must run monotonically
        # from 43.87 deg to the 83 deg apex, not fold back short of it, and
        # equal the per-sample reference there too.
        el = make_orbit(1200.0, 97.0)
        lat = math.radians(75.0)
        p_n = nodal_period(el.a, el.e, el.inc)
        shift = ground_track_shift(p_n, raan_drift_rate(el.a, el.e, el.inc))
        fp = resolve_footprint(rv.SensorSpec.elevation(math.radians(5.0)), el.a, lat)
        args = (el, lat, shift, 1001, fp.ground_range, ascending)
        seg, ref = ground_track_segment(*args), per_sample_track_segment(*args)
        for name in ("lat", "lon_off", "time_frac"):
            assert np.array_equal(getattr(seg, name), getattr(ref, name)), name
        rising = seg.lat if ascending else seg.lat[::-1]
        assert np.all(np.diff(rising) > 0.0)
        assert math.degrees(rising[0]) == pytest.approx(43.87, abs=0.005)
        assert math.degrees(rising[-1]) == pytest.approx(83.0, abs=1e-9)

    def test_needs_three_points(self):
        el = make_orbit(500.0, 97.4)
        with pytest.raises(ValueError):
            ground_track_segment(el, 0.5, -0.4, 2, reach=0.1)

    def test_zero_reach_is_the_crossing(self):
        # A 90 deg elevation mask sees nothing off the track's own point,
        # ground range 0: every sample lies at the crossing.
        el = make_orbit(500.0, 97.4)
        seg = ground_track_segment(el, 0.5, -0.4, 5, reach=0.0)
        assert np.all(seg.lat == seg.lat[2])
        assert not np.any(seg.lon_off) and not np.any(seg.time_frac)


# True anomalies over three turns, and a float step to either side of +-pi
# and a few nanoradians off it, where the half-angle's cosine changes sign.
_NU = np.concatenate([
    np.linspace(-3.0 * math.pi, 3.0 * math.pi, 601),
    [np.nextafter(s * math.pi, to) for s in (-1.0, 1.0) for to in (-4.0, 0.0, 4.0)],
    [s * math.pi + d for s in (-1.0, 1.0) for d in (-1e-9, 1e-9)],
])


class TestAnomalyConversion:
    @pytest.mark.parametrize("e", [0.0, 0.02, 0.1])
    def test_mean_anomaly_of_an_array_equals_each_scalar_call(self, e):
        # The track segment converts an array at once; the pass comb and the
        # oracle convert one float at a time.  Both must give math's bits.
        want = np.array([math_mean_from_true(nu, e) for nu in _NU.tolist()])
        scalars = [_mean_from_true(nu, e) for nu in _NU.tolist()]
        assert all(type(m) is float for m in scalars)
        assert np.array_equal(scalars, want)
        assert np.array_equal(_mean_from_true(_NU, e), want)

    @pytest.mark.parametrize("e", [0.0, 0.02, 0.1])
    def test_time_fraction_of_an_array_equals_each_scalar_call(self, e):
        for argp in np.linspace(0.0, TWO_PI, 13).tolist():
            el = make_orbit(1000.0, 60.0, e=e, argp=argp)
            want = np.array([math_time_fraction(el, nu) for nu in _NU.tolist()])
            scalars = [time_fraction_from_node(el, nu) for nu in _NU.tolist()]
            assert np.array_equal(scalars, want), argp
            assert np.array_equal(time_fraction_from_node(el, _NU), want), argp


def test_orbit_elements_validation():
    with pytest.raises(ValueError):
        OrbitElements(a=6878.0, e=1.2)
    with pytest.raises(ValueError):
        OrbitElements(a=6878.0, inc=4.0)
    with pytest.raises(ValueError):
        OrbitElements(a=6000.0)
