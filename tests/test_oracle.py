import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import revisit as rv
from revisit import coverage, oracle
from revisit.coverage import revisit_stats
from revisit.earth import geodetic_radius
from revisit.engine import EngineSettings, analyze, oracle_analyze
from revisit.errors import KeplerConvergenceError
from revisit.oracle import (
    MAX_ORACLE_STEPS,
    SimConfig,
    _step_ranges,
    _visibility_margin,
    plane_elements,
    propagate_j2,
    secular_rates,
    simulate_access_table,
    solve_kepler,
    true_from_mean,
)
from revisit.passes import nodal_period, wrap_angle

from conftest import make_orbit
from reference_oracle import dense_access_table


class TestKeplerSolver:
    def test_circular_is_identity(self):
        m = np.linspace(-10.0, 10.0, 7)
        assert np.array_equal(solve_kepler(m, 0.0), m)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-20.0, 20.0, 500)
        for e in (0.001, 0.1, 0.5, 0.9):
            ecc = solve_kepler(m, e)
            assert np.allclose(ecc - e * np.sin(ecc), m, atol=1e-11)

    def test_convergence_guard(self, monkeypatch):
        monkeypatch.setattr(oracle, "KEPLER_MAX_ITER", 1)
        with pytest.raises(KeplerConvergenceError):
            solve_kepler(np.array([2.0]), 0.95)
        # Mean anomaly 0 is solved on the first iteration; the other
        # element is not, and fails the whole call.
        with pytest.raises(KeplerConvergenceError):
            solve_kepler(np.array([0.0, 2.0]), 0.95)

    @pytest.mark.parametrize("e", [0.001, 0.05, 0.3, 0.9])
    def test_each_element_is_solved_on_its_own(self, e):
        # Each element stops on its own residual, so an array gives the
        # bits of its pieces, here cut at random with single elements
        # among them, and so does the state `propagate_j2` builds on it.
        rng = np.random.default_rng(11)
        m = rng.uniform(-30.0, 30.0, 20_001)
        cuts = np.sort(rng.choice(np.arange(1, m.size), 60, replace=False))
        cuts = np.r_[cuts, cuts[:5] + 1]
        pieces = np.split(np.arange(m.size), np.unique(cuts))
        whole = solve_kepler(m, e)
        assert np.array_equal(np.concatenate([solve_kepler(m[i], e) for i in pieces]), whole)
        assert all(float(solve_kepler(m[k], e)) == whole[k] for k in range(0, m.size, 997))
        el = rv.OrbitElements(a=7000.0 / (1.0 - e), e=e, inc=1.1, argp=0.4, nu0=2.0)
        t = np.sort(rng.uniform(0.0, 10 * 86400.0, m.size))
        states = [propagate_j2(el, t[i]) for i in pieces]
        for got, want in zip(zip(*states), propagate_j2(el, t)):
            assert np.array_equal(np.concatenate(got), want)

    def test_true_from_mean_round_trip(self):
        for e in (0.0, 0.2):
            nu = true_from_mean(1.234, e)
            ecc = 2 * math.atan2(
                math.sqrt(1 - e) * math.sin(nu / 2), math.sqrt(1 + e) * math.cos(nu / 2)
            )
            assert ecc - e * math.sin(ecc) == pytest.approx(1.234, abs=1e-12)


class TestPropagateJ2:
    def test_initial_state(self):
        el = rv.OrbitElements(
            a=7000.0, inc=math.radians(60), raan=math.radians(40), nu0=math.radians(25)
        )
        r, lat, lon = propagate_j2(el, np.array([0.0]))
        u = el.argp + el.nu0
        assert r[0] == pytest.approx(7000.0, abs=1e-9)
        assert lat[0] == pytest.approx(math.asin(math.sin(el.inc) * math.sin(u)), abs=1e-12)
        want_lon = wrap_angle(el.raan + math.atan2(math.sin(u) * math.cos(el.inc), math.cos(u)))
        assert lon[0] == pytest.approx(float(want_lon), abs=1e-12)

    def test_polar_orbit_node_fixed(self):
        el = make_orbit(700.0, 90.0)
        raan_dot, _, _ = secular_rates(el)
        assert raan_dot == pytest.approx(0.0, abs=1e-20)

    def test_latitude_returns_after_nodal_period(self):
        el = make_orbit(500.0, 97.41, nu0=0.3)
        p_n = nodal_period(el.a, el.e, el.inc)
        _, lat0, _ = propagate_j2(el, np.array([0.0]))
        _, lat1, _ = propagate_j2(el, np.array([p_n]))
        assert abs(float(lat1[0] - lat0[0])) < 1e-6

    def test_circular_radius_constant(self):
        el = make_orbit(500.0, 60.0)
        t = np.linspace(0.0, 60 * 86400.0, 5000)
        r, _, _ = propagate_j2(el, t)
        assert np.ptp(r) < 1e-9

    def test_eccentric_radius_range(self):
        el = rv.OrbitElements(a=7000.0, e=0.01, inc=1.0)
        t = np.linspace(0.0, 86400.0, 2000)
        r, _, _ = propagate_j2(el, t)
        assert r.min() == pytest.approx(7000.0 * 0.99, rel=1e-6)
        assert r.max() == pytest.approx(7000.0 * 1.01, rel=1e-6)


class TestWalkerElements:
    def test_pattern_offsets(self):
        el = make_orbit(700.0, 96.0)
        sats = plane_elements(el, rv.WalkerConfig(3, 3, 1))
        assert len(sats) == 3
        for m, s in enumerate(sats):
            assert wrap_angle(s.raan - el.raan - 2 * math.pi * m / 3) == pytest.approx(0.0, abs=1e-12)
            assert wrap_angle(s.nu0 - el.nu0 - 2 * math.pi * m / 3) == pytest.approx(0.0, abs=1e-12)

    def test_in_plane_spacing(self):
        el = make_orbit(700.0, 96.0)
        sats = plane_elements(el, rv.WalkerConfig(4, 2, 0))
        assert [s.raan for s in sats[:2]] == [el.raan, el.raan]
        assert wrap_angle(sats[1].nu0 - el.nu0 - math.pi) == pytest.approx(0.0, abs=1e-12)


class TestSimulateCoverage:
    def test_zero_cone_sees_nothing(self):
        # Offset latitude/longitudes keep the measure-zero footprint off
        # exact sample coincidences.
        el = make_orbit(500.0, 60.0)
        cfg = SimConfig(
            elements=(el,), sensor=rv.SensorSpec.boresight(0.0),
            lat=math.radians(7.123),
            lons=np.radians(np.arange(-179.531, 180.0, 10.0)), window=6 * 3600.0,
        )
        rep = revisit_stats(simulate_access_table(cfg))
        assert rep.coverage_fraction == 0.0

    def test_step_halving_converges(self):
        el = make_orbit(500.0, 60.0)
        lons = np.radians(np.arange(-180.0, 180.0, 4.0))
        reports = []
        for step in (10.0, 5.0):
            cfg = SimConfig(
                elements=(el,), sensor=rv.SensorSpec.elevation(math.radians(10)),
                lat=math.radians(20), lons=lons, window=2 * 86400.0,
                step=step,
            )
            reports.append(revisit_stats(simulate_access_table(cfg)))
        assert reports[0].mrt_hours == pytest.approx(
            reports[1].mrt_hours, abs=0.1 / 3600.0
        )

    def test_intervals_sorted_and_clipped(self):
        el = make_orbit(500.0, 60.0)
        cfg = SimConfig(
            elements=(el,), sensor=rv.SensorSpec.elevation(math.radians(10)),
            lat=0.0, lons=np.radians(np.arange(-180.0, 180.0, 6.0)),
            window=86400.0,
        )
        tab = simulate_access_table(cfg)
        assert np.all(tab.start >= 0.0)
        assert np.all(tab.end <= cfg.window + 1e-9)
        assert np.all(tab.end >= tab.start)

    @pytest.mark.parametrize(
        "el, sensor",
        [
            (rv.OrbitElements(a=rv.EARTH.equatorial_radius + 700.0, inc=math.radians(60.0),
                              nu0=0.5), rv.SensorSpec.elevation(0.0)),
            (rv.OrbitElements(a=7300.0, e=0.02, inc=math.radians(70.0), argp=1.2, nu0=1.5),
             rv.SensorSpec.boresight(math.radians(45.0))),
        ],
        ids=["circular_elevation", "eccentric_boresight"],
    )
    def test_intervals_pair_visible_runs_of_the_step_grid(self, el, sensor):
        # A 4-day window has more steps than one block of the old chunked
        # scan; both orbits see some points at the first and last step.
        lat = math.radians(20.0)
        cfg = SimConfig(
            elements=(el,), sensor=sensor, lat=lat,
            lons=np.radians(np.arange(-180.0, 180.0, 4.0)), window=4 * 86400.0,
        )
        times = np.arange(int(cfg.window / cfg.step) + 1) * cfg.step
        assert times.size > 32768 and times[-1] == cfg.window
        r, lat_s, lon_s = propagate_j2(el, times)
        vis = _visibility_margin(
            sensor, geodetic_radius(lat), lat, cfg.lons[:, None], r, lat_s, lon_s
        ) >= 0.0
        assert vis[:, 0].any() and vis[:, -1].any()
        tab = simulate_access_table(cfg)
        # Steps covered per point: +1 at the first step at or after each
        # start, -1 after the last step at or before each end.
        cover = np.zeros((cfg.lons.size, times.size + 1), dtype=np.int64)
        np.add.at(cover, (tab.point, np.searchsorted(times, tab.start, "left")), 1)
        np.add.at(cover, (tab.point, np.searchsorted(times, tab.end, "right")), -1)
        assert np.array_equal(np.cumsum(cover, axis=1)[:, :-1], vis.astype(np.int64))
        runs = np.count_nonzero(np.diff(vis.astype(np.int8), axis=1) == 1, axis=1) + vis[:, 0]
        assert np.array_equal(np.bincount(tab.point, minlength=cfg.lons.size), runs)
        first = np.searchsorted(tab.point, np.flatnonzero(vis[:, 0]))
        assert np.all(tab.start[first] == 0.0)
        assert np.count_nonzero(tab.start == 0.0) == np.count_nonzero(vis[:, 0])
        last = np.searchsorted(tab.point, np.flatnonzero(vis[:, -1]), "right") - 1
        assert np.all(tab.end[last] == cfg.window)
        assert np.count_nonzero(tab.end == cfg.window) == np.count_nonzero(vis[:, -1])

    def test_matches_engine_on_small_case(self):
        el = make_orbit(650.0, 65.0)
        sensor = rv.SensorSpec.elevation(math.radians(12))
        st = EngineSettings(window=4 * 86400.0, grid_res=math.radians(1.0))
        eng = analyze(el, sensor, math.radians(25), settings=st)
        orc = oracle_analyze(el, sensor, math.radians(25), settings=st)
        assert eng.mrt_hours == pytest.approx(orc.mrt_hours, abs=max(0.02 * orc.mrt_hours, 2 / 60))

    @pytest.mark.slow
    def test_reference_row_equatorial(self):
        # Full-resolution reproduction of a published single-satellite
        # validation row (60-day window, 0.1 deg grid); runs 0.8 to 1.1 s.
        el = make_orbit(400.0, 60.0)
        rep = oracle_analyze(el, rv.SensorSpec.elevation(math.radians(10)), 0.0)
        assert rep.mrt_hours == pytest.approx(13.08, abs=0.02)

    @pytest.mark.slow
    def test_reference_row_midlatitude(self):
        a = rv.EARTH.equatorial_radius + 500.0
        el = rv.OrbitElements(a=a, inc=rv.sso_inclination(a))
        rep = oracle_analyze(el, rv.SensorSpec.elevation(math.radians(30)), math.radians(55))
        assert rep.mrt_hours == pytest.approx(14.46, abs=0.02)

    def test_config_validation(self):
        el = make_orbit(500.0, 60.0)
        with pytest.raises(ValueError):
            SimConfig(
                elements=(el,), sensor=rv.SensorSpec.elevation(0.2), lat=0.0,
                lons=np.array([0.0]), window=100.0, step=-1.0,
            )
        with pytest.raises(ValueError):
            SimConfig(
                elements=(el,), sensor=rv.SensorSpec.elevation(0.2), lat=0.0,
                lons=np.array([0.0]), window=100.0, step=0.1,
            )
        with pytest.raises(ValueError):
            SimConfig(
                elements=(el,), sensor=rv.SensorSpec.elevation(0.2), lat=0.0,
                lons=np.array([0.0]), window=100.0, step=math.inf,
            )
        with pytest.raises(ValueError):
            SimConfig(
                elements=(el,), sensor=rv.SensorSpec.elevation(0.2), lat=0.0,
                lons=np.array([]), window=100.0,
            )
        for window in (-5.0, 0.0):
            with pytest.raises(ValueError):
                SimConfig(
                    elements=(el,), sensor=rv.SensorSpec.elevation(0.2), lat=0.0,
                    lons=np.array([0.0]), window=window,
                )

    @pytest.mark.parametrize("lons", [[math.nan, 0.0], [math.inf], [0.0, -math.inf]])
    def test_non_finite_longitude_is_named_config_error(self, lons):
        # A NaN longitude would count as covered, and an infinite one would
        # warn inside wrap_angle; both are refused at construction.
        with pytest.raises(rv.ConfigError, match="lons must be finite"):
            SimConfig(
                elements=(make_orbit(500.0, 60.0),), sensor=rv.SensorSpec.elevation(0.2),
                lat=0.0, lons=lons, window=86400.0,
            )

    def test_step_count_is_bounded_at_construction(self):
        # SimConfig allocates nothing per step, so the oversized runs below
        # are refused before any array of one element per step exists.
        kw = dict(
            elements=(make_orbit(500.0, 60.0),), sensor=rv.SensorSpec.elevation(0.2),
            lat=0.0, lons=np.array([0.0]),
        )
        # The largest oracle run of the tests: 60 days at 10 s.
        assert 60 * 8640 + 1 < MAX_ORACLE_STEPS // 4
        SimConfig(**kw, window=MAX_ORACLE_STEPS * 10.0, step=10.0)
        for window, step in ((3660 * 86400.0, 10.0), (60 * 86400.0, 0.11)):
            with pytest.raises(rv.ConfigError, match="time steps; at most 4000000"):
                SimConfig(**kw, window=window, step=step)

    def test_list_and_array_longitudes_give_equal_tables(self):
        el = make_orbit(650.0, 65.0)
        lons = [-0.5, 0.0, 1.0]
        tables = [
            simulate_access_table(SimConfig(
                elements=(el,), sensor=rv.SensorSpec.elevation(math.radians(12)),
                lat=math.radians(25), lons=given, window=86400.0,
            ))
            for given in (lons, np.array(lons))
        ]
        assert tables[0].point.size > 0
        for got, want in zip(*((t.point, t.start, t.end) for t in tables)):
            assert np.array_equal(got, want)



_SSO_500 = rv.OrbitElements(
    a=rv.EARTH.equatorial_radius + 500.0,
    inc=rv.sso_inclination(rv.EARTH.equatorial_radius + 500.0),
)
# name: (orbit, elevation mask in deg, latitude in deg, walker)
_FIELD_CASES = {
    "400km_i60_e10_lat0": (make_orbit(400.0, 60.0), 10.0, 0.0, rv.WalkerConfig()),
    "w330_700km_i90_e0_lat0": (make_orbit(700.0, 90.0), 0.0, 0.0, rv.WalkerConfig(3, 3, 0)),
    "w331_1500km_i96_e20_lat0": (make_orbit(1500.0, 96.0), 20.0, 0.0, rv.WalkerConfig(3, 3, 1)),
    "700km_i60_e10_lat40": (make_orbit(700.0, 60.0), 10.0, 40.0, rv.WalkerConfig()),
    "sso_500km_e30_lat55": (_SSO_500, 30.0, 55.0, rv.WalkerConfig()),
    "w2460_700km_i60_e10_lat40": (make_orbit(700.0, 60.0), 10.0, 40.0, rv.WalkerConfig(24, 6, 0)),
}


class TestEngineAgainstOracle:
    # 24/6/0 takes about 1.3 s, the other five under 0.2 s each.
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.slow) if name.startswith("w2460") else name
        for name in sorted(_FIELD_CASES)
    ])
    def test_every_report_field_within_todays_bounds(self, name):
        # Every field of the engine's report against the time-stepped
        # simulation, at 1 deg and 10 days.  Each bound is today's worst
        # case over the six cases, rounded outward; the measured range is
        # beside it.  A change that brings the engine closer tightens the
        # bounds it improves; none may loosen one.  pass_count is left
        # unasserted until the window-edge passes settle what it counts:
        # the engine counts the crossings of its pass comb and the oracle
        # the sign changes of its time steps, up to 3 apart (876 against
        # 873 on 3/3/0).
        el, elev_deg, lat_deg, walker = _FIELD_CASES[name]
        args = (el, rv.SensorSpec.elevation(math.radians(elev_deg)), math.radians(lat_deg),
                walker, EngineSettings(window=10 * 86400.0, grid_res=math.radians(1.0)))
        eng, orc = analyze(*args), oracle_analyze(*args)
        # Measured: -2.25% (24/6/0, 261 654 against 267 672) to -0.03%.
        assert -0.023 <= eng.gap_count / orc.gap_count - 1.0 <= 0.0
        # Measured, in s: MRT -15.2 to +34.2, ART +8.4 to +134.2, TTC -18.1 to +44.4.
        assert -16.0 <= 3600.0 * (eng.mrt_hours - orc.mrt_hours) <= 35.0
        assert 0.0 <= 3600.0 * (eng.art_hours - orc.art_hours) <= 135.0
        ttc = 3600.0 * (eng.time_to_full_coverage_hours - orc.time_to_full_coverage_hours)
        assert -19.0 <= ttc <= 45.0
        # Measured: full coverage on both sides.
        assert eng.coverage_fraction == orc.coverage_fraction == 1.0
        assert eng.uncovered_count == orc.uncovered_count == 0
        assert (eng.grid_size, eng.clamped) == (orc.grid_size, orc.clamped) == (360, False)


def _sim(el, sensor, lat_deg, lons, window, walker=rv.WalkerConfig(), step=10.0):
    return SimConfig(
        elements=tuple(plane_elements(el, walker)), sensor=sensor,
        lat=math.radians(lat_deg), lons=np.asarray(lons, dtype=float), window=window,
        step=step,
    )


_GRID_1 = np.radians(np.arange(-180.0, 180.0, 1.0))
_GRID_4 = np.radians(np.arange(-180.0, 180.0, 4.0))
# Unsorted: an offset grid, random longitudes and some beyond +-180 deg.
_RNG = np.random.default_rng(8)
_SCATTERED = np.radians(_RNG.permutation(np.concatenate([
    np.arange(-179.531, 180.0, 10.0), _RNG.uniform(-180.0, 180.0, 61),
    [-540.0, 200.0, 359.5, 720.25],
])))
_ORBIT_700_60 = make_orbit(700.0, 60.0)
_SCREEN_CASES = {
    # The three criterion-4 cross-check configurations, 1 deg grid, 10 days.
    "400km_i60_e10": (make_orbit(400.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                      0.0, _GRID_1, 10 * 86400.0, rv.WalkerConfig()),
    "w330_700km_i90_e0": (make_orbit(700.0, 90.0), rv.SensorSpec.elevation(0.0),
                          0.0, _GRID_1, 10 * 86400.0, rv.WalkerConfig(3, 3, 0)),
    "w331_1500km_i96_e20": (make_orbit(1500.0, 96.0), rv.SensorSpec.elevation(math.radians(20)),
                            0.0, _GRID_1, 10 * 86400.0, rv.WalkerConfig(3, 3, 1)),
    "eccentric_boresight": (
        rv.OrbitElements(a=7300.0, e=0.02, inc=math.radians(70.0), argp=1.2, nu0=1.5),
        rv.SensorSpec.boresight(math.radians(45.0)), 20.0, _GRID_4, 4 * 86400.0,
        rv.WalkerConfig()),
    "scattered_lons": (make_orbit(600.0, 55.0), rv.SensorSpec.elevation(math.radians(5)),
                       30.0, _SCATTERED, 3 * 86400.0, rv.WalkerConfig()),
    "single_lon": (make_orbit(600.0, 55.0), rv.SensorSpec.boresight(math.radians(50)),
                   -40.0, np.radians([33.3]), 6 * 86400.0, rv.WalkerConfig()),
    "grazing": (make_orbit(800.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                59.5, _GRID_1, 3 * 86400.0, rv.WalkerConfig()),
    "elevation_0": (make_orbit(500.0, 45.0), rv.SensorSpec.elevation(0.0),
                    40.0, _GRID_1, 3 * 86400.0, rv.WalkerConfig()),
    "high_lat_full_window": (make_orbit(1500.0, 98.0), rv.SensorSpec.elevation(0.0),
                             80.0, _GRID_4, 3 * 86400.0, rv.WalkerConfig()),
    "walker_632": (make_orbit(900.0, 55.0), rv.SensorSpec.boresight(math.radians(40)),
                   25.0, _GRID_4, 3 * 86400.0, rv.WalkerConfig(6, 3, 2)),
    "window_off_step": (make_orbit(500.0, 97.4), rv.SensorSpec.elevation(math.radians(15)),
                        -35.0, _GRID_1, 2 * 86400.0 + 3.7, rv.WalkerConfig()),
    # Targets at the poles, where every longitude is one point.
    "pole_north_elevation": (make_orbit(700.0, 98.0), rv.SensorSpec.elevation(math.radians(10)),
                             90.0, _GRID_4, 3 * 86400.0, rv.WalkerConfig()),
    "pole_south_boresight": (make_orbit(800.0, 97.0), rv.SensorSpec.boresight(math.radians(45)),
                             -90.0, _GRID_4, 3 * 86400.0, rv.WalkerConfig()),
    "retrograde_140": (make_orbit(600.0, 140.0), rv.SensorSpec.elevation(math.radians(5)),
                       30.0, _GRID_1, 3 * 86400.0, rv.WalkerConfig()),
    # Long steps: at 1800 s the track moves by more than pi between steps.
    "step_600": (make_orbit(500.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                 20.0, _GRID_1, 10 * 86400.0, rv.WalkerConfig(), 600.0),
    "step_1800": (make_orbit(1200.0, 70.0), rv.SensorSpec.boresight(math.radians(50)),
                  -30.0, _GRID_1, 20 * 86400.0, rv.WalkerConfig(), 1800.0),
    "near_geo": (rv.OrbitElements(a=42164.0, e=0.0002, inc=math.radians(3.0), nu0=0.4),
                 rv.SensorSpec.elevation(math.radians(10)), 40.0, _GRID_1, 3 * 86400.0,
                 rv.WalkerConfig()),
    "molniya": (rv.OrbitElements(a=26600.0, e=0.74, inc=math.radians(63.4),
                                 argp=math.radians(270.0)),
                rv.SensorSpec.elevation(math.radians(10)), 60.0, _GRID_4, 3 * 86400.0,
                rv.WalkerConfig()),
    # A cap of about 1.2 deg, where RANGE_PAD is the largest share of the
    # cap radius and most steps are out of view.
    "cap_under_2deg": (make_orbit(500.0, 60.0), rv.SensorSpec.boresight(math.radians(15)),
                       30.0, _GRID_1, 3 * 86400.0, rv.WalkerConfig()),
    # Starts on the ascending node over the equator target and ends 15
    # nodal periods later, back on it: points are in view at both ends.
    "in_view_at_both_ends": (_ORBIT_700_60, rv.SensorSpec.elevation(0.0), 0.0, _GRID_1,
                             15 * nodal_period(_ORBIT_700_60.a, _ORBIT_700_60.e,
                                               _ORBIT_700_60.inc), rv.WalkerConfig()),
    # The same over one nodal period: 591 steps, few enough for chunks of one.
    "in_view_one_period": (_ORBIT_700_60, rv.SensorSpec.elevation(0.0), 0.0, _GRID_1,
                           nodal_period(_ORBIT_700_60.a, _ORBIT_700_60.e, _ORBIT_700_60.inc),
                           rv.WalkerConfig()),
}


# Cases whose dense scan takes 0.5 s or more; it runs once a session, in
# whichever test of the case comes first.
_SLOW_SCREEN_CASES = {"400km_i60_e10", "w330_700km_i90_e0", "w331_1500km_i96_e20",
                      "walker_632", "cap_under_2deg"}


def _screen_mark(case):
    return [pytest.mark.slow] if case in _SLOW_SCREEN_CASES else []


@functools.cache
def _dense_table(case):
    return dense_access_table(_sim(*_SCREEN_CASES[case]))


# Chunks of 97 steps and of more steps than the window holds on every case,
# each case at 1, 2 or 3 threads in turn.
_CHUNKINGS = [
    pytest.param(case, chunk, 1 + (k + j) % 3, id=f"{case}-{chunk or 'whole'}",
                 marks=_screen_mark(case))
    for k, case in enumerate(_SCREEN_CASES)
    for j, chunk in enumerate((97, None))
]


class TestAgainstDenseScan:
    @pytest.mark.parametrize("case", [
        pytest.param(case, marks=_screen_mark(case)) for case in _SCREEN_CASES
    ])
    def test_access_table_is_bit_identical_to_the_unscreened_scan(self, case):
        cfg = _sim(*_SCREEN_CASES[case])
        got, want = simulate_access_table(cfg), _dense_table(case)
        assert want.point.size > 0
        for name in ("point", "start", "end"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.pass_count, got.merge_tol) == (want.pass_count, want.merge_tol)

    @pytest.mark.parametrize("case, chunk, threads", _CHUNKINGS)
    def test_no_table_depends_on_the_chunks_or_the_thread_count(
        self, case, chunk, threads, monkeypatch
    ):
        # Each column's parity is complete in the one chunk that owns it,
        # and every state is propagated element by element, so any chunk
        # size on any thread count gives the dense scan's table bit for bit.
        cfg = _sim(*_SCREEN_CASES[case])
        n_t = int(cfg.window // cfg.step) + 2
        monkeypatch.setattr(oracle, "CHUNK_STEPS", chunk or n_t)
        monkeypatch.setattr(coverage, "usable_cores", lambda: threads)
        got, want = simulate_access_table(cfg), _dense_table(case)
        for name in ("point", "start", "end", "pass_count"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    # One thread takes about 0.45 s, two or three 0.5 to 0.8 s.
    @pytest.mark.parametrize("threads", [
        1, pytest.param(2, marks=pytest.mark.slow), pytest.param(3, marks=pytest.mark.slow),
    ])
    def test_chunks_of_one_step_or_edge_give_the_dense_scan(self, threads, monkeypatch):
        # 591 one-step chunks and one unit per edge, their bisections
        # written into shared arrays, on up to more threads than a 2-core
        # machine has and with thread switches forced often: the table
        # is still the dense scan's.  The case is in view at both ends.
        case = "in_view_one_period"
        cfg = _sim(*_SCREEN_CASES[case])
        monkeypatch.setattr(oracle, "CHUNK_STEPS", 1)
        monkeypatch.setattr(coverage, "usable_cores", lambda: threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_access_table(cfg)
        finally:
            sys.setswitchinterval(interval)
        want = _dense_table(case)
        assert np.any(got.start == 0.0) and np.any(got.end == cfg.window)
        for name in ("point", "start", "end", "pass_count"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_a_visible_run_spans_many_chunks(self, monkeypatch):
        # The near-geostationary satellite keeps points in view for hours:
        # runs that rise and fall inside the window across 5 chunks and more.
        monkeypatch.setattr(oracle, "CHUNK_STEPS", 97)
        cfg = _sim(*_SCREEN_CASES["near_geo"])
        got = simulate_access_table(cfg)
        inner = (got.start > 0.0) & (got.end < cfg.window)
        assert np.any(inner & (got.end - got.start > 5 * 97 * cfg.step))
        for name in ("point", "start", "end"):
            assert np.array_equal(getattr(got, name), getattr(_dense_table("near_geo"), name))

    def test_peak_memory_does_not_grow_with_the_window(self, monkeypatch):
        # One thread holds one chunk's arrays at a time, so 16 days peak
        # within 1.5 times 2 days, whose 17 281 steps fill one chunk.  An
        # array of one element per step would make the peak grow 8-fold.
        monkeypatch.setattr(coverage, "usable_cores", lambda: 1)
        peaks = []
        for days in (2, 16):
            cfg = _sim(make_orbit(500.0, 60.0), rv.SensorSpec.elevation(math.radians(10)),
                       20.0, _GRID_4, days * 86400.0)
            assert cfg.window / cfg.step > oracle.CHUNK_STEPS
            tracemalloc.start()
            try:
                simulate_access_table(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_window_opens_and_closes_in_view(self):
        for case in ("in_view_at_both_ends", "in_view_one_period"):
            cfg = _sim(*_SCREEN_CASES[case])
            tab = simulate_access_table(cfg)
            assert np.any(tab.start == 0.0) and np.any(tab.end == cfg.window)

    def test_a_step_seen_only_through_the_slack_keeps_its_edge(self):
        # The target latitude is put 5e-8 rad inside the cap's reach at step
        # 50, on the sub-satellite meridian, as the satellite closes on it:
        # at that step the inner range is empty and the margin alone finds
        # the one point visible, so the rise lies between steps 49 and 50.
        el, sensor = make_orbit(700.0, 60.0), rv.SensorSpec.elevation(math.radians(10))
        times = np.arange(0.0, 1001.0, 10.0)
        state = propagate_j2(el, times)
        r, lat_s, lon_s = (x[50] for x in state)
        lat = lat_s
        for _ in range(3):
            r_t = geodetic_radius(lat)
            lat = lat_s + math.acos(r_t * math.cos(sensor.angle) / r) - sensor.angle - 5e-8
        cfg = SimConfig(elements=(el,), sensor=sensor, lat=lat, lons=[lon_s], window=1000.0)
        (_, inner), (_, outer), _ = _step_ranges(cfg, state)
        assert (inner[49:52].tolist(), outer[49:52].tolist()) == ([0, 0, 1], [0, 1, 1])
        assert _visibility_margin(sensor, geodetic_radius(lat), lat, lon_s, r, lat_s, lon_s) >= 0.0
        got, want = simulate_access_table(cfg), dense_access_table(cfg)
        for name in ("point", "start", "end"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.point.size == 1 and times[49] < got.start[0] < times[50]

    @given(
        perigee_km=st.floats(min_value=300.0, max_value=2000.0),
        e=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.05)),
        inc=st.floats(min_value=0.0, max_value=math.pi),
        raan=st.floats(min_value=0.0, max_value=2 * math.pi),
        argp=st.floats(min_value=0.0, max_value=2 * math.pi),
        nu0=st.floats(min_value=0.0, max_value=2 * math.pi),
        boresight=st.booleans(),
        angle_deg=st.floats(min_value=0.0, max_value=60.0),
        lat_deg=st.floats(min_value=-85.0, max_value=85.0),
        step=st.sampled_from([10.0, 60.0, 600.0]),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.slow
    def test_random_orbit_is_bit_identical_to_the_unscreened_scan(
        self, perigee_km, e, inc, raan, argp, nu0, boresight, angle_deg, lat_deg, step
    ):
        # Orbits from circular to e = 0.05, both sensor modes, any target
        # latitude within 85 deg, 4 deg grid, one day; the 40 examples take
        # 0.6 to 1.7 s on a 2-core machine.
        el = rv.OrbitElements(a=(rv.EARTH.equatorial_radius + perigee_km) / (1.0 - e), e=e,
                              inc=inc, raan=raan, argp=argp, nu0=nu0)
        make = rv.SensorSpec.boresight if boresight else rv.SensorSpec.elevation
        cfg = _sim(el, make(math.radians(angle_deg)), lat_deg, _GRID_4, 86400.0, step=step)
        got, want = simulate_access_table(cfg), dense_access_table(cfg)
        for name in ("point", "start", "end", "pass_count"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_high_latitude_case_takes_every_longitude(self):
        el, sensor, lat_deg, lons, window, _ = _SCREEN_CASES["high_lat_full_window"]
        cfg = _sim(el, sensor, lat_deg, lons, window)
        times = np.arange(0.0, 6000.0, 10.0)
        for _, count in _step_ranges(cfg, propagate_j2(el, times))[:2]:
            assert np.any(count == lons.size) and np.any(count == 0)
            assert np.any((count > 0) & (count < lons.size))

    @pytest.mark.parametrize(
        "sensor", [rv.SensorSpec.elevation(math.radians(5)), rv.SensorSpec.boresight(0.5)]
    )
    def test_satellite_below_the_target_radius_sees_nothing(self, sensor):
        # Perigee above the polar radius is accepted, yet this orbit runs
        # below the equator's surface: every elevation there is negative.
        el = rv.OrbitElements(a=rv.EARTH.equatorial_radius - 8.0, inc=math.radians(50.0))
        tab = simulate_access_table(_sim(el, sensor, 0.0, _GRID_4, 86400.0))
        assert tab.point.size == 0

    @given(
        r=st.floats(min_value=rv.EARTH.equatorial_radius + 150.0, max_value=50000.0),
        lat=st.floats(min_value=-math.radians(89.9), max_value=math.radians(89.9)),
        lon_s=st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
        reach=st.floats(min_value=1e-3, max_value=math.pi),
        turns=st.integers(min_value=-2, max_value=2),
        boresight=st.booleans(),
        angle=st.floats(min_value=0.0, max_value=math.pi / 2),
    )
    # The cap just reaches over the pole: every longitude can see the satellite.
    @example(r=6459.0, lat=math.radians(80.0), lon_s=0.0, reach=math.pi, turns=0,
             boresight=False, angle=0.0)
    # A mask near 90 degrees: the cap radius read off the mask, without
    # slack, leaves out pairs whose margin is up to 6e-11 rad.
    @example(r=6586.781679698914, lat=0.5354368161604288, lon_s=0.9248189764942678,
             reach=1.9336739602465616, turns=1, boresight=False, angle=1.5664137041810673)
    @settings(max_examples=300, deadline=None)
    @pytest.mark.slow
    def test_every_visible_pair_passes_the_screen(
        self, r, lat, lon_s, reach, turns, boresight, angle
    ):
        # Every pair in a step's inner range has visibility margin >= 0, and
        # every pair with margin >= 0 is in its outer range: the margin, which
        # decides the pairs between them, is the oracle's one test of
        # visibility.  Satellite latitudes and target longitudes at random,
        # and within 3e-8 rad of the edge of the cap of visible central
        # angles: on the target's meridian, and at the cap's widest longitude
        # offset.  Target longitudes are shifted by whole turns.
        r_t = geodetic_radius(lat)
        if boresight:
            sensor = rv.SensorSpec.boresight(min(angle, math.pi / 2 - 1e-6))
            cap = math.acos(r_t / r)
            if r * math.sin(sensor.angle) < r_t:
                cap = min(cap, math.asin(r * math.sin(sensor.angle) / r_t) - sensor.angle)
        else:
            sensor = rv.SensorSpec.elevation(angle)
            cap = math.acos(r_t * math.cos(angle) / r) - angle
        edge = cap + 1e-8 * np.arange(-3, 4)
        wide = math.asin(min(math.sin(cap) / math.cos(lat), 1.0)) + 1e-8 * np.arange(-3, 4)
        widest_at = math.asin(float(np.clip(math.sin(lat) / math.cos(cap), -1.0, 1.0)))
        lat_s = np.clip(
            np.concatenate([lat + edge, lat - edge, [widest_at], lat + np.linspace(-1.2, 1.2, 41)]),
            -math.pi / 2, math.pi / 2,
        )
        lons = lon_s + 2 * math.pi * turns + np.concatenate(
            [np.linspace(-reach, reach, 201), wide, -wide]
        )
        cfg = SimConfig(elements=(), sensor=sensor, lat=lat, lons=lons, window=10.0)
        state = (np.full(lat_s.size, r), lat_s, np.full(lat_s.size, lon_s))
        inner, outer, order = _step_ranges(cfg, state)
        kept = np.zeros((2, lons.size, lat_s.size), dtype=bool)
        for (lo, count), kept_by in zip((inner, outer), kept):
            for k in range(lat_s.size):
                pts = order[(lo[k] + np.arange(count[k])) % lons.size]
                assert np.unique(pts).size == pts.size
                kept_by[pts, k] = True
        visible = _visibility_margin(sensor, r_t, lat, lons[:, None], *state) >= 0.0
        assert not (kept[0] & ~visible).any()
        assert not (visible & ~kept[1]).any()
