"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria 1-3 reproduce published validation tables for the method (single
satellites, a latitude sweep, and three-satellite Walker patterns); 4
cross-checks random configurations against the built-in brute-force
simulator; 5 guards runtime; 6 aggregates the module invariants; 7 checks
figure-level orderings.
"""
import functools
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

import revisit as rv
from revisit.earth import EarthConstants
from revisit.engine import EngineSettings, analyze, oracle_analyze
from revisit.passes import keplerian_period, nodal_period, raan_drift_rate
from revisit.sensor import SensorSpec, radius_at_latitude, resolve_footprint

from conftest import make_orbit


def _report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"{name}: {len(failures)} case(s) out of tolerance"


# --- Criterion 1: single-satellite validation table (equator + SSO) -------

TABLE_1 = [
    # alt_km, inc_deg, min_elev_deg, reference MRT hours
    (400.0, 20.0, 10.0, 9.78),
    (400.0, 20.0, 40.0, 24.65),
    (400.0, 60.0, 10.0, 13.08),
    (400.0, 60.0, 40.0, 59.37),
    (800.0, 20.0, 10.0, 5.32),
    (800.0, 20.0, 40.0, 10.79),
    (800.0, 60.0, 10.0, 10.76),
    (800.0, 60.0, 40.0, 23.48),
    (550.0, 97.59, 20.0, 109.30),
    (700.0, 98.19, 30.0, 35.38),
]


def test_criterion_1_single_satellite_table():
    t0 = time.time()
    failures = []
    for alt, inc_deg, elev_deg, want in TABLE_1:
        el = make_orbit(alt, inc_deg)
        rep = analyze(el, SensorSpec.elevation(math.radians(elev_deg)), 0.0)
        got = rep.mrt_hours
        if got is None or abs(got - want) > 0.02:
            failures.append(f"h={alt} i={inc_deg} elev={elev_deg}: want {want}, got {got}")
    elapsed = time.time() - t0
    if elapsed > 15.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 15 s")
    print(f"\n  criterion 1 runtime: {elapsed:.1f} s")
    _report("1 (single-satellite table)", failures)


# --- Criterion 2: latitude sweep at a 500 km sun-synchronous orbit --------

TABLE_2 = [
    (0, 72.59), (5, 84.38), (10, 60.66), (15, 60.60), (20, 36.88),
    (25, 36.83), (30, 23.65), (35, 35.78), (40, 35.83), (45, 35.88),
    (50, 25.23), (55, 14.46), (60, 14.41), (65, 14.36), (70, 14.32),
    (75, 14.28), (80, 14.24),
]


def test_criterion_2_latitude_table():
    # Known deviation: the 50 deg row.  The reference lists 25.23 h; this
    # implementation computes 38.19 h, and the independent brute-force
    # simulator in this repository confirms 38.19 h on the same grid and
    # window (it also reproduces the 109.30 h near-singular row of the
    # single-satellite table to 0.004 h).  The value is insensitive to
    # inclination (+-0.2 deg), altitude (+-3 km), rotation-rate (1e-4
    # relative) and latitude (+-0.5 deg) perturbations, while every
    # neighbouring row matches to 0.005 h, so the discrepancy appears to
    # stem from an unstated detail of the reference setup for this row
    # rather than from the implementation.  The row is asserted as
    # published, and is expected to fail until that detail is identified.
    a = rv.EARTH.equatorial_radius + 500.0
    inc = rv.sso_inclination(a)
    el = rv.OrbitElements(a=a, inc=inc)
    sensor = SensorSpec.elevation(math.radians(30))
    failures = []
    for lat_deg, want in TABLE_2:
        rep = analyze(el, sensor, math.radians(lat_deg))
        got = rep.mrt_hours
        tol = 0.05 if lat_deg >= 75 else 0.02
        if got is None or abs(got - want) > tol:
            failures.append(f"lat={lat_deg}: want {want}, got {None if got is None else round(got, 3)}")
    _report("2 (latitude sweep table)", failures)


# --- Criterion 3: three-satellite Walker patterns --------------------------

TABLE_3 = [
    # inc_deg, (t, p, f), alt_km, min_elev_deg, reference, stale literature values
    (90.0, (3, 3, 0), 700.0, 0.0, 2.30, (2.60,)),
    (86.0, (3, 3, 0), 1100.0, 10.0, 4.25, (4.35, 4.46)),
    (96.0, (3, 3, 1), 1500.0, 20.0, 3.38, (3.78,)),
]


def test_criterion_3_constellation_table():
    failures = []
    for inc_deg, (t, p, f), alt, elev_deg, want, stale in TABLE_3:
        el = make_orbit(alt, inc_deg)
        rep = analyze(
            el, SensorSpec.elevation(math.radians(elev_deg)), 0.0,
            walker=rv.WalkerConfig(t, p, f),
        )
        got = rep.mrt_hours
        if got is None or abs(got - want) > 0.05:
            failures.append(f"{t}/{p}/{f} h={alt}: want {want}, got {got}")
            continue
        for bad in stale:
            if abs(got - bad) <= 0.05:
                failures.append(f"{t}/{p}/{f} h={alt}: got {got} matches stale value {bad}")
    _report("3 (constellation table)", failures)


# --- Criterion 4: equivalence with the brute-force simulator ---------------

def _draw_candidate(rng):
    alt = rng.uniform(400.0, 1200.0)
    inc_deg = rng.uniform(20.0, 100.0)
    elev_deg = rng.uniform(0.0, 40.0)
    apex_deg = min(inc_deg, 180.0 - inc_deg)
    lat_max = min(70.0, apex_deg - 5.0)
    if lat_max <= 0.0:
        return None
    lat_deg = rng.uniform(0.0, lat_max)
    total = int(rng.integers(1, 5))
    planes = int(rng.choice([d for d in range(1, total + 1) if total % d == 0]))
    phasing = int(rng.integers(0, planes))
    return alt, inc_deg, elev_deg, lat_deg, (total, planes, phasing)


def _well_posed(el, sensor, lat, walker, settings, apex):
    """Accept a configuration only if its revisit metric is not balanced
    on a marginal grazing access.

    The footprint model is an approximation; near its boundary the engine
    and the simulator may legitimately disagree about a near-tangent
    access, which can swing the maximum gap by a whole sub-gap.  The
    screen rejects draws whose result moves by more than half the
    comparison tolerance under a +-2% footprint perturbation, and draws
    whose footprint reaches the track apex (no transversal crossing).
    """
    _, _, r_asc, _ = radius_at_latitude(el, lat)
    fp = resolve_footprint(sensor, r_asc, lat)
    if lat + 1.3 * fp.ground_range > apex:
        return None
    rep = analyze(el, sensor, lat, walker=walker, settings=settings)
    if rep.window_exceeded or rep.mrt_hours is None or rep.mrt_hours > 120.0:
        return None
    tol = max(0.02 * rep.mrt_hours, 2.0 / 60.0)
    for scale in (0.98, 1.02):
        probe = analyze(
            el, sensor, lat, walker=walker,
            settings=replace(settings, footprint_scale=scale),
        )
        if probe.mrt_hours is None or abs(probe.mrt_hours - rep.mrt_hours) > 0.5 * tol:
            return None
    return rep


@functools.cache
def _criterion_4_draws():
    """Criterion 4's seeded draws: (label, engine report, oracle report) of
    each of up to 20 accepted configurations, the draws tried and the
    seconds taken.  Cached, so each draw's oracle runs once a session."""
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    settings = EngineSettings(window=10 * 86400.0, grid_res=math.radians(1.0))
    draws = []
    tried = 0
    while len(draws) < 20 and tried < 400:
        tried += 1
        cand = _draw_candidate(rng)
        if cand is None:
            continue
        alt, inc_deg, elev_deg, lat_deg, (t, p, f) = cand
        el = make_orbit(alt, inc_deg)
        sensor = SensorSpec.elevation(math.radians(elev_deg))
        walker = rv.WalkerConfig(t, p, f)
        lat = math.radians(lat_deg)
        apex = math.radians(min(inc_deg, 180.0 - inc_deg))
        rep = _well_posed(el, sensor, lat, walker, settings, apex)
        if rep is None:
            continue
        sim = oracle_analyze(el, sensor, lat, walker=walker, settings=settings)
        label = f"h={alt:.0f} i={inc_deg:.1f} elev={elev_deg:.1f} lat={lat_deg:.1f} {t}/{p}/{f}"
        draws.append((label, rep, sim))
    return tuple(draws), tried, time.time() - t0


@pytest.mark.slow
def test_criterion_4_oracle_equivalence():
    draws, tried, elapsed = _criterion_4_draws()
    failures = []
    for label, rep, sim in draws:
        tol = max(0.02 * sim.mrt_hours, 2.0 / 60.0)
        if abs(rep.mrt_hours - sim.mrt_hours) > tol:
            failures.append(
                f"{label}: engine {rep.mrt_hours:.3f} vs sim {sim.mrt_hours:.3f}"
            )
    if len(draws) < 20:
        failures.append(f"only {len(draws)} acceptable configurations in {tried} draws")
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.0f} s exceeds 600 s")
    print(f"\n  criterion 4: {len(draws)} configs, {tried} draws, {elapsed:.0f} s")
    _report("4 (brute-force equivalence)", failures)


@pytest.mark.slow
def test_criterion_4_every_report_field():
    # Every field of the engine's report against the time-stepped
    # simulation on criterion 4's draws, at 1 deg and 10 days.  Each bound
    # is today's worst case over the 20 draws, rounded outward, with the
    # measured range beside it; a change that brings the engine closer
    # tightens the bounds it improves, and none may loosen one.  Two draws
    # set the widest bounds:
    # - TTC +1480.7 s on 757 km / 99.1 deg / 28.8 deg elevation / 2.8 deg
    #   latitude, 4/1/0, most likely a pass at the window's edge (not
    #   verified);
    # - gaps +3.50% and ART -245.4 s on 1028 km / 86.0 deg / 10.4 deg /
    #   26.9 deg, 4/2/1: the engine finds more gaps than the oracle, the
    #   opposite sign from the six table cases, for a cause not known.
    draws, _, _ = _criterion_4_draws()
    assert len(draws) == 20
    for label, eng, orc in draws:
        # Measured: -0.98% to +3.50%.
        assert -0.010 <= eng.gap_count / orc.gap_count - 1.0 <= 0.035, label
        # Measured, in s: MRT -12.6 to +13.9, ART -245.4 to +125.5, TTC -9.7 to +1480.7.
        assert -13.0 <= 3600.0 * (eng.mrt_hours - orc.mrt_hours) <= 14.0, label
        assert -246.0 <= 3600.0 * (eng.art_hours - orc.art_hours) <= 126.0, label
        ttc = 3600.0 * (eng.time_to_full_coverage_hours - orc.time_to_full_coverage_hours)
        assert -10.0 <= ttc <= 1481.0, label
        # Measured: full coverage on both sides and equal pass counts on every draw.
        assert eng.coverage_fraction == orc.coverage_fraction == 1.0, label
        assert eng.uncovered_count == orc.uncovered_count == 0, label
        assert eng.pass_count == orc.pass_count, label
        assert (eng.grid_size, eng.clamped) == (orc.grid_size, orc.clamped) == (360, False), label


# --- Criterion 5: serial runtime --------------------------------------------

def test_criterion_5_runtime():
    el = make_orbit(400.0, 20.0)
    sensor = SensorSpec.elevation(math.radians(10))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        analyze(el, sensor, 0.0)
        times.append(time.perf_counter() - t0)
    median = statistics.median(times)
    print(f"\n  criterion 5: median default-case runtime {median * 1e3:.0f} ms")
    failures = []
    if median >= 5.0:
        failures.append(f"median runtime {median:.2f} s exceeds the 5 s hard limit")
    if median >= 1.0:
        # Informational on shared hardware; the hard gate is 5 s.
        print(f"  note: median {median:.2f} s above the 1 s goal")
    _report("5 (runtime)", failures)


# --- Criterion 6: module invariants -----------------------------------------

def test_criterion_6_property_suite():
    failures = []
    rng = np.random.default_rng(11)
    r_eq = rv.EARTH.equatorial_radius

    # Sensor monotonicity and longitude-width dominance, 1e4 samples.
    r_s = r_eq + rng.uniform(150.0, 2500.0, 10_000)
    elev = np.sort(rng.uniform(0.0, math.pi / 2, (10_000, 2)), axis=1)
    for k in range(0, 10_000, 997):
        lo = rv.ground_range_from_elevation(r_eq, float(r_s[k]), float(elev[k, 0]))
        hi = rv.ground_range_from_elevation(r_eq, float(r_s[k]), float(elev[k, 1]))
        if hi > lo + 1e-12:
            failures.append("ground range not decreasing in elevation")
            break
    lat = rng.uniform(0.0, math.radians(80), 10_000)
    for k in range(0, 10_000, 499):
        try:
            fp = resolve_footprint(
                SensorSpec.elevation(float(elev[k, 0])), float(r_s[k]), float(lat[k])
            )
        except rv.PoleOverlapError:
            continue
        if fp.lon_half_width < fp.ground_range - 1e-12:
            failures.append("longitude half-width below ground range")
            break

    # Unperturbed limit and polar node drift.
    if not math.isclose(
        nodal_period(6778.137, 0.0, 0.3, EarthConstants(j2=0.0)),
        keplerian_period(6778.137),
        rel_tol=1e-14,
    ):
        failures.append("nodal period does not reduce to the Keplerian period at J2=0")
    if abs(raan_drift_rate(6878.137, 0.0, math.pi / 2)) > 1e-20:
        failures.append("polar node drift not zero")

    # Fleet monotonicity.
    sensor = SensorSpec.elevation(math.radians(10))
    st = EngineSettings(window=6 * 86400.0, grid_res=math.radians(1.0))
    el = make_orbit(800.0, 70.0)
    prev = None
    for total in (1, 2, 3):
        rep = analyze(el, sensor, math.radians(30), walker=rv.WalkerConfig(total, 1, 0), settings=st)
        if prev is not None and rep.mrt_hours > prev + 0.25:
            failures.append(f"MRT increased when growing the fleet to {total}")
        prev = rep.mrt_hours

    # Rotation invariance for whole-cell shifts, and grid determinism.
    el = make_orbit(600.0, 55.0)
    base = analyze(el, sensor, math.radians(20), settings=st)
    shifted = analyze(
        rv.OrbitElements(a=el.a, inc=el.inc, raan=5 * st.grid_res),
        sensor, math.radians(20), settings=st,
    )
    if abs(shifted.mrt_hours - base.mrt_hours) > 1e-6:
        failures.append("whole-cell rotation changed the result")
    if analyze(el, sensor, math.radians(20), settings=st) != base:
        failures.append("repeated run not identical")

    _report("6 (invariants)", failures)


# --- Criterion 7: figure-level orderings ------------------------------------

def test_criterion_7_qualitative_maps():
    failures = []
    sensor = SensorSpec.boresight(math.radians(45))
    lat40 = math.radians(40)

    # Sun-synchronous altitude sweep: the low-revisit band sits in the
    # 600-800 km range for a single satellite at 40 deg latitude.
    alts = np.arange(400.0, 901.0, 25.0)
    mrt = {}
    for alt in alts:
        a = rv.EARTH.equatorial_radius + float(alt)
        el = rv.OrbitElements(a=a, inc=rv.sso_inclination(a))
        rep = analyze(el, sensor, lat40)
        mrt[float(alt)] = rep.mrt_hours if rep.mrt_hours is not None else math.inf
    band = [mrt[h] for h in mrt if 600.0 <= h <= 800.0]
    best_band = min(band)
    if not (best_band <= mrt[400.0] and best_band <= mrt[900.0]):
        failures.append(
            f"band minimum {best_band:.2f} h not below the 400 km ({mrt[400.0]:.2f}) "
            f"and 900 km ({mrt[900.0]:.2f}) endpoints"
        )
    best_alt = min(mrt, key=mrt.get)
    if not 550.0 <= best_alt <= 850.0:
        failures.append(f"overall minimum at {best_alt:.0f} km, outside the expected band")

    # Latitude ordering: closer meridians improve the revisit for the same
    # satellite and sensor.
    a = rv.EARTH.equatorial_radius + 700.0
    el = rv.OrbitElements(a=a, inc=rv.sso_inclination(a))
    rep40 = analyze(el, sensor, lat40)
    rep70 = analyze(el, sensor, math.radians(70))
    if not rep70.mrt_hours <= rep40.mrt_hours:
        failures.append(
            f"MRT at 70 deg ({rep70.mrt_hours:.2f}) above MRT at 40 deg ({rep40.mrt_hours:.2f})"
        )
    _report("7 (qualitative maps)", failures)
