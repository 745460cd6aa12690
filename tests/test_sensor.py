import math

import numpy as np
import pytest

import revisit as rv
from revisit.errors import LatitudeUnreachableError, PoleOverlapError
from revisit.sensor import (
    SensorSpec,
    dihedral_half_angle,
    ground_range_from_boresight,
    ground_range_from_elevation,
    radius_at_latitude,
    resolve_footprint,
)

from conftest import make_orbit

R_EQ = 6378.137


class TestRadiusAtLatitude:
    def test_circular_orbit_radius_is_a(self):
        el = make_orbit(500.0, 60.0)
        _, _, r_asc, r_desc = radius_at_latitude(el, math.radians(30))
        assert r_asc == pytest.approx(el.a, abs=1e-12)
        assert r_desc == pytest.approx(el.a, abs=1e-12)

    def test_equatorial_crossing_symmetry(self):
        el = make_orbit(500.0, 60.0)
        nu_asc, nu_desc, _, _ = radius_at_latitude(el, 0.0)
        assert nu_asc == pytest.approx(0.0, abs=1e-15)
        assert nu_desc == pytest.approx(math.pi, abs=1e-15)

    def test_eccentric_golden(self):
        # Frozen from a standalone evaluation of the crossing geometry.
        el = rv.OrbitElements(
            a=7000.0, e=0.01, inc=math.radians(60), argp=math.radians(30)
        )
        nu_asc, nu_desc, r_asc, r_desc = radius_at_latitude(el, math.radians(20))
        assert nu_asc == pytest.approx(-0.11760620120079063, abs=1e-12)
        assert nu_desc == pytest.approx(2.2120013035939863, abs=1e-12)
        assert r_asc == pytest.approx(6930.4739924090745, abs=1e-9)
        assert r_desc == pytest.approx(7041.41905887449, abs=1e-9)

    def test_unreachable_latitude(self):
        el = make_orbit(500.0, 20.0)
        with pytest.raises(LatitudeUnreachableError):
            radius_at_latitude(el, math.radians(45))


class TestGroundRange:
    def test_elevation_nadir_only(self):
        assert ground_range_from_elevation(R_EQ, 6878.137, math.pi / 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_elevation_zero_gives_horizon(self):
        r_s = 6878.137
        want = math.acos(R_EQ / r_s)
        assert ground_range_from_elevation(R_EQ, r_s, 0.0) == pytest.approx(want, abs=1e-12)

    def test_elevation_golden_800km(self):
        # Frozen from a standalone evaluation at 800 km altitude, 10 deg.
        got = ground_range_from_elevation(R_EQ, 7178.137, math.radians(10))
        assert got == pytest.approx(0.33072142189452625, abs=1e-12)

    def test_boresight_zero_cone(self):
        theta, clamped = ground_range_from_boresight(R_EQ, 6878.137, 0.0)
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert not clamped

    def test_boresight_tangency_gives_horizon(self):
        r_s = 6878.137
        psi = math.asin(R_EQ / r_s)
        theta, clamped = ground_range_from_boresight(R_EQ, r_s, psi)
        assert theta == pytest.approx(math.acos(R_EQ / r_s), abs=1e-9)
        assert not clamped

    def test_boresight_golden_500km_45deg(self):
        # Frozen from a standalone evaluation; the two triangle routes
        # (sine law and angle sum) agree to machine precision.
        theta, clamped = ground_range_from_boresight(R_EQ, 6878.137, math.radians(45))
        assert theta == pytest.approx(0.08183032514914637, abs=1e-12)
        assert not clamped

    def test_boresight_beyond_horizon_clamps(self):
        theta, clamped = ground_range_from_boresight(R_EQ, 6878.137, math.radians(80))
        assert clamped
        assert theta == pytest.approx(math.acos(R_EQ / 6878.137), abs=1e-12)

    def test_boresight_elevation_round_trip(self):
        # Matched edge geometry: the implied edge elevation fed back into
        # the elevation route must reproduce the same ground range.
        r_s = 7078.137
        for psi_deg in (5.0, 15.0, 30.0, 45.0, 55.0):
            psi = math.radians(psi_deg)
            sin_edge = r_s * math.sin(psi) / R_EQ
            if sin_edge >= 1.0:
                continue
            theta, _ = ground_range_from_boresight(R_EQ, r_s, psi)
            elev = (math.pi - math.asin(sin_edge)) - math.pi / 2
            theta2 = ground_range_from_elevation(R_EQ, r_s, elev)
            assert theta == pytest.approx(theta2, abs=1e-9)


class TestDihedral:
    def test_equator_equals_ground_range(self):
        th = math.radians(12.0)
        assert dihedral_half_angle(th, 0.0) == pytest.approx(th, abs=1e-12)

    def test_zero_ground_range(self):
        assert dihedral_half_angle(0.0, math.radians(55)) == pytest.approx(0.0, abs=1e-7)

    def test_golden_lat60_theta10(self):
        # Frozen from a standalone closed-form evaluation; a brute-force
        # great-circle scan over the latitude circle agrees to 1e-6 rad.
        got = dihedral_half_angle(math.radians(10), math.radians(60))
        assert got == pytest.approx(0.35041301134379366, abs=1e-12)

    def test_brute_force_scan_agreement(self):
        lat, th = math.radians(60), math.radians(10)
        dl = np.linspace(0.0, math.pi / 2, 2_000_001)
        cos_c = math.sin(lat) ** 2 + math.cos(lat) ** 2 * np.cos(dl)
        c = np.arccos(np.clip(cos_c, -1.0, 1.0))
        scan = float(dl[np.searchsorted(c, th)])
        assert dihedral_half_angle(th, lat) == pytest.approx(scan, abs=1e-6)

    def test_pole_overlap_raises(self):
        with pytest.raises(PoleOverlapError):
            dihedral_half_angle(math.radians(40), math.radians(75))


class TestResolveFootprint:
    def test_lambda_at_least_theta(self):
        fp = resolve_footprint(SensorSpec.elevation(math.radians(20)), 6878.137, math.radians(50))
        assert fp.lon_half_width >= fp.ground_range

    def test_equator_lambda_equals_theta(self):
        fp = resolve_footprint(SensorSpec.boresight(math.radians(30)), 6878.137, 0.0)
        assert fp.lon_half_width == pytest.approx(fp.ground_range, abs=1e-12)

    def test_clamp_flag_propagates(self):
        fp = resolve_footprint(SensorSpec.boresight(math.radians(80)), 6878.137, 0.0)
        assert fp.clamped

    def test_sensor_spec_validation(self):
        with pytest.raises(ValueError):
            SensorSpec.boresight(math.radians(95))
        with pytest.raises(ValueError):
            SensorSpec.elevation(-0.1)
        with pytest.raises(ValueError):
            SensorSpec("sideways", 0.1)
