import math

import numpy as np
import pytest

import revisit as rv
from revisit.earth import SUN_SYNC_RATE, EarthConstants, geodetic_radius, sso_inclination
from revisit.errors import SunSyncInfeasibleError
from revisit.passes import raan_drift_rate


def test_radius_equator_is_equatorial_radius():
    assert geodetic_radius(0.0) == pytest.approx(6378.137, abs=1e-9)


def test_radius_pole_is_polar_radius():
    assert geodetic_radius(math.pi / 2) == pytest.approx(6356.7523142, abs=1e-9)


def test_radius_midlatitude_golden():
    # Frozen from a standalone evaluation of the spheroid radius formula.
    assert geodetic_radius(math.radians(45)) == pytest.approx(6367.489543841065, abs=1e-9)


def test_radius_even_and_monotone():
    lats = np.linspace(0.0, math.pi / 2, 181)
    vals = np.array([geodetic_radius(x) for x in lats])
    mirrored = np.array([geodetic_radius(-x) for x in lats])
    assert np.allclose(vals, mirrored, atol=1e-12)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals.min() >= 6356.7523142 - 1e-9
    assert vals.max() <= 6378.137 + 1e-9


@pytest.mark.parametrize(
    "alt_km,want_deg,tol_deg",
    [(500.0, 97.41, 0.1), (550.0, 97.59, 0.05), (700.0, 98.19, 0.05)],
)
def test_sso_inclination_reference_values(alt_km, want_deg, tol_deg):
    inc = sso_inclination(rv.EARTH.equatorial_radius + alt_km)
    assert math.degrees(inc) == pytest.approx(want_deg, abs=tol_deg)


def test_sso_round_trip_drift_rate():
    for alt in (300.0, 500.0, 900.0, 1500.0):
        a = rv.EARTH.equatorial_radius + alt
        inc = sso_inclination(a)
        assert abs(raan_drift_rate(a, 0.0, inc) - SUN_SYNC_RATE) < 1e-10


def test_sso_monotone_in_semi_major_axis():
    alts = np.arange(200.0, 2001.0, 100.0)
    incs = [sso_inclination(rv.EARTH.equatorial_radius + h) for h in alts]
    assert np.all(np.diff(incs) > 0.0)


def test_sso_infeasible_when_too_high():
    with pytest.raises(SunSyncInfeasibleError):
        sso_inclination(25000.0)


def test_constants_validation():
    with pytest.raises(ValueError):
        EarthConstants(equatorial_radius=6000.0, polar_radius=6356.75)
    with pytest.raises(ValueError):
        EarthConstants(j2=0.5)
    with pytest.raises(ValueError):
        EarthConstants(rotation_rate=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["equatorial_radius", "polar_radius", "rotation_rate", "mu", "j2"])
def test_non_finite_constant_is_a_config_error_that_names_it(name, value):
    # Unchecked, a NaN or infinite mu gives a NaN or zero nodal period, and
    # an infinite rotation rate a ground track shift of -inf.
    with pytest.raises(rv.ConfigError, match=f"^{name} must be finite"):
        EarthConstants(**{name: value})
