"""Earth constants and oblate-spheroid geometry.

All angles are radians and all lengths kilometres unless a name says
otherwise.  Degrees appear only at I/O boundaries (CLI, demos).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, SunSyncInfeasibleError

# Mean sun-synchronous node drift: one full revolution per tropical year.
TROPICAL_YEAR_DAYS = 365.2421897
SUN_SYNC_RATE = 2.0 * math.pi / (TROPICAL_YEAR_DAYS * 86400.0)  # rad/s


@dataclass(frozen=True)
class EarthConstants:
    """WGS-84 ellipsoid with EGM96 J2.

    The spheroid is described by its equatorial and polar radii; the
    rotation rate is the sidereal rate.
    """

    equatorial_radius: float = 6378.137          # km
    polar_radius: float = 6356.7523142           # km
    rotation_rate: float = 7.2921158553e-5       # rad/s
    mu: float = 398600.4418                      # km^3/s^2
    j2: float = 1.08262668e-3

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if not (self.equatorial_radius > self.polar_radius > 0.0):
            raise ConfigError("require equatorial_radius > polar_radius > 0")
        if self.rotation_rate <= 0.0 or self.mu <= 0.0:
            raise ConfigError("rotation_rate and mu must be positive")
        # j2 = 0 is allowed so the unperturbed limit stays expressible.
        if not (0.0 <= self.j2 < 0.01):
            raise ConfigError("j2 outside plausible range [0, 0.01)")

    @property
    def j2_squared(self) -> float:
        return self.j2 * self.j2


EARTH = EarthConstants()


def check_latitude(lat: float) -> None:
    """The latitude rule of every function that takes one: finite and in [-pi/2, pi/2]."""
    if not -math.pi / 2.0 <= lat <= math.pi / 2.0:
        raise ConfigError(f"latitude must be finite and in [-pi/2, pi/2], got {lat}")


def geodetic_radius(lat: float) -> float:
    """Radius of the oblate spheroid at latitude ``lat``.

    Reduces to the equatorial radius at lat=0 and the polar radius at the
    poles; monotonically non-increasing in |lat|.
    """
    check_latitude(lat)
    ra, rb = EARTH.equatorial_radius, EARTH.polar_radius
    c, s = math.cos(lat), math.sin(lat)
    num = (ra * ra * c) ** 2 + (rb * rb * s) ** 2
    den = (ra * c) ** 2 + (rb * s) ** 2
    return math.sqrt(num / den)


def sso_inclination(a: float, e: float = 0.0) -> float:
    """Inclination giving a sun-synchronous node drift for the orbit (a, e).

    Inverts the J2 node-drift rate, which is monotone in the inclination
    over the retrograde bracket (90, 180) deg, by bisection down to
    adjacent floats.  Raises SunSyncInfeasibleError when the orbit is too
    large (or too eccentric) for any inclination to produce the required
    drift, and ConfigError for an a or e that `passes.raan_drift_rate`
    rejects.
    """
    # Import here to avoid a circular import: passes.py needs earth.py.
    from .passes import raan_drift_rate

    def residual(inc: float) -> float:
        return raan_drift_rate(a, e, inc) - SUN_SYNC_RATE

    lo, hi = math.pi / 2.0 + 1e-9, math.pi - 1e-9
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo * r_hi > 0.0:
        raise SunSyncInfeasibleError(
            f"no sun-synchronous inclination for a={a:.1f} km, e={e:.4f}"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (residual(mid) < 0.0) == (r_lo < 0.0):
            lo = mid
        else:
            hi = mid
