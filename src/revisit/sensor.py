"""Sensor field-of-regard geometry at a target latitude.

Resolves a sensor specification (boresight half-cone angle or minimum
elevation constraint) into the half ground-range angle and the half
longitude width of the footprint at the latitude of interest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .earth import EARTH, EarthConstants, geodetic_radius
from .errors import ConfigError, LatitudeUnreachableError, PoleOverlapError

if TYPE_CHECKING:  # pragma: no cover
    from .passes import OrbitElements

_ARG_EPS = 1e-12


@dataclass(frozen=True)
class SensorSpec:
    """Sensor field of regard, in exactly one of two forms.

    mode="boresight": half-cone angle about nadir, 0 <= angle < pi/2.
    mode="elevation": minimum elevation seen from the ground, 0 <= angle <= pi/2.
    """

    mode: str
    angle: float  # rad

    def __post_init__(self) -> None:
        if self.mode == "boresight":
            if not 0.0 <= self.angle < math.pi / 2.0:
                raise ValueError("boresight half-cone angle must be in [0, pi/2)")
        elif self.mode == "elevation":
            if not 0.0 <= self.angle <= math.pi / 2.0:
                raise ValueError("minimum elevation must be in [0, pi/2]")
        else:
            raise ValueError(f"unknown sensor mode {self.mode!r}")

    @classmethod
    def boresight(cls, angle: float) -> "SensorSpec":
        return cls("boresight", angle)

    @classmethod
    def elevation(cls, angle: float) -> "SensorSpec":
        return cls("elevation", angle)


@dataclass(frozen=True)
class FootprintAtLatitude:
    """Footprint half-sizes at the target latitude.

    ground_range: Earth-central half-angle from nadir to the footprint edge.
    lon_half_width: half-width of the footprint measured along the latitude
        circle, in longitude.
    clamped: the requested cone reached past the horizon and the ground
        range was clamped to the horizon angle.
    """

    ground_range: float
    lon_half_width: float
    clamped: bool = False


def radius_at_latitude(el: "OrbitElements", lat: float) -> tuple[float, float, float, float]:
    """True anomalies and orbit radii of the two latitude crossings.

    Returns (nu_asc, nu_desc, r_asc, r_desc).  For circular orbits both
    radii equal the semi-major axis.  Raises LatitudeUnreachableError when
    the ground track never reaches the latitude.
    """
    sin_ratio = math.sin(lat) / math.sin(el.inc) if math.sin(el.inc) != 0.0 else math.inf
    if abs(sin_ratio) > 1.0 + _ARG_EPS:
        raise LatitudeUnreachableError(
            f"latitude {math.degrees(lat):.2f} deg unreachable at "
            f"inclination {math.degrees(el.inc):.2f} deg"
        )
    sin_ratio = min(1.0, max(-1.0, sin_ratio))
    nu_asc = math.asin(sin_ratio) - el.argp
    nu_desc = math.pi - math.asin(sin_ratio) - el.argp
    p = el.a * (1.0 - el.e * el.e)
    r_asc = p / (1.0 + el.e * math.cos(nu_asc))
    r_desc = p / (1.0 + el.e * math.cos(nu_desc))
    return nu_asc, nu_desc, r_asc, r_desc


def ground_range_from_elevation(r_lat: float, r_s: float, elevation: float) -> float:
    """Half ground-range angle for a minimum-elevation constraint.

    Zero at elevation pi/2 (nadir only); the horizon angle acos(r_lat/r_s)
    at elevation 0.
    """
    if r_s <= r_lat:
        raise ValueError("satellite radius must exceed the surface radius")
    return math.acos((r_lat / r_s) * math.cos(elevation)) - elevation


def ground_range_from_boresight(r_lat: float, r_s: float, half_cone: float) -> tuple[float, bool]:
    """Half ground-range angle for a boresight half-cone, with clamp flag.

    Beyond the horizon tangency (r_s*sin(half_cone) > r_lat) the ground
    range is clamped to the horizon angle and the flag is set, so wide
    field-of-regard sweeps keep running instead of aborting.
    """
    if r_s <= r_lat:
        raise ValueError("satellite radius must exceed the surface radius")
    sin_edge = r_s * math.sin(half_cone) / r_lat
    if sin_edge > 1.0:
        return math.acos(r_lat / r_s), True
    # Obtuse branch: the acute one makes the slant range negative for LEO.
    edge_angle = math.pi - math.asin(sin_edge)
    return math.pi - edge_angle - half_cone, False


def dihedral_half_angle(ground_range: float, lat: float) -> float:
    """Longitude half-width of the footprint at latitude ``lat``.

    Solves the isosceles spherical triangle between two points on the
    latitude circle separated by the ground-range angle, in the half-angle
    form that stays accurate for small ground ranges.  Equals the ground
    range at the equator and grows toward the poles.  Raises
    PoleOverlapError when the footprint reaches over the pole, i.e. when
    the ground range exceeds pi - 2|lat|.
    """
    c = math.cos(lat)
    if c * c < _ARG_EPS:
        if ground_range < _ARG_EPS:
            return 0.0
        raise PoleOverlapError("footprint undefined at the pole")
    arg = math.sin(0.5 * ground_range) / c
    if arg > 1.0 + 1e-9:
        raise PoleOverlapError(
            f"footprint reaches over the pole at latitude {math.degrees(lat):.2f} deg"
        )
    return 2.0 * math.asin(min(1.0, arg))


def resolve_footprint(
    sensor: SensorSpec,
    r_s: float,
    lat: float,
    earth: EarthConstants = EARTH,
) -> FootprintAtLatitude:
    """Resolve a sensor spec into footprint half-sizes at one latitude.

    The surface radius is evaluated once at the target latitude; the same
    footprint is reused for every pass at that latitude.  An orbit that
    does not clear the surface there is a ConfigError.
    """
    r_lat = geodetic_radius(lat, earth)
    if r_s <= r_lat:
        raise ConfigError(
            f"satellite radius {r_s:.3f} km does not clear the surface radius "
            f"{r_lat:.3f} km at latitude {math.degrees(lat):.2f} deg"
        )
    clamped = False
    if sensor.mode == "elevation":
        theta = ground_range_from_elevation(r_lat, r_s, sensor.angle)
    else:
        theta, clamped = ground_range_from_boresight(r_lat, r_s, sensor.angle)
    return FootprintAtLatitude(
        ground_range=theta,
        lon_half_width=dihedral_half_angle(theta, lat),
        clamped=clamped,
    )
