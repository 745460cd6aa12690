"""Latitude-crossing pass schedules for single satellites and constellations.

A "pass" is one crossing of the target latitude by one satellite's ground
track.  Under secular-J2 motion the crossings of each satellite form an
arithmetic comb: epochs advance by the nodal period and longitudes by the
ground-track shift per revolution.  Every crossing therefore lies on the
drift line

    lon(t) = lon_node0 + plane_offset + (shift / nodal_period) * t

which is how this module generates the passes of every satellite of a
plane list, such as the one `walker_planes` builds for a Walker pattern.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .earth import EARTH, EarthConstants
from .errors import ConfigError
from .sensor import radius_at_latitude

TWO_PI = 2.0 * math.pi
# Track-segment span beyond the footprint's reach, as a fraction of it.
SEGMENT_PAD = 0.1


def wrap_angle(x):
    """Wrap angle(s) to [-pi, pi)."""
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class OrbitElements:
    """Classical elements of one plane's reference satellite.

    a in km; angles in radians.  nu0 is the true anomaly at analysis start.
    """

    a: float
    e: float = 0.0
    inc: float = 0.0
    raan: float = 0.0
    argp: float = 0.0
    nu0: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.e < 1.0:
            raise ValueError("eccentricity must be in [0, 1)")
        if self.a * (1.0 - self.e) <= EARTH.polar_radius:
            raise ValueError("perigee must be above the Earth surface")
        if not 0.0 <= self.inc <= math.pi:
            raise ValueError("inclination must be in [0, pi]")


@dataclass(frozen=True)
class WalkerConfig:
    """Walker delta pattern t/p/f: total satellites, planes, phasing factor."""

    total: int = 1
    planes: int = 1
    phasing: int = 0

    def __post_init__(self) -> None:
        counts = (self.total, self.planes, self.phasing)
        if not all(isinstance(x, (int, np.integer)) for x in counts):
            raise ValueError("satellite, plane and phasing counts must be integers")
        if self.total < 1 or self.planes < 1:
            raise ValueError("need at least one satellite and one plane")
        if self.total % self.planes != 0:
            raise ValueError("planes must divide the total satellite count")
        if not 0 <= self.phasing < self.planes:
            raise ValueError("phasing factor must be in [0, planes)")

    @property
    def per_plane(self) -> int:
        return self.total // self.planes


@dataclass(frozen=True)
class PlaneSpec:
    """One orbital plane of a constellation.

    raan is absolute (rad); phases are each satellite's in-plane lead over
    the reference satellite in mean anomaly (rad), so a satellite with
    phase x passes every point of the orbit x/2pi nodal periods earlier.
    """

    raan: float
    phases: tuple[float, ...] = (0.0,)


@dataclass(frozen=True)
class PassSet:
    """Latitude crossings over the analysis window, as parallel arrays sorted by epoch."""

    lon: np.ndarray
    epoch: np.ndarray
    ascending: np.ndarray
    plane_index: np.ndarray
    sat_index: np.ndarray
    shift_per_rev: float
    nodal_period: float
    window: float

    def __len__(self) -> int:
        return int(self.lon.size)


@dataclass(frozen=True)
class TrackSegment:
    """Ground-track samples around one latitude crossing.

    Offsets are relative to the crossing: lon_off in rad (includes the
    Earth-rotation accrual between samples), time_frac in revolutions
    (multiply by the nodal period for seconds).  lat is absolute.
    """

    lat: np.ndarray        # geocentric sub-satellite latitude, rad
    lon_off: np.ndarray    # longitude offset from the crossing, rad
    time_frac: np.ndarray  # time offset from the crossing, revolutions


def keplerian_period(a: float, earth: EarthConstants = EARTH) -> float:
    """Two-body orbital period, s."""
    if a <= 0.0:
        raise ValueError("semi-major axis must be positive")
    return TWO_PI * math.sqrt(a**3 / earth.mu)


def nodal_period(a: float, e: float, inc: float, earth: EarthConstants = EARTH) -> float:
    """Time between successive ascending-node crossings under J2.

    Standard secular expansion, with the J2 correction scaled by the
    squared (equatorial radius / semilatus rectum) ratio.
    """
    pk = keplerian_period(a, earth)
    p = a * (1.0 - e * e)
    ratio = earth.equatorial_radius / p
    factor = ratio * ratio
    si2 = math.sin(inc) ** 2
    bracket = math.sqrt(1.0 - e * e) * (2.0 - 3.0 * si2) + (4.0 - 5.0 * si2)
    return pk / (1.0 + 0.75 * earth.j2 * factor * bracket)


def raan_drift_rate(
    a: float, e: float, inc: float, earth: EarthConstants = EARTH
) -> float:
    """Secular node drift rate due to J2 (with the J2^2 correction), rad/s.

    Negative for prograde orbits, positive for retrograde.
    """
    n = math.sqrt(earth.mu / a**3)
    p = a * (1.0 - e * e)
    ratio2 = (earth.equatorial_radius / p) ** 2
    ci = math.cos(inc)
    si2 = math.sin(inc) ** 2
    first = -1.5 * n * earth.j2 * ratio2 * ci
    second = (
        (3.0 / 32.0)
        * n
        * earth.j2_squared
        * ratio2
        * ratio2
        * ci
        * (12.0 - 4.0 * e * e - (80.0 + 5.0 * e * e) * si2)
    )
    return first + second


def ground_track_shift(p_n: float, raan_rate: float, earth: EarthConstants = EARTH) -> float:
    """Longitude displacement of successive node crossings, rad/rev.

    Negative (westward) for all LEO orbits: Earth rotation dominates.
    """
    if p_n <= 0.0:
        raise ValueError("nodal period must be positive")
    return p_n * (-earth.rotation_rate + raan_rate)


def _mean_from_true(nu: float, e: float) -> float:
    """Mean anomaly for true anomaly ``nu`` (rad, same revolution)."""
    ecc_anom = 2.0 * math.atan2(
        math.sqrt(1.0 - e) * math.sin(0.5 * nu),
        math.sqrt(1.0 + e) * math.cos(0.5 * nu),
    )
    return ecc_anom - e * math.sin(ecc_anom)


def time_fraction_from_node(el: OrbitElements, nu: float) -> float:
    """Fraction of a revolution from the ascending node to true anomaly nu.

    In [0, 1).  Uses the mean anomaly, so it is exact for eccentric orbits
    and reduces to (argp + nu) / 2pi for circular ones.
    """
    d_mean = _mean_from_true(nu, el.e) - _mean_from_true(-el.argp, el.e)
    return (d_mean % TWO_PI) / TWO_PI


def node_relative_ra(u, inc: float):
    """Right ascension of a track point relative to its ascending node."""
    return np.arctan2(np.sin(u) * math.cos(inc), np.cos(u))


def _comb_epochs(first: float, period: float, window: float) -> np.ndarray:
    """All epochs first + j*period (j integer) that land inside [0, window]."""
    j_lo = math.ceil(-first / period - 1e-12)
    j_hi = math.floor((window - first) / period + 1e-12)
    if j_hi < j_lo:
        return np.empty(0)
    return first + np.arange(j_lo, j_hi + 1) * period


def walker_planes(cfg: WalkerConfig) -> list[PlaneSpec]:
    """The plane list of a Walker t/p/f pattern, reference plane first.

    Plane m is separated by 2*pi*m/planes in node longitude and its
    satellites lead the reference by 2*pi*m*phasing/total in mean anomaly;
    in-plane satellites are equally spaced.
    """
    return [
        PlaneSpec(
            raan=TWO_PI * m / cfg.planes,
            phases=tuple(
                TWO_PI * (m * cfg.phasing / cfg.total + l / cfg.per_plane)
                for l in range(cfg.per_plane)
            ),
        )
        for m in range(cfg.planes)
    ]


def pass_series(
    el: OrbitElements,
    lat: float,
    shift: float,
    p_n: float,
    window: float,
    planes: Sequence[PlaneSpec] = (PlaneSpec(raan=0.0),),
) -> PassSet:
    """Latitude crossings of every satellite of ``planes`` over [0, window].

    The analysis clock starts at the reference satellite's ascending-node
    passage; a nonzero nu0 shifts every epoch so the satellite is at nu0
    at t=0.  Plane RAANs are absolute, and the first plane is ``el``'s
    own: every other plane is offset by its RAAN difference from the
    first.  A satellite leading the reference by ``phase`` crosses the
    latitude earlier by the matching fraction of the nodal period; its
    crossing longitudes follow the shifted drift line.
    """
    if window <= 0.0:
        raise ValueError("analysis window must be positive")
    if not planes:
        raise ConfigError("need at least one plane spec")
    nu_asc, nu_desc, _, _ = radius_at_latitude(el, lat)
    node_time = -time_fraction_from_node(el, el.nu0) * p_n  # node passage, s
    # Per branch: the drift line's longitude at epoch 0 (raan + node-relative
    # RA) and the crossing's time offset from the reference's node passage.
    branches = [
        (
            is_asc,
            float(el.raan + node_relative_ra(el.argp + nu, el.inc)),
            float(node_time + time_fraction_from_node(el, nu) * p_n),
        )
        for is_asc, nu in ((True, nu_asc), (False, nu_desc))
    ]
    lons, epochs, ascs, plane_ids, sat_ids = [], [], [], [], []
    sat_idx = 0
    for plane_idx, spec in enumerate(planes):
        raan_off = spec.raan - planes[0].raan
        for lead in spec.phases:
            dt_sat = -(lead / TWO_PI) * p_n
            for is_asc, lon0, dt in branches:
                t = _comb_epochs(dt + dt_sat, p_n, window)
                lons.append(lon0 + raan_off + (t / p_n) * shift)
                epochs.append(t)
                ascs.append(np.full(t.shape, is_asc, dtype=bool))
                plane_ids.append(np.full(t.shape, plane_idx, dtype=np.int64))
                sat_ids.append(np.full(t.shape, sat_idx, dtype=np.int64))
            sat_idx += 1
    epoch = np.concatenate(epochs)
    order = np.argsort(epoch, kind="stable")
    return PassSet(
        lon=wrap_angle(np.concatenate(lons))[order],
        epoch=epoch[order],
        ascending=np.concatenate(ascs)[order],
        plane_index=np.concatenate(plane_ids)[order],
        sat_index=np.concatenate(sat_ids)[order],
        shift_per_rev=shift,
        nodal_period=p_n,
        window=window,
    )


def ground_track_segment(
    el: OrbitElements,
    lat: float,
    shift: float,
    n_points: int,
    reach: float,
    ascending: bool = True,
    pad: float = SEGMENT_PAD,
) -> TrackSegment:
    """Sample the ground track around one latitude crossing.

    The span covers every point from which a footprint of latitude
    half-height ``reach`` can still touch the target latitude, padded by
    ``pad`` and clamped at the track apex.  Longitude offsets include the
    Earth-rotation accrual between samples.
    """
    if n_points < 3:
        raise ValueError("need at least 3 segment samples")
    sin_i = math.sin(el.inc)
    span = (1.0 + pad) * reach

    def u_at(lat_bound: float) -> float:
        s = min(1.0, max(-1.0, math.sin(lat_bound) / sin_i))
        return math.asin(s)

    u_lo, u_hi = u_at(lat - span), u_at(lat + span)
    u_c = u_at(lat)
    if not ascending:
        u_lo, u_hi = math.pi - u_hi, math.pi - u_lo
        u_c = math.pi - u_c
    # Split the samples at the crossing: sample n_lo is the crossing itself,
    # the origin of both offsets (odd n_points gives equal halves).
    n_lo = (n_points - 1) // 2
    u = np.concatenate(
        [
            np.linspace(u_lo, u_c, n_lo + 1),
            np.linspace(u_c, u_hi, n_points - n_lo)[1:],
        ]
    )
    lat_k = np.arcsin(sin_i * np.sin(u))
    ra = node_relative_ra(u, el.inc)
    d_ra = wrap_angle(ra - ra[n_lo])
    # time_fraction_from_node at every sample, step for step on the whole
    # array.  np.sin and np.cos give math's bits, but np.arctan2 does not
    # always, so atan2 stays math.atan2 element by element.
    half_nu = 0.5 * (u - el.argp)
    ecc_anom = 2.0 * np.array(list(map(
        math.atan2,
        (math.sqrt(1.0 - el.e) * np.sin(half_nu)).tolist(),
        (math.sqrt(1.0 + el.e) * np.cos(half_nu)).tolist(),
    )))
    d_mean = ecc_anom - el.e * np.sin(ecc_anom) - _mean_from_true(-el.argp, el.e)
    frac = (d_mean % TWO_PI) / TWO_PI
    d_frac = wrap_angle((frac - frac[n_lo]) * TWO_PI) / TWO_PI
    lon_off = d_ra + d_frac * shift
    return TrackSegment(lat=lat_k, lon_off=np.asarray(lon_off), time_frac=d_frac)
