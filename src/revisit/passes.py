"""Latitude-crossing pass schedules for single satellites and constellations.

A "pass" is one crossing of the target latitude by one satellite's ground
track.  Under secular-J2 motion the crossings of each satellite form an
arithmetic comb: epochs advance by the nodal period and longitudes by the
ground-track shift per revolution.  Every crossing therefore lies on the
drift line

    lon(t) = lon_node0 + plane_offset + (shift / nodal_period) * t

which is how this module generates the passes of every satellite of a
Walker pattern.  `pass_series` lays out the combs of every satellite,
expanded from the pattern by `_walker_satellites` as for the oracle, in
one array step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .earth import EARTH, EarthConstants
from .errors import ConfigError, is_count
from .sensor import radius_at_latitude

TWO_PI = 2.0 * math.pi
# Track-segment span beyond the footprint's reach, as a fraction of it.
SEGMENT_PAD = 0.1

# Bounds that keep a constellation's arrays allocatable, beside the
# engine's window and sample bounds.
# Most satellites of a Walker pattern: the oracle loops over each one.
MAX_SATELLITES = 10_000
# Most passes one `pass_series` call may build; each holds about 43 B while it is built.
MAX_PASSES = 10_000_000
# Largest |raan|, |argp| and |nu0| of an orbit, 2**20 turns, where an angle
# still resolves about 1e-9 rad: the ground-track drift added to the raan
# keeps its bits, and a pass epoch is within about 1e-6 s of its value
# modulo a turn.
MAX_ANGLE = TWO_PI * 2**20


def wrap_angle(x):
    """Wrap angle(s) to [-pi, pi)."""
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class OrbitElements:
    """Classical elements of one plane's reference satellite.

    a in km; angles in radians, each within MAX_ANGLE.  nu0 is the true
    anomaly at analysis start.
    """

    a: float
    e: float = 0.0
    inc: float = 0.0
    raan: float = 0.0
    argp: float = 0.0
    nu0: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.a):
            raise ConfigError(f"a must be finite, got {self.a}")
        for name in ("raan", "argp", "nu0"):
            if not abs(getattr(self, name)) <= MAX_ANGLE:
                raise ConfigError(
                    f"{name} must be finite and within 2**20 turns, got {getattr(self, name)}"
                )
        if not 0.0 <= self.e < 1.0:
            raise ConfigError("eccentricity must be in [0, 1)")
        if self.a * (1.0 - self.e) <= EARTH.polar_radius:
            raise ConfigError("perigee must be above the Earth surface")
        if not 0.0 <= self.inc <= math.pi:
            raise ConfigError("inclination must be in [0, pi]")


@dataclass(frozen=True)
class WalkerConfig:
    """Walker delta pattern t/p/f: total satellites, planes, phasing factor."""

    total: int = 1
    planes: int = 1
    phasing: int = 0

    def __post_init__(self) -> None:
        counts = (self.total, self.planes, self.phasing)
        if not all(is_count(x) for x in counts):
            raise ConfigError("satellite, plane and phasing counts must be integers")
        if self.total < 1 or self.planes < 1:
            raise ConfigError("need at least one satellite and one plane")
        if self.total > MAX_SATELLITES:
            raise ConfigError(
                f"a pattern may hold at most {MAX_SATELLITES} satellites, got {self.total}"
            )
        if self.total % self.planes != 0:
            raise ConfigError("planes must divide the total satellite count")
        if not 0 <= self.phasing < self.planes:
            raise ConfigError("phasing factor must be in [0, planes)")

    @property
    def per_plane(self) -> int:
        return self.total // self.planes


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
    _check_axis(a)
    return TWO_PI * math.sqrt(a**3 / earth.mu)


def _check_axis(a: float) -> None:
    """Raise ConfigError unless the semi-major axis a is finite and positive."""
    if not 0.0 < a < math.inf:
        raise ConfigError(f"semi-major axis must be finite and positive, got {a!r}")


def _check_orbit_shape(a: float, e: float, inc: float) -> None:
    """Raise ConfigError unless a is finite and positive, e is in [0, 1)
    and inc is finite: the inputs of the period and drift formulas."""
    _check_axis(a)
    if not 0.0 <= e < 1.0:
        raise ConfigError(f"eccentricity must be in [0, 1), got {e!r}")
    if not math.isfinite(inc):
        raise ConfigError(f"inclination must be finite, got {inc!r}")


def _check_comb(p_n: float, name: str, value: float) -> None:
    """Raise ConfigError unless the nodal period p_n is finite and positive
    and ``value``, the comb's ``name``, is finite."""
    if not 0.0 < p_n < math.inf:
        raise ConfigError(f"nodal period must be finite and positive, got {p_n!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def nodal_period(a: float, e: float, inc: float, earth: EarthConstants = EARTH) -> float:
    """Time between successive ascending-node crossings under J2.

    Standard secular expansion, with the J2 correction scaled by the
    squared (equatorial radius / semilatus rectum) ratio.
    """
    _check_orbit_shape(a, e, inc)
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
    _check_orbit_shape(a, e, inc)
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


def ground_track_shift(p_n: float, raan_rate: float) -> float:
    """Longitude displacement of successive node crossings, rad/rev.

    Negative (westward) for all LEO orbits: Earth rotation dominates.
    """
    _check_comb(p_n, "node drift rate", raan_rate)
    return p_n * (-EARTH.rotation_rate + raan_rate)


def _mean_from_true(nu, e: float):
    """Mean anomaly for true anomaly ``nu`` (rad, same revolution), a float or an array.

    np.sin and np.cos give math's bits, but np.arctan2 does not always,
    so atan2 stays math.atan2, element by element.
    """
    half_nu = 0.5 * np.asarray(nu)
    y = np.ravel(math.sqrt(1.0 - e) * np.sin(half_nu)).tolist()
    x = np.ravel(math.sqrt(1.0 + e) * np.cos(half_nu)).tolist()
    ecc_anom = 2.0 * np.reshape(list(map(math.atan2, y, x)), half_nu.shape)
    mean = ecc_anom - e * np.sin(ecc_anom)
    return mean if mean.ndim else float(mean)


def time_fraction_from_node(el: OrbitElements, nu):
    """Fraction of a revolution from the ascending node to true anomaly nu.

    In [0, 1), for a float or an array of nu.  Uses the mean anomaly, so
    it is exact for eccentric orbits and reduces to (argp + nu) / 2pi for
    circular ones.
    """
    d_mean = _mean_from_true(nu, el.e) - _mean_from_true(-el.argp, el.e)
    return (d_mean % TWO_PI) / TWO_PI


def node_relative_ra(u, inc: float):
    """Right ascension of a track point relative to its ascending node."""
    return np.arctan2(np.sin(u) * math.cos(inc), np.cos(u))


def _walker_satellites(walker: WalkerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each satellite's plane index, node offset from the reference plane
    (rad) and lead over the reference satellite in mean anomaly (rad), in
    the satellite order of `pass_series` and `oracle.plane_elements`:
    plane by plane, in-plane slot by slot.

    Plane m is separated by 2*pi*m/planes in node longitude and its
    satellites lead by 2*pi*m*phasing/total; in-plane satellites are
    equally spaced.
    """
    if not isinstance(walker, WalkerConfig):
        raise ConfigError(f"a constellation must be a WalkerConfig, got {walker!r}")
    plane, slot = np.divmod(np.arange(walker.total, dtype=np.int64), walker.per_plane)
    raan_off = TWO_PI * plane / walker.planes
    lead = TWO_PI * (plane * walker.phasing / walker.total + slot / walker.per_plane)
    return plane, raan_off, lead


def pass_series(
    el: OrbitElements,
    lat: float,
    shift: float,
    p_n: float,
    window: float,
    walker: WalkerConfig = WalkerConfig(),
) -> PassSet:
    """Latitude crossings of every satellite of ``walker`` over [0, window].

    The analysis clock starts at the reference satellite's ascending-node
    passage; a nonzero nu0 shifts every epoch so the satellite is at nu0
    at t=0.  The reference plane is ``el``'s own, and every other plane is
    offset by its node separation from it.  A satellite leading the
    reference by ``phase`` crosses the latitude earlier by the matching
    fraction of the nodal period; its crossing longitudes follow the
    shifted drift line.  Each satellite crosses the latitude at most twice
    a nodal period, so a call whose pattern, window and period could give
    more than MAX_PASSES passes is refused before any array is built.  The
    passes are sorted by epoch once, stably: at equal epochs, satellite
    order, ascending first.
    """
    if not 0.0 < window < math.inf:
        raise ConfigError("analysis window must be positive and finite")
    plane_index, raan_off, lead = _walker_satellites(walker)
    _check_comb(p_n, "ground-track shift", shift)
    # A comb of period p_n holds at most window / p_n + 1 epochs.
    most = 2.0 * walker.total * (window / p_n + 1.0)
    if most > MAX_PASSES:
        raise ConfigError(
            f"{walker.total} satellites over {window:g} s at a nodal period of {p_n:g} s "
            f"make up to {most:.3g} passes; at most {MAX_PASSES} are allowed"
        )
    nu_asc, nu_desc, _, _ = radius_at_latitude(el, lat)
    node_time = -time_fraction_from_node(el, el.nu0) * p_n  # node passage, s
    # Per branch, ascending first: the drift line's longitude at epoch 0 (raan
    # + node-relative RA) and the crossing's time offset from the reference's.
    lon0, dt = np.array([
        (float(el.raan + node_relative_ra(el.argp + nu, el.inc)),
         float(node_time + time_fraction_from_node(el, nu) * p_n))
        for nu in (nu_asc, nu_desc)
    ]).T
    # Comb 2k + b is satellite k on branch b: epochs first + j * p_n for the
    # count integers j from j_lo that land in [0, window].
    first = (dt - ((lead / TWO_PI) * p_n)[:, None]).ravel()
    j_lo = np.ceil(-first / p_n - 1e-12)
    count = np.maximum(np.floor((window - first) / p_n + 1e-12) - j_lo + 1.0, 0.0)
    comb = np.repeat(np.arange(first.size, dtype=np.int64), count.astype(np.int64))
    # The pass at position i, in comb c from position start[c], has j = j_lo[c] + i - start[c].
    start = np.cumsum(count) - count
    epoch = (np.arange(comb.size, dtype=float) + (j_lo - start)[comb]) * p_n + first[comb]
    # Ties keep comb order.  Each array goes once it is gathered, which
    # holds the peak near the result's own 33 B a pass.
    order = np.argsort(epoch, kind="stable")
    comb, epoch = comb[order], epoch[order]
    del order
    lon = wrap_angle((lon0 + raan_off[:, None]).ravel()[comb] + (epoch / p_n) * shift)
    sat, branch = np.divmod(comb, 2)
    del comb
    return PassSet(
        lon=lon, epoch=epoch, ascending=branch == 0, plane_index=plane_index[sat],
        sat_index=sat, shift_per_rev=shift, nodal_period=p_n, window=window,
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
    Earth-rotation accrual between samples.  Raises LatitudeUnreachableError
    where `radius_at_latitude` does.
    """
    if not (is_count(n_points) and n_points >= 3):
        raise ConfigError(f"need an integer of at least 3 segment samples, got {n_points!r}")
    radius_at_latitude(el, lat)
    if not 0.0 <= pad < math.inf:
        raise ConfigError(f"segment pad must be finite and at least 0, got {pad!r}")
    if not math.isfinite(shift):
        raise ConfigError(f"ground-track shift must be finite, got {shift!r}")
    if not 0.0 <= reach < math.inf:
        raise ConfigError(f"footprint reach must be finite and at least 0, got {reach!r}")
    sin_i = math.sin(el.inc)
    span = (1.0 + pad) * reach

    def u_at(lat_bound: float) -> float:
        # Stop at the pole: past it the sine falls and the span folds back.
        lat_bound = min(math.pi / 2.0, max(-math.pi / 2.0, lat_bound))
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
    frac = time_fraction_from_node(el, u - el.argp)
    d_frac = wrap_angle((frac - frac[n_lo]) * TWO_PI) / TWO_PI
    return TrackSegment(lat=lat_k, lon_off=d_ra + d_frac * shift, time_frac=d_frac)
