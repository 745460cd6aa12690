"""Brute-force numerical point-coverage simulation.

Independent cross-check for the semi-analytical engine: secular-J2
propagation; at each time step, the grid points that see a satellite,
one range of the sorted longitudes whose rounding slack the exact
visibility margin decides, with access edges from the differences
between steps; and edges refined by bisection of the margin.  Shares
the Earth model and secular rates, not the footprint, with the engine,
so differences isolate method error from model error.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .coverage import AccessTable, sorted_access_table
from .earth import EARTH, EarthConstants, check_latitude, geodetic_radius
from .errors import ConfigError, KeplerConvergenceError
from .passes import (
    TWO_PI,
    OrbitElements,
    PlaneSpec,
    _mean_from_true,
    raan_drift_rate,
    wrap_angle,
)
from .sensor import SensorSpec


def solve_kepler(mean_anom, e: float, tol: float = 1e-12, max_iter: int = 50):
    """Eccentric anomaly from mean anomaly, Newton iteration."""
    m = np.asarray(mean_anom, dtype=float)
    if e == 0.0:
        return m
    m_red = np.mod(m, TWO_PI)
    ecc = m_red + e * np.sin(m_red)
    for _ in range(max_iter):
        f = ecc - e * np.sin(ecc) - m_red
        ecc = ecc - f / (1.0 - e * np.cos(ecc))
        if np.max(np.abs(f)) < tol:
            return ecc + (m - m_red)
    raise KeplerConvergenceError("Kepler iteration did not converge")


def true_from_mean(mean_anom: float, e: float) -> float:
    ecc = float(solve_kepler(mean_anom, e))
    return 2.0 * math.atan2(
        math.sqrt(1.0 + e) * math.sin(0.5 * ecc),
        math.sqrt(1.0 - e) * math.cos(0.5 * ecc),
    )


def secular_rates(el: OrbitElements, earth: EarthConstants = EARTH) -> tuple[float, float, float]:
    """Secular J2 rates (raan_dot, argp_dot, mean_anomaly_dot), rad/s."""
    n = math.sqrt(earth.mu / el.a**3)
    p = el.a * (1.0 - el.e * el.e)
    ratio2 = (earth.equatorial_radius / p) ** 2
    si2 = math.sin(el.inc) ** 2
    raan_dot = raan_drift_rate(el.a, el.e, el.inc, earth)
    argp_dot = 0.75 * n * earth.j2 * ratio2 * (4.0 - 5.0 * si2)
    mean_dot = n * (
        1.0 + 0.75 * earth.j2 * ratio2 * math.sqrt(1.0 - el.e * el.e) * (2.0 - 3.0 * si2)
    )
    return raan_dot, argp_dot, mean_dot


def propagate_j2(el: OrbitElements, t, earth: EarthConstants = EARTH):
    """Sub-satellite state at time(s) t under secular-J2 motion.

    Returns (radius_km, lat_rad, lon_rad) arrays; the longitude includes
    Earth rotation with Greenwich aligned to the vernal equinox at t=0.
    """
    t = np.asarray(t, dtype=float)
    raan_dot, argp_dot, mean_dot = secular_rates(el, earth)
    m0 = _mean_from_true(el.nu0, el.e)
    ecc_anom = solve_kepler(m0 + mean_dot * t, el.e)
    nu = 2.0 * np.arctan2(
        math.sqrt(1.0 + el.e) * np.sin(0.5 * ecc_anom),
        math.sqrt(1.0 - el.e) * np.cos(0.5 * ecc_anom),
    )
    r = el.a * (1.0 - el.e * np.cos(ecc_anom))
    u = el.argp + argp_dot * t + nu
    sin_u = np.sin(u)
    lat = np.arcsin(np.clip(math.sin(el.inc) * sin_u, -1.0, 1.0))
    ra = el.raan + raan_dot * t + np.arctan2(sin_u * math.cos(el.inc), np.cos(u))
    lon = wrap_angle(ra - earth.rotation_rate * t)
    return r, lat, lon


def plane_elements(el: OrbitElements, planes: Sequence[PlaneSpec]) -> list[OrbitElements]:
    """Element sets of every satellite of ``planes``, in `pass_series` order.

    The first plane is ``el``'s own: every other plane's node is offset by
    its RAAN difference from the first, and each satellite leads ``el`` by
    its phase in mean anomaly.
    """
    m0 = _mean_from_true(el.nu0, el.e)
    return [
        replace(
            el,
            raan=float(wrap_angle(el.raan + (spec.raan - planes[0].raan))),
            nu0=float(wrap_angle(true_from_mean(m0 + lead, el.e))),
        )
        for spec in planes
        for lead in spec.phases
    ]


# Time step of the simulation unless a caller sets one, s.
DEFAULT_STEP = 10.0
# Most time steps one simulation may take.  Each satellite holds a few
# float arrays of one element per step, so this caps each at 32 MB; 60
# days at 10 s is 518 401 steps.
MAX_ORACLE_STEPS = 4_000_000


@dataclass(frozen=True)
class SimConfig:
    """Point-coverage simulation setup.

    Target points are (lat, lons): a single latitude with an array of
    longitudes, matching the engine's grid-at-latitude geometry.
    """

    elements: tuple[OrbitElements, ...]
    sensor: SensorSpec
    lat: float
    lons: np.ndarray
    window: float
    step: float = DEFAULT_STEP
    refine_tol: float = 0.1
    earth: EarthConstants = field(default=EARTH)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lons", np.asarray(self.lons, dtype=float))
        check_latitude(self.lat)
        if self.lons.size == 0:
            raise ConfigError("lons must hold at least one longitude")
        if not np.all(np.isfinite(self.lons)):
            raise ConfigError("lons must be finite")
        if not 0.0 < self.window < math.inf:
            raise ConfigError("analysis window must be positive and finite")
        if not 0.0 < self.step < math.inf:
            raise ConfigError("time step must be positive and finite")
        if not 0.0 < self.refine_tol < self.step:
            raise ConfigError("refinement tolerance must be positive and below the step")
        if self.window / self.step > MAX_ORACLE_STEPS:
            raise ConfigError(
                f"window / step makes {self.window / self.step:.0f} time steps; "
                f"at most {MAX_ORACLE_STEPS} are allowed"
            )


def _visibility_margin(sensor, r_t, lat_t, lon_t, r_s, lat_s, lon_s):
    """Signed visibility margin (>= 0 means visible), vectorized.

    Elevation mode: elevation minus the mask.  Boresight mode: the smaller
    of (half-cone minus the nadir cone angle) and the above-horizon
    elevation margin, both in radians.
    """
    cos_c = np.sin(lat_t) * np.sin(lat_s) + np.cos(lat_t) * np.cos(lat_s) * np.cos(
        lon_s - lon_t
    )
    cos_c = np.clip(cos_c, -1.0, 1.0)
    rho = np.sqrt(r_s * r_s + r_t * r_t - 2.0 * r_s * r_t * cos_c)
    sin_el = (r_s * cos_c - r_t) / rho
    elev = np.arcsin(np.clip(sin_el, -1.0, 1.0))
    if sensor.mode == "elevation":
        return elev - sensor.angle
    sin_c = np.sqrt(np.clip(1.0 - cos_c * cos_c, 0.0, 1.0))
    cone = np.arctan2(r_t * sin_c, r_s - r_t * cos_c)
    return np.minimum(sensor.angle - cone, elev)


def _visible(cfg: SimConfig, lon_t, state) -> np.ndarray:
    r, lat_s, lon_s = state
    r_t = geodetic_radius(cfg.lat, cfg.earth)
    return _visibility_margin(cfg.sensor, r_t, cfg.lat, lon_t, r, lat_s, lon_s) >= 0.0


# Slack of the step ranges against rounding, on the cap radius and on cos c;
# acos of an argument near 1 moves h by up to about 3e-8 rad.
RANGE_PAD = 1e-7


def _step_ranges(cfg: SimConfig, state):
    """Grid points that see the satellite, per step, as index ranges.

    A point sees the satellite when its central angle from the sub-satellite
    point is at most h (acos(r_t cos(eps) / r) - eps above a mask eps; for a
    boresight of half-angle a, the horizon acos(r_t / r) or the cone's edge
    pi/2 - acos(r sin(a) / r_t) - a if nearer), so when cos(dlon) >= (cos h -
    sin(lat) sin(lat_s)) / (cos(lat) cos(lat_s)).  With h and cos h moved by
    RANGE_PAD, returns (lo, count) of the inner ranges, whose points all see
    it, and of the outer ranges, which hold every point that does; and order:
    a range's points at step k are ``order[(lo[k] + arange(count[k])) % n]``.
    """
    r, lat_s, lon_s = state
    r_t = geodetic_radius(cfg.lat, cfg.earth)
    angle = cfg.sensor.angle
    if cfg.sensor.mode == "elevation":
        h = np.arccos(np.minimum(r_t * math.cos(angle) / r, 1.0)) - angle
    else:
        h = np.arccos(np.minimum(r_t / r, 1.0))
        edge = r * math.sin(angle) / r_t
        cone = 0.5 * math.pi - np.arccos(np.minimum(edge, 1.0)) - angle
        h = np.where(edge < 1.0, np.minimum(h, cone), h)
    den = math.cos(cfg.lat) * np.cos(lat_s)
    lon = wrap_angle(cfg.lons)
    order = np.argsort(lon, kind="stable")
    tiled = np.concatenate([lon[order] - TWO_PI, lon[order], lon[order] + TWO_PI])
    ranges = []
    for pad in (-RANGE_PAD, RANGE_PAD):
        num = np.cos(np.clip(h + pad, 0.0, math.pi)) - pad - math.sin(cfg.lat) * np.sin(lat_s)
        half = np.arccos(np.clip(num / den, -1.0, 1.0))  # den >= cos(pi / 2) ** 2 > 0
        lo = np.searchsorted(tiled, lon_s - half, "left")
        hi = np.searchsorted(tiled, lon_s + half, "right")
        ranges.append((lo, np.where(num > den, 0, np.minimum(hi - lo, lon.size))))
    return *ranges, order


def _difference(x, x_len, y, y_len, n: int):
    """Indices of circular index ranges X minus Y, and the pair each is from.

    Y moved by whole turns to start in (x - n, x] leaves X the pieces
    [y + y_len, y + n) and [y + n + y_len, x + x_len).
    """
    y = x - (x - y) % n
    start = np.r_[np.maximum(x, y + y_len), y + n + y_len]
    length = np.maximum(np.r_[np.minimum(x + x_len, y + n), x + x_len] - start, 0)
    index = np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length)
    return index % n, np.repeat(np.arange(start.size) % x.size, length)


def _refine(el: OrbitElements, cfg: SimConfig, pt, hi_step, times, lo_vis: bool) -> np.ndarray:
    """Bisect each change from lo_vis at step hi_step - 1 to its opposite to refine_tol."""
    if pt.size == 0:
        return np.empty(0)
    lon_t = cfg.lons[pt]
    lo, hi = times[hi_step - 1], times[hi_step]
    n_iter = max(1, math.ceil(math.log2(cfg.step / cfg.refine_tol)))
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        take_lo = _visible(cfg, lon_t, propagate_j2(el, mid, cfg.earth)) == lo_vis
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


def _step_edges(el: OrbitElements, cfg: SimConfig, times: np.ndarray):
    """Visibility changes of one satellite on the step grid, and its crossings.

    Returns (point, column) sorted by (point, column), a rise and a fall
    per visible run, with column c between steps c - 1 and c; and the
    number of times the sub-satellite latitude crosses the target.
    """
    state = propagate_j2(el, times, cfg.earth)
    side = np.sign(state[1] - cfg.lat)
    crossings = int(np.count_nonzero(side[1:] * side[:-1] < 0))
    n_t, n = times.size, cfg.lons.size
    (lo, count), outer, order = _step_ranges(cfg, state)
    # Key p * (n_t + 1) + c names point p at step or column c.  The margin
    # decides E, the few pairs in an outer range and not in the inner one.
    index, step = _difference(*outer, lo, count, n)
    seen = _visible(cfg, cfg.lons[order[index]], tuple(x[step] for x in state))
    fringe = order[index[seen]] * (n_t + 1) + step[seen]
    # The inner ranges C rise at column c on range c minus range c - 1 and
    # fall on the reverse; none is seen before or after the steps.
    lo, count = np.r_[0, lo, 0], np.r_[0, count, 0]
    index, col = _difference(*(np.r_[v[1:], v[:-1]] for v in (lo, count)),
                             *(np.r_[v[:-1], v[1:]] for v in (lo, count)), n)
    # Visibility, C xor E, changes at the keys met an odd number of times
    # among C's changes, E and E + 1.
    key = np.r_[order[index] * (n_t + 1) + col % (n_t + 1), fringe, fringe + 1]
    key, met = np.unique(key, return_counts=True)
    return *np.divmod(key[met % 2 == 1], n_t + 1), crossings


def _sat_intervals(el: OrbitElements, cfg: SimConfig, times: np.ndarray):
    """Refined visibility intervals of one satellite and its latitude crossings.

    Returns (point, start, end) arrays sorted by (point, start) and the
    number of times the sub-satellite latitude crosses the target
    between time steps.
    """
    pt, col, crossings = _step_edges(el, cfg, times)
    rise, fall = col[0::2], col[1::2]
    start = np.zeros(rise.size)
    inner = rise > 0
    start[inner] = _refine(el, cfg, pt[0::2][inner], rise[inner], times, lo_vis=False)
    end = np.full(fall.size, cfg.window)
    inner = fall < times.size
    end[inner] = _refine(el, cfg, pt[1::2][inner], fall[inner], times, lo_vis=True)
    return pt[0::2], start, end, crossings


def simulate_access_table(cfg: SimConfig) -> AccessTable:
    """Run the time-stepped simulation and assemble the access table."""
    n_steps = int(math.floor(cfg.window / cfg.step))
    times = np.arange(n_steps + 1, dtype=float) * cfg.step
    if times[-1] < cfg.window - 1e-9:
        times = np.append(times, cfg.window)
    parts = [_sat_intervals(el, cfg, times) for el in cfg.elements]
    points, starts, ends, crossings = ([part[k] for part in parts] for k in range(4))
    return sorted_access_table(
        points, starts, ends, grid_size=cfg.lons.size, merge_tol=cfg.refine_tol,
        pass_count=sum(crossings),
    )
