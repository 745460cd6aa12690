"""Brute-force numerical point-coverage simulation.

Independent cross-check for the semi-analytical engine: secular-J2
element propagation plus time-stepped visibility testing of ground
points, with access boundaries refined by bisection.  Shares the Earth
model and secular rates with the engine so that differences between the
two isolate method error rather than model error.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .coverage import (
    AccessTable,
    LongitudeGrid,
    RevisitReport,
    revisit_stats,
    sorted_access_table,
)
from .earth import EARTH, EarthConstants, geodetic_radius
from .errors import KeplerConvergenceError
from .passes import (
    OrbitElements,
    PlaneSpec,
    _mean_from_true,
    raan_drift_rate,
    wrap_angle,
)
from .sensor import SensorSpec

TWO_PI = 2.0 * math.pi


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
    sin_lat = math.sin(el.inc) * np.sin(u)
    lat = np.arcsin(np.clip(sin_lat, -1.0, 1.0))
    ra = el.raan + raan_dot * t + np.arctan2(np.sin(u) * math.cos(el.inc), np.cos(u))
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


@dataclass(frozen=True)
class SimConfig:
    """Point-coverage simulation setup.

    Target points are (lat, lons): a single latitude with a list of
    longitudes, matching the engine's grid-at-latitude geometry.
    """

    elements: tuple[OrbitElements, ...]
    sensor: SensorSpec
    lat: float
    lons: np.ndarray
    window: float
    step: float = 10.0
    refine_tol: float = 0.1
    earth: EarthConstants = field(default=EARTH)

    def __post_init__(self) -> None:
        if not 0.0 < self.step < math.inf:
            raise ValueError("time step must be positive and finite")
        if not self.refine_tol < self.step:
            raise ValueError("refinement tolerance must be below the step")


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


# Visibility margins per block of screened (grid point, step) pairs; a
# block spans whole steps.
BLOCK_MARGINS = 2**19
# Slack of the horizon screen against rounding, in radians of elevation
# and of longitude, and on the cosine of the central angle.
SCREEN_PAD = 1e-6


def _visible(cfg: SimConfig, lon_t, state) -> np.ndarray:
    r, lat_s, lon_s = state
    r_t = geodetic_radius(cfg.lat, cfg.earth)
    return _visibility_margin(cfg.sensor, r_t, cfg.lat, lon_t, r, lat_s, lon_s) >= 0.0


def _horizon_screen(cfg: SimConfig, state):
    """Grid points that can see the satellite, per step, as index ranges.

    A visible pair has elevation at least eps: the mask in elevation mode,
    0 in boresight mode.  So its central angle from the sub-satellite point
    is at most h = acos(r_t cos(eps) / r) - eps, hence |lat_s - lat| <= h,
    and its longitude offset is at most asin(sin h / cos lat) unless
    h + |lat| reaches the pole.  Returns (lo, count, order): step k's
    candidates are ``order[(lo[k] + np.arange(count[k])) % n]``, a range
    of the sorted, wrapped longitudes tiled at -2 pi, 0 and +2 pi.
    """
    r, lat_s, lon_s = state
    r_t = geodetic_radius(cfg.lat, cfg.earth)
    eps = (cfg.sensor.angle if cfg.sensor.mode == "elevation" else 0.0) - SCREEN_PAD
    h = np.arccos(np.minimum(r_t * math.cos(eps) / r, 1.0) - SCREEN_PAD) - eps
    half = np.arcsin(np.clip(np.sin(h) / math.cos(cfg.lat), -1.0, 1.0)) + SCREEN_PAD
    lon = wrap_angle(cfg.lons)
    order = np.argsort(lon, kind="stable")
    tiled = np.concatenate([lon[order] - TWO_PI, lon[order], lon[order] + TWO_PI])
    n = lon.size
    full = h + abs(cfg.lat) >= 0.5 * math.pi
    lo = np.where(full, n, np.searchsorted(tiled, lon_s - half, "left"))
    hi = np.where(full, 2 * n, np.searchsorted(tiled, lon_s + half, "right"))
    return lo, np.where(np.abs(lat_s - cfg.lat) <= h, hi - lo, 0), order


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
    n_t = times.size
    lo, count, order = _horizon_screen(cfg, state)
    first = np.concatenate([[0], np.cumsum(count)])
    cuts = np.flatnonzero(np.diff(first[:-1] // BLOCK_MARGINS)) + 1
    # Key p * (n_t + 1) + c names point p at step or column c.  With V the
    # keys of the visible pairs, visibility changes at the keys V xor V + 1.
    # A run that spans a block boundary leaves its boundary key in both
    # blocks, and the pair cancels.
    keys = []
    for s0, s1 in zip(np.r_[0, cuts], np.r_[cuts, n_t]):
        step = np.repeat(np.arange(s0, s1), count[s0:s1])
        k = np.arange(first[s0], first[s1]) + np.repeat(lo[s0:s1] - first[s0:s1], count[s0:s1])
        pt = order[k % cfg.lons.size]
        vis = _visible(cfg, cfg.lons[pt], tuple(x[step] for x in state))
        key = pt[vis] * (n_t + 1) + step[vis]
        keys.append(np.setxor1d(key, key + 1, assume_unique=True))
    key, seen = np.unique(np.concatenate(keys), return_counts=True)
    return *np.divmod(key[seen == 1], n_t + 1), crossings


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
    spacing = TWO_PI / cfg.lons.size if cfg.lons.size else 0.0
    grid = LongitudeGrid(spacing=spacing, lon=np.asarray(cfg.lons, dtype=float))
    return sorted_access_table(
        points, starts, ends, grid=grid, window=cfg.window,
        merge_tol=cfg.refine_tol, pass_count=sum(crossings),
    )


def simulate_coverage(cfg: SimConfig) -> RevisitReport:
    """Point-coverage revisit report, same gap conventions as the engine."""
    return revisit_stats(simulate_access_table(cfg))


def crossing_events(
    el: OrbitElements,
    lat: float,
    window: float,
    earth: EarthConstants = EARTH,
    step: float = 10.0,
    tol: float = 1e-4,
) -> list[tuple[float, float, bool]]:
    """Times, longitudes and directions of ground-track latitude crossings.

    Brute-force scan with bisection refinement; used to cross-check the
    analytical pass schedule.
    """
    n = int(math.floor(window / step))
    t = np.arange(n + 1, dtype=float) * step
    _, lat_s, _ = propagate_j2(el, t, earth)
    f = lat_s - lat
    idx = np.flatnonzero(f[:-1] * f[1:] < 0)
    events = []
    for i in idx:
        lo, hi = t[i], t[i + 1]
        f_lo = f[i]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            _, lat_m, _ = propagate_j2(el, np.array([mid]), earth)
            f_m = float(lat_m[0]) - lat
            if (f_m < 0) == (f_lo < 0):
                lo, f_lo = mid, f_m
            else:
                hi = mid
        t_c = 0.5 * (lo + hi)
        _, lat_c, lon_c = propagate_j2(el, np.array([t_c]), earth)
        events.append((float(t_c), float(lon_c[0]), bool(f[i] < 0)))
    return events
