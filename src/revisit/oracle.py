"""Brute-force numerical point-coverage simulation.

Independent cross-check for the semi-analytical engine: secular-J2
propagation over every time step; at each step where the satellite's
cap of visible central angles reaches the target latitude, the grid
points that see it, one range of the sorted longitudes whose rounding
slack the exact visibility margin decides, with access edges from the
differences between steps; and edges refined by bisection of the
margin.  Steps out of view cost the propagation and one test.  Shares
the Earth model and secular rates, not the footprint, with the engine,
so differences isolate method error from model error.

Each satellite's steps are cut into chunks of CHUNK_STEPS.  A chunk owns
the edge columns between its steps and the step before it, so it
propagates that one step more, and it finds every visibility change in
its columns on its own; each satellite's changes are then sorted once
and bisected, rises and falls together, in near-equal chunks of at most
CHUNK_STEPS edges.  Both kinds of chunk run on a thread pool, one thread
per usable core, so a thread holds one chunk's arrays, never a whole
window's.  Every state is propagated element by element (`solve_kepler`
stops each element on its own residual), so the table is the same bits
whatever the chunk size and the thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import ClassVar

import numpy as np

from .coverage import AccessTable, sorted_access_table, thread_map
from .earth import EARTH, EarthConstants, check_latitude, geodetic_radius
from .errors import ConfigError, KeplerConvergenceError
from .passes import (
    TWO_PI,
    OrbitElements,
    WalkerConfig,
    _mean_from_true,
    _walker_satellites,
    raan_drift_rate,
    wrap_angle,
)
from .sensor import SensorSpec


# Kepler residual at which Newton's iteration stops, rad, and its most iterations.
KEPLER_TOL = 1e-12
KEPLER_MAX_ITER = 50


def solve_kepler(mean_anom, e: float):
    """Eccentric anomaly from mean anomaly, Newton iteration.

    Each element stops on its own residual: it keeps the update of the
    first iteration whose |f| is below KEPLER_TOL.  So an element's result
    does not depend on the other elements of its array.
    """
    m = np.asarray(mean_anom, dtype=float)
    if e == 0.0:
        return m
    m_red = np.mod(m, TWO_PI)
    ecc = np.ravel(m_red + e * np.sin(m_red))
    m_flat = np.ravel(m_red)
    live = np.arange(ecc.size)
    for _ in range(KEPLER_MAX_ITER):
        x = ecc[live]
        f = x - e * np.sin(x) - m_flat[live]
        ecc[live] = x - f / (1.0 - e * np.cos(x))
        live = live[~(np.abs(f) < KEPLER_TOL)]
        if live.size == 0:
            return ecc.reshape(m.shape) + (m - m_red)
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


def plane_elements(el: OrbitElements, walker: WalkerConfig) -> list[OrbitElements]:
    """Element sets of every satellite of the Walker pattern ``walker``, in
    `pass_series` order.

    The reference plane is ``el``'s own: every other plane's node is
    offset by its separation from it, and each satellite leads ``el`` by
    its phase in mean anomaly.
    """
    _, raan_off, lead = _walker_satellites(walker)
    m0 = _mean_from_true(el.nu0, el.e)
    return [
        replace(
            el,
            raan=float(wrap_angle(el.raan + off)),
            nu0=float(wrap_angle(true_from_mean(m0 + x, el.e))),
        )
        for off, x in zip(raan_off.tolist(), lead.tolist())
    ]


# Time step of the simulation unless a caller sets one, s.
DEFAULT_STEP = 10.0
# Width to which `_refine` bisects every access edge, s; a step must be longer.
REFINE_TOL = 0.1
# Most time steps one simulation may take: 60 days at 10 s is 518 401
# steps.  No array holds one element per step; this bounds the run time
# and the keys p (n_t + 1) + c, which stay far inside int64.
MAX_ORACLE_STEPS = 4_000_000
# Steps of one satellite propagated and screened at once, and edges
# bisected at once: a chunk's arrays, not the window's, set each thread's
# memory.  2**14 steps are a 128 kB float array.
CHUNK_STEPS = 2**14


@dataclass(frozen=True)
class SimConfig:
    """Point-coverage simulation setup.

    Target points are (lat, lons): a single latitude with an array of
    longitudes, matching the engine's grid-at-latitude geometry.  The
    simulation runs on the engine's Earth, `EARTH`.
    """

    elements: tuple[OrbitElements, ...]
    sensor: SensorSpec
    lat: float
    lons: np.ndarray
    window: float
    step: float = DEFAULT_STEP
    earth: ClassVar[EarthConstants] = EARTH

    def __post_init__(self) -> None:
        object.__setattr__(self, "lons", np.asarray(self.lons, dtype=float))
        check_latitude(self.lat)
        if self.lons.size == 0:
            raise ConfigError("lons must hold at least one longitude")
        if not np.all(np.isfinite(self.lons)):
            raise ConfigError("lons must be finite")
        if not 0.0 < self.window < math.inf:
            raise ConfigError("analysis window must be positive and finite")
        if not REFINE_TOL < self.step < math.inf:
            raise ConfigError(f"time step must be finite and above REFINE_TOL = {REFINE_TOL} s")
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
    r_t = geodetic_radius(cfg.lat)
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
    The bound on cos(dlon) of the outer range is taken at every step, the
    half-widths and binary searches only at the steps in view, where that
    bound is at most 1.  Every other step has an empty outer range, and so
    an empty inner one within it: both read (0, 0).
    """
    r, lat_s, lon_s = state
    r_t = geodetic_radius(cfg.lat)
    angle = cfg.sensor.angle
    if cfg.sensor.mode == "elevation":
        h = np.arccos(np.minimum(r_t * math.cos(angle) / r, 1.0)) - angle
    else:
        h = np.arccos(np.minimum(r_t / r, 1.0))
        edge = r * math.sin(angle) / r_t
        cone = 0.5 * math.pi - np.arccos(np.minimum(edge, 1.0)) - angle
        h = np.where(edge < 1.0, np.minimum(h, cone), h)
    den = math.cos(cfg.lat) * np.cos(lat_s)
    sin_term = math.sin(cfg.lat) * np.sin(lat_s)
    outer = np.cos(np.clip(h + RANGE_PAD, 0.0, math.pi)) - RANGE_PAD - sin_term
    view = np.flatnonzero(outer <= den)
    h, den, sin_term, lon_s = h[view], den[view], sin_term[view], lon_s[view]
    lon = wrap_angle(cfg.lons)
    order = np.argsort(lon, kind="stable")
    tiled = np.concatenate([lon[order] - TWO_PI, lon[order], lon[order] + TWO_PI])
    inner = np.cos(np.clip(h - RANGE_PAD, 0.0, math.pi)) + RANGE_PAD - sin_term
    ranges = []
    for num in (inner, outer[view]):
        half = np.arccos(np.clip(num / den, -1.0, 1.0))  # den >= cos(pi / 2) ** 2 > 0
        lo = np.searchsorted(tiled, lon_s - half, "left")
        hi = np.searchsorted(tiled, lon_s + half, "right")
        lo_all, count = np.zeros(lat_s.size, np.intp), np.zeros(lat_s.size, np.intp)
        lo_all[view] = lo
        count[view] = np.where(num > den, 0, np.minimum(hi - lo, lon.size))
        ranges.append((lo_all, count))
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


def _step_count(cfg: SimConfig) -> int:
    """Steps of the grid: every multiple of the step up to the window, and the window."""
    n_steps = int(math.floor(cfg.window / cfg.step))
    return n_steps + 1 + int(n_steps * cfg.step < cfg.window - 1e-9)


def _step_times(cfg: SimConfig, k) -> np.ndarray:
    """Times of the steps numbered k, s: k step, or the window past the last multiple."""
    n_steps = int(math.floor(cfg.window / cfg.step))
    return np.where(k > n_steps, cfg.window, k * cfg.step)


def _refine(el: OrbitElements, cfg: SimConfig, pt, hi_step, lo_vis) -> np.ndarray:
    """Bisect each change from its visibility lo_vis at step hi_step - 1."""
    if pt.size == 0:
        return np.empty(0)
    lon_t = cfg.lons[pt]
    lo, hi = _step_times(cfg, hi_step - 1), _step_times(cfg, hi_step)
    n_iter = max(1, math.ceil(math.log2(cfg.step / REFINE_TOL)))
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        take_lo = _visible(cfg, lon_t, propagate_j2(el, mid)) == lo_vis
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


def _chunk_keys(cfg: SimConfig, n_t: int, unit: tuple[OrbitElements, int]):
    """Visibility changes of one satellite in the columns of one chunk, and its crossings.

    The chunk of ``unit = (el, a)`` owns columns a to b - 1, b = min(a +
    CHUNK_STEPS, n_t), and column n_t too when b = n_t; column c lies
    between steps c - 1 and c, so the chunk propagates steps a - 1 to b - 1.
    Returns the sorted keys p (n_t + 1) + c of the (point, column) pairs
    where visibility changes, and the number of times the sub-satellite
    latitude crosses the target between two of the chunk's steps.  The
    ranges' differences and the margin run only on the steps, and the
    columns next to steps, whose ranges hold a point.
    """
    el, a = unit
    b = min(a + CHUNK_STEPS, n_t)
    first = max(a - 1, 0)
    state = propagate_j2(el, _step_times(cfg, np.arange(first, b)))
    side = np.sign(state[1] - cfg.lat)
    crossings = int(np.count_nonzero(side[1:] * side[:-1] < 0))
    n = cfg.lons.size
    (lo, count), (out_lo, out_count), order = _step_ranges(cfg, state)
    # Key p * (n_t + 1) + c names point p at column c.  The margin decides
    # E, the few pairs in an outer range and not in the inner one; E at
    # step s changes visibility at columns s and s + 1 if the chunk owns them.
    held = np.flatnonzero(out_count)
    index, k = _difference(out_lo[held], out_count[held], lo[held], count[held], n)
    step = held[k]
    seen = _visible(cfg, cfg.lons[order[index]], tuple(x[step] for x in state))
    fringe_pt, fringe_col = order[index[seen]], first + step[seen]
    fringe_pt, fringe_col = np.r_[fringe_pt, fringe_pt], np.r_[fringe_col, fringe_col + 1]
    owned = (fringe_col >= a) & ((fringe_col < b) | (b == n_t))
    # The inner ranges C rise at column c on range c minus range c - 1 and
    # fall on the reverse; none is seen before step 0 or after step n_t -
    # 1, and a column between two empty ranges changes nothing.
    head, tail = np.zeros(int(a == 0), np.intp), np.zeros(int(b == n_t), np.intp)
    lo, count = np.r_[head, lo, tail], np.r_[head, count, tail]
    col = np.flatnonzero(count[1:] | count[:-1])
    index, k = _difference(*(np.r_[v[col + 1], v[col]] for v in (lo, count)),
                           *(np.r_[v[col], v[col + 1]] for v in (lo, count)), n)
    # Visibility, C xor E, changes at the keys met an odd number of times
    # among C's changes, E and E + 1.
    key = np.r_[order[index] * (n_t + 1) + a + np.r_[col, col][k],
                fringe_pt[owned] * (n_t + 1) + fringe_col[owned]]
    key, met = np.unique(key, return_counts=True)
    return key[met % 2 == 1], crossings


def simulate_access_table(cfg: SimConfig) -> AccessTable:
    """Run the time-stepped simulation and assemble the access table.

    Both phases run on `coverage.thread_map`: first every satellite's
    chunks of CHUNK_STEPS steps, then its inner rises and falls together,
    in near-equal chunks of at most CHUNK_STEPS edges, bisected by `_refine`.
    """
    n_t = _step_count(cfg)
    cuts = range(0, n_t, CHUNK_STEPS)
    units = [(el, a) for el in cfg.elements for a in cuts]
    keyed = thread_map(partial(_chunk_keys, cfg, n_t), units)
    points, starts, ends, crossings, bisections = [], [], [], 0, []
    for k, el in enumerate(cfg.elements):
        keys, counts = zip(*keyed[k * len(cuts) : (k + 1) * len(cuts)])
        crossings += sum(counts)
        # Sorted by (point, column), the changes alternate rise, fall, so
        # change i is visible before it when i is odd.  A rise at column 0
        # starts at 0, a fall at column n_t ends at the window, and every
        # other edge is bisected into its entry of times.
        pt, col = np.divmod(np.sort(np.concatenate(keys)), n_t + 1)
        times = np.where(col == 0, 0.0, cfg.window)
        inner = np.flatnonzero((col > 0) & (col < n_t))
        parts = max(1, math.ceil(inner.size / CHUNK_STEPS))
        bisections += [(el, pt, col, times, at) for at in np.array_split(inner, parts)]
        points.append(pt[0::2])
        starts.append(times[0::2])
        ends.append(times[1::2])

    def bisect(job) -> None:
        el, pt, col, times, at = job
        times[at] = _refine(el, cfg, pt[at], col[at], at % 2 == 1)

    thread_map(bisect, bisections)
    return sorted_access_table(
        points, starts, ends, grid_size=cfg.lons.size, merge_tol=REFINE_TOL,
        pass_count=crossings,
    )
