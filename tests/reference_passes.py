"""Propagated latitude crossings: the reference for the analytic pass combs.

The engine places each pass by formula (`revisit.passes.pass_series`).
`crossing_events` instead scans the secular-J2 propagation of the oracle
on a time grid and bisects each crossing of the target latitude, so tests
can check the combs against it.

`per_satellite_pass_series` builds a pass set one satellite and one branch
at a time, each comb by its own `arange`: the reference for the single
array step of `revisit.passes.pass_series`.  It expands the Walker pattern
itself, plane by plane and slot by slot (`walker_offsets`), and
`walker_satellites` gives that expansion's element sets, the reference
for `revisit.oracle.plane_elements`.

`per_sample_track_segment` samples a track segment as the engine does, but
takes each sample's time from the ascending node with one scalar call of
``time_fraction`` (by default the library's `time_fraction_from_node`),
the reference for the array call of `revisit.passes.ground_track_segment`.

`math_time_fraction` is that conversion by `math` alone, one float at a
time: the exact counterpart of the library's, which runs np.sin and
np.cos over an array.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from revisit.earth import EARTH, EarthConstants
from revisit.oracle import propagate_j2, true_from_mean
from revisit.passes import (
    SEGMENT_PAD,
    TWO_PI,
    OrbitElements,
    PassSet,
    TrackSegment,
    WalkerConfig,
    node_relative_ra,
    time_fraction_from_node,
    wrap_angle,
)
from revisit.sensor import radius_at_latitude


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


def math_mean_from_true(nu: float, e: float) -> float:
    """Mean anomaly for true anomaly ``nu`` (rad, same revolution), by `math` alone."""
    ecc_anom = 2.0 * math.atan2(
        math.sqrt(1.0 - e) * math.sin(0.5 * nu),
        math.sqrt(1.0 + e) * math.cos(0.5 * nu),
    )
    return ecc_anom - e * math.sin(ecc_anom)


def math_time_fraction(el: OrbitElements, nu: float) -> float:
    """Fraction of a revolution from the ascending node to true anomaly nu, by `math` alone."""
    d_mean = math_mean_from_true(nu, el.e) - math_mean_from_true(-el.argp, el.e)
    return (d_mean % TWO_PI) / TWO_PI


def _comb_epochs(first: float, period: float, window: float) -> np.ndarray:
    """All epochs first + j*period (j integer) that land inside [0, window]."""
    j_lo = math.ceil(-first / period - 1e-12)
    j_hi = math.floor((window - first) / period + 1e-12)
    if j_hi < j_lo:
        return np.empty(0)
    return first + np.arange(j_lo, j_hi + 1) * period


def walker_offsets(walker: WalkerConfig) -> list[tuple[int, float, float]]:
    """Plane index, node offset and lead in mean anomaly (rad) of each
    satellite of ``walker``, one satellite at a time in `pass_series` order.

    Plane m is separated by 2*pi*m/planes in node longitude and its
    satellites lead the reference by 2*pi*m*phasing/total in mean anomaly;
    in-plane satellites are equally spaced.
    """
    return [
        (m, TWO_PI * m / walker.planes,
         TWO_PI * (m * walker.phasing / walker.total + slot / walker.per_plane))
        for m in range(walker.planes)
        for slot in range(walker.per_plane)
    ]


def walker_satellites(el: OrbitElements, walker: WalkerConfig) -> list[OrbitElements]:
    """`revisit.oracle.plane_elements`, one satellite at a time."""
    m0 = math_mean_from_true(el.nu0, el.e)
    return [
        replace(el, raan=float(wrap_angle(el.raan + off)),
                nu0=float(wrap_angle(true_from_mean(m0 + lead, el.e))))
        for _, off, lead in walker_offsets(walker)
    ]


def per_satellite_pass_series(el, lat, shift, p_n, window, walker) -> PassSet:
    """`revisit.passes.pass_series`, one comb per satellite and branch, concatenated."""
    nu_asc, nu_desc, _, _ = radius_at_latitude(el, lat)
    node_time = -time_fraction_from_node(el, el.nu0) * p_n
    branches = [
        (
            is_asc,
            float(el.raan + node_relative_ra(el.argp + nu, el.inc)),
            float(node_time + time_fraction_from_node(el, nu) * p_n),
        )
        for is_asc, nu in ((True, nu_asc), (False, nu_desc))
    ]
    lons, epochs, ascs, plane_ids, sat_ids = [], [], [], [], []
    for sat_idx, (plane_idx, raan_off, lead) in enumerate(walker_offsets(walker)):
        dt_sat = -(lead / TWO_PI) * p_n
        for is_asc, lon0, dt in branches:
            t = _comb_epochs(dt + dt_sat, p_n, window)
            lons.append(lon0 + raan_off + (t / p_n) * shift)
            epochs.append(t)
            ascs.append(np.full(t.shape, is_asc, dtype=bool))
            plane_ids.append(np.full(t.shape, plane_idx, dtype=np.int64))
            sat_ids.append(np.full(t.shape, sat_idx, dtype=np.int64))
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


def per_sample_track_segment(
    el: OrbitElements,
    lat: float,
    shift: float,
    n_points: int,
    reach: float,
    ascending: bool = True,
    pad: float = SEGMENT_PAD,
    time_fraction=time_fraction_from_node,
) -> TrackSegment:
    """`revisit.passes.ground_track_segment`, one scalar time fraction per sample."""
    sin_i = math.sin(el.inc)
    span = (1.0 + pad) * reach

    def u_at(lat_bound: float) -> float:
        lat_bound = min(math.pi / 2.0, max(-math.pi / 2.0, lat_bound))
        return math.asin(min(1.0, max(-1.0, math.sin(lat_bound) / sin_i)))

    u_lo, u_hi = u_at(lat - span), u_at(lat + span)
    u_c = u_at(lat)
    if not ascending:
        u_lo, u_hi = math.pi - u_hi, math.pi - u_lo
        u_c = math.pi - u_c
    n_lo = (n_points - 1) // 2
    u = np.concatenate(
        [np.linspace(u_lo, u_c, n_lo + 1), np.linspace(u_c, u_hi, n_points - n_lo)[1:]]
    )
    lat_k = np.arcsin(sin_i * np.sin(u))
    d_ra = wrap_angle(node_relative_ra(u, el.inc) - node_relative_ra(u_c, el.inc))
    frac_c = time_fraction(el, u_c - el.argp)
    frac = np.array([time_fraction(el, uk - el.argp) for uk in u])
    d_frac = wrap_angle((frac - frac_c) * TWO_PI) / TWO_PI
    return TrackSegment(lat=lat_k, lon_off=d_ra + d_frac * shift, time_frac=d_frac)
