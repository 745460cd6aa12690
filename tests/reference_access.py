"""Exact per-sample access evaluation: the reference for the binned lens.

The engine looks up each grid point's first/last visible track sample in
a per-branch lens binned on a fine longitude-offset grid
(`revisit.coverage.accesses_for_passes`).  This module evaluates the
footprint-ellipse inequality at every sample for every grid point
instead, so tests can check the shortcut against it.
"""
from __future__ import annotations

import math

import numpy as np

from revisit.coverage import LongitudeGrid
from revisit.passes import TrackSegment
from revisit.sensor import FootprintAtLatitude


def visible_sample_span(
    x: np.ndarray,
    segment: TrackSegment,
    footprint: FootprintAtLatitude,
    lat: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact first/last visible sample per longitude offset.

    Reference path: evaluates the ellipse inequality at every sample for
    every offset.  Sentinels (n, -1) mark offsets visible at no sample.
    """
    theta, lam = footprint.ground_range, footprint.lon_half_width
    n = segment.u.size
    if theta <= 0.0 or lam <= 0.0:
        return np.full(x.size, n, np.int32), np.full(x.size, -1, np.int32)
    du = (x[:, None] - segment.lon_off[None, :]) / lam
    dv = (lat - segment.lat[None, :]) / theta
    # Slack keeps the inclusive boundary robust to rounding.
    inside = du * du + dv * dv <= 1.0 + 1e-12
    any_vis = inside.any(axis=1)
    kf = np.where(any_vis, inside.argmax(axis=1), n)
    kl = np.where(any_vis, n - 1 - inside[:, ::-1].argmax(axis=1), -1)
    return kf.astype(np.int32), kl.astype(np.int32)


def pass_accesses(
    crossing_lon: float,
    epoch: float,
    segment: TrackSegment,
    footprint: FootprintAtLatitude,
    grid: LongitudeGrid,
    p_n: float,
    lat: float,
) -> list[tuple[int, float, float]]:
    """Access intervals of a single pass, exact per-sample evaluation.

    Returns (grid index, start, end) triples; grid points visible at no
    sample yield nothing.
    """
    lam = footprint.lon_half_width
    reach = lam + float(np.max(np.abs(segment.lon_off)))
    lo = int(np.ceil((crossing_lon - reach + math.pi) / grid.spacing - 1e-9))
    hi = int(np.floor((crossing_lon + reach + math.pi) / grid.spacing + 1e-9))
    if hi < lo:
        return []
    idx = np.arange(lo, hi + 1)
    x = idx * grid.spacing - math.pi - crossing_lon
    kf, kl = visible_sample_span(x, segment, footprint, lat)
    t = segment.time_frac * p_n
    out = []
    for i, f, l in zip(idx % grid.size, kf, kl):
        if f <= l:
            out.append((int(i), epoch + float(t[f]), epoch + float(t[l])))
    return out


