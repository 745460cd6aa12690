"""Propagated latitude crossings: the reference for the analytic pass combs.

The engine places each pass by formula (`revisit.passes.pass_series`).
`crossing_events` instead scans the secular-J2 propagation of the oracle
on a time grid and bisects each crossing of the target latitude, so tests
can check the combs against it.
"""
from __future__ import annotations

import math

import numpy as np

from revisit.earth import EARTH, EarthConstants
from revisit.oracle import propagate_j2
from revisit.passes import OrbitElements


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
