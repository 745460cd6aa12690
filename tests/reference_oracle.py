"""Dense time-stepped visibility scan: the reference for the oracle's step ranges.

The oracle (`revisit.oracle.simulate_access_table`) passes over the
steps whose cap of visible central angles misses the target latitude,
takes each other step's visible grid points as one range of the sorted
longitudes, from the sensor's cap radius, evaluates the visibility
margin only on the few points within the range's rounding slack, and
finds rises and falls as differences of consecutive ranges.  This module evaluates the margin at
every (grid point, step) pair, in blocks of grid points over all steps,
and finds the edges of the dense visibility matrix, so tests can check
that the oracle gives a bit-identical access table.  Both share the
bisection (`_refine`) and the table assembly.
"""
from __future__ import annotations

import math

import numpy as np

from revisit.coverage import AccessTable, sorted_access_table
from revisit.oracle import SimConfig, _refine, _visible, propagate_j2

# Visibility margins per block of grid points; a block spans every step.
BLOCK_MARGINS = 2**21


def dense_sat_intervals(el, cfg: SimConfig, times: np.ndarray):
    """One satellite's (point, start, end) arrays and latitude crossings, every pair evaluated."""
    state = propagate_j2(el, times, cfg.earth)
    side = np.sign(state[1] - cfg.lat)
    crossings = int(np.count_nonzero(side[1:] * side[:-1] < 0))
    n_t = times.size
    rows = max(1, BLOCK_MARGINS // n_t)
    pts, cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for b0 in range(0, cfg.lons.size, rows):
        vis = _visible(cfg, cfg.lons[b0 : b0 + rows, None], state)
        # With an invisible step padded at both ends every visible run has
        # one rise and one fall, and nonzero lists them in pairs.
        padded = np.zeros((vis.shape[0], n_t + 2), dtype=np.int8)
        padded[:, 1:-1] = vis
        row, col = np.nonzero(np.diff(padded, axis=1))
        pts.append(b0 + row)
        cols.append(col)
    pt, col = np.concatenate(pts), np.concatenate(cols)
    # Edge column c lies between steps c - 1 and c.
    rise, fall = col[0::2], col[1::2]
    start = np.zeros(rise.size)
    inner = rise > 0
    start[inner] = _refine(el, cfg, pt[0::2][inner], rise[inner], lo_vis=False)
    end = np.full(fall.size, cfg.window)
    inner = fall < n_t
    end[inner] = _refine(el, cfg, pt[1::2][inner], fall[inner], lo_vis=True)
    return pt[0::2], start, end, crossings


def dense_access_table(cfg: SimConfig) -> AccessTable:
    """`oracle.simulate_access_table` over the dense scan, with no step ranges."""
    n_steps = int(math.floor(cfg.window / cfg.step))
    times = np.arange(n_steps + 1, dtype=float) * cfg.step
    if times[-1] < cfg.window - 1e-9:
        times = np.append(times, cfg.window)
    parts = [dense_sat_intervals(el, cfg, times) for el in cfg.elements]
    points, starts, ends, crossings = ([part[k] for part in parts] for k in range(4))
    return sorted_access_table(
        points, starts, ends, grid_size=cfg.lons.size, merge_tol=cfg.refine_tol,
        pass_count=sum(crossings),
    )
