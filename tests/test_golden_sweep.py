"""Byte-for-byte check of a small sweep's CSV against a checked-in copy.

`golden_sweep.csv` holds the rows of two latitude sweeps on a 1 deg grid
over 5 days: a 2-satellite sun-synchronous fleet with an elevation mask,
and an eccentric 3/3/1 Walker fleet with a boresight sensor.  Each sweep
numbers its own cells from 0.  A change that is meant to keep every
number must leave the file's bytes as they are; one that is meant to move
them regenerates it with

    PYTHONPATH=src python tests/test_golden_sweep.py > tests/golden_sweep.csv

and says in its change notes which rows moved and why.
"""
from __future__ import annotations

import sys
from pathlib import Path

from revisit.cases import rows_to_csv, run_sweep, sweep_from_dict

GOLDEN = Path(__file__).with_name("golden_sweep.csv")

SWEEPS = (
    {
        "case": {
            "altitude_km": 600.0, "sso": True, "elevation_deg": 10.0, "walker": [2, 2, 0],
            "window_days": 5.0, "grid_res_deg": 1.0,
        },
        "sweep": {"latitude_deg": [0.0, 75.0, 15.0]},
    },
    {
        "case": {
            "altitude_km": 700.0, "inclination_deg": 60.0, "eccentricity": 0.01,
            "argp_deg": 40.0, "nu0_deg": 25.0, "boresight_deg": 35.0, "walker": [3, 3, 1],
            "window_days": 5.0, "grid_res_deg": 1.0,
        },
        "sweep": {"latitude_deg": [-50.0, 50.0, 20.0]},
    },
)


def golden_csv() -> str:
    """The CSV of every sweep in `SWEEPS`, run serially, under one header."""
    rows = [row for sweep in SWEEPS for row in run_sweep(sweep_from_dict(sweep), max_workers=1)]
    return rows_to_csv(rows)


def test_sweep_csv_matches_the_golden_bytes():
    assert golden_csv().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    sys.stdout.write(golden_csv())
