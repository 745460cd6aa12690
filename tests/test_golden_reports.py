"""Byte-for-byte check of engine reports against a checked-in copy.

`golden_reports.txt` holds one line per case, its name and the `repr` of
the `RevisitReport` that `analyze()` gives, every float to its last bit.
The cases are the benchmark's 1/1/0 and 6/6/0 Walker fleets (700 km,
60 deg, 10 deg elevation, latitude 40 deg, 60 days, 0.1 deg) and its
three criterion-4 cross-check cases (1 deg, 10 days), all unrotated.
The cross-check cases also carry the `oracle_analyze` report of the
time-stepped simulation, on lines named `oracle_<case>`.  The 24/6/0 fleet is left
out to keep the test's wall time bounded.  A
change that is meant to keep every number must leave the file's bytes as
they are; one that is meant to move them regenerates it with

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.txt

and says in its change notes which reports moved and why.
"""
from __future__ import annotations

import sys
from pathlib import Path

from revisit.cases import case_from_dict, resolve_case
from revisit.engine import analyze, oracle_analyze

GOLDEN = Path(__file__).with_name("golden_reports.txt")

_FLEET = {"altitude_km": 700.0, "inclination_deg": 60.0, "elevation_deg": 10.0,
          "latitude_deg": 40.0}
_CROSSCHECK = {"window_days": 10.0, "grid_res_deg": 1.0, "latitude_deg": 0.0}

CASES = {
    "fleet_1_1_0": {**_FLEET, "walker": [1, 1, 0]},
    "fleet_6_6_0": {**_FLEET, "walker": [6, 6, 0]},
    "400km_i60_e10": {**_CROSSCHECK, "altitude_km": 400.0, "inclination_deg": 60.0,
                      "elevation_deg": 10.0, "walker": [1, 1, 0]},
    "w330_700km_i90_e0": {**_CROSSCHECK, "altitude_km": 700.0, "inclination_deg": 90.0,
                          "elevation_deg": 0.0, "walker": [3, 3, 0]},
    "w331_1500km_i96_e20": {**_CROSSCHECK, "altitude_km": 1500.0, "inclination_deg": 96.0,
                            "elevation_deg": 20.0, "walker": [3, 3, 1]},
}


ORACLE_CASES = ("400km_i60_e10", "w330_700km_i90_e0", "w331_1500km_i96_e20")


def golden_reports() -> str:
    """One line per engine case of `CASES` and per oracle case of
    `ORACLE_CASES`: its name and its report's repr."""
    inputs = {name: resolve_case(case_from_dict(case)).inputs() for name, case in CASES.items()}
    return "".join(
        [f"{name} {analyze(**kw)!r}\n" for name, kw in inputs.items()]
        + [f"oracle_{name} {oracle_analyze(**inputs[name])!r}\n" for name in ORACLE_CASES]
    )


def test_engine_reports_match_the_golden_bytes():
    assert golden_reports().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    sys.stdout.write(golden_reports())
