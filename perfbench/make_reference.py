"""Regenerate the oracle reference for the latitude sweep's 50 deg row.

The published table lists 25.23 h for this row; the engine and the
brute-force oracle both give 38.19 h.  The sweep workload checks the row
against the oracle's value written here, at the sweep's own settings
(500 km SSO, 30 deg minimum elevation, 60-day window, 0.1 deg grid).
Takes about two minutes on one core:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import time

import workloads as wl


def main() -> int:
    wl.import_revisit()
    from revisit.cases import case_from_dict, resolve_case
    from revisit.engine import analyze, oracle_analyze

    case = {**wl.SWEEP_CASE, "latitude_deg": float(wl.ORACLE_ROW_DEG)}
    rc = resolve_case(case_from_dict(case))
    t0 = time.perf_counter()
    oracle = oracle_analyze(rc.elements, rc.sensor, rc.lat, walker=rc.walker, settings=rc.settings)
    oracle_s = time.perf_counter() - t0
    engine = analyze(rc.elements, rc.sensor, rc.lat, walker=rc.walker, settings=rc.settings)
    ref = {
        "case": case,
        "published_mrt_hours": wl.PUBLISHED_MRT[wl.ORACLE_ROW_DEG],
        "oracle_mrt_hours": oracle.mrt_hours,
        "oracle_art_hours": oracle.art_hours,
        "oracle_coverage_fraction": oracle.coverage_fraction,
        "engine_mrt_hours": engine.mrt_hours,
        "oracle_seconds": round(oracle_s, 1),
    }
    wl.REFERENCE_FILE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(ref))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
