"""Workload inputs and the checks that every result must pass.

Each workload is a fixed set of cases.  The seed rotates every case's
right ascension of the ascending node by a whole multiple of 10 degrees:
every pass and every access interval moves on the longitude grid, while
the revisit statistics, and hence the expectations below, stay those of
the unrotated case (10 degrees is a whole number of grid cells for both
the 0.1 and the 1 degree grid).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_50deg.json"

WORKLOADS = ("sso_latitude_sweep", "walker_fleet", "oracle_crosscheck")

# Published single-satellite latitude table (500 km SSO, 30 deg minimum
# elevation, 60-day window, 0.1 deg grid): latitude deg -> MRT hours.
PUBLISHED_MRT = {
    0: 72.59, 5: 84.38, 10: 60.66, 15: 60.60, 20: 36.88, 25: 36.83,
    30: 23.65, 35: 35.78, 40: 35.83, 45: 35.88, 50: 25.23, 55: 14.46,
    60: 14.41, 65: 14.36, 70: 14.32, 75: 14.28, 80: 14.24,
}
# The published 50 deg row (25.23 h) is a standing deviation: engine and
# oracle both give 38.19 h.  That row is checked against the oracle
# reference that make_reference.py writes instead.
ORACLE_ROW_DEG = 50

SWEEP_CASE = {
    "altitude_km": 500.0, "sso": True, "elevation_deg": 30.0,
    "window_days": 60.0, "grid_res_deg": 0.1, "segment_samples": 1000,
}
SWEEP_AXIS = {"latitude_deg": {"min": 0.0, "max": 80.0, "step": 5.0}}

FLEETS = ((1, 1, 0), (6, 6, 0), (24, 6, 0))
FLEET_CASE = {
    "altitude_km": 700.0, "inclination_deg": 60.0, "elevation_deg": 10.0,
    "latitude_deg": 40.0,
}
# Each satellite may gain or lose a crossing at either end of the window.
PASS_SLACK_PER_SAT = 2

# Acceptance criterion-4 settings: 1 deg grid, 10-day window.
CROSSCHECK_SETTINGS = {"window_days": 10.0, "grid_res_deg": 1.0}
CROSSCHECK_CASES = (
    {"name": "400km_i60_e10", "altitude_km": 400.0, "inclination_deg": 60.0,
     "elevation_deg": 10.0, "latitude_deg": 0.0, "walker": (1, 1, 0)},
    {"name": "w330_700km_i90_e0", "altitude_km": 700.0, "inclination_deg": 90.0,
     "elevation_deg": 0.0, "latitude_deg": 0.0, "walker": (3, 3, 0)},
    {"name": "w331_1500km_i96_e20", "altitude_km": 1500.0, "inclination_deg": 96.0,
     "elevation_deg": 20.0, "latitude_deg": 0.0, "walker": (3, 3, 1)},
)


def raan_deg(seed: int) -> float:
    """RAAN rotation the seed applies to every case of a workload."""
    return 10.0 * (seed % 36)


def sweep_config(seed: int) -> dict:
    """`revisit sweep` config of the latitude sweep."""
    return {"case": {**SWEEP_CASE, "raan_deg": raan_deg(seed)}, "sweep": SWEEP_AXIS}


def sweep_latitudes() -> list[float]:
    ax = SWEEP_AXIS["latitude_deg"]
    n = int(round((ax["max"] - ax["min"]) / ax["step"])) + 1
    return [ax["min"] + k * ax["step"] for k in range(n)]


def fleet_cases(seed: int) -> list[tuple[str, dict]]:
    return [
        (f"{t}/{p}/{f}", {**FLEET_CASE, "walker": (t, p, f), "raan_deg": raan_deg(seed)})
        for t, p, f in FLEETS
    ]


def crosscheck_cases(seed: int) -> list[tuple[str, dict]]:
    out = []
    for case in CROSSCHECK_CASES:
        fields = {k: v for k, v in case.items() if k != "name"}
        out.append((case["name"], {**fields, **CROSSCHECK_SETTINGS, "raan_deg": raan_deg(seed)}))
    return out


# Per-layer metrics of the traced run and their units (see staged.pass_metrics).
PER_LAYER = {
    "passes.schedule_ms": "ms", "passes.segment_ms": "ms", "passes.count": "count",
    "coverage.lens_ms": "ms", "coverage.accesses_ms": "ms", "coverage.intervals": "count",
    "coverage.table_mb": "MB", "coverage.accesses_peak_mb": "MB",
    "coverage.stats_peak_mb": "MB", "coverage.stats_ms": "ms", "engine.glue_ms": "ms",
    "cases.cell_ms": "ms", "cases.pool_overhead_s": "s", "oracle.simulate_s": "s",
    "oracle.propagate_ms": "ms", "oracle.stats_ms": "ms", "oracle.margin_evals": "count",
    "oracle.evals_per_s": "1/s", "trace.overhead_ms": "ms",
}


# --- checks: each returns a list of failure messages, one per bad case ----

def mrt_tolerance_published(lat_deg: float) -> float:
    """Acceptance criterion 2's tolerance, hours."""
    return 0.05 if lat_deg >= 75.0 else 0.02


def mrt_tolerance_oracle(mrt_hours: float) -> float:
    """Engine/oracle agreement tolerance, hours: max(2 %, 2 min)."""
    return max(0.02 * mrt_hours, 2.0 / 60.0)


def check_sweep_row(lat_deg: float, mrt_hours: float | None, oracle_ref_hours: float) -> str | None:
    """None when the row's MRT matches its reference, else the reason."""
    if mrt_hours is None:
        return f"lat {lat_deg:g}: no MRT"
    if round(lat_deg) == ORACLE_ROW_DEG:
        want, tol, src = oracle_ref_hours, mrt_tolerance_published(lat_deg), "oracle reference"
    else:
        want, tol, src = PUBLISHED_MRT[round(lat_deg)], mrt_tolerance_published(lat_deg), "published"
    if abs(mrt_hours - want) > tol:
        return f"lat {lat_deg:g}: MRT {mrt_hours:.4f} h, {src} {want} h (tol {tol} h)"
    return None


@dataclass(frozen=True)
class FleetResult:
    name: str
    total: int
    mrt_hours: float | None
    art_hours: float | None
    coverage_fraction: float
    pass_count: int


def check_fleet(results: list[FleetResult]) -> list[str | None]:
    """Per-fleet failures for nested fleets ordered by satellite count.

    Adding satellites may not raise MRT or lower coverage; ART <= MRT;
    pass count is the satellite count times the single satellite's count,
    within PASS_SLACK_PER_SAT per satellite.
    """
    out: list[str | None] = []
    single = results[0]
    for k, r in enumerate(results):
        bad = []
        if r.mrt_hours is None or r.art_hours is None:
            bad.append("no MRT/ART")
        elif r.art_hours > r.mrt_hours:
            bad.append(f"ART {r.art_hours:.4f} h > MRT {r.mrt_hours:.4f} h")
        want = r.total * single.pass_count // single.total
        if abs(r.pass_count - want) > PASS_SLACK_PER_SAT * r.total:
            bad.append(f"{r.pass_count} passes, want {want} +- {PASS_SLACK_PER_SAT * r.total}")
        if k > 0:
            prev = results[k - 1]
            if r.coverage_fraction < prev.coverage_fraction:
                bad.append(f"coverage fell from {prev.coverage_fraction} to {r.coverage_fraction}")
            if None not in (r.mrt_hours, prev.mrt_hours) and r.mrt_hours > prev.mrt_hours:
                bad.append(f"MRT rose from {prev.mrt_hours:.4f} h to {r.mrt_hours:.4f} h")
        out.append(f"{r.name}: " + "; ".join(bad) if bad else None)
    return out


def check_crosscheck(name: str, engine_mrt: float | None, oracle_mrt: float | None) -> str | None:
    if engine_mrt is None or oracle_mrt is None:
        return f"{name}: missing MRT (engine {engine_mrt}, oracle {oracle_mrt})"
    tol = mrt_tolerance_oracle(oracle_mrt)
    if abs(engine_mrt - oracle_mrt) > tol:
        return f"{name}: engine {engine_mrt:.4f} h vs oracle {oracle_mrt:.4f} h (tol {tol:.4f} h)"
    return None


def import_revisit():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not (SRC / "revisit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no revisit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import revisit

    if Path(revisit.__file__).resolve().parent != SRC / "revisit":
        raise SystemExit(f"perfbench: imported revisit from {revisit.__file__}, not {SRC}")
    return revisit
