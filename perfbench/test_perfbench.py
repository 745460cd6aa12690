"""The benchmark's own tests: every check rejects a wrong result.

    python3 -m pytest perfbench -q

The last test runs the fleet and the sweep once each (about 40 s; the fleet
takes 3 GB of memory).
"""
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads as wl

REF_50 = 38.19


@pytest.mark.parametrize("lat", [0.0, 30.0, 70.0, 75.0, 80.0])
def test_sweep_row_rejects_mrt_just_past_tolerance(lat):
    want = wl.PUBLISHED_MRT[round(lat)]
    tol = wl.mrt_tolerance_published(lat)
    assert wl.check_sweep_row(lat, want + 0.99 * tol, REF_50) is None
    assert wl.check_sweep_row(lat, want - 0.99 * tol, REF_50) is None
    assert wl.check_sweep_row(lat, want + 1.01 * tol, REF_50) is not None
    assert wl.check_sweep_row(lat, want - 1.01 * tol, REF_50) is not None
    assert wl.check_sweep_row(lat, None, REF_50) is not None


def test_sweep_50deg_row_is_checked_against_the_oracle_reference():
    tol = wl.mrt_tolerance_published(50.0)
    assert wl.check_sweep_row(50.0, REF_50 + 0.99 * tol, REF_50) is None
    assert wl.check_sweep_row(50.0, REF_50 + 1.01 * tol, REF_50) is not None
    assert wl.check_sweep_row(50.0, wl.PUBLISHED_MRT[50], REF_50) is not None


def test_oracle_reference_file_matches_the_engine():
    ref = json.loads(wl.REFERENCE_FILE.read_text(encoding="utf-8"))
    assert ref["published_mrt_hours"] == wl.PUBLISHED_MRT[wl.ORACLE_ROW_DEG]
    assert wl.check_sweep_row(50.0, ref["engine_mrt_hours"], ref["oracle_mrt_hours"]) is None


def _fleet(mrt1=40.0, mrt6=10.0, mrt24=3.0, cov=(0.9, 1.0, 1.0), passes=(1000, 6000, 24000)):
    names, totals, mrts = ("1/1/0", "6/6/0", "24/6/0"), (1, 6, 24), (mrt1, mrt6, mrt24)
    return [
        wl.FleetResult(n, t, m, None if m is None else 0.5 * m, c, k)
        for n, t, m, c, k in zip(names, totals, mrts, cov, passes)
    ]


def test_fleet_accepts_a_consistent_nested_fleet():
    assert wl.check_fleet(_fleet()) == [None, None, None]
    # Equal MRT is not a rise; each satellite may gain or lose 2 passes.
    assert wl.check_fleet(_fleet(mrt24=10.0, passes=(1000, 6012, 23952))) == [None, None, None]


def test_fleet_rejects_a_larger_fleet_whose_mrt_rises():
    out = wl.check_fleet(_fleet(mrt24=10.0 + 1e-9))
    assert out[:2] == [None, None] and "MRT rose" in out[2]


def test_fleet_rejects_falling_coverage_art_above_mrt_and_wrong_pass_count():
    assert "coverage fell" in wl.check_fleet(_fleet(cov=(0.9, 0.89, 1.0)))[1]
    bad_art = _fleet()
    bad_art[1] = wl.FleetResult("6/6/0", 6, 10.0, 10.5, 1.0, 6000)
    assert "ART" in wl.check_fleet(bad_art)[1]
    assert "passes" in wl.check_fleet(_fleet(passes=(1000, 6013, 24000)))[1]
    assert "passes" in wl.check_fleet(_fleet(passes=(1000, 6000, 23951)))[2]
    assert "no MRT" in wl.check_fleet(_fleet(mrt6=None))[1]


@pytest.mark.parametrize("oracle_mrt", [0.5, 2.3, 13.08, 40.0])
def test_crosscheck_rejects_a_disagreeing_oracle_engine_pair(oracle_mrt):
    tol = wl.mrt_tolerance_oracle(oracle_mrt)
    assert tol == max(0.02 * oracle_mrt, 2.0 / 60.0)
    assert wl.check_crosscheck("c", oracle_mrt + 0.99 * tol, oracle_mrt) is None
    assert wl.check_crosscheck("c", oracle_mrt - 1.01 * tol, oracle_mrt) is not None
    assert wl.check_crosscheck("c", oracle_mrt + 1.01 * tol, oracle_mrt) is not None
    assert wl.check_crosscheck("c", None, oracle_mrt) is not None


def _crosscheck_case(index: int):
    """A resolved cross-check case; imports revisit, as staged.py needs."""
    wl.import_revisit()
    from revisit.cases import case_from_dict, resolve_case

    return resolve_case(case_from_dict(wl.crosscheck_cases(0)[index][1]))


def test_staged_chain_equals_analyze_and_yields_the_engine_metrics():
    rc = _crosscheck_case(0)
    import staged

    tracer = staged.Tracer()
    report = staged.engine_case(tracer, rc)
    metrics = staged.pass_metrics(tracer.spans, workers=2)
    assert set(metrics) == set(wl.PER_LAYER)
    for name in ("passes.schedule_ms", "passes.segment_ms", "coverage.lens_ms",
                 "coverage.accesses_ms", "coverage.stats_ms", "coverage.table_mb",
                 "coverage.accesses_peak_mb", "coverage.stats_peak_mb"):
        assert metrics[name] > 0, name
    assert metrics["passes.count"] == report.pass_count
    staged_index = next(i for i, s in enumerate(tracer.spans) if s["name"] == "engine.staged")
    stages = [s for s in tracer.spans if s["parent"] is not None]
    assert stages and all(s["parent"] == staged_index for s in stages)


def test_staged_chain_rejects_a_report_that_differs_from_analyze(monkeypatch):
    rc = _crosscheck_case(0)
    import staged

    real = staged.revisit_stats
    monkeypatch.setattr(
        staged, "revisit_stats",
        lambda table, clamped=False: replace(real(table, clamped=clamped), gap_count=-1),
    )
    with pytest.raises(AssertionError, match="staged report"):
        staged.engine_case(staged.Tracer(), rc)


def test_seed_rotates_every_case_by_whole_grid_cells():
    for seed in (0, 1, 35, 36, 12345):
        rot = wl.raan_deg(seed)
        for grid_deg in (0.1, 1.0):
            cells = rot / grid_deg
            assert abs(cells - round(cells)) < 1e-9
        assert wl.sweep_config(seed)["case"]["raan_deg"] == rot
        assert all(c["raan_deg"] == rot for _, c in wl.fleet_cases(seed) + wl.crosscheck_cases(seed))
    assert wl.sweep_config(3) == wl.sweep_config(3)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walker_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_each_workload_measures_peak_rss_in_a_fresh_process():
    deadline = run.time.perf_counter() + 170.0
    fleet = run.run_child("walker_fleet", 0, 0.0, False, deadline)
    sweep = run.run_child("sso_latitude_sweep", 0, 0.0, False, deadline)
    assert len({fleet["pid"], sweep["pid"], os.getpid()}) == 3
    assert fleet["failed"] == 0 and sweep["failed"] == 0
    # The 24-satellite fleet peaks near 3 GB; a sweep worker stays far below.
    assert fleet["peak_rss_mb"] > 1000.0
    assert sweep["peak_rss_mb"] < 0.25 * fleet["peak_rss_mb"]

