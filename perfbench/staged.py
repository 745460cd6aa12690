"""Traced run: spans around every call into a layer, and the staged chains.

The staged chains call the same public functions, in the same order, as
`engine.analyze` and `engine.oracle_analyze`, with a span around each
call, so each stage's time and counts can be read off.  Every staged
report is compared (==) with the untraced call on the same case, so the
trace cannot drift from the engine.  The staged chain runs first, as each
case does in an untraced pass; the untraced call follows it, and the
difference between the two is the tracing overhead.

Two extra calls measure what no single call isolates: the branch lenses,
by `accesses_for_passes` on an empty pass comb (it builds both lenses and
nothing else), and the peak allocation inside `accesses_for_passes` and
`revisit_stats`, by repeating them under `tracemalloc`.  Neither is part
of the staged chain's time.
"""
from __future__ import annotations

import json
import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
from revisit.coverage import accesses_for_passes, build_grid, revisit_stats
from revisit.engine import analyze, build_pass_set, oracle_analyze, oracle_sim_config
from revisit.oracle import propagate_j2, simulate_access_table
from revisit.passes import ground_track_segment
from revisit.sensor import radius_at_latitude, resolve_footprint

MB = float(2**20)


class Tracer:
    """In-memory spans: name, start, end, parent span, pass and case id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_index = 0
        self.case = ""

    @contextmanager
    def span(self, name: str):
        """Yield the span's counts dict; counts recorded at the same boundary."""
        rec = {
            "name": name, "pass": self.pass_index, "case": self.case,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def _table_bytes(table) -> int:
    return int(table.point.nbytes + table.start.nbytes + table.end.nbytes)


def _peak_bytes(fn, *args, **kwargs):
    """(result, peak traced allocation in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def engine_case(tr: Tracer, rc) -> object:
    """The staged chain, then untraced `analyze()`; returns the report."""
    el, sensor, lat, walker, settings = rc.elements, rc.sensor, rc.lat, rc.walker, rc.settings
    if settings.footprint_scale != 1.0:
        raise ValueError("the staged chain assumes an unscaled footprint")
    with tr.span("engine.staged"):
        with tr.span("passes.build_pass_set") as c:
            pset = build_pass_set(el, lat, walker, None, settings)
            c["passes"] = len(pset)
        with tr.span("sensor.resolve_footprint"):
            _, _, r_asc, r_desc = radius_at_latitude(el, lat)
            footprints = {
                True: resolve_footprint(sensor, r_asc, lat),
                False: resolve_footprint(sensor, r_desc, lat),
            }
        with tr.span("passes.ground_track_segment"):
            segments = {
                asc: ground_track_segment(
                    el, lat, pset.shift_per_rev, settings.segment_samples,
                    reach=footprints[asc].ground_range, ascending=asc,
                    pad=settings.segment_pad,
                )
                for asc in (True, False)
            }
        grid = build_grid(settings.grid_res)
        with tr.span("coverage.accesses_for_passes") as c:
            table = accesses_for_passes(pset, segments, footprints, grid, lat, settings.bins_per_cell)
            c["intervals"] = int(table.point.size)
            c["table_bytes"] = _table_bytes(table)
        clamped = footprints[True].clamped or footprints[False].clamped
        with tr.span("coverage.revisit_stats"):
            got = revisit_stats(table, clamped=clamped)
    del table
    with tr.span("engine.analyze"):
        want = analyze(el, sensor, lat, walker=walker, settings=settings)
    if got != want:
        raise AssertionError(f"staged report {got} != analyze() report {want}")

    empty = np.empty(0)
    no_passes = replace(
        pset, lon=empty, epoch=empty, ascending=np.empty(0, dtype=bool),
        plane_index=np.empty(0, dtype=np.int64), sat_index=np.empty(0, dtype=np.int64),
    )
    with tr.span("coverage.lens"):
        accesses_for_passes(no_passes, segments, footprints, grid, lat, settings.bins_per_cell)
    with tr.span("coverage.accesses_peak") as c:
        table, c["peak_bytes"] = _peak_bytes(
            accesses_for_passes, pset, segments, footprints, grid, lat, settings.bins_per_cell
        )
    with tr.span("coverage.stats_peak") as c:
        _, c["peak_bytes"] = _peak_bytes(revisit_stats, table, clamped=clamped)
    return want


def oracle_case(tr: Tracer, rc) -> object:
    """The staged oracle chain, then untraced `oracle_analyze()`."""
    el, sensor, lat, walker, settings = rc.elements, rc.sensor, rc.lat, rc.walker, rc.settings
    with tr.span("oracle.staged"):
        cfg = oracle_sim_config(el, sensor, lat, walker, settings)
        with tr.span("oracle.simulate_access_table") as c:
            table = simulate_access_table(cfg)
            c["margin_evals"] = len(cfg.elements) * _step_grid(cfg).size * int(cfg.lons.size)
        with tr.span("oracle.revisit_stats"):
            got = revisit_stats(table)
    with tr.span("oracle.oracle_analyze"):
        want = oracle_analyze(el, sensor, lat, walker=walker, settings=settings)
    if got != want:
        raise AssertionError(f"staged oracle report {got} != oracle_analyze() report {want}")
    times = _step_grid(cfg)
    for sat in cfg.elements:
        with tr.span("oracle.propagate_j2"):
            propagate_j2(sat, times, cfg.earth)
    return want


def _step_grid(cfg) -> np.ndarray:
    """The time steps `simulate_access_table` evaluates visibility at."""
    n_steps = int(math.floor(cfg.window / cfg.step))
    times = np.arange(n_steps + 1, dtype=float) * cfg.step
    if times[-1] < cfg.window - 1e-9:
        times = np.append(times, cfg.window)
    return times


def pass_metrics(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans.

    A layer the workload does not call reads 0.
    """
    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str, key: str) -> list[int]:
        return [s["counts"][key] for s in spans if s["name"] == name]

    schedule, segment = total("passes.build_pass_set"), total("passes.ground_track_segment")
    lens, accesses = total("coverage.lens"), total("coverage.accesses_for_passes")
    stats = total("coverage.revisit_stats")
    cells = [s["end"] - s["start"] for s in spans if s["name"] == "cases.case_row"]
    sweep = total("cli.sweep")
    simulate = total("oracle.simulate_access_table")
    evals = sum(count("oracle.simulate_access_table", "margin_evals"))
    overhead = (
        total("engine.staged") - total("engine.analyze")
        + total("oracle.staged") - total("oracle.oracle_analyze")
    )
    return {
        "passes.schedule_ms": 1e3 * schedule,
        "passes.segment_ms": 1e3 * segment,
        "passes.count": sum(count("passes.build_pass_set", "passes")),
        "coverage.lens_ms": 1e3 * lens,
        "coverage.accesses_ms": 1e3 * (accesses - lens),
        "coverage.intervals": sum(count("coverage.accesses_for_passes", "intervals")),
        "coverage.table_mb": sum(count("coverage.accesses_for_passes", "table_bytes")) / MB,
        "coverage.accesses_peak_mb": max(count("coverage.accesses_peak", "peak_bytes"), default=0) / MB,
        "coverage.stats_peak_mb": max(count("coverage.stats_peak", "peak_bytes"), default=0) / MB,
        "coverage.stats_ms": 1e3 * stats,
        "engine.glue_ms": 1e3 * (total("engine.staged") - schedule - segment - accesses - stats),
        "cases.cell_ms": 1e3 * statistics.median(cells) if cells else 0.0,
        "cases.pool_overhead_s": sweep - sum(cells) / workers if sweep else 0.0,
        "oracle.simulate_s": simulate,
        "oracle.propagate_ms": 1e3 * total("oracle.propagate_j2"),
        "oracle.stats_ms": 1e3 * total("oracle.revisit_stats"),
        "oracle.margin_evals": evals,
        "oracle.evals_per_s": evals / simulate if simulate else 0.0,
        "trace.overhead_ms": 1e3 * overhead,
    }
