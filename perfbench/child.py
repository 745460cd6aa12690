"""One workload in a fresh process, so its peak RSS is its own.

    python3 perfbench/child.py setup <workload>
        Import revisit, build the workload's inputs, start the sweep's pool,
        then print "ready".  run.py times this from process start.
    python3 perfbench/child.py run <workload> <seed> <seconds> <trace>
        Run a warm-up pass, then whole passes that fit in <seconds>; check
        every result, and print one JSON line of raw measurements.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import workloads as wl

OUT_DIR = wl.ROOT / "perfbench" / "out"


def sweep_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _worker_pid(_: int) -> int:
    return os.getpid()


def build_inputs(workload: str, seed: int):
    """The workload's cases: (name, resolved case) pairs, or sweep cells."""
    from revisit.cases import case_from_dict, resolve_case, sweep_from_dict

    if workload == "sso_latitude_sweep":
        return sweep_from_dict(wl.sweep_config(seed)).cells()
    cases = wl.fleet_cases(seed) if workload == "walker_fleet" else wl.crosscheck_cases(seed)
    return [(name, resolve_case(case_from_dict(fields))) for name, fields in cases]


def setup(workload: str) -> None:
    wl.import_revisit()
    import revisit.cli  # noqa: F401  (the sweep's entry point)

    build_inputs(workload, 0)
    if workload == "sso_latitude_sweep" and sweep_workers() > 1:
        with ProcessPoolExecutor(max_workers=sweep_workers()) as pool:
            list(pool.map(_worker_pid, range(sweep_workers())))
            print("ready", flush=True)
    else:
        print("ready", flush=True)


def oracle_reference_hours() -> float:
    return float(json.loads(wl.REFERENCE_FILE.read_text(encoding="utf-8"))["oracle_mrt_hours"])


class Runner:
    """Passes over one workload; records check failures per case."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.tracer = None  # a staged.Tracer turns on the traced pass
        self.staged = None
        self.inputs = build_inputs(workload, seed)
        self.failures: list[str] = []
        self.attempted = 0
        if workload == "sso_latitude_sweep":
            self.ref_50 = oracle_reference_hours()
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            self.work = tempfile.mkdtemp(prefix="sweep_", dir=OUT_DIR)
            self.config = os.path.join(self.work, "sweep.json")
            with open(self.config, "w", encoding="utf-8") as fh:
                json.dump(wl.sweep_config(seed), fh)

    def close(self) -> None:
        if self.workload == "sso_latitude_sweep":
            shutil.rmtree(self.work, ignore_errors=True)

    def _record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)

    def one_pass(self) -> float:
        """Run one pass over the workload; return its timed wall seconds."""
        return getattr(self, "_" + self.workload)()

    def _sso_latitude_sweep(self) -> float:
        csv_path = os.path.join(self.work, "sweep.csv")
        cmd = [
            sys.executable, "-m", "revisit.cli", "sweep", "--config", self.config,
            "--workers", str(sweep_workers()), "--out", csv_path,
        ]
        env = {**os.environ, "PYTHONPATH": str(wl.SRC)}
        timed = self.tracer.span("cli.sweep") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        with timed:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        rows = []
        if proc.returncode == 0:
            with open(csv_path, encoding="utf-8") as fh:
                header, *lines = fh.read().splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        lats = wl.sweep_latitudes()
        if [float(r["lat_deg"]) for r in rows] != lats:
            for _ in lats:
                self._record(f"revisit sweep exited {proc.returncode} with rows for "
                             f"{[r['lat_deg'] for r in rows]}: {proc.stderr[-300:]}")
            return wall
        for row in rows:
            mrt = float(row["mrt_h"]) if row["mrt_h"] else None
            self._record(wl.check_sweep_row(float(row["lat_deg"]), mrt, self.ref_50))
        if self.tracer:
            self._traced_cells()
        return wall

    def _traced_cells(self) -> None:
        """Serial case_row per cell, then the staged engine chain per cell."""
        from revisit.cases import case_row, resolve_case

        for i, cell in enumerate(self.inputs):
            self.tracer.case = f"lat{cell.latitude_deg:g}"
            with self.tracer.span("cases.case_row"):
                case_row(i, cell)
            self.staged.engine_case(self.tracer, resolve_case(cell))

    def _walker_fleet(self) -> float:
        from revisit.engine import analyze

        results, wall = [], 0.0
        for name, rc in self.inputs:
            if self.tracer:
                self.tracer.case = name
                rep = self.staged.engine_case(self.tracer, rc)
            else:
                t0 = time.perf_counter()
                rep = analyze(rc.elements, rc.sensor, rc.lat, walker=rc.walker, settings=rc.settings)
                wall += time.perf_counter() - t0
            results.append(wl.FleetResult(
                name, rc.walker.total, rep.mrt_hours, rep.art_hours,
                rep.coverage_fraction, rep.pass_count,
            ))
        for failure in wl.check_fleet(results):
            self._record(failure)
        return wall

    def _oracle_crosscheck(self) -> float:
        from revisit.engine import analyze, oracle_analyze

        wall = 0.0
        for name, rc in self.inputs:
            args = (rc.elements, rc.sensor, rc.lat)
            kw = {"walker": rc.walker, "settings": rc.settings}
            if self.tracer:
                self.tracer.case = name
                sim = self.staged.oracle_case(self.tracer, rc)
                rep = self.staged.engine_case(self.tracer, rc)
            else:
                t0 = time.perf_counter()
                sim = oracle_analyze(*args, **kw)
                rep = analyze(*args, **kw)
                wall += time.perf_counter() - t0
            self._record(wl.check_crosscheck(name, rep.mrt_hours, sim.mrt_hours))
        return wall


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the process that ran the engine or oracle, MB.

    The sweep runs the engine in `revisit sweep` and its pool workers, all
    children of this process; the other workloads run it here.
    """
    who = resource.RUSAGE_CHILDREN if workload == "sso_latitude_sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """A warm-up pass, then whole passes that fit in `seconds`.

    The warm-up pass is checked but not timed: it pays the first page
    faults on the workload's working set (about 10 % of a fleet pass),
    which a process running many cases pays once.  Another pass starts only if one more
    pass as long as the last still ends within `seconds`; at least one
    pass is timed.  So a run takes a predictable time and never stops
    inside a pass.
    """
    wl.import_revisit()
    tracer = None
    if trace:
        import staged

        tracer = staged.Tracer()
    runner = Runner(workload, seed)
    walls, layers = [], []
    try:
        runner.one_pass()
        t_end = time.perf_counter() + seconds
        if tracer:
            runner.tracer, runner.staged = tracer, staged
        while True:
            t0 = time.perf_counter()
            if tracer:
                tracer.pass_index = len(walls)
                first = len(tracer.spans)
            walls.append(runner.one_pass())
            if tracer:
                layers.append(staged.pass_metrics(tracer.spans[first:], sweep_workers()))
            now = time.perf_counter()
            if now + (now - t0) > t_end:
                break
    finally:
        runner.close()
    out = {
        "pid": os.getpid(),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "pass_s": walls,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    if tracer:
        out["layers"] = layers
        spans_file = OUT_DIR / f"trace_{workload}_seed{seed}.json"
        tracer.write(spans_file)
        out["spans_file"] = str(spans_file.relative_to(wl.ROOT))
    return out


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if mode == "setup":
        setup(workload)
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    print(json.dumps(run(workload, seed, seconds, trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
