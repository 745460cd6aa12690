"""Benchmark of the revisit package, as its users run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
Each workload runs in a fresh child process (child.py), so its peak RSS is
its own.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 the per-layer metrics of the traced run (staged.py).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 1 when any result fails its check.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0


def time_setup(workload: str, deadline: float) -> float:
    """Seconds from process start until the child's first case can run."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "setup", workload],
        stdout=subprocess.PIPE, text=True, cwd=wl.ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup of {workload} failed (exit {proc.returncode})")
    return elapsed


def run_child(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run the workload in a fresh process and return its measurements."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "run", workload,
        str(seed), str(seconds), "1" if trace else "0",
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, cwd=wl.ROOT,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One run: set-up timings, then the measured passes; returns the result."""
    metrics = {}
    if not trace:
        setups = [time_setup(workload, deadline) for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    raw = run_child(workload, seed, seconds, trace, deadline)
    if trace:
        for name, unit in wl.PER_LAYER.items():
            values = [layer[name] for layer in raw["layers"]]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        metrics["pass_s"] = {"value": statistics.median(raw["pass_s"]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    for failure in raw["failures"]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "passes": len(raw["pass_s"]),
        "spans_file": raw.get("spans_file"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (wl.SRC / "revisit" / "__init__.py").is_file():
        print(f"perfbench: no revisit sources under {wl.SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        results[name] = res
        print(f"{name}: {res['attempted']} cases attempted, {res['failed']} failed, "
              f"{res['passes']} passes")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        if res["spans_file"]:
            print(f"  spans written to {res['spans_file']}")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
