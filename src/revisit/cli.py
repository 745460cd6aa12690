"""Command-line interface: single-case runs and parameter sweeps.

Degrees/kilometres at the flags; CSV (stable column schema) or key=value
summaries out.  Exit codes: 0 success (including window-exceeded
sentinel cells), 1 configuration error, 2 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .cases import (
    CSV_COLUMNS,
    CaseConfig,
    case_from_dict,
    case_row,
    json_object,
    parse_walker,
    resolve_case,
    rows_to_csv,
    run_sweep,
    sweep_from_dict,
)
from .engine import analyze, oracle_analyze
from .errors import ConfigError, RevisitError


def _add_case_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--altitude-km", type=float)
    p.add_argument("--semi-major-axis-km", type=float)
    p.add_argument("--eccentricity", type=float)
    p.add_argument("--inclination-deg", type=float)
    p.add_argument("--sso", action="store_true", help="solve the sun-synchronous inclination")
    p.add_argument("--boresight-deg", type=float, help="sensor half-cone angle about nadir")
    p.add_argument("--elevation-deg", type=float, help="minimum elevation constraint")
    p.add_argument("--latitude-deg", type=float)
    p.add_argument("--walker", help="constellation as t/p/f, e.g. 3/3/1")
    p.add_argument("--raan-deg", type=float)
    p.add_argument("--argp-deg", type=float)
    p.add_argument("--nu0-deg", type=float)
    p.add_argument("--window-days", type=float)
    p.add_argument("--grid-res-deg", type=float)
    p.add_argument("--segment-samples", type=int)


_FLAG_FIELDS = (
    "altitude_km", "semi_major_axis_km", "eccentricity", "inclination_deg",
    "boresight_deg", "elevation_deg", "latitude_deg", "raan_deg", "argp_deg",
    "nu0_deg", "window_days", "grid_res_deg", "segment_samples",
)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json_object(f"config {path}", json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _case_from_args(args: argparse.Namespace) -> CaseConfig:
    data = {}
    if args.config:
        raw = _load_json(args.config)
        data = raw.get("case", raw)
    cfg = case_from_dict(data)
    overrides = {}
    for name in _FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if args.sso:
        overrides["sso"] = True
        overrides["inclination_deg"] = None
    elif args.inclination_deg is not None:
        overrides["sso"] = False
    if args.walker:
        overrides["walker"] = parse_walker(args.walker)
    if args.boresight_deg is not None and cfg.elevation_deg is not None:
        overrides["elevation_deg"] = None
    if args.elevation_deg is not None and cfg.boresight_deg is not None:
        overrides["boresight_deg"] = None
    return replace(cfg, **overrides)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_lines(tag: str, report) -> list[str]:
    def fmt(v):
        return "n/a" if v is None else f"{v:.4f}"

    return [
        f"{tag}mrt_h={fmt(report.mrt_hours)}",
        f"{tag}art_h={fmt(report.art_hours)}",
        f"{tag}coverage_frac={report.coverage_fraction:.6f}",
        f"{tag}ttc_h={fmt(report.time_to_full_coverage_hours)}",
        f"{tag}pass_count={report.pass_count}",
        f"{tag}window_exceeded={str(report.window_exceeded).lower()}",
    ]


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _case_from_args(args)
    rc = resolve_case(cfg)
    if args.csv:
        row = case_row(0, cfg, rc)
        _emit(rows_to_csv([row]), args.out)
        return 0 if row["error"] in ("", "window_exceeded") else 1
    report = analyze(**rc.inputs())
    lines = [
        f"alt_km={rc.altitude_km:.3f}",
        f"inc_deg={rc.inclination_deg:.4f}",
        f"lat_deg={cfg.latitude_deg:.3f}",
    ]
    lines += _report_lines("", report)
    if report.clamped:
        print("warning: field of regard reaches past the horizon; "
              "ground range clamped", file=sys.stderr)
    if args.oracle:
        try:
            sim = oracle_analyze(**rc.inputs(), step=args.oracle_step)
        except ValueError as exc:
            raise ConfigError(f"oracle_step {args.oracle_step:g} is invalid: {exc}") from exc
        lines += _report_lines("oracle_", sim)
        if report.mrt_hours is not None and sim.mrt_hours is not None:
            lines.append(f"mrt_diff_h={abs(report.mrt_hours - sim.mrt_hours):.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    raw = _load_json(args.config)
    if "sweep" not in raw:
        raise ConfigError("sweep config needs a 'sweep' section")
    spec = sweep_from_dict(raw)
    rows = run_sweep(spec, max_workers=args.workers)
    _emit(rows_to_csv(rows), args.out)
    bad = [r for r in rows if r["error"] not in ("", "window_exceeded")]
    if bad:
        print(f"{len(bad)} cell(s) failed; see the error column", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revisit",
        description="Semi-analytical revisit-time analysis for satellites "
                    "and Walker constellations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="analyse a single configuration")
    _add_case_flags(run_p)
    run_p.add_argument("--oracle", action="store_true",
                       help="also run the brute-force simulation cross-check")
    run_p.add_argument("--oracle-step", type=float, default=10.0)
    run_p.add_argument("--csv", action="store_true",
                       help=f"emit one CSV row ({', '.join(CSV_COLUMNS)})")
    run_p.add_argument("--out", help="write output to a file instead of stdout")

    sweep_p = sub.add_parser("sweep", help="run a one- or two-axis parameter sweep")
    sweep_p.add_argument("--config", required=True, help="JSON file with case + sweep sections")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="process count (default: REVISIT_WORKERS or all cores)")
    sweep_p.add_argument("--out", help="write the CSV to a file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except RevisitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
