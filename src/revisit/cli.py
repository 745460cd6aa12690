"""Command-line interface: single-case runs and parameter sweeps.

Degrees/kilometres at the flags; CSV (stable column schema) or key=value
summaries out.  Exit codes: 0 success (including window-exceeded
sentinel cells), 1 configuration error, 2 internal error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .cases import (
    CSV_COLUMNS,
    EITHER_OR,
    WINDOW_EXCEEDED,
    CaseConfig,
    case_from_dict,
    case_row,
    json_object,
    resolve_case,
    rows_to_csv,
    run_sweep,
    sweep_from_dict,
)
from .engine import analyze, oracle_analyze
from .errors import ConfigError, RevisitError


# Help of the case flags that have one; every CaseConfig field is a flag.
_FLAG_HELP = {
    "sso": "solve the sun-synchronous inclination",
    "boresight_deg": "sensor half-cone angle about nadir",
    "elevation_deg": "minimum elevation constraint",
    "walker": "constellation as t/p/f, e.g. 3/3/1",
}


def _add_case_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    for f in fields(CaseConfig):
        flag, help_text = "--" + f.name.replace("_", "-"), _FLAG_HELP.get(f.name)
        if f.type == "bool":
            # None when not given, so the config file's value stays.
            p.add_argument(flag, action="store_true", default=None, help=help_text)
        else:
            kind = {"float": float, "int": int}.get(f.type.split(" |")[0], str)
            p.add_argument(flag, type=kind, help=help_text)


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
        data = json_object("case", raw.get("case", raw))
    flags = {
        f.name: getattr(args, f.name) for f in fields(CaseConfig)
        if getattr(args, f.name) is not None
    }
    # A flag for one side of an either-or pair drops the file's other side;
    # flags for both sides stay, and validation rejects them.
    for pair in EITHER_OR:
        for name, other in (pair, pair[::-1]):
            if name in flags:
                data.pop(other, None)
    return case_from_dict({**data, **flags})


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
    if args.csv and args.oracle:
        raise ConfigError("--csv and --oracle do not combine: the CSV has no oracle columns")
    rc = resolve_case(cfg)
    if args.csv:
        row = case_row(0, cfg, rc)
        _emit(rows_to_csv([row]), args.out)
        return 0 if row["error"] in ("", WINDOW_EXCEEDED) else 1
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
    bad = [r for r in rows if r["error"] not in ("", WINDOW_EXCEEDED)]
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
                         help="process count (default: all usable cores)")
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
