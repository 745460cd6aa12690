"""Case and sweep configuration, execution, and CSV row assembly.

Degrees and kilometres at this boundary; radians inside.  A case is a
single (orbit, sensor, latitude, constellation) analysis; a sweep varies
one or two case fields over ranges and yields one CSV row per cell.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Any

import numpy as np

from .coverage import RevisitReport, usable_cores
from .earth import EARTH, sso_inclination
from .engine import MAX_WINDOW_DAYS, MIN_GRID_RES_DEG, EngineSettings, analyze
from .errors import ConfigError, RevisitError
from .passes import OrbitElements, WalkerConfig
from .sensor import SensorSpec

CSV_COLUMNS = (
    "case_id", "alt_km", "inc_deg", "ecc", "lat_deg", "sensor_mode",
    "sensor_deg", "t", "p", "f", "window_days", "mrt_h", "art_h",
    "coverage_frac", "ttc_h", "pass_count", "error",
)

SWEEPABLE_FIELDS = (
    "altitude_km", "inclination_deg", "boresight_deg", "elevation_deg",
    "latitude_deg", "window_days",
)

# Most cells one sweep may expand to; every cell is built before any runs.
MAX_SWEEP_CELLS = 100_000

WINDOW_EXCEEDED = "window_exceeded"

# Highest apoapsis, above GEO and Molniya apogees.
MAX_APOAPSIS_KM = 100_000.0

# Field pairs of which a case sets exactly one; the unset side keeps its
# default (None, or False for sso).
EITHER_OR = (
    ("altitude_km", "semi_major_axis_km"),
    ("inclination_deg", "sso"),
    ("boresight_deg", "elevation_deg"),
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_object(name: str, value: Any) -> dict[str, Any]:
    """``value`` if it is a JSON object, else a ConfigError naming ``name``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


@dataclass(frozen=True)
class CaseConfig:
    """One analysis case, in user units.

    Exactly one field of each `EITHER_OR` pair must be given.  Altitude is
    measured above the equatorial radius.
    """

    altitude_km: float | None = None
    semi_major_axis_km: float | None = None
    eccentricity: float = 0.0
    inclination_deg: float | None = None
    sso: bool = False
    boresight_deg: float | None = None
    elevation_deg: float | None = None
    latitude_deg: float = 0.0
    walker: tuple[int, int, int] = (1, 1, 0)
    raan_deg: float = 0.0
    argp_deg: float = 0.0
    nu0_deg: float = 0.0
    window_days: float = 60.0
    grid_res_deg: float = 0.1
    segment_samples: int = 1000

    def validate(self) -> None:
        # Field types as annotated: JSON configs can carry any type.
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("| None"):
                continue
            if f.type.startswith("float"):
                if not _is_number(value):
                    raise ConfigError(f"{f.name} must be a number, got {value!r}")
                if not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
            elif f.type == "int" and not _is_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            elif f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be true or false, got {value!r}")
        if not all(_is_int(x) for x in self.walker):
            raise ConfigError(f"walker entries must be integers, got {list(self.walker)}")
        unset = CaseConfig()
        for pair in EITHER_OR:
            if sum(getattr(self, name) != getattr(unset, name) for name in pair) != 1:
                raise ConfigError(f"give exactly one of {pair[0]} / {pair[1]}")
        if not -80.0 <= self.latitude_deg <= 80.0:
            raise ConfigError("target latitude limited to [-80, 80] deg")
        if not 0.0 < self.window_days <= MAX_WINDOW_DAYS:
            raise ConfigError(
                f"window_days must be positive and at most {MAX_WINDOW_DAYS:g}, "
                f"got {self.window_days:g}"
            )
        if not MIN_GRID_RES_DEG <= self.grid_res_deg <= 1.0:
            raise ConfigError(
                f"grid_res_deg must be in [{MIN_GRID_RES_DEG:g}, 1], got {self.grid_res_deg:g}"
            )
        if self.segment_samples < 3:
            raise ConfigError(f"segment_samples must be at least 3, got {self.segment_samples}")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ConfigError("eccentricity must be in [0, 1)")
        t, p, f = self.walker
        try:
            WalkerConfig(t, p, f)
        except ValueError as exc:
            raise ConfigError(f"walker {t}/{p}/{f} is invalid: {exc}") from exc


@dataclass(frozen=True)
class ResolvedCase:
    elements: OrbitElements
    sensor: SensorSpec
    lat: float
    walker: WalkerConfig
    settings: EngineSettings
    inclination_deg: float
    altitude_km: float

    def inputs(self) -> dict[str, Any]:
        """Keyword arguments of `engine.analyze` and `engine.oracle_analyze`."""
        return {
            "el": self.elements, "sensor": self.sensor, "lat": self.lat,
            "walker": self.walker, "settings": self.settings,
        }


def resolve_case(cfg: CaseConfig) -> ResolvedCase:
    """Validate and convert a case config to engine inputs."""
    cfg.validate()
    if cfg.semi_major_axis_km is not None:
        name, a = "semi_major_axis_km", cfg.semi_major_axis_km
    else:
        name, a = "altitude_km", EARTH.equatorial_radius + float(cfg.altitude_km)
    # Altitude is measured from the equatorial radius, so perigee must clear it.
    if a * (1.0 - cfg.eccentricity) <= EARTH.equatorial_radius:
        raise ConfigError(f"{name} puts perigee at or below the equatorial radius")
    if a * (1.0 + cfg.eccentricity) > MAX_APOAPSIS_KM:
        raise ConfigError(f"{name} puts apoapsis above {MAX_APOAPSIS_KM:g} km")
    if cfg.sso:
        inc = sso_inclination(a, cfg.eccentricity)
    else:
        inc = math.radians(float(cfg.inclination_deg))
    try:
        elements = OrbitElements(
            a=a, e=cfg.eccentricity, inc=inc,
            raan=math.radians(cfg.raan_deg),
            argp=math.radians(cfg.argp_deg),
            nu0=math.radians(cfg.nu0_deg),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.boresight_deg is not None:
        name, angle, make = "boresight_deg", cfg.boresight_deg, SensorSpec.boresight
    else:
        name, angle, make = "elevation_deg", cfg.elevation_deg, SensorSpec.elevation
    try:
        sensor = make(math.radians(angle))
    except ValueError as exc:
        # No commas: the message lands in one CSV cell.
        raise ConfigError(f"{name}={angle:g} is outside the sensor's angle range") from exc
    settings = EngineSettings(
        window=cfg.window_days * 86400.0,
        grid_res=math.radians(cfg.grid_res_deg),
        segment_samples=cfg.segment_samples,
    )
    t, p, f = cfg.walker
    return ResolvedCase(
        elements=elements,
        sensor=sensor,
        lat=math.radians(cfg.latitude_deg),
        walker=WalkerConfig(t, p, f),
        settings=settings,
        inclination_deg=math.degrees(inc),
        altitude_km=a - EARTH.equatorial_radius,
    )


def run_case(cfg: CaseConfig) -> RevisitReport:
    """Run the semi-analytical chain for one case."""
    return analyze(**resolve_case(cfg).inputs())


def case_from_dict(data: dict[str, Any]) -> CaseConfig:
    """Build a CaseConfig from a JSON-style dict (e.g. a config file)."""
    known = {f.name for f in fields(CaseConfig)}
    unknown = set(json_object("case", data)) - known
    if unknown:
        raise ConfigError(f"unknown case fields: {sorted(unknown)}")
    if "walker" in data:
        w = data["walker"]
        if isinstance(w, str):
            w = parse_walker(w)
        elif not isinstance(w, (list, tuple)) or len(w) != 3:
            raise ConfigError(f"walker must be given as \"t/p/f\" or [t, p, f], got {w!r}")
        data = {**data, "walker": tuple(w)}
    return CaseConfig(**data)


def parse_walker(text: str) -> tuple[int, int, int]:
    """Parse 't/p/f' Walker notation."""
    try:
        t, p, f = (int(x) for x in text.split("/"))
    except ValueError as exc:
        raise ConfigError(f"walker must look like 't/p/f', got {text!r}") from exc
    return t, p, f


@dataclass(frozen=True)
class SweepSpec:
    """One- or two-parameter sweep over a base case.

    axes maps a sweepable field name to (start, stop, step); stop is
    inclusive up to floating-point slack.
    """

    base: CaseConfig
    axes: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def validate(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError("sweep needs one or two axes")
        for name, (lo, hi, step) in self.axes.items():
            if name not in SWEEPABLE_FIELDS:
                raise ConfigError(
                    f"cannot sweep {name!r}; choose from {SWEEPABLE_FIELDS}"
                )
            if not all(map(math.isfinite, (lo, hi, step))):
                raise ConfigError(f"{name} sweep range must be finite, got ({lo}, {hi}, {step})")
            if step <= 0.0 or hi < lo:
                raise ConfigError(f"bad range for {name}: ({lo}, {hi}, {step})")
        cells = math.prod(self._axis_size(name) for name in self.axes)
        if cells > MAX_SWEEP_CELLS:
            raise ConfigError(
                f"{' x '.join(self.axes)} sweep makes {cells} cells; "
                f"at most {MAX_SWEEP_CELLS} are allowed"
            )

    def _axis_size(self, name: str) -> int:
        lo, hi, step = self.axes[name]
        span = (hi - lo) / step
        if not span < MAX_SWEEP_CELLS:
            raise ConfigError(
                f"{name} sweep range ({lo}, {hi}, {step}) makes more than "
                f"{MAX_SWEEP_CELLS} cells"
            )
        return int(math.floor(span + 1e-9)) + 1

    def axis_values(self, name: str) -> np.ndarray:
        lo, _, step = self.axes[name]
        return lo + step * np.arange(self._axis_size(name))

    def cells(self) -> list[CaseConfig]:
        """Cartesian-product cases in row-major order of the axes."""
        self.validate()
        names = list(self.axes)
        grids = [self.axis_values(n) for n in names]
        return [
            replace(self.base, **{n: float(v) for n, v in zip(names, values)})
            for values in itertools.product(*grids)
        ]


def sweep_from_dict(data: dict[str, Any]) -> SweepSpec:
    axes = {}
    for name, rng in json_object("sweep", data.get("sweep", {})).items():
        values = [rng.get(k) for k in ("min", "max", "step")] if isinstance(rng, dict) else rng
        if not (
            isinstance(values, (list, tuple)) and len(values) == 3
            and all(map(_is_number, values))
        ):
            raise ConfigError(
                f"{name} sweep range must be three numbers, as [min, max, step] "
                f"or {{min, max, step}}; got {rng!r}"
            )
        axes[name] = tuple(float(v) for v in values)
    return SweepSpec(base=case_from_dict(data.get("case", {})), axes=axes)


def _fmt(value: Any, digits: int = 6) -> str:
    """A number to fixed digits; anything else (None, a bad type) to ""."""
    return f"{value:.{digits}f}" if _is_number(value) else ""


def case_row(
    case_id: int, cfg: CaseConfig, rc: ResolvedCase | None = None,
    threads: int | None = None,
) -> dict[str, str]:
    """Run one sweep cell and format its CSV row.

    Window-exceeded cells carry the sentinel in the error column and empty
    metric cells; configuration errors are recorded per cell so the sweep
    keeps going.  ``rc`` is the case already resolved from ``cfg``, when
    the caller resolved it first; ``threads`` caps `analyze`'s tile
    threads.
    """
    row = dict.fromkeys(CSV_COLUMNS, "")
    row["case_id"] = str(case_id)
    row["ecc"] = _fmt(cfg.eccentricity, 4)
    row["lat_deg"] = _fmt(cfg.latitude_deg, 3)
    t, p, f = cfg.walker
    row["t"], row["p"], row["f"] = str(t), str(p), str(f)
    row["window_days"] = _fmt(cfg.window_days, 3)
    if cfg.boresight_deg is not None:
        row["sensor_mode"] = "boresight"
        row["sensor_deg"] = _fmt(cfg.boresight_deg, 3)
    elif cfg.elevation_deg is not None:
        row["sensor_mode"] = "elevation"
        row["sensor_deg"] = _fmt(cfg.elevation_deg, 3)
    try:
        if rc is None:
            rc = resolve_case(cfg)
        row["alt_km"] = _fmt(rc.altitude_km, 3)
        row["inc_deg"] = _fmt(rc.inclination_deg, 4)
        report = analyze(**rc.inputs(), threads=threads)
        row["coverage_frac"] = _fmt(report.coverage_fraction)
        row["pass_count"] = str(report.pass_count)
        if report.window_exceeded:
            row["error"] = WINDOW_EXCEEDED
        else:
            row["mrt_h"] = _fmt(report.mrt_hours)
            row["art_h"] = _fmt(report.art_hours)
            row["ttc_h"] = _fmt(report.time_to_full_coverage_hours)
    except RevisitError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> list[dict[str, str]]:
    """Run every sweep cell; rows are returned in sweep-index order.

    Cells are independent and fan out over processes, one per usable core
    unless ``max_workers`` says otherwise (1 disables multiprocessing).
    The workers share the usable cores: each reduces its cells' tiles on
    max(1, cores // workers) threads, so a serial sweep takes them all.
    Each reduction's threads end with it, so none is alive when the pool
    forks its workers.
    """
    cells = spec.cells()
    ids = range(len(cells))
    cores = usable_cores()
    workers = max(1, min(cores if max_workers is None else max_workers, len(cells)))
    row = partial(case_row, threads=max(1, cores // workers))
    if workers == 1:
        return list(map(row, ids, cells))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, len(cells) // (4 * workers))
        return list(pool.map(row, ids, cells, chunksize=chunksize))


def rows_to_csv(rows: list[dict[str, str]]) -> str:
    """Render rows with the stable column schema; byte-deterministic.

    A cell is quoted only when it holds a comma or a quote.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([row[c] for c in CSV_COLUMNS] for row in rows)
    return out.getvalue()
