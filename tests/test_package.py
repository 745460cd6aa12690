import ast
import functools
import importlib
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import revisit as rv
from revisit import passes
from revisit.cases import SweepSpec, resolve_case, sweep_from_dict
from revisit.passes import ground_track_segment

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_and_every_export_resolves():
    # A fresh interpreter, so modules other tests imported do not count.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import revisit, revisit.cli\n"
        "missing = [n for n in revisit.__all__ if not hasattr(revisit, n)]\n"
        "assert not missing, f'stale exports: {missing}'\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy, f'scipy modules loaded: {scipy[:5]}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_EL = rv.OrbitElements(a=7000.0, inc=math.radians(60.0))
_ELEV = rv.SensorSpec.elevation(0.2)
_CASE = rv.CaseConfig(altitude_km=600.0, inclination_deg=55.0, elevation_deg=15.0)


def _sim(**kw):
    return rv.SimConfig(**{
        "elements": (_EL,), "sensor": _ELEV, "lat": 0.0, "lons": [0.0], "window": 100.0, **kw,
    })


# Finite latitudes past a pole, which no function takes.
_PAST_POLES = (1.6, -1.6)

_BAD_INPUT = {
    "orbit_eccentricity": lambda: rv.OrbitElements(a=7000.0, e=1.0),
    "orbit_perigee": lambda: rv.OrbitElements(a=6000.0),
    "orbit_inclination": lambda: rv.OrbitElements(a=7000.0, inc=4.0),
    "walker_divide": lambda: rv.WalkerConfig(3, 2, 0),
    "walker_empty": lambda: rv.WalkerConfig(0, 1, 0),
    "walker_float": lambda: rv.WalkerConfig(1.5, 1, 0),
    "walker_bool": lambda: rv.WalkerConfig(True, True, False),
    "walker_satellites": lambda: rv.WalkerConfig(passes.MAX_SATELLITES + 1, 1, 0),
    "walker_satellites_huge": lambda: rv.WalkerConfig(10**30, 1, 0),
    "case_walker_huge": lambda: resolve_case(replace(_CASE, walker=(10**30, 1, 0))),
    "sweep_config_list": lambda: sweep_from_dict([1]),
    "sweep_range_two": lambda: SweepSpec(_CASE, {"latitude_deg": (0.0, 10.0)}).cells(),
    "sweep_range_text": lambda: SweepSpec(_CASE, {"latitude_deg": "0:10:5"}).cells(),
    "sweep_axes_list": lambda: SweepSpec(_CASE, [("latitude_deg", (0.0, 10.0, 5.0))]).cells(),
    "sweep_base": lambda: SweepSpec(None, {"latitude_deg": (0.0, 10.0, 5.0)}).cells(),
    "sensor_boresight": lambda: rv.SensorSpec.boresight(2.0),
    "sensor_elevation": lambda: rv.SensorSpec.elevation(-0.1),
    "sensor_mode": lambda: rv.SensorSpec("laser", 0.1),
    "earth_radii": lambda: rv.EarthConstants(polar_radius=7000.0),
    "earth_mu": lambda: rv.EarthConstants(mu=0.0),
    "earth_j2": lambda: rv.EarthConstants(j2=0.5),
    **{
        f"earth_{name}_{value}": lambda name=name, value=value: rv.EarthConstants(**{name: value})
        for name in ("equatorial_radius", "polar_radius", "rotation_rate", "mu", "j2")
        for value in (math.nan, math.inf)
    },
    "sim_lons": lambda: _sim(lons=[]),
    "sim_step": lambda: _sim(step=-1.0),
    "sim_steps": lambda: _sim(window=1e9),
    "sim_step_at_refine_tol": lambda: _sim(step=0.1),
    **{
        f"sim_lat_{lat}": lambda lat=lat: _sim(lat=lat)
        for lat in (math.nan, math.inf, *_PAST_POLES)
    },
    "settings": lambda: rv.EngineSettings(window=0.0),
    "grid": lambda: rv.build_grid(0.0),
    "revisit_stats_grid_size": lambda: rv.revisit_stats(
        rv.AccessTable(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0), 0, 0.0, 0)
    ),
    "pass_series_window": lambda: rv.pass_series(_EL, 0.3, -0.4, 5800.0, 0.0),
    "pass_series_window_nan": lambda: rv.pass_series(_EL, 0.3, -0.4, 5800.0, math.nan),
    "pass_series_window_inf": lambda: rv.pass_series(_EL, 0.3, -0.4, 5800.0, math.inf),
    "pass_series_planes": lambda: rv.pass_series(_EL, 0.3, -0.4, 5800.0, 86400.0, []),
    # window / period overflows, so the comb would be endless.
    "pass_series_passes": lambda: rv.pass_series(_EL, 0.3, -0.4, 5e-324, 86400.0),
    "plane_raan_nan": lambda: rv.PlaneSpec(raan=math.nan),
    "plane_raan_inf": lambda: rv.PlaneSpec(raan=math.inf),
    "plane_phases_empty": lambda: rv.PlaneSpec(raan=0.0, phases=()),
    "plane_phases_list": lambda: rv.PlaneSpec(raan=0.0, phases=[0.0]),
    "plane_phase_nan": lambda: rv.PlaneSpec(raan=0.0, phases=(0.0, math.nan)),
    "segment_samples": lambda: ground_track_segment(_EL, 0.3, -0.4, 2, reach=0.1),
    "segment_lat": lambda: ground_track_segment(_EL, math.inf, -0.4, 100, reach=0.1),
    **{
        f"segment_lat_{lat}": lambda lat=lat: ground_track_segment(_EL, lat, -0.4, 100, reach=0.1)
        for lat in _PAST_POLES
    },
    **{
        f"segment_{name}_{value}": lambda kw={name: value}: ground_track_segment(
            _EL, 0.3, **{"shift": -0.4, "n_points": 100, "reach": 0.1, **kw})
        for name, value in (("shift", math.nan), ("shift", math.inf), ("reach", math.nan),
                            ("reach", math.inf), ("reach", -0.1), ("n_points", 100.0),
                            ("pad", math.nan), ("pad", math.inf), ("pad", -0.1))
    },
    "keplerian_period": lambda: rv.keplerian_period(-1.0),
    "keplerian_period_nan": lambda: rv.keplerian_period(math.nan),
    "keplerian_period_inf": lambda: rv.keplerian_period(math.inf),
    "ground_track_shift": lambda: rv.ground_track_shift(0.0, 0.0),
    "ground_track_shift_nan": lambda: rv.ground_track_shift(math.nan, 0.0),
    "ground_track_shift_period_inf": lambda: rv.ground_track_shift(math.inf, 0.0),
    "ground_track_shift_rate_nan": lambda: rv.ground_track_shift(5800.0, math.nan),
    "ground_track_shift_rate_inf": lambda: rv.ground_track_shift(5800.0, -math.inf),
    "pass_series_shift_nan": lambda: rv.pass_series(_EL, 0.3, math.nan, 5800.0, 86400.0),
    "pass_series_shift_inf": lambda: rv.pass_series(_EL, 0.3, math.inf, 5800.0, 86400.0),
    **{
        f"pass_series_period_{p_n}": lambda p_n=p_n: rv.pass_series(_EL, 0.3, -0.4, p_n, 86400.0)
        for p_n in (math.nan, math.inf, 0.0, -5800.0)
    },
    # The orbit-shape check of the period and drift formulas, which
    # sso_inclination inherits.
    **{
        f"{name}_{a}_{e}_{inc}": lambda call=call, a=a, e=e, inc=inc: call(a, e, inc)
        for name, call in (
            ("nodal_period", rv.nodal_period),
            ("raan_drift_rate", rv.raan_drift_rate),
            ("sso_inclination", lambda a, e, _: rv.sso_inclination(a, e)),
        )
        for a, e, inc in (
            (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 1.0),
            (7000.0, math.nan, 1.0), (7000.0, 1.0, 1.0), (7000.0, 1.5, 1.0), (7000.0, -0.1, 1.0),
            (7000.0, 0.0, math.nan), (7000.0, 0.0, math.inf),
        )
        if not (name == "sso_inclination" and inc != 1.0)
    },
    "range_elevation": lambda: rv.ground_range_from_elevation(7000.0, 6500.0, 0.1),
    "range_elevation_nan": lambda: rv.ground_range_from_elevation(6378.0, math.nan, 0.1),
    "range_boresight": lambda: rv.ground_range_from_boresight(7000.0, 6500.0, 0.1),
    "range_boresight_nan": lambda: rv.ground_range_from_boresight(6378.0, math.nan, 0.1),
    "dihedral_lat": lambda: rv.dihedral_half_angle(0.1, math.nan),
    **{
        f"dihedral_lat_{lat}": lambda lat=lat: rv.dihedral_half_angle(0.1, lat)
        for lat in _PAST_POLES
    },
    **{
        f"{name}_{value}": call
        for value in (math.nan, math.inf, *_PAST_POLES)
        for name, call in (
            ("radius_at_latitude", lambda lat=value: rv.radius_at_latitude(_EL, lat)),
            ("geodetic_radius", lambda lat=value: rv.geodetic_radius(lat)),
            ("resolve_footprint", lambda lat=value: rv.resolve_footprint(_ELEV, 7000.0, lat)),
        )
    },
}


def test_pass_series_refuses_more_passes_than_its_bound(monkeypatch):
    # One satellite over a day at a 5800 s period crosses a latitude at
    # most 2 * (86400 / 5800 + 1) = 31.8 times: a bound of 32 takes the
    # call, one of 31 refuses it before any array is built.
    monkeypatch.setattr(passes, "MAX_PASSES", 32)
    assert len(rv.pass_series(_EL, 0.3, -0.4, 5800.0, 86400.0)) <= 32
    monkeypatch.setattr(passes, "MAX_PASSES", 31)
    with pytest.raises(rv.ConfigError, match="at most 31 are allowed"):
        rv.pass_series(_EL, 0.3, -0.4, 5800.0, 86400.0)


def test_config_error_is_a_value_error():
    assert issubclass(rv.ConfigError, ValueError)
    assert issubclass(rv.ConfigError, rv.RevisitError)


@pytest.mark.parametrize("call", _BAD_INPUT.values(), ids=_BAD_INPUT.keys())
def test_every_public_entry_rejects_bad_input_with_config_error(call):
    with pytest.raises(rv.ConfigError):
        call()


def _value_error_sites(node, func=None):
    """(kind, enclosing function) of each raise or except of ValueError under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _value_error_sites(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield "raise", func
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
            if any(isinstance(t, ast.Name) and t.id == "ValueError" for t in types):
                yield "except", func
        yield from _value_error_sites(child, func)


def test_bad_input_is_raised_as_config_error_and_never_rewrapped():
    # One input contract: each check raises ConfigError itself, so no
    # module raises a bare ValueError or converts one.  The one catch is
    # parse_walker's, around int(), which raises ValueError on its own.
    sites = [
        (path.name, kind, func)
        for path in sorted((SRC / "revisit").glob("*.py"))
        for kind, func in _value_error_sites(ast.parse(path.read_text()))
    ]
    assert sites == [("cases.py", "except", "parse_walker")]


def _unused_imports(tree) -> list[str]:
    """Names that ``tree`` imports and never uses.  A use is a name in the
    code, a name in a string annotation, or an entry of ``__all__``."""
    nodes = list(ast.walk(tree))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in nodes
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    annotations = [
        annotation
        for node in nodes
        for annotation in (
            [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
            else [node.returns] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else []
        )
        if annotation is not None
    ]
    for annotation in annotations:
        for text in ast.walk(annotation):
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                used |= {n.id for n in ast.walk(ast.parse(text.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    for node in nodes:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_does_not_use():
    # Deleting a parameter or a function leaves its imports behind.
    unused = {
        path.name: _unused_imports(ast.parse(path.read_text()))
        for path in sorted((SRC / "revisit").glob("*.py"))
    }
    assert {name: names for name, names in unused.items() if names} == {}


def _calls(tree, test):
    """Name of the top-level function or class (None at module level) that
    holds each call under ``tree`` that ``test`` accepts."""
    for node in tree.body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and test(child):
                yield name


def _is_count_check(call) -> bool:
    # isinstance(x, Integral) or isinstance(x, (..., np.integer, ...)).
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"):
        return False
    kinds = ast.dump(call.args[1]) if len(call.args) == 2 else ""
    return "'Integral'" in kinds or "attr='integer'" in kinds


def test_grids_and_count_checks_each_have_one_home():
    # A table or tile carries its grid's point count, not a grid, so only
    # build_grid makes a LongitudeGrid.  And a count (an int or a numpy
    # integer, never a bool) is checked by errors.is_count alone.
    grids, counts = [], []
    for path in sorted((SRC / "revisit").glob("*.py")):
        tree = ast.parse(path.read_text())
        grids += [(path.name, f) for f in _calls(
            tree, lambda c: isinstance(c.func, ast.Name) and c.func.id == "LongitudeGrid")]
        counts += [(path.name, f) for f in _calls(tree, _is_count_check)]
    assert grids == [("coverage.py", "build_grid")]
    assert counts == [("errors.py", "is_count")]


_MODULES = sorted(p.stem for p in (SRC / "revisit").glob("*.py") if p.stem != "__init__")


def _readme_names() -> set[str]:
    """Each backticked dotted name of README.md, call arguments cut, that
    starts at the package: ``revisit.<module>[.<name>]``, ``rv.<name>`` or
    ``<module>.<name>`` for one of its modules."""
    text = re.sub(r"```.*?```", "", (SRC.parent / "README.md").read_text(), flags=re.S)
    names = set()
    for code in re.findall(r"`([^`]+)`", text):
        dotted = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?", code, re.S)
        if dotted and dotted[1].split(".")[0] in ("revisit", "rv", *_MODULES):
            names.add(dotted[1])
    return names


def test_every_dotted_name_in_the_readme_resolves():
    # The README once named revisit.engine.access_table after it was gone.
    for module in _MODULES:
        importlib.import_module(f"revisit.{module}")
    names = _readme_names()
    assert {"revisit.engine.branch_inputs", "rv.EARTH", "oracle.REFINE_TOL"} <= names

    def resolves(name: str) -> bool:
        head, *rest = name.split(".")
        try:
            functools.reduce(getattr, rest, rv if head in ("revisit", "rv") else getattr(rv, head))
        except AttributeError:
            return False
        return True

    assert [name for name in sorted(names) if not resolves(name)] == []
