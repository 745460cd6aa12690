"""Exact symmetries of the engine and the oracle, asserted without a reference.

Two relations hold for any case, whatever the method's own error:

- The equatorial mirror.  Reflecting the Earth through its equator leaves
  J2 and the Earth's rotation as they are, and it maps a satellite with
  node RAAN and argument of latitude u onto one with RAAN + pi and u + pi.
  So the case at latitude -lat equals the case at +lat with the node
  turned by pi and the argument of latitude by pi: ``nu0 + pi`` on a
  circular orbit, ``argp + pi`` on an eccentric one.  The two runs take
  other floating-point paths (the branches swap, and every angle is
  offset by pi), so counts must be equal and times equal to 1e-12
  relative.
- The whole-cell rotation.  Turning every node by a whole number of grid
  cells moves every pass onto the same grid points' neighbours, so every
  report field must be the same bits.

Both relations test what a cross-check with the oracle cannot: the
branch swap, southern latitudes, each crossing's own radius on eccentric
orbits, boresight sensors, and segments that reach past the pole.
Metamorphic testing (Chen, Cheung and Yiu, 1998) checks a program
through such relations between its outputs.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

import revisit as rv
from revisit.engine import EngineSettings, analyze, branch_inputs, oracle_analyze

from conftest import make_orbit

_SETTINGS = EngineSettings(window=86400.0, grid_res=math.radians(1.0))
_FLEETS = [(1, 1, 0), (3, 3, 1), (4, 2, 1), (6, 6, 0), (24, 6, 0)]
_METHODS = {"engine": analyze, "oracle": oracle_analyze}
_COUNTS = ("coverage_fraction", "uncovered_count", "pass_count", "gap_count", "grid_size",
           "clamped")
_TIMES = ("mrt_hours", "art_hours", "time_to_full_coverage_hours")


def _draw(rng):
    """A case the engine accepts: latitude up to 80 deg, e up to 0.05,
    either sensor mode and fleets up to 24/6/0."""
    while True:
        lat = rng.uniform(0.0, 80.0)
        inc = rng.uniform(max(30.0, lat + 2.0), min(150.0, 180.0 - lat - 2.0))
        e = rng.choice([0.0, rng.uniform(0.0, 0.05)])
        el = make_orbit(
            rng.uniform(500.0, 1500.0), inc, e=e, raan=rng.uniform(-math.pi, math.pi),
            argp=rng.uniform(-math.pi, math.pi) if e else 0.0,
            nu0=rng.uniform(-math.pi, math.pi),
        )
        sensor = rng.choice([
            rv.SensorSpec.elevation(math.radians(rng.uniform(0.0, 40.0))),
            rv.SensorSpec.boresight(math.radians(rng.uniform(10.0, 60.0))),
        ])
        case = (el, sensor, math.radians(lat), rv.WalkerConfig(*rng.choice(_FLEETS)))
        try:
            branch_inputs(*case, settings=_SETTINGS)
        except rv.RevisitError:
            continue  # the footprint covers the pole: refused on both sides
        return case


_RNG = random.Random(20261020)
_CASES = {f"draw_{k}": _draw(_RNG) for k in range(10)}
# The padded reach of 31.1 deg passes the pole: both segments run to the
# 83 deg apex, and at -75 deg they stop at the other pole.
_CASES["reach_past_the_pole"] = (
    make_orbit(1200.0, 97.0), rv.SensorSpec.elevation(math.radians(5.0)),
    math.radians(75.0), rv.WalkerConfig(),
)


def _mirrored(el):
    """``el`` reflected through the equator: node and argument of latitude turned by pi."""
    if el.e == 0.0:
        return replace(el, raan=el.raan + math.pi, nu0=el.nu0 + math.pi)
    return replace(el, raan=el.raan + math.pi, argp=el.argp + math.pi)


def _assert_symmetries(case, run):
    el, sensor, lat, walker = case
    south = run(el, sensor, -lat, walker, _SETTINGS)
    north = run(_mirrored(el), sensor, lat, walker, _SETTINGS)
    for field in _COUNTS:
        assert getattr(north, field) == getattr(south, field), field
    for field in _TIMES:
        want, got = getattr(south, field), getattr(north, field)
        assert (got is None) == (want is None), field
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), field
    turned = replace(el, raan=el.raan + 7 * _SETTINGS.grid_res)
    assert run(turned, sensor, -lat, walker, _SETTINGS) == south


@pytest.mark.parametrize("method", sorted(_METHODS))
@pytest.mark.parametrize("name", list(_CASES))
def test_equatorial_mirror_and_whole_cell_rotation(name, method):
    _assert_symmetries(_CASES[name], _METHODS[method])


def test_engine_mirror_where_gaps_tie_the_merge_tolerance():
    # Satellites of different planes cross at the same epochs (phasing 0),
    # so a point that leaves one footprint at one sample and enters the next
    # plane's at the following sample has a gap of exactly one step in
    # exact arithmetic.  Six such gaps round 3e-14 s below the step at
    # -78 deg and 9e-13 s above it at +78 deg; without the merge
    # tolerance's slack (coverage.MERGE_TOL_FACTOR) they read 23 748 gaps
    # against 23 754.  The oracle passes this case.
    case = (make_orbit(1400.0, 96.0), rv.SensorSpec.boresight(math.radians(27.0)),
            math.radians(78.0), rv.WalkerConfig(12, 6, 0))
    _assert_symmetries(case, analyze)
