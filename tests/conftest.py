import math
import threading

import pytest

import revisit as rv
from revisit.engine import EngineSettings


def make_orbit(alt_km: float, inc_deg: float, **kw) -> rv.OrbitElements:
    return rv.OrbitElements(
        a=rv.EARTH.equatorial_radius + alt_km, inc=math.radians(inc_deg), **kw
    )


@pytest.fixture(scope="session")
def fast_settings() -> EngineSettings:
    """Coarse, short-window settings for structure-level tests."""
    return EngineSettings(window=5 * 86400.0, grid_res=math.radians(1.0))


@pytest.fixture(autouse=True)
def no_threads_left():
    """Fail a test that leaves threads alive.

    `run_sweep` forks its process pool, and a fork copies no thread but
    the forking one, so a lock another thread holds stays held in the
    child for good.  Every thread pool must end with its call.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still alive after the test: {left}"
