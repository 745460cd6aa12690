"""Exception types raised by the revisit analysis chain, and the rule for a count."""
import numpy as np


def is_count(value: object) -> bool:
    """Whether ``value`` may stand for a count: an int or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class RevisitError(Exception):
    """Base class for all revisit-specific errors."""


class ConfigError(RevisitError, ValueError):
    """Invalid input: a case field, a setting or an argument of any entry point."""


class LatitudeUnreachableError(RevisitError):
    """Ground track never crosses the requested latitude (|sin(lat)| > sin(inc))."""


class PoleOverlapError(RevisitError):
    """Footprint reaches over the pole; the longitude half-width is undefined."""


class SunSyncInfeasibleError(RevisitError):
    """No inclination produces a sun-synchronous node drift at this orbit size."""


class KeplerConvergenceError(RevisitError):
    """Kepler's equation failed to converge (corrupt or extreme elements)."""
