"""Exception types raised by the revisit analysis chain."""


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
