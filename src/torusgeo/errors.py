"""Exception hierarchy for torusgeo."""


class TorusGeoError(Exception):
    """Base class for all torusgeo errors."""


class InputDomainError(TorusGeoError):
    """An argument lies outside the documented input domain (NaN, inf, ...)."""


class InvalidMetricError(TorusGeoError):
    """A metric fails a structural validity check (positivity, convexity)."""


class NotAConformalFactorError(TorusGeoError):
    """A conformal factor is not certified strictly positive on the torus."""


class MalformedLoopError(TorusGeoError):
    """A loop lift does not close up to an integer translation."""


class DegenerateLoopError(TorusGeoError):
    """A loop has (numerically) zero length where positive length is required."""


class TrivialClassError(TorusGeoError):
    """The trivial winding class (0, 0) was passed where a non-trivial one is required."""


class SpeedCapError(TorusGeoError):
    """A loop exceeds the speed cap of the measure set it should belong to."""


class SolverFailureError(TorusGeoError):
    """No descent run converged."""


class ResolutionMismatchError(TorusGeoError):
    """Two grid measures with different resolutions were combined."""


class ExposureFailureError(TorusGeoError):
    """The random-direction draw failed to expose a small argmin face."""


class PerturbationFailureError(TorusGeoError):
    """The argmin-shrinking line search exhausted its schedule or violated an
    internal inequality; this contradicts the construction up to numerics and
    must never be ignored silently."""


class ConfigError(TorusGeoError):
    """An experiment configuration file could not be parsed or validated."""
