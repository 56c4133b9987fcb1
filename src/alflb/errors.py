"""Exception hierarchy shared across the package."""

from __future__ import annotations


class AlflbError(Exception):
    """Base class for all package errors."""


class InvalidRange(AlflbError):
    """A dimension or parameter is outside its allowed range.

    ``field`` names the offending parameter when one can be singled out.
    """

    def __init__(self, message: str = "", field: str | None = None):
        self.field = field
        super().__init__(message)


class NonDivisible(AlflbError):
    """K*T is not divisible by E in balanced-target mode."""


class DimMismatch(AlflbError):
    """Shapes of matrices / vectors are inconsistent."""


class OverflowGuard(AlflbError):
    """Softmax produced a degenerate (0 or 1) probability."""


class KNotOne(AlflbError):
    """Operation is only defined for the K=1 analysis mode."""


class DegenerateGaps(AlflbError):
    """Two tokens share an identical score gap; the u-bar threshold is 0."""


class NoConvergence(AlflbError):
    """A solver or the quadrature's node doublings ran out before tolerance."""


class ConfigError(AlflbError):
    """Base class for experiment-configuration problems."""


class ParseError(ConfigError):
    """Config file could not be parsed."""


class ValidationError(ConfigError):
    """Config parsed but a field is missing, unknown, or invalid."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)
