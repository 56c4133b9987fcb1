"""Exception hierarchy shared across the package."""

from __future__ import annotations


class AlflbError(Exception):
    """Base class for all package errors."""


class InvalidRange(AlflbError):
    """A dimension or parameter is outside its allowed range, or an array
    has a wrong shape: input the lab cannot take.  This covers a K*T that E
    does not divide in the balance check, a softmax that saturates
    to 0 or 1, a K = 1 audit given K > 1, and two tokens that share a score
    gap, so that the u-bar threshold is 0.

    ``field`` names the offending parameter when one can be singled out.
    """

    def __init__(self, message: str = "", field: str | None = None):
        self.field = field
        super().__init__(message)


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
