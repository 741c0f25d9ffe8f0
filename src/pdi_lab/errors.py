"""Exception types shared across the package.

Each class corresponds to one failure mode of the public operations, so
callers can catch precisely what they expect instead of matching message
strings.
"""

from __future__ import annotations

__all__ = [
    "PdiLabError",
    "PreconditionViolation",
    "DegeneratePoint",
    "NoConvergence",
    "IllPosedBoundary",
    "DomainExceeded",
    "InsufficientScales",
    "NonIntegrable",
    "NoAdmissibleScale",
]


class PdiLabError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionViolation(PdiLabError, ValueError):
    """A parameter combination outside the domain of validity of a formula."""


class DegeneratePoint(PdiLabError, ArithmeticError):
    """Evaluation at a point where the flux derivative is singular."""


class NoConvergence(PdiLabError, RuntimeError):
    """The nonlinear solver exhausted its iteration budget."""


class IllPosedBoundary(PdiLabError, ValueError):
    """A boundary condition incompatible with the domain geometry."""


class DomainExceeded(PdiLabError, ValueError):
    """A query point outside the range covered by sampled data."""


class InsufficientScales(PdiLabError, RuntimeError):
    """Too few populated distance scales to fit a growth exponent."""


class NonIntegrable(PdiLabError, ValueError):
    """An integrand that is not locally integrable at the requested index."""


class NoAdmissibleScale(PdiLabError, RuntimeError):
    """No scale makes the candidate witness a supersolution on its grid."""
