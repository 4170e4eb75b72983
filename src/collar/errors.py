"""Exception types shared across the package.

Each class mirrors one failure category of the public operations, so callers
can distinguish configuration mistakes from numerical breakdowns and from
verdict-style failures (which are reported, never raised).  The exit code
follows the class: every error a config can cause is a ``ConfigError`` and
exits 2; any other ``CollarError`` is a numerical failure and exits 3.
"""

from __future__ import annotations


class CollarError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CollarError):
    """A user-supplied parameter is outside its documented range."""


class ConfigParseError(ConfigError):
    """Strict config parsing failed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class DomainError(ConfigError):
    """Geometry input is inconsistent (bad endpoints, point outside domain)."""


class ResolutionError(ConfigError):
    """A collar level is too thin for the grid to resolve it."""


class ModelError(ConfigError):
    """A density/nonlinearity/data evaluator violates its hypotheses."""


class RegimeError(ConfigError):
    """A construction was requested outside its validity regime."""


class RangeError(CollarError):
    """The inverse nonlinearity was evaluated outside its range."""

    def __init__(self, message: str, node: int | None = None, argument: float | None = None):
        self.node = node
        self.argument = argument
        super().__init__(message)


class StepError(CollarError):
    """One implicit time step failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class LinearSolveError(StepError):
    """A tridiagonal solve met a matrix that is not positive definite or a bad
    argument (LAPACK ``info``)."""

    def __init__(self, message: str, info: int):
        self.info = info
        super().__init__(message)


class SolveError(CollarError):
    """A full trajectory solve failed after exhausting time-step retries."""


class SourceError(ConfigError):
    """A duality source term is invalid (negative entries, empty support)."""

