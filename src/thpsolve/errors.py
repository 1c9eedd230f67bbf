"""Exception hierarchy shared by all solver modules, and the check of a
count argument."""

import numbers


class SolverError(Exception):
    """Base class for all thpsolve errors."""


class ConfigurationError(SolverError):
    """Invalid mesh, grid, problem description or config file."""


class DomainError(SolverError):
    """Evaluation requested outside the valid domain."""


class ConvergenceError(SolverError):
    """An iterative construction failed to converge."""


class NonvanishingError(SolverError):
    """No zero-free particular solution could be produced."""


class OptimizationError(SolverError):
    """The outer boundary search failed."""


class ExpressionSyntaxError(ConfigurationError):
    """Malformed expression source; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionEvalError(SolverError):
    """Runtime domain violation while evaluating an expression."""


def require_count(name: str, value, minimum: int):
    """Refuse ``value`` with a ConfigurationError naming ``name`` unless it
    is an integer (a Python or numpy integer, not a bool) >= ``minimum``;
    a float count would fail later, far from its cause, inside numpy or
    range()."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
