"""Exception hierarchy shared by all qltest modules, and the size check
that every configuration runs at construction."""

import operator


class QltestError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QltestError):
    """A state value lies outside the model's state domain, or a model
    contract (e.g. positive diffusion) is violated."""


class ConfigError(QltestError):
    """Invalid configuration, flags or input schema."""


class SimulationError(QltestError):
    """Simulation left the state domain and could not be recovered."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class BoundaryError(QltestError):
    """A parameter sits too close to the box boundary for finite
    differences."""

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class EstimationError(QltestError):
    """All optimizer starts failed."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class RaoUndefinedError(QltestError):
    """The observed information matrix is singular, so the score statistic
    is undefined."""


class StatisticError(QltestError):
    """A test statistic could not be evaluated (non-finite inputs)."""


class HarnessError(QltestError):
    """The Monte Carlo harness exceeded its failure budget."""

    def __init__(self, message, failure_counts=None):
        super().__init__(message)
        self.failure_counts = failure_counts or {}


def _check_count(name, value, minimum):
    """Raise ConfigError unless ``value`` is an integer (Python or numpy) of
    at least ``minimum``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
