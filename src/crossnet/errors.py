"""Exception hierarchy shared across the package, and the type checks of
the parameter validators.

The CLI maps these onto process exit codes: configuration problems exit 2,
numerical failures exit 3, I/O failures exit 4.
"""
import numbers


class CrossnetError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(CrossnetError):
    """Malformed or inconsistent run configuration."""


class GenerationError(CrossnetError):
    """Graph generation failed (invalid parameters or retry exhaustion)."""


class NonCoexistenceError(CrossnetError):
    """The competition parameters admit no positive coexistence state."""


class StabilityError(CrossnetError):
    """Instability analysis failed or its preconditions do not hold."""


class EigenSolverError(CrossnetError):
    """The symmetric eigensolver did not converge."""


class IntegrationError(CrossnetError):
    """Time integration failed; carries the time at which it happened."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message if time is None else f"{message} (t={time:g})")
        self.time = time


def require_int(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
