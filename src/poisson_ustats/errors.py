"""Exception types shared across the package."""

from contextlib import contextmanager

__all__ = [
    "AssumptionViolationError",
    "CapacityError",
    "ConfigError",
    "DegenerateFunctionalError",
    "IntegrationError",
    "LocalityError",
    "WindowError",
]


class WindowError(ValueError):
    """Window geometry is invalid or degenerate."""


class ConfigError(ValueError):
    """An operation or experiment was configured inconsistently."""


class CapacityError(RuntimeError):
    """A combinatorial enumeration would exceed its hard guard."""


class IntegrationError(RuntimeError):
    """A Monte Carlo integrand produced a non-finite value."""


class DegenerateFunctionalError(RuntimeError):
    """A variance estimate is indistinguishable from zero."""


class AssumptionViolationError(RuntimeError):
    """A hypothesis of a bound could not be confirmed numerically."""


class LocalityError(ValueError):
    """The operation needs a kernel with a locality radius."""


@contextmanager
def _as_config_error(what: str):
    """Re-raise a KeyError, TypeError or ValueError met while reading ``what`` as a ConfigError.

    ConfigError and WindowError pass through unchanged.
    """
    try:
        yield
    except (ConfigError, WindowError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what} ({type(exc).__name__}: {exc})") from exc


def _whole_number(what: str, value) -> int:
    """``value`` as an int, or ConfigError if it is not a whole number (4.0 passes, 2.7, "4" and True do not).

    A value int() cannot read raises int()'s TypeError or ValueError, which _as_config_error reports as malformed.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    try:
        whole = int(value)
    except OverflowError:
        whole = None
    if whole is None or whole != value:
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return whole
