"""Exception types shared across the package, and the argument type checks."""

import numbers
import operator

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """The diffusion's convergence guarantees cannot hold for the given system."""


def _check_integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; raise ValidationError unless it is an integer
    in [low, high], or at least ``low`` when ``high`` is None. A bool,
    Python's or numpy's, is not an integer here: ``operator.index`` takes
    ``True`` as 1, and numpy 1.x takes ``np.True_`` as 1 too."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and number > high:
        raise ValidationError(f"{name} must be an integer in [{low}, {high}], got {number}")
    return number


def _check_real(value, name: str) -> None:
    """Raise ValidationError unless ``value`` is a real number (NaN included)."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
