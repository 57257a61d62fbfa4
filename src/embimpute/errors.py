"""Exception types shared across the package, and the integer check."""

import operator


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """The diffusion's convergence guarantees cannot hold for the given system."""


def _check_integer(value, name: str, low: int) -> None:
    """Raise ValidationError unless ``value`` is an integer of at least ``low``."""
    try:
        ok = operator.index(value) >= low
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
