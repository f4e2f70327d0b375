"""Exception types shared across the package, and the type checks that raise them."""

from numbers import Real


class DerAggError(Exception):
    """Base class for all package errors."""


class ValidationError(DerAggError, ValueError):
    """Inputs violate a documented contract (domain, shape, or invariant)."""


class AdmissibilityError(DerAggError, ValueError):
    """Closed-form parameters lie outside the region where the formulas hold."""


class SolverError(DerAggError, RuntimeError):
    """An iterative solver failed to converge.

    Carries a ``diagnostics`` dict (last bracket, residual trace, ...) so
    callers can report what was tried.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class MarketInfeasibleError(DerAggError, ValueError):
    """Dispatch cannot meet demand; ``shortfall`` is the missing quantity."""

    def __init__(self, message, shortfall):
        super().__init__(message)
        self.shortfall = shortfall


def as_number(value, where: str) -> float:
    """``value`` as a float: a real number (numpy's too), but not a bool."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ValidationError(f"{where} must be a number, got {value!r}")


def as_pairs(points, where: str) -> tuple[tuple[float, float], ...]:
    """``points`` as a tuple of float pairs: a list of [number, number] pairs."""
    try:
        pairs = tuple(map(tuple, points))
    except TypeError:  # not iterable, or an entry that is not
        pairs = ((),)
    if not all(len(p) == 2 for p in pairs):
        raise ValidationError(f"{where} must be a list of [number, number] pairs, got {points!r}")
    return tuple((as_number(a, f"{where}[{k}]"), as_number(b, f"{where}[{k}]"))
                 for k, (a, b) in enumerate(pairs))
