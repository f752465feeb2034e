"""Exception and warning types shared across the package, and the input check."""

import math


class DomainError(ValueError):
    """An input lies outside the domain of validity of a model or formula."""


class ModelValidityWarning(UserWarning):
    """A formula was evaluated outside the regime where it is a good model."""


class BranchResidualWarning(RuntimeWarning):
    """A closed-form cubic root kept a non-negligible imaginary residue."""


def in_range(
    name: str, value: float, lo: float = 0.0, hi: float = math.inf, bounds: str = "()"
) -> float:
    """Return ``value`` as a float if it is finite and lies between lo and hi.

    ``bounds`` writes the interval in the usual notation: "(" or "[" for an
    open or closed lower end, ")" or "]" for the upper end. The default is
    (0, inf), the positive reals; ``lo=-math.inf`` admits every finite value.
    Raises DomainError naming ``name`` when the value is NaN, infinite or
    outside the interval.
    """
    v = float(value)
    if lo < v < hi:
        return v
    if math.isfinite(v) and (
        (v == lo and bounds[0] == "[") or (v == hi and bounds[1] == "]")
    ):
        return v
    raise DomainError(
        f"{name} must be finite and in {bounds[0]}{lo:g}, {hi:g}{bounds[1]}, got {value!r}"
    )
