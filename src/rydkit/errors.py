"""Exception and warning types shared across the package, the input check, the
float-range context, and the per-element float math of array results."""

import itertools
import math

import numpy as np


class DomainError(ValueError):
    """An input lies outside the domain of validity of a model or formula."""


class ModelValidityWarning(UserWarning):
    """A formula was evaluated outside the regime where it is a good model."""


class BranchResidualWarning(RuntimeWarning):
    """A closed-form cubic root kept a non-negligible imaginary residue."""


def in_range(
    name: str, value: float, lo: float = 0.0, hi: float = math.inf, bounds: str = "()"
) -> float:
    """Return ``value`` (a Frequency: its rad/s) as a float if finite and between lo and hi.

    ``bounds`` writes the interval in the usual notation: "(" or "[" for an
    open or closed lower end, ")" or "]" for the upper end. The default is
    (0, inf), the positive reals; ``lo=-math.inf`` admits every finite value.
    Raises DomainError naming ``name`` when the value is NaN, infinite or
    outside the interval, or not a number ``float()`` can parse. An ndarray of
    one or more dimensions, of bool, int or float dtype, is checked element by
    element and returned as a float64 array of the same shape.
    """
    if type(value) is float:
        if lo < value < hi:
            return value
    array = type(value := getattr(value, "rad_per_s", value)) is np.ndarray and value.ndim
    try:  # an array of complex, str or object elements fails the same_kind cast
        if isinstance(value, np.complexfloating):  # whose float() drops the imaginary part
            raise TypeError(f"{type(value).__name__} is not a real number")
        v = value.astype(float, casting="same_kind", copy=False) if array else float(value)
    except (TypeError, ValueError) as exc:  # a message that cannot fail to format
        raise DomainError(f"{name} must be a number: {exc}") from None
    except OverflowError:  # an int beyond the float range, too long to print in full
        raise DomainError(f"{name} is out of float range") from None
    if array:
        return _in_range_array(name, v, lo, hi, bounds)
    if lo < v < hi:
        return v
    if math.isfinite(v) and (
        (v == lo and bounds[0] == "[") or (v == hi and bounds[1] == "]")
    ):
        return v
    raise DomainError(_outside(name, lo, hi, bounds, repr(value)))


def _in_range_array(name: str, a: np.ndarray, lo: float, hi: float, bounds: str):
    ok = (
        np.isfinite(a)
        & (a >= lo if bounds[0] == "[" else a > lo)
        & (a <= hi if bounds[1] == "]" else a < hi)
    )
    if ok.all():
        return a
    index = np.unravel_index(np.argmin(ok), a.shape)
    got = f"{float(a[index])!r} at index {tuple(int(i) for i in index)}"
    raise DomainError(_outside(name, lo, hi, bounds, got))


def _outside(name: str, lo: float, hi: float, bounds: str, got: str) -> str:
    return f"{name} must be finite and in {bounds[0]}{lo:g}, {hi:g}{bounds[1]}, got {got}"


class _float_range(np.errstate):
    """``with _float_range(expression):`` runs a formula that may leave the float range.

    numpy's float warnings are off in the body, so a value that overflows to
    inf fails the range check on the result; an ArithmeticError of Python's
    float math becomes ``DomainError("<expression> is out of float range")``.
    """

    __slots__ = ("expression",)

    def __init__(self, expression: str) -> None:
        super().__init__(all="ignore")
        self.expression = expression

    def __exit__(self, kind, exc, tb) -> None:
        super().__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, ArithmeticError):
            raise DomainError(f"{self.expression} is out of float range") from None


def _per_element(fn, x, *args):
    """``fn(x, *args)``, applied to each element when ``x`` is an ndarray.

    numpy's vectorized log10, expm1 and powers round some values differently
    from ``math`` and Python floats, so array code calls the float function
    element by element and each array element equals the scalar call bit for
    bit. A float (or 0-d) ``x`` takes the plain float call.
    """
    if type(x) is np.ndarray and x.ndim:
        values = map(fn, x.ravel().tolist(), *map(itertools.repeat, args))
        return np.fromiter(values, float, x.size).reshape(x.shape)
    return fn(x, *args)
