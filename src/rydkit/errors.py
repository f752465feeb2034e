"""Exception and warning types shared across the package, the frozen record base
of its value types, the input checks, the validity flag of a call outside its
model's regime, the float-range context, and the per-element float math of array
results.

The module does not import numpy. An ndarray can exist only once numpy is
loaded, so each helper looks numpy up in ``sys.modules`` when it is called and
takes the plain float path while it is absent: a scalar call never loads it.
The per-element math streams a native float64 array through a ``memoryview``,
one Python float at a time: it holds its result array, not a list of the inputs.
"""

import contextlib
import itertools
import math
import operator
import sys
import warnings
from collections.abc import Mapping


class DomainError(ValueError):
    """An input lies outside the domain of validity of a model or formula."""


class ModelValidityWarning(UserWarning):
    """A formula was evaluated outside the regime where it is a good model."""


class BranchResidualWarning(RuntimeWarning):
    """A closed-form cubic root kept a non-negligible imaginary residue."""


class _Record:
    """A frozen value type. Its fields are its ``__slots__``, in order, and its
    ``__init__`` checks them and sets them once, with ``_store``. Records of one
    class are equal when their fields are, hash as their field tuple and print as
    ``Name(field=value, ...)``; copy and pickle rebuild one through ``__init__``.
    An ndarray field equals another of the same shape and elements
    (``numpy.array_equal``), and a record holding one is not hashable."""

    __slots__ = ()

    def _store(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            sys.modules["numpy"].array_equal(a, b) if _is_array(a) or _is_array(b) else a == b
            for a, b in zip(self._values(), other._values())
        )

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


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
    array = _is_array(value := getattr(value, "rad_per_s", value))
    np = sys.modules.get("numpy")
    try:  # an array of complex, str or object elements fails the same_kind cast
        if np and isinstance(value, np.complexfloating):  # whose float() drops the imaginary part
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
    # an int as given; any other value as the float it was read as, not a numpy repr
    raise DomainError(_outside(name, lo, hi, bounds, repr(value if type(value) is int else v)))


def _nonzero(name: str, value: float) -> float:
    """``in_range(name, value, -math.inf)``, which must also hold no zero element."""
    v = in_range(name, value, -math.inf)
    if _any(v == 0):
        raise DomainError(f"{name} must be nonzero")
    return v


def _scalar(name: str, value: float, *args, **kwargs) -> float:
    """``in_range(name, value, *args, **kwargs)`` for an argument that takes no ndarray."""
    if _is_array(v := in_range(name, value, *args, **kwargs)):
        raise DomainError(f"{name} must be a scalar, not an array")
    return v


def _count(name: str, value: int, lo: int) -> int:
    """``value`` as an int, if it is an integer (a numpy integer too) of at least ``lo``.

    A bool, a float (an integral one too) or any other type raises DomainError.
    """
    try:
        if isinstance(value, bool):
            raise TypeError("a bool is not a count")
        count = operator.index(value)
    except TypeError as exc:
        raise DomainError(f"{name} must be an integer: {exc}") from None
    _scalar(name, count, lo, bounds="[)")
    return count


def _choice(what: str, value, choices):
    """``choices[value]`` for a mapping ``choices``, else ``value``, if it is one of the choices.

    Any other value raises ``DomainError("unknown <what> <value!r> (choose from
    <the choices, sorted>)")``: this is how a named option is checked.
    """
    try:
        if value in choices:
            return choices[value] if isinstance(choices, Mapping) else value
    except (TypeError, ValueError):  # unhashable, or an array whose == is not one bool
        pass
    raise DomainError(f"unknown {what} {value!r} (choose from {', '.join(sorted(choices))})")


def _is_array(x) -> bool:
    """Whether ``x`` is an ndarray of one or more dimensions."""
    np = sys.modules.get("numpy")
    return np is not None and type(x) is np.ndarray and x.ndim > 0


def _any(mask) -> bool:
    """Whether ``mask``, a bool or an ndarray of bools, holds anywhere."""
    return bool(mask.any()) if _is_array(mask) else bool(mask)


def _flag(value, bad, message, worst=max, category=ModelValidityWarning):
    """Return ``value``, with one warning if ``bad`` (a bool or an ndarray of bools) holds.

    This is how a model says that a call left its regime. The text is
    ``message(v)``, built only when the flag fires, for ``v`` the scalar
    ``value`` or the ``worst`` of its elements, read one at a time through a
    ``memoryview`` (a flagged array is native float64). The warning names the first
    line outside the module that called this helper: the caller of the public
    function, also when a private helper of that module flags for it.
    """
    if not _any(bad):
        return value
    frame, level = sys._getframe(1), 2
    module = frame.f_globals
    while frame.f_back is not None and frame.f_globals is module:
        frame, level = frame.f_back, level + 1
    quoted = worst(memoryview(value.ravel())) if _is_array(value) else value
    warnings.warn(message(quoted), category, stacklevel=level)
    return value


def _in_range_array(name: str, a, lo: float, hi: float, bounds: str):
    np = sys.modules["numpy"]
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


@contextlib.contextmanager
def _float_range(expression: str):
    """``with _float_range(expression):`` runs a formula that may leave the float range.

    An ArithmeticError of Python's float math becomes
    ``DomainError("<expression> is out of float range")``. If numpy is loaded
    on entry, its float warnings are off in the body, so an array value that
    overflows to inf fails the range check on the result. A body that imports
    numpy itself must do so before it enters.
    """
    np = sys.modules.get("numpy")
    try:
        with np.errstate(all="ignore") if np else contextlib.nullcontext():
            yield
    except ArithmeticError:
        raise DomainError(f"{expression} is out of float range") from None


def _per_element(fn, x, *args):
    """``fn(x, *args)``, applied to each element when ``x`` is an ndarray.

    numpy's vectorized log10, expm1 and powers round some values differently
    from ``math`` and Python floats, so array code calls the float function
    element by element and each array element equals the scalar call bit for
    bit. A float (or 0-d) ``x`` takes the plain float call.

    An ndarray ``x`` must be native float64, as ``in_range`` returns and
    arithmetic on its results keeps: the elements are read one at a time
    through a ``memoryview``, which refuses float16, complex and non-native
    byte order. Only the result array is allocated, not a list of the inputs.
    """
    if _is_array(x):
        values = map(fn, memoryview(x.ravel()), *map(itertools.repeat, args))
        return sys.modules["numpy"].fromiter(values, float, x.size).reshape(x.shape)
    return fn(x, *args)


def _square(x):
    """``x * x``: correctly rounded, as the C library's ``pow(x, 2)`` need not be, so a float
    and each element of an ndarray get the same bits. A square that overflows raises
    ``OverflowError``, as ``pow`` does, so a ``_float_range`` body names its expression."""
    square = x * x
    if _any(square == math.inf):
        raise OverflowError("square out of float range")
    return square
