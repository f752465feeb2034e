"""Rectangular parameter-scan grids with exact CSV round-tripping."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

import rydkit  # the models, through the lazy namespace: axis and ScanGrid load none

from .errors import DomainError, _choice, _count, _float_range, _per_element, _Record
from .errors import in_range

_FMT = "%.17g"  # decimal text with 17 significant digits: exact for doubles


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a new float64 ndarray. DomainError naming ``what`` if they
    are not real numbers in a rectangular array (sequences nested to unequal
    lengths); a str or bytes is one value, not a sequence of digits."""
    if isinstance(values, (str, bytes)):
        raise DomainError(f"{what} must be numbers, not a {type(values).__name__}")
    try:
        array = np.array(values)
    except ValueError:  # ragged nesting
        raise DomainError(f"{what} must be numbers in a rectangular array") from None
    if array.dtype.kind == "c":  # whose cast would only name the dtype pair
        raise DomainError(f"{what} must be numbers: {array.dtype} is not a real number")
    try:  # str, bytes and object elements (Fraction, an int too large for numpy) fail the cast
        return array.astype(float, casting="same_kind", copy=False)
    except TypeError as exc:
        raise DomainError(f"{what} must be numbers: {exc}") from None


# the delimiters of the CSV fields and lines: each character str.splitlines breaks a line at
_CSV_DELIMITERS = ",[]#\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _csv_text(what: str, value: str) -> str:
    """``value``, if it is a str that ``ScanGrid.from_csv`` reads back as written:
    no CSV delimiter or line break in it, and no whitespace around it. Otherwise
    DomainError naming ``what`` and the character."""
    if not isinstance(value, str):
        raise DomainError(f"{what} must be a str, not {type(value).__name__}")
    for char in value:
        if char in _CSV_DELIMITERS:
            raise DomainError(f"{what} {value!r} must not hold {char!r}")
    if value != value.strip():
        end = value[0] if value[0].isspace() else value[-1]
        raise DomainError(f"{what} {value!r} must not start or end with {end!r}")
    return value


class Axis(_Record):
    __slots__ = ("name", "unit", "values", "spacing")

    def __init__(self, name: str, unit: str, values: tuple[float, ...],
                 spacing: str = "explicit") -> None:  # spacing: linear | log | explicit
        name = _csv_text("axis name", name)
        unit = _csv_text(f"axis {name!r} unit", unit)
        spacing = _csv_text(f"axis {name!r} spacing", spacing)
        what = f"axis {name!r} values"
        vals = _float_array(values, what)
        if vals.ndim != 1:
            raise DomainError(f"{what} must be numbers in a 1-D sequence")
        if not vals.size:
            raise DomainError(f"axis {name!r} has no values")
        finite = np.isfinite(vals)
        if not finite.all():
            raise DomainError(f"{what} must be finite, got {float(vals[np.argmin(finite)])!r}")
        # neighbours compared, not subtracted: the difference of two huge values overflows
        if not ((vals[1:] > vals[:-1]).all() or (vals[1:] < vals[:-1]).all()):
            raise DomainError(f"{what} must be strictly monotone")
        self._store(name, unit, tuple(vals.tolist()), spacing)


def axis(
    name: str, unit: str, lo: float, hi: float, points: int, spacing: str = "linear"
) -> Axis:
    """Build an axis of `points` values from lo to hi, linear or log spaced."""
    lo = in_range("lo", lo, -math.inf)
    hi = in_range("hi", hi, -math.inf)
    points = _count(f"points of axis {name!r}", points, 1)
    spaced = _choice("spacing", spacing, {"linear": np.linspace, "log": np.geomspace})
    if points == 1 and lo != hi:
        raise DomainError("a single-point axis needs lo == hi")
    if spacing == "linear":
        in_range(f"span hi - lo of axis {name!r}", hi - lo, -math.inf)
    elif lo <= 0 or hi <= 0:
        raise DomainError("log-spaced axes need positive bounds")
    with _float_range(f"axis {name!r}"):  # a value that overflows fails the Axis check
        values = spaced(lo, hi, points)
    return Axis(name, unit, values, spacing)


class ScanGrid(_Record):
    """A named quantity evaluated on an x-by-y rectangle.

    ``cells`` is a read-only float64 ndarray of shape ``(len(y), len(x))``: row
    ``iy`` holds the values at ``y_axis.values[iy]``. It is built from any 2-D
    array or nested sequence of real numbers, as a copy, so changing the
    caller's array later does not change the grid; cells nested to unequal
    lengths or of another shape raise DomainError naming the quantity. Grids are
    equal when their quantity, axes and cell values are, by the record rule for
    an ndarray field; they are not hashable. The quantity and
    each axis's name, unit and spacing hold no CSV delimiter, line break or
    surrounding whitespace, so that ``from_csv(grid.to_csv())`` equals the grid.
    """

    __slots__ = ("quantity", "x_axis", "y_axis", "cells")

    def __init__(self, quantity: str, x_axis: Axis, y_axis: Axis, cells: np.ndarray) -> None:
        quantity = _csv_text("grid quantity", quantity)
        rows, columns = len(y_axis.values), len(x_axis.values)
        array = _float_array(cells, f"{quantity} cells")
        if array.shape != (rows, columns):
            raise DomainError(
                f"{quantity} cells have shape {array.shape}, not {(rows, columns)}: "
                "one row per y value, one column per x value"
            )
        finite = np.isfinite(array)
        if not finite.all():
            iy, ix = divmod(int(np.argmin(finite)), columns)
            raise DomainError(
                f"{quantity} cell ({ix}, {iy}) at {x_axis.name} = {x_axis.values[ix]!r}, "
                f"{y_axis.name} = {y_axis.values[iy]!r} is {float(array[iy, ix])!r}: "
                "cells must be finite"
            )
        array.flags.writeable = False
        self._store(quantity, x_axis, y_axis, array)

    def cell(self, ix: int, iy: int) -> float:
        return float(self.cells[iy, ix])

    def to_csv(self) -> str:
        """The grid as CSV text; the cells become Python floats one row at a time."""
        values = ",".join([_FMT] * len(self.x_axis.values))
        row = f"{_FMT},{values}\n"  # one format per line: the y value, then the cells
        return "".join([
            f"# quantity: {self.quantity}\n",
            f"# x: {self.x_axis.name} [{self.x_axis.unit}] {self.x_axis.spacing}\n",
            f"# y: {self.y_axis.name} [{self.y_axis.unit}] {self.y_axis.spacing}\n",
            f"{self.x_axis.name},{values % self.x_axis.values}\n",
            *(row % (yv, *cells.tolist()) for yv, cells in zip(self.y_axis.values, self.cells)),
        ])

    @classmethod
    def from_csv(cls, text: str) -> "ScanGrid":
        """Parse the text of :meth:`to_csv`; a malformed line raises DomainError naming it:
        a field that is not a number, or a data row with more or fewer fields than the
        header."""
        meta: dict[str, str] = {}
        rows: list[tuple[int, str]] = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                rows.append((number, line))
        if not rows:
            raise DomainError("no data rows in CSV")

        def numbers(number: int, fields: list[str]) -> tuple[float, ...]:
            try:
                return tuple(map(float, fields))
            except ValueError as exc:
                raise DomainError(f"CSV line {number}: {exc}") from None

        def parse_axis(key: str, values: tuple[float, ...]) -> Axis:
            header = meta.get(key)
            name, _, rest = (header or "").partition("[")
            unit, bracket, spacing = rest.partition("]")
            if not bracket:
                raise DomainError(
                    f"CSV needs a '# {key}: name [unit] spacing' line, got {header!r}"
                )
            return Axis(name.strip(), unit.strip(), values, spacing.strip())

        def data_row(number: int, line: str) -> tuple[float, ...]:
            fields = line.split(",")
            if len(fields) != width:
                raise DomainError(
                    f"CSV line {number}: {len(fields)} fields, the header has {width}"
                )
            return numbers(number, fields)

        (header_number, header), data = rows[0], rows[1:]
        width = header.count(",") + 1  # the y value, then one field per x value
        table = np.empty((0, width))  # no data line, an empty y axis: loadtxt would warn
        try:  # the data block in one call, each field rounded as float() rounds it
            if data:
                lines = [line for _, line in data]
                table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is None or table.shape[1] != width:  # line by line: a bad line names itself
            table = np.array([data_row(number, line) for number, line in data])
        return cls(
            quantity=meta.get("quantity", ""),
            x_axis=parse_axis("x", numbers(header_number, header.split(",")[1:])),
            y_axis=parse_axis("y", table[:, 0]),
            cells=table[:, 1:],
        )


class _ScanQuantity(_Record):
    __slots__ = ("x_name", "x_unit", "y_name", "y_unit", "fn", "defaults")

    def __init__(self, x_name: str, x_unit: str, y_name: str, y_unit: str,
                 fn: Callable[[np.ndarray, np.ndarray, dict], np.ndarray], defaults: dict) -> None:
        # fn maps the x row and the y column to the cells
        self._store(x_name, x_unit, y_name, y_unit, fn, defaults)


def _tau_vac_cells(n_code: np.ndarray, epsilon: np.ndarray, fixed: dict) -> np.ndarray:
    t_qec = fixed["t_qec_ms"]
    t_qec_s = rydkit.budget.default_t_qec(n_code) if t_qec is None else t_qec * 1e-3
    return rydkit.budget.required_vacuum_lifetime(n_code, t_qec_s, epsilon)


def _doppler_cells(temperature_uk: np.ndarray, time_ns: np.ndarray, fixed: dict) -> np.ndarray:
    k, mass = rydkit.species._resolve_doppler(
        rydkit.species.get_species(fixed["species"]), fixed["scheme"], fixed["k_per_m"],
        fixed["mass_kg"],
    )
    infid = rydkit.gate_error.doppler_infidelity(k, temperature_uk * 1e-6, time_ns * 1e-9, mass)
    dephased = infid > 0  # False at 0 and NaN, whose cells are -inf
    cells = _per_element(math.log10, np.where(dephased, infid, 1.0))
    cells[~dephased] = -math.inf
    return cells


def _dressing_cells(separation_um: np.ndarray, rabi_mhz: np.ndarray, fixed: dict) -> np.ndarray:
    params = rydkit.dressing._dressing_params(
        rabi_mhz, fixed["detuning_mhz"], fixed["defect_mhz"], fixed["rc_um"]
    )
    cells = rydkit.dressing.normalized_potential(separation_um * 1e-6, params, fixed["kind"])
    # single_term does not depend on the Rabi frequency: its one row fills the grid
    return np.broadcast_to(cells, (rabi_mhz.size, separation_um.size))


def _lifetime_cells(n: np.ndarray, temperature_k: np.ndarray, fixed: dict) -> np.ndarray:
    return rydkit.core.rydberg_lifetime(n, temperature_k, fixed["tau0_ns"] * 1e-9)


SCAN_QUANTITIES: dict[str, _ScanQuantity] = {
    "tau-vac": _ScanQuantity(
        "n_code", "qubits", "epsilon", "", _tau_vac_cells, {"t_qec_ms": None}
    ),
    "doppler-infidelity": _ScanQuantity(
        "temperature", "uK", "rydberg_time", "ns", _doppler_cells,
        {"species": "cs", "scheme": "", "k_per_m": None, "mass_kg": None},
    ),
    "dressing-potential": _ScanQuantity(
        "separation", "um", "rabi", "MHz", _dressing_cells,
        {"detuning_mhz": 10.0, "defect_mhz": 20.0, "rc_um": 1.5, "kind": "full"},
    ),
    "lifetime": _ScanQuantity(
        "n", "", "temperature", "K", _lifetime_cells, {"tau0_ns": 3.3}
    ),
}


def scan(quantity: str, x_axis: Axis, y_axis: Axis, fixed: dict | None = None) -> ScanGrid:
    """Evaluate a registered quantity over a rectangular grid, deterministically.

    The quantity's model function runs once on the broadcast axes, x as a row
    and y as a column, and each cell equals the scalar call at its point bit
    for bit. ``fixed`` overrides the quantity's default parameters and unknown
    keys are rejected. A key whose default is a str takes text; every other
    value must be a finite number (a numeric string is parsed). None keeps
    the default.
    """
    entry = _choice("scan quantity", quantity, SCAN_QUANTITIES)
    merged = dict(entry.defaults)
    for key, value in (fixed or {}).items():
        default = _choice("fixed parameter", key, entry.defaults)
        if value is not None:
            text = isinstance(default, str)
            merged[key] = str(value) if text else in_range(key, value, -math.inf)
    x_row = np.array(x_axis.values)[None, :]
    y_column = np.array(y_axis.values)[:, None]
    cells = entry.fn(x_row, y_column, merged)
    return ScanGrid(quantity=quantity, x_axis=x_axis, y_axis=y_axis, cells=cells)
