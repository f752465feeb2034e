"""Rectangular parameter-scan grids with exact CSV round-tripping."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import budget, core, dressing, gate_error
from .errors import DomainError, in_range
from .species import get_species
from .units import Frequency

_FMT = "{:.17g}"  # decimal text with 17 significant digits: exact for doubles


@dataclass(frozen=True)
class Axis:
    name: str
    unit: str
    values: tuple[float, ...]
    spacing: str = "explicit"  # linear | log | explicit

    def __post_init__(self) -> None:
        if not self.values:
            raise DomainError(f"axis {self.name!r} has no values")
        vals = tuple(float(v) for v in self.values)
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise DomainError(f"axis {self.name!r} values must be strictly monotone")
        object.__setattr__(self, "values", vals)


def axis(
    name: str, unit: str, lo: float, hi: float, points: int, spacing: str = "linear"
) -> Axis:
    """Build an axis of `points` values from lo to hi, linear or log spaced."""
    lo = in_range("lo", lo, -math.inf)
    hi = in_range("hi", hi, -math.inf)
    if points < 1:
        raise DomainError("axis needs at least one point")
    if points == 1:
        if lo != hi:
            raise DomainError("a single-point axis needs lo == hi")
        return Axis(name, unit, (lo,), spacing)
    if spacing == "linear":
        values = np.linspace(lo, hi, points)
    elif spacing == "log":
        if lo <= 0 or hi <= 0:
            raise DomainError("log-spaced axes need positive bounds")
        values = np.geomspace(lo, hi, points)
    else:
        raise DomainError(f"unknown spacing {spacing!r}")
    return Axis(name, unit, tuple(float(v) for v in values), spacing)


@dataclass(frozen=True)
class ScanGrid:
    """A named quantity evaluated on an x-by-y rectangle, row-major in y."""

    quantity: str
    x_axis: Axis
    y_axis: Axis
    cells: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.y_axis.values):
            raise DomainError("cell row count must match the y axis")
        if any(len(row) != len(self.x_axis.values) for row in self.cells):
            raise DomainError("cell column count must match the x axis")
        object.__setattr__(
            self, "cells", tuple(tuple(float(v) for v in row) for row in self.cells)
        )

    def cell(self, ix: int, iy: int) -> float:
        return self.cells[iy][ix]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# quantity: {self.quantity}\n")
        out.write(f"# x: {self.x_axis.name} [{self.x_axis.unit}] {self.x_axis.spacing}\n")
        out.write(f"# y: {self.y_axis.name} [{self.y_axis.unit}] {self.y_axis.spacing}\n")
        out.write(",".join([self.x_axis.name] + [_FMT.format(v) for v in self.x_axis.values]))
        out.write("\n")
        for yv, row in zip(self.y_axis.values, self.cells):
            out.write(",".join([_FMT.format(yv)] + [_FMT.format(c) for c in row]))
            out.write("\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ScanGrid":
        meta: dict[str, str] = {}
        rows: list[list[str]] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                rows.append(line.split(","))
        if not rows:
            raise DomainError("no data rows in CSV")

        def parse_axis(header: str, values: list[float]) -> Axis:
            name, rest = header.split("[", 1)
            unit, _, spacing = rest.partition("]")
            return Axis(name.strip(), unit.strip(), tuple(values), spacing.strip())

        header, data = rows[0], rows[1:]
        x_values = [float(v) for v in header[1:]]
        y_values = [float(r[0]) for r in data]
        cells = tuple(tuple(float(v) for v in r[1:]) for r in data)
        return cls(
            quantity=meta.get("quantity", ""),
            x_axis=parse_axis(meta["x"], x_values),
            y_axis=parse_axis(meta["y"], y_values),
            cells=cells,
        )


@dataclass(frozen=True)
class _ScanQuantity:
    x_name: str
    x_unit: str
    y_name: str
    y_unit: str
    fn: Callable[[float, float, dict], float]
    defaults: dict = field(default_factory=dict)


def _tau_vac_cell(n_code: float, epsilon: float, fixed: dict) -> float:
    t_qec = fixed.get("t_qec_ms")
    t_qec_s = budget.default_t_qec(n_code) if t_qec is None else t_qec * 1e-3
    return budget.required_vacuum_lifetime(n_code, t_qec_s, epsilon)


def _resolve_doppler(fixed: dict) -> tuple[float, float]:
    species = get_species(str(fixed.get("species", "cs")))
    if fixed.get("k_per_m") is not None:
        k = float(fixed["k_per_m"])
    else:
        scheme = fixed.get("scheme")
        k = (species.scheme(str(scheme)) if scheme else species.schemes[0]).effective_k
    mass = float(fixed["mass_kg"]) if fixed.get("mass_kg") is not None else species.mass
    return k, mass


def _doppler_cell(temperature_uk: float, time_ns: float, fixed: dict) -> float:
    k, mass = _resolve_doppler(fixed)
    infid = gate_error.doppler_infidelity(k, temperature_uk * 1e-6, time_ns * 1e-9, mass)
    return math.log10(infid) if infid > 0 else -math.inf


def _dressing_cell(separation_um: float, rabi_mhz: float, fixed: dict) -> float:
    pair = dressing.PairInteraction(
        defect=Frequency.from_hz(fixed["defect_mhz"] * 1e6),
        angular_factor=fixed.get("d_kl", 12.0),
        r_c=fixed["rc_um"] * 1e-6,
    )
    params = dressing.DressingParams(
        rabi=Frequency.from_hz(rabi_mhz * 1e6),
        detuning=Frequency.from_hz(fixed["detuning_mhz"] * 1e6),
        pair=pair,
        lifetime=fixed.get("tau_us", 320.0) * 1e-6,
        spacing=fixed.get("spacing_um", 1.0) * 1e-6,
    )
    return dressing.normalized_potential(separation_um * 1e-6, params, str(fixed.get("kind", "full")))


def _lifetime_cell(n: float, temperature_k: float, fixed: dict) -> float:
    return core.rydberg_lifetime(n, temperature_k, fixed.get("tau0_ns", 3.3) * 1e-9)


SCAN_QUANTITIES: dict[str, _ScanQuantity] = {
    "tau-vac": _ScanQuantity(
        "n_code", "qubits", "epsilon", "", _tau_vac_cell, {"t_qec_ms": None}
    ),
    "doppler-infidelity": _ScanQuantity(
        "temperature", "uK", "rydberg_time", "ns", _doppler_cell,
        {"species": "cs", "scheme": None, "k_per_m": None, "mass_kg": None},
    ),
    "dressing-potential": _ScanQuantity(
        "separation", "um", "rabi", "MHz", _dressing_cell,
        {"detuning_mhz": 10.0, "defect_mhz": 20.0, "rc_um": 1.5, "kind": "full",
         "d_kl": 12.0, "tau_us": 320.0, "spacing_um": 1.0},
    ),
    "lifetime": _ScanQuantity(
        "n", "", "temperature", "K", _lifetime_cell, {"tau0_ns": 3.3}
    ),
}


def scan(quantity: str, x_axis: Axis, y_axis: Axis, fixed: dict | None = None) -> ScanGrid:
    """Evaluate a registered quantity over a rectangular grid, deterministically.

    Cells are computed in row-major y-then-x order; ``fixed`` overrides the
    quantity's default parameters and unknown keys are rejected.
    """
    try:
        entry = SCAN_QUANTITIES[quantity]
    except KeyError:
        raise DomainError(
            f"unknown scan quantity {quantity!r} "
            f"(choose from {', '.join(sorted(SCAN_QUANTITIES))})"
        ) from None
    merged = dict(entry.defaults)
    for key, value in (fixed or {}).items():
        if key not in entry.defaults:
            raise DomainError(f"unknown fixed parameter {key!r} for quantity {quantity!r}")
        merged[key] = value
    cells = tuple(
        tuple(float(entry.fn(x, y, merged)) for x in x_axis.values)
        for y in y_axis.values
    )
    return ScanGrid(quantity=quantity, x_axis=x_axis, y_axis=y_axis, cells=cells)
