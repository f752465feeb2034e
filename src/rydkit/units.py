"""Frequency value type with explicit ordinary/angular conversion.

All internal arithmetic in this package uses angular frequencies (rad/s).
Quantities quoted as "nu = x" or "omega/2pi = x" enter through
:meth:`Frequency.from_hz`; raw floats passed to physics functions are always
interpreted as angular rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import in_range

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Frequency:
    """An angular frequency in rad/s."""

    rad_per_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rad_per_s", in_range("frequency", self.rad_per_s, -math.inf))

    @classmethod
    def from_hz(cls, hz: float) -> "Frequency":
        """Build from an ordinary frequency in Hz (multiplied by 2pi on ingest)."""
        return cls(TWO_PI * hz)

    @property
    def hz(self) -> float:
        """Ordinary frequency in Hz (value / 2pi)."""
        return self.rad_per_s / TWO_PI
