"""Frequency value type with explicit ordinary/angular conversion.

All internal arithmetic in this package uses angular frequencies (rad/s).
Quantities quoted as "nu = x" or "omega/2pi = x" enter through
:meth:`Frequency.from_hz`; raw floats passed to physics functions are always
interpreted as angular rad/s.
"""

from __future__ import annotations

import math

from .errors import _Record, in_range

TWO_PI = 2.0 * math.pi


class Frequency(_Record):
    """An angular frequency in rad/s."""

    __slots__ = ("rad_per_s",)

    def __init__(self, rad_per_s: float) -> None:
        self._store(in_range("frequency", rad_per_s, -math.inf))

    @classmethod
    def from_hz(cls, hz: float) -> "Frequency":
        """Build from an ordinary frequency in Hz (multiplied by 2pi on ingest)."""
        return cls(TWO_PI * hz)

    @property
    def hz(self) -> float:
        """Ordinary frequency in Hz (value / 2pi)."""
        return self.rad_per_s / TWO_PI
