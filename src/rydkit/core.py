"""Elementary Rydberg-state and trap scaling laws."""

from __future__ import annotations

import math
from typing import Callable

from .constants import CODATA
from .errors import DomainError, in_range
from .units import Frequency, angular


def blackbody_depopulation_rate(n: float, temperature: float) -> float:
    """Universal blackbody-induced Rydberg depopulation rate, in 1/s.

    Uses the n-independent-dipole estimate 4 alpha^3 k_B T / (3 n^2 hbar),
    adequate for shape and ordering; fitted per-species coefficients are not
    modeled.
    """
    n = in_range("n", n, 1.0, bounds="[)")
    temperature = in_range("temperature", temperature, bounds="[)")
    c = CODATA
    rate = 4.0 * c.alpha_fs**3 * c.k_b * temperature / (3.0 * n * n * c.hbar)
    return in_range("blackbody rate", rate, bounds="[)")


def rydberg_lifetime(
    n: float,
    temperature: float,
    tau0: float,
    bbr_rate: Callable[[float, float], float] | None = None,
) -> float:
    """Depopulation lifetime 1/(1/(tau0 n^3) + Gamma_BBR(n, T)) in seconds.

    ``n`` is the effective principal quantum number (quantum defects are not
    modeled). A custom ``bbr_rate(n, T) -> 1/s`` may replace the built-in
    blackbody model. At T=0 the result is exactly tau0 n^3.
    """
    n = in_range("n", n, 10.0, bounds="[)")
    temperature = in_range("temperature", temperature, bounds="[)")
    tau0 = in_range("tau0", tau0)
    try:
        radiative = tau0 * n**3
        if temperature == 0:
            return in_range("lifetime", radiative)
        rate_bbr = (bbr_rate or blackbody_depopulation_rate)(n, temperature)
        return in_range("lifetime", 1.0 / (1.0 / radiative + rate_bbr))
    except ArithmeticError:
        raise DomainError(f"lifetime is out of float range at n = {n!r}") from None


def free_electron_polarizability(omega: Frequency | float) -> float:
    """Ponderomotive polarizability -e^2/(m_e omega^2), in atomic units (< 0)."""
    w = in_range("optical frequency", angular(omega))
    c = CODATA
    m_w2 = in_range("m_e omega^2", c.m_e * w * w)
    return in_range("polarizability", -c.e**2 / m_w2 / c.polarizability_au, -math.inf, 0.0, "(]")


def magnetic_trap_field(depth: float, magnetic_moment: float) -> float:
    """Peak field (T) needed for a trap depth (K) at magnetic moment mu (J/T)."""
    depth = in_range("trap depth", depth)
    magnetic_moment = in_range("magnetic moment", magnetic_moment)
    return in_range("trap field", CODATA.k_b * depth / magnetic_moment)
