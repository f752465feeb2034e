"""Elementary Rydberg-state and trap scaling laws."""

from __future__ import annotations

from .constants import ALPHA_FS, HBAR, K_B
from .errors import _float_range, _is_array, _per_element, in_range


def blackbody_depopulation_rate(n: float, temperature: float) -> float:
    """Universal blackbody-induced Rydberg depopulation rate, in 1/s.

    Uses the n-independent-dipole estimate 4 alpha^3 k_B T / (3 n^2 hbar),
    adequate for shape and ordering; fitted per-species coefficients are not
    modeled. The arguments broadcast as ndarrays.
    """
    n = in_range("n", n, 1.0, bounds="[)")
    temperature = in_range("temperature", temperature, bounds="[)")
    with _float_range("blackbody rate"):
        rate = 4.0 * ALPHA_FS**3 * K_B * temperature / (3.0 * n * n * HBAR)
    return in_range("blackbody rate", rate, bounds="[)")


def rydberg_lifetime(n: float, temperature: float, tau0: float) -> float:
    """Depopulation lifetime 1/(1/(tau0 n^3) + Gamma_BBR(n, T)) in seconds.

    ``n`` is the effective principal quantum number (quantum defects are not
    modeled) and Gamma_BBR is :func:`blackbody_depopulation_rate`. At T=0 the
    result is exactly tau0 n^3. The arguments broadcast as ndarrays.
    """
    n = in_range("n", n, 10.0, bounds="[)")
    temperature = in_range("temperature", temperature, bounds="[)")
    tau0 = in_range("tau0", tau0)
    with _float_range("lifetime"):
        radiative = tau0 * _per_element(pow, n, 3)
        lifetime = 1.0 / (1.0 / radiative + blackbody_depopulation_rate(n, temperature))
    if _is_array(temperature):  # radiative where T = 0, broadcast against the lifetimes
        import numpy as np

        lifetime = np.where(temperature == 0, radiative, lifetime)
    elif temperature == 0:
        lifetime = radiative
    return in_range("lifetime", lifetime)


def magnetic_trap_field(depth: float, magnetic_moment: float) -> float:
    """Peak field (T) needed for a trap depth (K) at magnetic moment mu (J/T)."""
    depth = in_range("trap depth", depth)
    magnetic_moment = in_range("magnetic moment", magnetic_moment)
    return in_range("trap field", K_B * depth / magnetic_moment)
