"""Atom-loss, reload-rate, and measurement-crosstalk budgets for qubit arrays."""

from __future__ import annotations

import math
import struct

from .errors import DomainError, _any, _count, _flag, _float_range, _per_element, _Record
from .errors import _scalar, _square, in_range

# Default error-correction cycle time: 0.1 ms per code qubit.
T_QEC_PER_QUBIT = 1e-4  # s


def default_t_qec(n_code: float) -> float:
    """Cycle time convention t_qec = 0.1 N_code ms, in seconds (ndarray ``n_code`` too)."""
    return T_QEC_PER_QUBIT * in_range("n_code", n_code, 1.0, bounds="[)")


def loss_probability(n_code: float, t: float, tau_vac: float) -> float:
    """Probability N_code (1 - e^(-t/tau_vac)) of >= 1 atom lost after time t.

    Clamped to 1 where the linearized budget model leaves validity, with one
    warning per call quoting the largest element. The arguments broadcast as
    ndarrays.
    """
    n_code = in_range("n_code", n_code, 1.0, bounds="[)")
    t = in_range("t", t, bounds="[)")
    tau_vac = in_range("tau_vac", tau_vac)
    p = n_code * -_per_element(math.expm1, -t / tau_vac)
    over = p > 1.0
    _flag(p, over, lambda worst: f"per-block loss probability {worst:.3g} > 1; "
          "linearized model left its validity range, clamping to 1")
    return _per_element(min, p, 1.0) if _any(over) else p


def required_vacuum_lifetime(n_code: float, t_qec: float, epsilon: float) -> float:
    """Vacuum lifetime (s) keeping the per-cycle loss probability below epsilon.

    The arguments broadcast as ndarrays.
    """
    n_code = in_range("n_code", n_code, 1.0, bounds="[)")
    t_qec = in_range("t_qec", t_qec)
    epsilon = in_range("epsilon", epsilon, 0.0, 1.0, "(]")
    with _float_range("tau_vac"):
        return in_range("tau_vac", n_code * t_qec / epsilon)


def required_reload_rate(n_phys: float, tau_vac: float, epsilon: float) -> float:
    """Reload rate (1/s) sustaining an N_phys-atom array at loss threshold epsilon."""
    n_phys = in_range("n_phys", n_phys, 1.0, bounds="[)")
    tau_vac = in_range("tau_vac", tau_vac)
    epsilon = in_range("epsilon", epsilon, 0.0, 1.0, "(]")
    exposure = in_range("tau_vac * epsilon", tau_vac * epsilon)
    return in_range("reload rate", n_phys / exposure)


class MonteCarloResult(_Record):
    __slots__ = ("trials", "estimate", "standard_error")

    def __init__(self, trials: int, estimate: float, standard_error: float) -> None:
        self._store(trials, estimate, standard_error)


def _trials(trials: int) -> int:  # the one check of a Monte Carlo trial count
    return _count("trials", trials, 1000)


def _draw_limit(t: float, tau_vac: float) -> float:
    """The least double x >= 0 with x * tau_vac >= t in float arithmetic (t >= 0, tau_vac > 0).

    The rounded product grows with x, so x * tau_vac < t holds exactly when x is
    below the limit. It is bisected over the bit patterns of 0.0 to inf, which
    ascend with the doubles: stepping from t / tau_vac with ``math.nextafter``
    would take ~1e10 steps where the products are subnormal (t = 1e-320,
    tau_vac = 1e-10).
    """
    lo, hi = 0, 0x7FF0000000000000  # the bit patterns of 0.0 and inf
    while lo < hi:
        mid = (lo + hi) // 2
        if _double(mid) * tau_vac >= t:
            hi = mid
        else:
            lo = mid + 1
    return _double(lo)


def _double(bits: int) -> float:  # the double with this IEEE 754 bit pattern
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def simulate_loss(
    n_code: int, tau_vac: float, t: float, trials: int, seed: int
) -> MonteCarloResult:
    """Monte Carlo estimate of the probability of losing >= 1 of N_code atoms.

    Draws i.i.d. exponential lifetimes per atom per trial and counts trials
    with at least one lifetime below ``t``. Deterministic for a fixed seed.
    Returns the loss fraction with its binomial standard error.
    """
    import numpy as np

    n_code = _count("n_code", n_code, 1)
    tau_vac = _scalar("tau_vac", tau_vac)
    t = _scalar("t", t, bounds="[)")
    trials = _trials(trials)
    rng = np.random.default_rng(_count("seed", seed, 0))
    limit = _draw_limit(t, tau_vac)  # a draw below it has a lifetime below t
    hits = 0
    # 2**16 draws (512 KiB) a block, into one buffer reused by every block: tau_vac times
    # the standard exponential stream is exponential(tau_vac)'s, whatever the chunking
    block = min(trials, max(1, 2**16 // n_code))
    draws, lost = np.empty((block, n_code)), np.empty((block, n_code), dtype=bool)
    for done in range(0, trials, block):
        m = min(block, trials - done)
        rng.standard_exponential(out=draws[:m])
        rows = np.flatnonzero(np.less(draws[:m], limit, out=lost[:m])) // n_code
        if rows.size:  # the rows ascend: each change starts a new hit row
            hits += 1 + int(np.count_nonzero(np.diff(rows)))
    p = hits / trials
    return MonteCarloResult(trials, p, math.sqrt(p * (1.0 - p) / trials))


class CrosstalkEstimate(_Record):
    """Resonant-scattering crosstalk between neighboring qubits during readout: the
    resonant absorption cross section (m^2), the absorption probability at a neighbor
    per photon, the detection probability per scattered photon, and their ratio."""

    __slots__ = ("cross_section", "eta_abs", "eta_det", "ratio")

    def __init__(self, cross_section: float, eta_abs: float, eta_det: float, ratio: float) -> None:
        self._store(cross_section, eta_abs, eta_det, ratio)


def measurement_crosstalk(
    wavelength: float, spacing: float, numerical_aperture: float, efficiency: float
) -> CrosstalkEstimate:
    """Crosstalk budget from the resonant cross section sigma = (3/2pi) lambda^2.

    eta_abs = sigma/(4 pi d^2); eta_det = efficiency x solid-angle fraction
    (1 - sqrt(1 - NA^2))/2 of a lens with the given numerical aperture.
    """
    wavelength = in_range("wavelength", wavelength)
    spacing = in_range("spacing", spacing)
    numerical_aperture = in_range("numerical_aperture", numerical_aperture, 0.0, 1.0)
    efficiency = in_range("efficiency", efficiency, 0.0, 1.0, "(]")
    if _any(spacing <= wavelength / 2):
        raise DomainError("qubit spacing must exceed lambda/2 for the far-field estimate")
    with _float_range("lambda^2 or d^2"):
        sigma = (3.0 / (2.0 * math.pi)) * _square(wavelength)
        eta_abs = sigma / (4.0 * math.pi * _square(spacing))
    eta_det = in_range("eta_det", efficiency * detection_solid_angle_fraction(numerical_aperture))
    return CrosstalkEstimate(
        cross_section=sigma,
        eta_abs=eta_abs,
        eta_det=eta_det,
        ratio=in_range("ratio", eta_abs / eta_det, bounds="[)"),
    )


def detection_solid_angle_fraction(numerical_aperture: float) -> float:
    """Collected solid-angle fraction (1 - cos(theta))/2 with sin(theta) = NA.

    Evaluated as NA^2 / (2 (1 + sqrt((1 - NA)(1 + NA)))), which cancels at no NA.
    An NA whose fraction underflows to 0 raises DomainError naming the fraction.
    """
    na = in_range("numerical_aperture", numerical_aperture, 0.0, 1.0, "(]")
    cos_theta = _per_element(math.sqrt, (1.0 - na) * (1.0 + na))
    fraction = _square(na) / (2.0 * (1.0 + cos_theta))  # NA^2 is 0 below NA ~ 4.4e-162
    return in_range("solid-angle fraction", fraction)

