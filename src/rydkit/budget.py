"""Atom-loss, reload-rate, and measurement-crosstalk budgets for qubit arrays."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelValidityWarning, in_range

# Default error-correction cycle time: 0.1 ms per code qubit.
T_QEC_PER_QUBIT = 1e-4  # s


def default_t_qec(n_code: float) -> float:
    """Cycle time convention t_qec = 0.1 N_code ms, in seconds."""
    return T_QEC_PER_QUBIT * in_range("n_code", n_code, 1.0, bounds="[)")


def loss_probability(n_code: float, t: float, tau_vac: float) -> float:
    """Probability N_code (1 - e^(-t/tau_vac)) of >= 1 atom lost after time t.

    Clamped to 1 (with a warning) where the linearized budget model leaves
    validity.
    """
    n_code = in_range("n_code", n_code, 1.0, bounds="[)")
    t = in_range("t", t, bounds="[)")
    tau_vac = in_range("tau_vac", tau_vac)
    p = n_code * -math.expm1(-t / tau_vac)
    if p > 1.0:
        warnings.warn(
            f"per-block loss probability {p:.3g} > 1; linearized model left "
            "its validity range, clamping to 1",
            ModelValidityWarning,
            stacklevel=2,
        )
        return 1.0
    return p


def required_vacuum_lifetime(n_code: float, t_qec: float, epsilon: float) -> float:
    """Vacuum lifetime (s) keeping the per-cycle loss probability below epsilon."""
    n_code = in_range("n_code", n_code, 1.0, bounds="[)")
    t_qec = in_range("t_qec", t_qec)
    epsilon = in_range("epsilon", epsilon, 0.0, 1.0, "(]")
    return in_range("tau_vac", n_code * t_qec / epsilon)


def required_reload_rate(n_phys: float, tau_vac: float, epsilon: float) -> float:
    """Reload rate (1/s) sustaining an N_phys-atom array at loss threshold epsilon."""
    n_phys = in_range("n_phys", n_phys, 1.0, bounds="[)")
    tau_vac = in_range("tau_vac", tau_vac)
    epsilon = in_range("epsilon", epsilon, 0.0, 1.0, "(]")
    exposure = in_range("tau_vac * epsilon", tau_vac * epsilon)
    return in_range("reload rate", n_phys / exposure)


@dataclass(frozen=True)
class MonteCarloResult:
    trials: int
    estimate: float
    standard_error: float


def simulate_loss(
    n_code: int, tau_vac: float, t: float, trials: int, seed: int
) -> MonteCarloResult:
    """Monte Carlo estimate of the probability of losing >= 1 of N_code atoms.

    Draws i.i.d. exponential lifetimes per atom per trial and counts trials
    with at least one lifetime below ``t``. Deterministic for a fixed seed.
    Returns the loss fraction with its binomial standard error.
    """
    in_range("n_code", n_code, 1.0, bounds="[)")  # counts stay ints: they size arrays
    tau_vac = in_range("tau_vac", tau_vac)
    t = in_range("t", t, bounds="[)")
    in_range("trials", trials, 1000.0, bounds="[)")
    in_range("seed", seed, 0.0, bounds="[)")
    rng = np.random.default_rng(seed)
    hits = 0
    block = max(1, 10**6 // n_code)  # bound memory for large trial counts
    done = 0
    while done < trials:
        m = min(block, trials - done)
        lifetimes = rng.exponential(tau_vac, size=(m, n_code))
        hits += int((lifetimes < t).any(axis=1).sum())
        done += m
    p = hits / trials
    return MonteCarloResult(trials, p, math.sqrt(p * (1.0 - p) / trials))


@dataclass(frozen=True)
class CrosstalkEstimate:
    """Resonant-scattering crosstalk between neighboring qubits during readout."""

    wavelength: float           # m
    spacing: float              # m
    numerical_aperture: float
    efficiency: float           # combined optical x detector efficiency
    cross_section: float        # m^2, resonant absorption cross section
    eta_abs: float              # absorption probability at a neighbor per photon
    eta_det: float              # detection probability per scattered photon
    ratio: float                # eta_abs / eta_det


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
    if spacing <= wavelength / 2:
        raise DomainError("qubit spacing must exceed lambda/2 for the far-field estimate")
    try:
        sigma = (3.0 / (2.0 * math.pi)) * wavelength**2
        eta_abs = sigma / (4.0 * math.pi * spacing**2)
    except ArithmeticError:
        raise DomainError("lambda^2 or d^2 is out of float range") from None
    eta_det = in_range("eta_det", efficiency * detection_solid_angle_fraction(numerical_aperture))
    return CrosstalkEstimate(
        wavelength=wavelength,
        spacing=spacing,
        numerical_aperture=numerical_aperture,
        efficiency=efficiency,
        cross_section=sigma,
        eta_abs=eta_abs,
        eta_det=eta_det,
        ratio=in_range("ratio", eta_abs / eta_det, bounds="[)"),
    )


def detection_solid_angle_fraction(numerical_aperture: float) -> float:
    """Collected solid-angle fraction (1 - cos(theta))/2 with sin(theta) = NA."""
    numerical_aperture = in_range("numerical_aperture", numerical_aperture, 0.0, 1.0, "(]")
    return (1.0 - math.sqrt(1.0 - numerical_aperture**2)) / 2.0

