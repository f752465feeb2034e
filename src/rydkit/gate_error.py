"""Closed-form intrinsic gate-error models and experimental error budgets.

Covers the blockade, weak-interaction, and dressing variants of the
Rydberg entangling gate, their asymptotic error floors at the level-spacing
limit, the entanglement lower bound, Doppler dephasing, and the Stark
detuning/field budget.
"""

from __future__ import annotations

import math
import sys

from .constants import ATOMIC_TIME, K_B
from .errors import DomainError, _choice, _flag, _float_range, _nonzero, _per_element
from .errors import _Record, _scalar, _square, in_range
from .units import TWO_PI, Frequency

_SEVEN_PI = 7.0 * math.pi


def _gate_error(name: str, value: float) -> float:
    """``in_range(name, value)``, flagged by a ModelValidityWarning when above 1.

    An error above 1 means the formula has left the regime where it models a
    gate; the value is still returned. One warning per call, quoting the largest
    element of an array, points at the line that called the public function.
    """
    error = in_range(name, value)
    return _flag(error, error > 1.0,
                 lambda worst: f"{name} = {worst:.6g} > 1: outside the regime of the error model")


class GateErrorBudget(_Record):
    """A gate error split into its dominant contributions."""

    __slots__ = ("total", "spontaneous", "blockade_leakage")

    def __init__(self, total: float, spontaneous: float, blockade_leakage: float) -> None:
        self._store(total, spontaneous, blockade_leakage)


def optimal_rabi(blockade: Frequency | float, lifetime: float) -> Frequency:
    """Rabi frequency (7 pi)^(1/3) B^(2/3) / tau^(1/3) minimizing the blockade gate error."""
    b = in_range("blockade shift", blockade)
    lifetime = in_range("lifetime", lifetime)
    return Frequency(in_range(
        "optimal Rabi frequency",
        _SEVEN_PI ** (1 / 3) * _per_element(pow, b, 2 / 3) * _per_element(pow, lifetime, -1 / 3),
        -math.inf,
    ))


def blockade_gate_error(blockade: Frequency | float, lifetime: float) -> float:
    """Minimum truth-table error (3 (7 pi)^(2/3) / 8) (B tau)^(-2/3) of the blockade gate.

    Balances spontaneous emission 7 pi/(4 Omega tau) against blockade leakage
    Omega^2/(8 B^2) at the optimal Rabi frequency. Valid for B tau >> 1; a
    warning is issued below B tau = 10. The value may exceed 1 outside the
    model's regime, flagged by a warning. One warning per call quotes the
    smallest B tau of an array.
    """
    b = in_range("blockade shift", blockade)
    lifetime = in_range("lifetime", lifetime)
    bt = in_range("B tau", b * lifetime)
    _flag(bt, bt < 10.0, lambda worst: f"B tau = {worst:.3g} < 10: outside the "
          "strong-blockade regime of the error model", min)
    return 3.0 * _SEVEN_PI ** (2 / 3) / 8.0 * _per_element(pow, bt, -2 / 3)


def entanglement_error_bound(blockade: Frequency | float, lifetime: float) -> float:
    """Fundamental lower bound 2/(B tau) for one unit of entanglement.

    The value may exceed 1 outside the model's regime, flagged by a warning.
    """
    b = in_range("blockade shift", blockade)
    lifetime = in_range("lifetime", lifetime)
    bt = in_range("B tau", b * lifetime)
    return _gate_error("entanglement error bound", 2.0 / bt)


def rydberg_level_half_spacing(n: float) -> Frequency:
    """Half the neighboring-level spacing E_H/(2 hbar n^3), the usable shift ceiling."""
    n = in_range("n", n, 1.0, bounds="[)")
    with _float_range("n^3"):
        return Frequency(1.0 / (2.0 * ATOMIC_TIME * _per_element(pow, n, 3)))


def asymptotic_blockade_floor(tau0: float) -> float:
    """Level-spacing-limited blockade gate error (3 (14 pi)^(2/3)/8)(hbar/(E_H tau0))^(2/3).

    The large-n limit of :func:`blockade_gate_error` with the blockade shift
    capped at half the level spacing and lifetime tau0 n^3; independent of n.
    """
    x = ATOMIC_TIME / in_range("tau0", tau0)
    return 3.0 * (14.0 * math.pi) ** (2 / 3) / 8.0 * _per_element(pow, x, 2 / 3)


def interaction_gate_error(
    v_dd: Frequency | float, lifetime: float, qubit_freq: Frequency | float
) -> float:
    """Error pi/(V tau) + 5 V/(sqrt(3) omega_q) of the weak-interaction phase gate.

    The value may exceed 1 outside the model's regime, flagged by a warning.
    """
    v = in_range("interaction strength", v_dd)
    lifetime = in_range("lifetime", lifetime)
    wq = in_range("qubit frequency", qubit_freq)
    vt = in_range("V tau", v * lifetime)
    return _gate_error("interaction gate error", math.pi / vt + 5.0 * v / (math.sqrt(3.0) * wq))


def optimal_interaction_strength(lifetime: float, qubit_freq: Frequency | float) -> Frequency:
    """Interaction strength sqrt(pi sqrt(3) omega_q / (5 tau)) minimizing the gate error."""
    lifetime = in_range("lifetime", lifetime)
    wq = in_range("qubit frequency", qubit_freq)
    return Frequency(in_range("optimal interaction strength", _per_element(
        math.sqrt, math.pi * math.sqrt(3.0) * wq / (5.0 * lifetime)), -math.inf))


def minimal_interaction_gate_error(lifetime: float, qubit_freq: Frequency | float) -> float:
    """Interaction gate error 2 sqrt(5 pi/(sqrt(3) omega_q tau)) at the optimal strength.

    The value may exceed 1 outside the model's regime, flagged by a warning.
    """
    lifetime = in_range("lifetime", lifetime)
    wq = in_range("qubit frequency", qubit_freq)
    wt = in_range("sqrt(3) omega_q tau", math.sqrt(3.0) * wq * lifetime)
    return _gate_error("interaction gate error", 2.0 * _per_element(math.sqrt, 5.0 * math.pi / wt))


def dressing_gate_error(detuning: Frequency | float, lifetime: float) -> float:
    """Optimized dressing-gate error 2^(5/2) sqrt(pi) / sqrt(Delta tau).

    Minimum over Omega of spontaneous emission 8 pi Delta/(Omega^2 tau) plus
    blockade leakage Omega^2/Delta^2 in the weak-dressing limit. The value may
    exceed 1 outside the model's regime, flagged by a warning.
    """
    d = in_range("dressing detuning", detuning)
    lifetime = in_range("lifetime", lifetime)
    dt = in_range("Delta tau", d * lifetime)
    return _gate_error(
        "dressing gate error", 2.0**2.5 * math.sqrt(math.pi) / _per_element(math.sqrt, dt)
    )


def asymptotic_dressing_floor(tau0: float) -> float:
    """Level-spacing-limited dressing gate error 8 sqrt(pi) (hbar/(E_H tau0))^(1/2)."""
    return 8.0 * math.sqrt(math.pi) * _per_element(math.sqrt, ATOMIC_TIME / in_range("tau0", tau0))


def spontaneous_budget(t_pi: float, epsilon_tau: float) -> float:
    """Minimum Rydberg lifetime (7/4) t_pi / epsilon for a spontaneous-error target.

    The integrated Rydberg population of the blockade Bell-state sequence is
    7 t_pi / 4.
    """
    t_pi = in_range("t_pi", t_pi)
    epsilon_tau = in_range("epsilon_tau", epsilon_tau)
    return in_range("minimum lifetime", 1.75 * t_pi / epsilon_tau)


def doppler_fidelity(k: float, temperature: float, time: float, mass: float) -> float:
    """Doppler-limited Bell-state fidelity (1 + exp(-k^2 k_B T t^2 / 2m)) / 2.

    Always in (1/2, 1]; exactly 1 when any of k, T, t vanishes.
    """
    return 1.0 - doppler_infidelity(k, temperature, time, mass)


def doppler_infidelity(k: float, temperature: float, time: float, mass: float) -> float:
    """Doppler-limited Bell-state infidelity (1 - exp(-k^2 k_B T t^2 / 2m)) / 2.

    The arguments broadcast as ndarrays.
    """
    k = in_range("k", k, bounds="[)")
    temperature = in_range("temperature", temperature, bounds="[)")
    time = in_range("time", time, bounds="[)")
    mass = in_range("mass", mass)
    with _float_range("k^2 or t^2"):
        k2_t_t2 = _square(k) * K_B * temperature * _square(time)
        infidelity = -_per_element(math.expm1, -k2_t_t2 / (2.0 * mass)) / 2.0
    return in_range("Doppler infidelity", infidelity, 0.0, 0.5, "[]")


def excitation_error(rabi: Frequency | float, detuning: Frequency | float) -> float:
    """Exact population error 1 - P of a resonant-pi-pulse at detuning Delta.

    P = Omega^2/G^2 sin^2(pi G/(2 Omega)), G^2 = Omega^2 + Delta^2. Computed as
    (Delta^2 + Omega^2 sin^2 phi)/G^2 with phi = pi G/(2 Omega) - pi/2 =
    (pi/2) (Delta/(G + Omega)) (Delta/Omega), which does not cancel as Delta/Omega -> 0.
    """
    w = in_range("Rabi frequency", rabi)
    d = in_range("detuning", detuning, -math.inf)
    g2 = in_range("Omega^2 + Delta^2", w * w + d * d)
    g = _per_element(math.sqrt, g2)
    phi = in_range("pulse area", math.pi / 2.0 * (d / (g + w)) * (d / w), -math.inf)
    return (d * d + w * w * _square(_per_element(math.sin, phi))) / g2


def detuning_budget(rabi: Frequency | float, epsilon: float) -> Frequency:
    """Largest detuning keeping the exact pi-pulse transfer error at epsilon.

    Inverts ``excitation_error`` for its first positive root by bisection,
    halving the bracket until its ends are adjacent floats; the upper end,
    where the error has reached epsilon, is returned. To leading order the
    result is Omega sqrt(epsilon).
    """
    w = _scalar("Rabi frequency", rabi)
    epsilon = _scalar("epsilon", epsilon, 0.0, 1.0)
    # below a normal float, Delta^2 ~ Omega^2 epsilon underflows in excitation_error,
    # or a subnormal epsilon holds too few digits to place the root
    if min(epsilon, w * w * epsilon) < sys.float_info.min:
        raise DomainError("epsilon and Omega^2 epsilon must be at least the smallest normal float")
    # All epsilon-crossings satisfy d^2/(w^2+d^2) <= eps, bounding the bracket.
    lo, hi = 0.0, w * math.sqrt(epsilon / (1.0 - epsilon)) * 1.001
    # the error is at least d^2/(w^2+d^2), which reaches 1 as d doubles: the loop ends
    while excitation_error(w, hi) < epsilon:
        hi *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if excitation_error(w, mid) >= epsilon else (mid, hi)
    return Frequency(hi)


def field_budget(
    detuning_limit: Frequency | float, alpha0: float, convention: str = "direct"
) -> float:
    """Dc-field limit (V/cm) from a detuning budget and scalar polarizability.

    ``alpha0`` is in GHz/(V/cm)^2; both sides use ordinary frequency. The
    default ``direct`` convention takes the shift as alpha0 E^2; ``half``
    uses alpha0 E^2 / 2 (a factor sqrt(2) larger field).
    """
    d = in_range("detuning limit", detuning_limit)
    alpha0 = _nonzero("alpha0", alpha0)
    factor = _choice("Stark-shift convention", convention, {"direct": 1.0, "half": 2.0})
    shift_ghz = d / TWO_PI / 1e9
    return in_range("field limit", _per_element(math.sqrt, factor * shift_ghz / abs(alpha0)))


def blockade_error_budget(
    blockade: Frequency | float, lifetime: float, rabi: Frequency | float | None = None
) -> GateErrorBudget:
    """Blockade-gate error budget at a given (or optimal) Rabi frequency.

    Spontaneous emission 7 pi/(4 Omega tau) and blockade leakage
    Omega^2/(8 B^2) reproduce the optimized closed forms.
    """
    b = in_range("blockade shift", blockade)
    lifetime = in_range("lifetime", lifetime)
    w = in_range("Rabi frequency", optimal_rabi(b, lifetime) if rabi is None else rabi)
    spont = _SEVEN_PI / in_range("4 Omega tau", 4.0 * w * lifetime)
    leak = w * w / in_range("8 B^2", 8.0 * b * b)
    return GateErrorBudget(
        total=_gate_error("total error", spont + leak),
        spontaneous=spont,
        blockade_leakage=leak,
    )
