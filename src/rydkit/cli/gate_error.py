"""``rydkit gate-error``: intrinsic gate-error models and budgets."""

from __future__ import annotations

import rydkit

from ..units import Frequency
from . import _emit, _group, _leaf


def blockade(blockade_mhz: float, tau_us: float, rabi_mhz: float | None) -> None:
    """Blockade-gate error budget, optimum, and entanglement bound."""
    b = Frequency.from_hz(blockade_mhz * 1e6)
    tau = tau_us * 1e-6
    rabi = Frequency.from_hz(rabi_mhz * 1e6) if rabi_mhz is not None else None
    parts = rydkit.gate_error.blockade_error_budget(b, tau, rabi)
    _emit({
        "blockade_mhz": blockade_mhz, "tau_us": tau_us,
        "rabi_opt_mhz": rydkit.gate_error.optimal_rabi(b, tau).hz / 1e6,
        "error_min": rydkit.gate_error.blockade_gate_error(b, tau),
        "error_at_rabi": parts.total,
        "spontaneous": parts.spontaneous, "blockade_leakage": parts.blockade_leakage,
        "entanglement_bound": rydkit.gate_error.entanglement_error_bound(b, tau),
    })


def interaction(interaction_mhz: float, tau_us: float, qubit_ghz: float) -> None:
    """Weak-interaction phase-gate error at V, plus the optimum over V."""
    v = Frequency.from_hz(interaction_mhz * 1e6)
    tau = tau_us * 1e-6
    wq = Frequency.from_hz(qubit_ghz * 1e9)
    _emit({
        "interaction_mhz": interaction_mhz, "tau_us": tau_us, "qubit_ghz": qubit_ghz,
        "error": rydkit.gate_error.interaction_gate_error(v, tau, wq),
        "interaction_opt_mhz": rydkit.gate_error.optimal_interaction_strength(tau, wq).hz / 1e6,
        "error_min": rydkit.gate_error.minimal_interaction_gate_error(tau, wq),
    })


def dressing(detuning_mhz: float, tau_us: float) -> None:
    """Optimized dressing-gate error at the given detuning and lifetime."""
    _emit({
        "detuning_mhz": detuning_mhz, "tau_us": tau_us,
        "error_min": rydkit.gate_error.dressing_gate_error(
            Frequency.from_hz(abs(detuning_mhz) * 1e6), tau_us * 1e-6
        ),
    })


def floors(tau0_ns: float) -> None:
    """Level-spacing-limited error floors of the blockade and dressing gates."""
    tau0 = tau0_ns * 1e-9
    _emit({
        "tau0_ns": tau0_ns,
        "blockade_floor": rydkit.gate_error.asymptotic_blockade_floor(tau0),
        "dressing_floor": rydkit.gate_error.asymptotic_dressing_floor(tau0),
    })


def spontaneous(t_pi_ns: float, epsilon: float) -> None:
    """Minimum Rydberg lifetime for a spontaneous-emission error target."""
    _emit({
        "t_pi_ns": t_pi_ns, "epsilon": epsilon,
        "tau_min_us": rydkit.gate_error.spontaneous_budget(t_pi_ns * 1e-9, epsilon) * 1e6,
    })


def stark(rabi_mhz: float, epsilon: float, alpha0_ghz_cm2_v2: float, convention: str) -> None:
    """Detuning and dc-field budgets for a pulse-error target."""
    detuning_limit = rydkit.gate_error.detuning_budget(Frequency.from_hz(rabi_mhz * 1e6), epsilon)
    _emit({
        "rabi_mhz": rabi_mhz, "epsilon": epsilon,
        "alpha0_ghz_cm2_v2": alpha0_ghz_cm2_v2, "convention": convention,
        "detuning_limit_khz": detuning_limit.hz / 1e3,
        "field_limit_v_per_cm": rydkit.gate_error.field_budget(
            detuning_limit, alpha0_ghz_cm2_v2, convention
        ),
    })


def command(commands) -> None:
    """Add ``rydkit gate-error`` and its commands to the root's ``commands``."""
    group = _group(commands, "gate-error", "Intrinsic gate-error models and budgets.")

    p = _leaf(group, "blockade", blockade)
    p.add_argument("--blockade-mhz", type=float, required=True, help="Blockade shift B/2pi.")
    p.add_argument("--tau-us", type=float, required=True, help="Rydberg lifetime.")
    p.add_argument("--rabi-mhz", type=float,
                   help="Rabi frequency Omega/2pi; default: the optimum.")

    p = _leaf(group, "interaction", interaction)
    p.add_argument("--interaction-mhz", type=float, required=True,
                   help="Dipolar strength V/2pi.")
    p.add_argument("--tau-us", type=float, required=True)
    p.add_argument("--qubit-ghz", type=float, required=True, help="Qubit frequency omega_q/2pi.")

    p = _leaf(group, "dressing", dressing)
    p.add_argument("--detuning-mhz", type=float, required=True,
                   help="Dressing detuning Delta/2pi.")
    p.add_argument("--tau-us", type=float, required=True)

    p = _leaf(group, "floors", floors)
    p.add_argument("--tau0-ns", type=float, default=3.3,
                   help="Low-l lifetime coefficient; default: %(default)s.")

    p = _leaf(group, "spontaneous", spontaneous)
    p.add_argument("--t-pi-ns", type=float, required=True, help="Pi-pulse duration.")
    p.add_argument("--epsilon", type=float, required=True,
                   help="Spontaneous-emission error budget.")

    p = _leaf(group, "stark", stark)
    p.add_argument("--rabi-mhz", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True, help="Pi-pulse error target.")
    p.add_argument("--alpha0-ghz-cm2-v2", type=float, required=True,
                   help="Scalar dc polarizability in GHz/(V/cm)^2.")
    p.add_argument("--convention", choices=("direct", "half"), default="direct",
                   help="Stark shift alpha E^2 (direct) or alpha E^2/2 (half); "
                        "default: %(default)s.")
