"""``rydkit budget``: atom-loss, reload and measurement-crosstalk budgets."""

from __future__ import annotations

import rydkit

from . import _emit, _group, _leaf


def vacuum_lifetime(n_code: int, t_qec_ms: float | None, epsilon: float) -> None:
    """Vacuum lifetime needed to keep per-cycle atom loss below epsilon."""
    t_qec = rydkit.budget.default_t_qec(n_code) if t_qec_ms is None else t_qec_ms * 1e-3
    _emit({
        "n_code": n_code, "t_qec_ms": t_qec * 1e3, "epsilon": epsilon,
        "tau_vac_s": rydkit.budget.required_vacuum_lifetime(n_code, t_qec, epsilon),
    })


def reload_rate(n_phys: int, tau_vac_s: float, epsilon: float) -> None:
    """Atom reload rate sustaining an array against vacuum loss."""
    _emit({
        "n_phys": n_phys, "tau_vac_s": tau_vac_s, "epsilon": epsilon,
        "r_load_per_s": rydkit.budget.required_reload_rate(n_phys, tau_vac_s, epsilon),
    })


def loss(n_code: int, t_ms: float, tau_vac_s: float) -> None:
    """Probability of losing at least one of N_code atoms within t."""
    _emit({
        "n_code": n_code, "t_ms": t_ms, "tau_vac_s": tau_vac_s,
        "loss_probability": rydkit.budget.loss_probability(n_code, t_ms * 1e-3, tau_vac_s),
    })


def simulate(n_code: int, tau_vac_s: float, t_ms: float, trials: int, seed: int) -> None:
    """Monte Carlo loss probability with exponential per-atom lifetimes."""
    result = rydkit.budget.simulate_loss(n_code, tau_vac_s, t_ms * 1e-3, trials, seed)
    _emit({
        "n_code": n_code, "tau_vac_s": tau_vac_s, "t_ms": t_ms, "seed": seed,
        **result._asdict(),
    })


def crosstalk(wavelength_nm: float, spacing_um: float,
              numerical_aperture: float, efficiency: float) -> None:
    """Readout crosstalk from resonant photon absorption at a neighbor."""
    est = rydkit.budget.measurement_crosstalk(
        wavelength_nm * 1e-9, spacing_um * 1e-6, numerical_aperture, efficiency
    )
    _emit({
        "wavelength_nm": wavelength_nm, "spacing_um": spacing_um,
        "numerical_aperture": numerical_aperture, "efficiency": efficiency,
        "cross_section_m2": est.cross_section, "eta_abs": est.eta_abs,
        "eta_det": est.eta_det, "ratio": est.ratio,
    })


def command(commands) -> None:
    """Add ``rydkit budget`` and its commands to the root's ``commands``."""
    group = _group(commands, "budget", "Atom-loss, reload, and measurement-crosstalk budgets.")

    p = _leaf(group, "vacuum-lifetime", vacuum_lifetime)
    p.add_argument("--n-code", type=int, required=True, help="Qubits per code block.")
    p.add_argument("--t-qec-ms", type=float,
                   help="Error-correction cycle time; default 0.1 ms per code qubit.")
    p.add_argument("--epsilon", type=float, required=True,
                   help="Loss probability budget per cycle.")

    p = _leaf(group, "reload-rate", reload_rate)
    p.add_argument("--n-phys", type=int, required=True, help="Physical qubits in the array.")
    p.add_argument("--tau-vac-s", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = _leaf(group, "loss", loss)
    p.add_argument("--n-code", type=int, required=True)
    p.add_argument("--t-ms", type=float, required=True)
    p.add_argument("--tau-vac-s", type=float, required=True)

    p = _leaf(group, "simulate", simulate)
    p.add_argument("--n-code", type=int, required=True)
    p.add_argument("--tau-vac-s", type=float, required=True)
    p.add_argument("--t-ms", type=float, required=True)
    p.add_argument("--trials", type=int, default=100000, help="Default: %(default)s.")
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed; required so runs are reproducible.")

    p = _leaf(group, "crosstalk", crosstalk)
    p.add_argument("--wavelength-nm", type=float, required=True)
    p.add_argument("--spacing-um", type=float, required=True)
    p.add_argument("--numerical-aperture", type=float, required=True)
    p.add_argument("--efficiency", type=float, required=True,
                   help="Combined optical and detector efficiency.")
