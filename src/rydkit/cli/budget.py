"""``rydkit budget``: atom-loss, reload and measurement-crosstalk budgets."""

from __future__ import annotations

from dataclasses import asdict

import click

import rydkit

from . import _emit


@click.group("budget")
def command() -> None:
    """Atom-loss, reload, and measurement-crosstalk budgets."""


@command.command("vacuum-lifetime")
@click.option("--n-code", type=int, required=True, help="Qubits per code block.")
@click.option("--t-qec-ms", type=float, default=None,
              help="Error-correction cycle time; default 0.1 ms per code qubit.")
@click.option("--epsilon", type=float, required=True, help="Loss probability budget per cycle.")
def vacuum_lifetime(n_code: int, t_qec_ms: float | None, epsilon: float) -> None:
    """Vacuum lifetime needed to keep per-cycle atom loss below epsilon."""
    t_qec = rydkit.budget.default_t_qec(n_code) if t_qec_ms is None else t_qec_ms * 1e-3
    _emit({
        "n_code": n_code, "t_qec_ms": t_qec * 1e3, "epsilon": epsilon,
        "tau_vac_s": rydkit.budget.required_vacuum_lifetime(n_code, t_qec, epsilon),
    })


@command.command("reload-rate")
@click.option("--n-phys", type=int, required=True, help="Physical qubits in the array.")
@click.option("--tau-vac-s", type=float, required=True)
@click.option("--epsilon", type=float, required=True)
def reload_rate(n_phys: int, tau_vac_s: float, epsilon: float) -> None:
    """Atom reload rate sustaining an array against vacuum loss."""
    _emit({
        "n_phys": n_phys, "tau_vac_s": tau_vac_s, "epsilon": epsilon,
        "r_load_per_s": rydkit.budget.required_reload_rate(n_phys, tau_vac_s, epsilon),
    })


@command.command("loss")
@click.option("--n-code", type=int, required=True)
@click.option("--t-ms", type=float, required=True)
@click.option("--tau-vac-s", type=float, required=True)
def loss(n_code: int, t_ms: float, tau_vac_s: float) -> None:
    """Probability of losing at least one of N_code atoms within t."""
    _emit({
        "n_code": n_code, "t_ms": t_ms, "tau_vac_s": tau_vac_s,
        "loss_probability": rydkit.budget.loss_probability(n_code, t_ms * 1e-3, tau_vac_s),
    })


@command.command("simulate")
@click.option("--n-code", type=int, required=True)
@click.option("--tau-vac-s", type=float, required=True)
@click.option("--t-ms", type=float, required=True)
@click.option("--trials", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, required=True,
              help="RNG seed; required so runs are reproducible.")
def simulate(n_code: int, tau_vac_s: float, t_ms: float, trials: int, seed: int) -> None:
    """Monte Carlo loss probability with exponential per-atom lifetimes."""
    result = rydkit.budget.simulate_loss(n_code, tau_vac_s, t_ms * 1e-3, trials, seed)
    _emit({
        "n_code": n_code, "tau_vac_s": tau_vac_s, "t_ms": t_ms, "seed": seed,
        **asdict(result),
    })


@command.command("crosstalk")
@click.option("--wavelength-nm", type=float, required=True)
@click.option("--spacing-um", type=float, required=True)
@click.option("--numerical-aperture", type=float, required=True)
@click.option("--efficiency", type=float, required=True,
              help="Combined optical and detector efficiency.")
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
