"""Command-line surface.

Flags carry their units in the name (``--rabi-mhz``, ``--tau-us``, ...);
quantities quoted per 2pi convert to angular frequency at this boundary.
Scalar results print as a single JSON document, grids as CSV. Exit codes:
0 success, 1 usage error, 2 domain error, 3 reproduction failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import click
import numpy as np

import rydkit

from .errors import _FMT, DomainError
from .units import Frequency

# The names of grid.SCAN_QUANTITIES, so that --help loads no model module.
_SCAN_QUANTITIES = ("doppler-infidelity", "dressing-potential", "lifetime", "tau-vac")


def _emit(result: dict | str, out: str | None = None) -> None:
    """Write a dict as strict JSON, or a str as it is, to ``out`` or stdout."""
    if isinstance(result, dict):
        try:
            result = json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise DomainError(f"output holds a NaN or infinite value ({exc})") from None
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(result)
    else:
        click.echo(result, nl=False)


def _species_option(ctx_config: str | None, name: str):
    config = rydkit.species.load_species_config(ctx_config) if ctx_config else None
    return rydkit.species.get_species(name, config)


def _scan_csv(quantity: str, x: tuple, y: tuple, fixed: dict) -> str:
    """A registered quantity's CSV grid; ``x``, ``y`` are (lo, hi, points, spacing)."""
    grid = rydkit.grid
    entry = grid.SCAN_QUANTITIES[quantity]
    return grid.scan(
        quantity,
        grid.axis(entry.x_name, entry.x_unit, *x),
        grid.axis(entry.y_name, entry.y_unit, *y),
        fixed,
    ).to_csv()


@click.group()
def cli() -> None:
    """Quantitative models for Rydberg-interacting neutral-atom qubit arrays."""


# --------------------------------------------------------------------------- budget


@cli.group()
def budget() -> None:
    """Atom-loss, reload, and measurement-crosstalk budgets."""


@budget.command("vacuum-lifetime")
@click.option("--n-code", type=int, required=True, help="Qubits per code block.")
@click.option("--t-qec-ms", type=float, default=None,
              help="Error-correction cycle time; default 0.1 ms per code qubit.")
@click.option("--epsilon", type=float, required=True, help="Loss probability budget per cycle.")
def budget_vacuum_lifetime(n_code: int, t_qec_ms: float | None, epsilon: float) -> None:
    """Vacuum lifetime needed to keep per-cycle atom loss below epsilon."""
    t_qec = rydkit.budget.default_t_qec(n_code) if t_qec_ms is None else t_qec_ms * 1e-3
    _emit({
        "n_code": n_code, "t_qec_ms": t_qec * 1e3, "epsilon": epsilon,
        "tau_vac_s": rydkit.budget.required_vacuum_lifetime(n_code, t_qec, epsilon),
    })


@budget.command("reload-rate")
@click.option("--n-phys", type=int, required=True, help="Physical qubits in the array.")
@click.option("--tau-vac-s", type=float, required=True)
@click.option("--epsilon", type=float, required=True)
def budget_reload_rate(n_phys: int, tau_vac_s: float, epsilon: float) -> None:
    """Atom reload rate sustaining an array against vacuum loss."""
    _emit({
        "n_phys": n_phys, "tau_vac_s": tau_vac_s, "epsilon": epsilon,
        "r_load_per_s": rydkit.budget.required_reload_rate(n_phys, tau_vac_s, epsilon),
    })


@budget.command("loss")
@click.option("--n-code", type=int, required=True)
@click.option("--t-ms", type=float, required=True)
@click.option("--tau-vac-s", type=float, required=True)
def budget_loss(n_code: int, t_ms: float, tau_vac_s: float) -> None:
    """Probability of losing at least one of N_code atoms within t."""
    _emit({
        "n_code": n_code, "t_ms": t_ms, "tau_vac_s": tau_vac_s,
        "loss_probability": rydkit.budget.loss_probability(n_code, t_ms * 1e-3, tau_vac_s),
    })


@budget.command("simulate")
@click.option("--n-code", type=int, required=True)
@click.option("--tau-vac-s", type=float, required=True)
@click.option("--t-ms", type=float, required=True)
@click.option("--trials", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, required=True,
              help="RNG seed; required so runs are reproducible.")
def budget_simulate(n_code: int, tau_vac_s: float, t_ms: float, trials: int, seed: int) -> None:
    """Monte Carlo loss probability with exponential per-atom lifetimes."""
    result = rydkit.budget.simulate_loss(n_code, tau_vac_s, t_ms * 1e-3, trials, seed)
    _emit({
        "n_code": n_code, "tau_vac_s": tau_vac_s, "t_ms": t_ms, "seed": seed,
        **asdict(result),
    })


@budget.command("crosstalk")
@click.option("--wavelength-nm", type=float, required=True)
@click.option("--spacing-um", type=float, required=True)
@click.option("--numerical-aperture", type=float, required=True)
@click.option("--efficiency", type=float, required=True,
              help="Combined optical and detector efficiency.")
def budget_crosstalk(wavelength_nm: float, spacing_um: float,
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


# ----------------------------------------------------------------------- gate-error


@cli.group("gate-error")
def gate_error_group() -> None:
    """Intrinsic gate-error models and budgets."""


@gate_error_group.command("blockade")
@click.option("--blockade-mhz", type=float, required=True, help="Blockade shift B/2pi.")
@click.option("--tau-us", type=float, required=True, help="Rydberg lifetime.")
@click.option("--rabi-mhz", type=float, default=None,
              help="Rabi frequency Omega/2pi; default: the optimum.")
def gate_error_blockade(blockade_mhz: float, tau_us: float, rabi_mhz: float | None) -> None:
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


@gate_error_group.command("interaction")
@click.option("--interaction-mhz", type=float, required=True, help="Dipolar strength V/2pi.")
@click.option("--tau-us", type=float, required=True)
@click.option("--qubit-ghz", type=float, required=True, help="Qubit frequency omega_q/2pi.")
def gate_error_interaction(interaction_mhz: float, tau_us: float, qubit_ghz: float) -> None:
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


@gate_error_group.command("dressing")
@click.option("--detuning-mhz", type=float, required=True, help="Dressing detuning Delta/2pi.")
@click.option("--tau-us", type=float, required=True)
def gate_error_dressing(detuning_mhz: float, tau_us: float) -> None:
    """Optimized dressing-gate error at the given detuning and lifetime."""
    _emit({
        "detuning_mhz": detuning_mhz, "tau_us": tau_us,
        "error_min": rydkit.gate_error.dressing_gate_error(
            Frequency.from_hz(abs(detuning_mhz) * 1e6), tau_us * 1e-6
        ),
    })


@gate_error_group.command("floors")
@click.option("--tau0-ns", type=float, default=3.3, show_default=True,
              help="Low-l lifetime coefficient.")
def gate_error_floors(tau0_ns: float) -> None:
    """Level-spacing-limited error floors of the blockade and dressing gates."""
    tau0 = tau0_ns * 1e-9
    _emit({
        "tau0_ns": tau0_ns,
        "blockade_floor": rydkit.gate_error.asymptotic_blockade_floor(tau0),
        "dressing_floor": rydkit.gate_error.asymptotic_dressing_floor(tau0),
    })


@gate_error_group.command("spontaneous")
@click.option("--t-pi-ns", type=float, required=True, help="Pi-pulse duration.")
@click.option("--epsilon", type=float, required=True, help="Spontaneous-emission error budget.")
def gate_error_spontaneous(t_pi_ns: float, epsilon: float) -> None:
    """Minimum Rydberg lifetime for a spontaneous-emission error target."""
    _emit({
        "t_pi_ns": t_pi_ns, "epsilon": epsilon,
        "tau_min_us": rydkit.gate_error.spontaneous_budget(t_pi_ns * 1e-9, epsilon) * 1e6,
    })


@gate_error_group.command("stark")
@click.option("--rabi-mhz", type=float, required=True)
@click.option("--epsilon", type=float, required=True, help="Pi-pulse error target.")
@click.option("--alpha0-ghz-cm2-v2", type=float, required=True,
              help="Scalar dc polarizability in GHz/(V/cm)^2.")
@click.option("--convention", type=click.Choice(["direct", "half"]), default="direct",
              show_default=True, help="Stark shift alpha E^2 (direct) or alpha E^2/2 (half).")
def gate_error_stark(rabi_mhz: float, epsilon: float, alpha0_ghz_cm2_v2: float,
                     convention: str) -> None:
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


# -------------------------------------------------------------------------- doppler


@cli.command("doppler")
@click.option("--temperature-uk", type=float, default=None, help="Atom temperature.")
@click.option("--time-ns", type=float, default=None, help="Time spent in the Rydberg state.")
@click.option("--species", "species_name", type=str, default="cs", show_default=True)
@click.option("--scheme", type=str, default=None,
              help="Excitation scheme label; default: the species' first scheme.")
@click.option("--k-per-m", type=float, default=None,
              help="Excitation wavevector override in 1/m.")
@click.option("--config", type=click.Path(exists=True), default=None,
              help="JSON species config; overrides built-ins by name.")
@click.option("--scan", "do_scan", is_flag=True, help="Emit a temperature-time CSV grid.")
@click.option("--temp-min-uk", type=float, default=1.0, show_default=True)
@click.option("--temp-max-uk", type=float, default=100.0, show_default=True)
@click.option("--temp-points", type=int, default=25, show_default=True)
@click.option("--time-min-ns", type=float, default=10.0, show_default=True)
@click.option("--time-max-ns", type=float, default=10000.0, show_default=True)
@click.option("--time-points", type=int, default=25, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
def doppler(temperature_uk, time_ns, species_name, scheme, k_per_m, config, do_scan,
            temp_min_uk, temp_max_uk, temp_points,
            time_min_ns, time_max_ns, time_points, out) -> None:
    """Doppler-limited Bell fidelity; with --scan, a log10(1-F) contour grid."""
    species = _species_option(config, species_name)
    k_per_m, mass = rydkit.species._resolve_doppler(species, scheme, k_per_m, None)
    if do_scan:
        _emit(_scan_csv("doppler-infidelity", (temp_min_uk, temp_max_uk, temp_points, "log"),
                        (time_min_ns, time_max_ns, time_points, "log"),
                        {"k_per_m": k_per_m, "mass_kg": mass}), out)
        return
    if temperature_uk is None or time_ns is None:
        raise click.UsageError("--temperature-uk and --time-ns are required without --scan")
    infid = rydkit.gate_error.doppler_infidelity(
        k_per_m, temperature_uk * 1e-6, time_ns * 1e-9, mass
    )
    _emit({
        "species": species.name, "k_per_m": k_per_m,
        "temperature_uk": temperature_uk, "time_ns": time_ns,
        "fidelity": 1.0 - infid, "infidelity": infid,
    }, out)


# ------------------------------------------------------------------------- lifetime


@cli.command("lifetime")
@click.option("--n", type=float, required=True, help="Principal quantum number.")
@click.option("--temperature-k", type=float, required=True)
@click.option("--species", "species_name", type=str, default="cs", show_default=True)
@click.option("--tau0-ns", type=float, default=None, help="Override the species coefficient.")
@click.option("--config", type=click.Path(exists=True), default=None)
def lifetime(n: float, temperature_k: float, species_name: str,
             tau0_ns: float | None, config: str | None) -> None:
    """Rydberg depopulation lifetime with the universal blackbody model."""
    species = _species_option(config, species_name)
    tau0 = species.tau0 if tau0_ns is None else tau0_ns * 1e-9
    _emit({
        "n": n, "temperature_k": temperature_k, "species": species.name,
        "tau0_ns": tau0 * 1e9,
        "lifetime_s": rydkit.core.rydberg_lifetime(n, temperature_k, tau0),
    })


# ------------------------------------------------------------------------- dressing


@cli.group("dressing")
def dressing_group() -> None:
    """Soft-core dressing potentials and figures of merit."""


_DRESSING_OPTIONS = (
    click.option("--rabi-mhz", type=float, required=True),
    click.option("--detuning-mhz", type=float, required=True, help="Signed dressing detuning."),
    click.option("--defect-mhz", type=float, required=True, help="Signed Foerster defect."),
    click.option("--rc-um", type=float, default=None, help="Crossover radius."),
    click.option("--c3-ghz-um3", type=float, default=None, help="C3 coefficient."),
    click.option("--d-kl", type=float, default=12.0, show_default=True),
)


def _dressing_options(command):
    """Add the options of a dressing point, whose names match dressing._dressing_params."""
    for option in reversed(_DRESSING_OPTIONS):
        command = option(command)
    return command


@dressing_group.command("curve")
@_dressing_options
@click.option("--r-min-um", type=float, required=True)
@click.option("--r-max-um", type=float, required=True)
@click.option("--points", type=int, default=101, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def dressing_curve(r_min_um, r_max_um, points, out, **point) -> None:
    """Normalized soft-core curves (full, vdW, single-term) as CSV columns."""
    params = rydkit.dressing._dressing_params(**point)
    r_um = np.linspace(r_min_um, r_max_um, points)
    columns = [r_um] + [
        rydkit.dressing.normalized_potential(r_um * 1e-6, params, kind)
        for kind in ("full", "vdw", "single_term")
    ]
    lines = ["separation_um,v_full,v_vdw,v_single_term"]
    lines += [",".join([_FMT] * 4) % row for row in zip(*(c.tolist() for c in columns))]
    _emit("\n".join(lines) + "\n", out)


@dressing_group.command("fom")
@_dressing_options
@click.option("--tau-us", type=float, required=True, help="Rydberg lifetime.")
@click.option("--spacing-um", type=float, required=True, help="Lattice period.")
def dressing_fom(**point) -> None:
    """Figures of merit for 1D/2D/3D lattices at a dressing point."""
    params = rydkit.dressing._dressing_params(**point)
    records = rydkit.dressing.figures_of_merit(params)
    rabi, det = params.rabi, params.detuning
    _emit({
        **point, "rc_um": params.pair.r_c * 1e6, "c3_ghz_um3": params.pair.c3,
        "blockade_radius_um": rydkit.dressing.blockade_radius(
            params.detuning.rad_per_s, params.pair.defect.rad_per_s, params.pair.r_c
        ) * 1e6,
        "depth_khz": abs(rydkit.dressing.dressing_depth_perturbative(rabi, det).hz) / 1e3,
        "tau_dr_ms": rydkit.dressing.dressed_decoherence_time(rabi, det, params.lifetime) * 1e3,
        "operations_per_atom": rydkit.dressing.operations_per_atom(params),
        "f_prime": records[0].f_prime,
        "records": [
            {k: v for k, v in asdict(r).items() if k != "f_prime"} for r in records
        ],
    })


# ----------------------------------------------------------------------------- scan


@cli.command("scan")
@click.option("--quantity", type=click.Choice(_SCAN_QUANTITIES), required=True)
@click.option("--x-min", type=float, required=True)
@click.option("--x-max", type=float, required=True)
@click.option("--x-points", type=int, required=True)
@click.option("--x-scale", type=click.Choice(["linear", "log"]), default="linear",
              show_default=True)
@click.option("--y-min", type=float, required=True)
@click.option("--y-max", type=float, required=True)
@click.option("--y-points", type=int, required=True)
@click.option("--y-scale", type=click.Choice(["linear", "log"]), default="linear",
              show_default=True)
@click.option("--set", "assignments", multiple=True, metavar="KEY=VALUE",
              help="Fixed parameter override; repeatable.")
@click.option("--out", type=click.Path(), default=None)
def scan_command(quantity, x_min, x_max, x_points, x_scale,
                 y_min, y_max, y_points, y_scale, assignments, out) -> None:
    """Evaluate a registered quantity over a rectangular grid, emitted as CSV."""
    fixed = {}
    for item in assignments:
        key, sep, value = item.partition("=")
        if not sep:
            raise click.UsageError(f"--set expects KEY=VALUE, got {item!r}")
        fixed[key] = value
    _emit(_scan_csv(quantity, (x_min, x_max, x_points, x_scale),
                    (y_min, y_max, y_points, y_scale), fixed), out)


# ------------------------------------------------------------------------ reproduce


@cli.command("reproduce")
@click.option("--json-out", type=click.Path(), default=None,
              help="Also write the full report as JSON.")
@click.option("--trials", type=int, default=100000, show_default=True,
              help="Monte Carlo trials for the loss check.")
def reproduce_command(json_out: str | None, trials: int) -> int:
    """Recompute every reference checkpoint and report pass/fail per entry."""
    rep = rydkit.report.reproduce(trials=trials)
    for line in rep.format_lines():
        click.echo(line)
    if json_out:
        _emit(rep.to_dict(), json_out)
    return 0 if rep.passed else 3


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping exceptions to documented exit codes."""
    try:
        result = cli.main(args=argv, prog_name="rydkit", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return 2
    return int(result) if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
