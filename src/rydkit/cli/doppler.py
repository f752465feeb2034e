"""``rydkit doppler``: the Doppler-limited Bell fidelity, at a point or as a grid."""

from __future__ import annotations

import click

import rydkit

from . import _emit, _scan_csv, _species_option


@click.command("doppler")
@click.option("--temperature-uk", type=float, default=None, help="Atom temperature.")
@click.option("--time-ns", type=float, default=None, help="Time spent in the Rydberg state.")
@click.option("--species", "species_name", type=str, default="cs", show_default=True)
@click.option("--scheme", type=str, default=None,
              help="Excitation scheme label; default: the species' first scheme.")
@click.option("--k-per-m", type=float, default=None,
              help="Excitation wavevector override in 1/m.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), metavar="PATH",
              help="JSON species config; overrides built-ins by name.")
@click.option("--scan", "do_scan", is_flag=True, help="Emit a temperature-time CSV grid.")
@click.option("--temp-min-uk", type=float, default=1.0, show_default=True)
@click.option("--temp-max-uk", type=float, default=100.0, show_default=True)
@click.option("--temp-points", type=int, default=25, show_default=True)
@click.option("--time-min-ns", type=float, default=10.0, show_default=True)
@click.option("--time-max-ns", type=float, default=10000.0, show_default=True)
@click.option("--time-points", type=int, default=25, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
def command(temperature_uk, time_ns, species_name, scheme, k_per_m, config, do_scan,
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
