"""``rydkit lifetime``: the Rydberg depopulation lifetime."""

from __future__ import annotations

import click

import rydkit

from . import _emit, _species_option


@click.command("lifetime")
@click.option("--n", type=float, required=True, help="Principal quantum number.")
@click.option("--temperature-k", type=float, required=True)
@click.option("--species", "species_name", type=str, default="cs", show_default=True)
@click.option("--tau0-ns", type=float, default=None, help="Override the species coefficient.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), metavar="PATH")
def command(n: float, temperature_k: float, species_name: str,
            tau0_ns: float | None, config: str | None) -> None:
    """Rydberg depopulation lifetime with the universal blackbody model."""
    species = _species_option(config, species_name)
    tau0 = species.tau0 if tau0_ns is None else tau0_ns * 1e-9
    _emit({
        "n": n, "temperature_k": temperature_k, "species": species.name,
        "tau0_ns": tau0 * 1e9,
        "lifetime_s": rydkit.core.rydberg_lifetime(n, temperature_k, tau0),
    })
