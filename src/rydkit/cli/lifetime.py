"""``rydkit lifetime``: the Rydberg depopulation lifetime."""

from __future__ import annotations

import rydkit

from . import _emit, _leaf, _species_option


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


def command(commands) -> None:
    """Add ``rydkit lifetime`` to the root's ``commands``."""
    p = _leaf(commands, "lifetime", lifetime)
    p.add_argument("--n", type=float, required=True, help="Principal quantum number.")
    p.add_argument("--temperature-k", type=float, required=True)
    p.add_argument("--species", dest="species_name", default="cs", help="Default: %(default)s.")
    p.add_argument("--tau0-ns", type=float, help="Override the species coefficient.")
    p.add_argument("--config", metavar="PATH")
