"""``rydkit doppler``: the Doppler-limited Bell fidelity, at a point or as a grid."""

from __future__ import annotations

import rydkit

from . import UsageError, _emit, _leaf, _scan_csv, _species_option


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
        raise UsageError("--temperature-uk and --time-ns are required without --scan")
    infid = rydkit.gate_error.doppler_infidelity(
        k_per_m, temperature_uk * 1e-6, time_ns * 1e-9, mass
    )
    _emit({
        "species": species.name, "k_per_m": k_per_m,
        "temperature_uk": temperature_uk, "time_ns": time_ns,
        "fidelity": 1.0 - infid, "infidelity": infid,
    }, out)


def command(commands) -> None:
    """Add ``rydkit doppler`` to the root's ``commands``."""
    p = _leaf(commands, "doppler", doppler)
    p.add_argument("--temperature-uk", type=float, help="Atom temperature.")
    p.add_argument("--time-ns", type=float, help="Time spent in the Rydberg state.")
    p.add_argument("--species", dest="species_name", default="cs", help="Default: %(default)s.")
    p.add_argument("--scheme", help="Excitation scheme label; default: the species' first scheme.")
    p.add_argument("--k-per-m", type=float, help="Excitation wavevector override in 1/m.")
    p.add_argument("--config", metavar="PATH",
                   help="JSON species config; overrides built-ins by name.")
    p.add_argument("--scan", dest="do_scan", action="store_true",
                   help="Emit a temperature-time CSV grid.")
    p.add_argument("--temp-min-uk", type=float, default=1.0, help="Default: %(default)s.")
    p.add_argument("--temp-max-uk", type=float, default=100.0, help="Default: %(default)s.")
    p.add_argument("--temp-points", type=int, default=25, help="Default: %(default)s.")
    p.add_argument("--time-min-ns", type=float, default=10.0, help="Default: %(default)s.")
    p.add_argument("--time-max-ns", type=float, default=10000.0, help="Default: %(default)s.")
    p.add_argument("--time-points", type=int, default=25, help="Default: %(default)s.")
    p.add_argument("--out", help="Output path (default stdout).")
