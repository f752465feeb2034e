"""``rydkit scan``: a registered quantity over a rectangular grid."""

from __future__ import annotations

import click

from . import _emit, _scan_csv

# The names of grid.SCAN_QUANTITIES, so that --help loads no model module.
_SCAN_QUANTITIES = ("doppler-infidelity", "dressing-potential", "lifetime", "tau-vac")


@click.command("scan")
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
def command(quantity, x_min, x_max, x_points, x_scale,
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
