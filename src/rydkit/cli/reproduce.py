"""``rydkit reproduce``: every reference checkpoint, pass or fail."""

from __future__ import annotations

import click

import rydkit

from . import _emit


@click.command("reproduce")
@click.option("--json-out", type=click.Path(), default=None,
              help="Also write the full report as JSON.")
@click.option("--trials", type=int, default=100000, show_default=True,
              help="Monte Carlo trials for the loss check.")
def command(json_out: str | None, trials: int) -> int:
    """Recompute every reference checkpoint and report pass/fail per entry."""
    rep = rydkit.report.reproduce(trials=trials)
    if json_out:  # first, so that a failed write leaves stdout empty
        _emit(rep.to_dict(), json_out)
    for line in rep.format_lines():
        click.echo(line)
    return 0 if rep.passed else 3
