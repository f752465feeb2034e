"""Command-line surface.

Flags carry their units in the name (``--rabi-mhz``, ``--tau-us``, ...);
quantities quoted per 2pi convert to angular frequency at this boundary.
Scalar results print as a single JSON document, grids as CSV. Exit codes:
0 success, 1 usage error or an output file that cannot be written, 2 domain
error, 3 reproduction failure.

Each top-level command is ``command`` in the module of this package named
after it, with "-" written "_". The root group imports that module only when
it looks the name up, so a call compiles and builds only its own command.
"""

from __future__ import annotations

import json
import sys

import click

import rydkit

from ..errors import DomainError

_COMMANDS = ("budget", "doppler", "dressing", "gate-error", "lifetime", "reproduce", "scan")


def _emit(result: dict | str, out: str | None = None) -> None:
    """Write a dict as strict JSON, or a str as it is, to ``out`` or stdout."""
    if isinstance(result, dict):
        try:
            result = json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise DomainError(f"output holds a NaN or infinite value ({exc})") from None
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(result)
        except OSError as exc:
            raise click.FileError(out, exc.strerror) from None
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


class _LazyGroup(click.Group):
    """The root group; a command's module is imported when its name is looked up."""

    def list_commands(self, ctx: click.Context) -> list[str]:
        return list(_COMMANDS)

    def get_command(self, ctx: click.Context, name: str) -> click.Command | None:
        if name not in _COMMANDS:
            return None
        module = f"{__name__}.{name.replace('-', '_')}"
        __import__(module)  # not importlib.import_module, whose loads -X importtime omits
        return sys.modules[module].command

    def resolve_command(self, ctx: click.Context, args: list[str]):
        try:
            return super().resolve_command(ctx, args)
        except click.exceptions.NoSuchCommand as exc:  # suggest from the lazy names
            raise click.exceptions.NoSuchCommand(
                exc.command_name, possibilities=_COMMANDS, ctx=ctx) from None


@click.group(cls=_LazyGroup)
def cli() -> None:
    """Quantitative models for Rydberg-interacting neutral-atom qubit arrays."""


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping exceptions to documented exit codes."""
    try:
        result = cli.main(args=argv, prog_name="rydkit", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return 2
    return int(result) if isinstance(result, int) else 0
