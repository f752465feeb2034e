"""Command-line surface.

Flags carry their units in the name (``--rabi-mhz``, ``--tau-us``, ...);
quantities quoted per 2pi convert to angular frequency at this boundary.
Scalar results print as a single JSON document, grids as CSV, through
``_emit``, the one writer of stdout (the help too). Exit codes: 0 success,
1 usage error or an output file or stdout that cannot be written, 2 domain
error, 3 reproduction failure. ``main()`` ends its process with no teardown
unless a tracer or profiler is set; ``main(argv)`` returns the code.

Each top-level command is added to the root parser by ``command`` in the
module of this package named after it, with "-" written "_". The root imports
that module only when the name is chosen, so a call compiles and builds only
its own command; ``--help`` builds every command to list them.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys

import rydkit

from ..errors import DomainError

_COMMANDS = ("budget", "doppler", "dressing", "gate-error", "lifetime", "reproduce", "scan")
_SUBCOMMANDS = {"title": "commands", "metavar": "COMMAND", "required": True}  # of root and groups


class UsageError(Exception):
    """A command line that cannot run: ``main`` prints one ``Error:`` line and returns 1."""


class _HelpShown(Exception):
    """``--help`` has printed its text: ``main`` returns 0."""


class _Parser(argparse.ArgumentParser):
    """A parser that raises instead of exiting, with no abbreviated flags and no ``-h``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        # a word that float() reads as a negative number (-1e3 and -inf too) is a value
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        # a word the command does not know is its error, with its usage: argparse would
        # hand it up to the root
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str):
        _note(self.format_usage() + "\n")
        raise UsageError(message)

    def print_help(self, file=None) -> None:
        _emit(self.format_help())  # the help action passes no file

    def exit(self, status: int = 0, message: str | None = None):
        raise _HelpShown  # the help action is the one caller, as error() raises


def _group(commands, name: str, doc: str):
    """Add the command group ``name`` to ``commands``; returns the action of its commands."""
    return commands.add_parser(name, help=doc, description=doc).add_subparsers(**_SUBCOMMANDS)


def _leaf(commands, name: str, run) -> _Parser:
    """Add command ``name`` to ``commands``: it calls ``run`` with its parsed values."""
    parser = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
    parser.set_defaults(run=run)
    return parser


def _parser(word: str) -> _Parser:
    """The root parser for a command line whose first word is ``word``.

    A command name builds that command only. A flag (--help) or no word builds
    every command, so that the help can list them; any other word is unknown.
    """
    parser = _Parser(prog="rydkit", description=(
        "Quantitative models for Rydberg-interacting neutral-atom qubit arrays."))
    commands = parser.add_subparsers(**_SUBCOMMANDS)
    if word and not word.startswith("-") and word not in _COMMANDS:
        from difflib import get_close_matches  # only an unknown command pays for it

        close = get_close_matches(word, _COMMANDS, n=1)
        hint = f" Did you mean {close[0]!r}?" if close else ""
        parser.error(f"No such command {word!r}.{hint}")
    for name in [word] if word in _COMMANDS else _COMMANDS:
        rydkit._load(f"cli.{name.replace('-', '_')}").command(commands)
    return parser


def _emit(result: dict | str, out: str | None = None) -> None:
    """Write a dict as strict JSON, or a str as it is, to ``out`` or stdout, flushed."""
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
            raise UsageError(f"Could not open file {out!r}: {exc.strerror}") from None
    else:
        try:
            if sys.stdout is None:  # the process started with it closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(result)
            sys.stdout.flush()
        except OSError as exc:  # closed, or its reader gone: buffered or not, one error
            raise UsageError(f"Could not write to stdout: {exc.strerror}") from None


def _note(text: str = "") -> None:
    """Write ``text`` to stderr and flush it, best effort: the stderr counterpart of ``_emit``.

    A stderr that is None (closed at start) or whose write or flush raises
    ``OSError`` drops the text: the exit code stays the one of the error it reports.
    """
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        pass


def _species_option(config: str | None, name: str):
    """The species ``name``; the entries of a ``--config`` file come before the built-ins."""
    if config is None:
        return rydkit.species.get_species(name)
    try:  # a file that cannot be opened is a bad flag value; a bad content, a domain error
        open(config, "rb").close()
    except OSError as exc:
        raise UsageError(f"Invalid value for '--config': {config!r}: {exc.strerror}") from None
    return rydkit.species.get_species(name, rydkit.species.load_species_config(config))


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


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping exceptions to documented exit codes.

    ``main(argv)`` returns the code. ``main()`` runs ``sys.argv[1:]``, flushes
    stderr (``_emit`` flushed stdout) and ends the process with ``os._exit``, with
    no atexit handler or teardown, unless a tracer or profiler is set: it reports at exit.
    Error lines go through ``_note``, so a stderr that cannot be written leaves
    the exit code as it is.
    """
    args = sys.argv[1:] if argv is None else argv
    try:
        values = vars(_parser(args[0] if args else "").parse_args(args))
        code = values.pop("run")(**values) or 0
    except _HelpShown:
        code = 0
    except UsageError as exc:
        _note(f"Error: {exc}\n")
        code = 1
    except KeyboardInterrupt:
        code = 1
    except DomainError as exc:
        _note(f"domain error: {exc}\n")
        code = 2
    if argv is not None or sys.gettrace() or sys.getprofile():
        return code
    _note()  # what else went to stderr, such as warnings
    os._exit(code)
