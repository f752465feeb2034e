"""``rydkit reproduce``: every reference checkpoint, pass or fail."""

from __future__ import annotations

import rydkit

from . import _emit, _leaf


def reproduce(json_out: str | None, trials: int) -> int:
    """Recompute every reference checkpoint and report pass/fail per entry."""
    rep = rydkit.report.reproduce(trials=trials)
    if json_out:  # first, so that a failed write leaves stdout empty
        _emit(rep.to_dict(), json_out)
    _emit("".join(f"{line}\n" for line in rep.format_lines()))
    return 0 if rep.passed else 3


def command(commands) -> None:
    """Add ``rydkit reproduce`` to the root's ``commands``."""
    p = _leaf(commands, "reproduce", reproduce)
    p.add_argument("--json-out", help="Also write the full report as JSON.")
    p.add_argument("--trials", type=int, default=100000,
                   help="Monte Carlo trials for the loss check; default: %(default)s.")
