"""``rydkit scan``: a registered quantity over a rectangular grid."""

from __future__ import annotations

from . import UsageError, _emit, _leaf, _scan_csv

# The names of grid.SCAN_QUANTITIES, so that --help loads no model module.
_SCAN_QUANTITIES = ("doppler-infidelity", "dressing-potential", "lifetime", "tau-vac")


def scan(quantity, x_min, x_max, x_points, x_scale,
         y_min, y_max, y_points, y_scale, assignments, out) -> None:
    """Evaluate a registered quantity over a rectangular grid, emitted as CSV."""
    fixed = {}
    for item in assignments:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        fixed[key] = value
    _emit(_scan_csv(quantity, (x_min, x_max, x_points, x_scale),
                    (y_min, y_max, y_points, y_scale), fixed), out)


def command(commands) -> None:
    """Add ``rydkit scan`` to the root's ``commands``."""
    p = _leaf(commands, "scan", scan)
    p.add_argument("--quantity", choices=_SCAN_QUANTITIES, required=True)
    for axis in "xy":
        p.add_argument(f"--{axis}-min", type=float, required=True)
        p.add_argument(f"--{axis}-max", type=float, required=True)
        p.add_argument(f"--{axis}-points", type=int, required=True)
        p.add_argument(f"--{axis}-scale", choices=("linear", "log"), default="linear",
                       help="Default: %(default)s.")
    p.add_argument("--set", dest="assignments", action="append", default=[], metavar="KEY=VALUE",
                   help="Fixed parameter override; repeatable.")
    p.add_argument("--out")
