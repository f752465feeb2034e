"""``rydkit dressing``: soft-core dressing potentials and figures of merit."""

from __future__ import annotations

from dataclasses import asdict

import click

import rydkit

from ..errors import _FMT
from . import _emit


@click.group("dressing")
def command() -> None:
    """Soft-core dressing potentials and figures of merit."""


_DRESSING_OPTIONS = (
    click.option("--rabi-mhz", type=float, required=True),
    click.option("--detuning-mhz", type=float, required=True, help="Signed dressing detuning."),
    click.option("--defect-mhz", type=float, required=True, help="Signed Foerster defect."),
    click.option("--rc-um", type=float, default=None, help="Crossover radius."),
    click.option("--c3-ghz-um3", type=float, default=None, help="C3 coefficient."),
    click.option("--d-kl", type=float, default=12.0, show_default=True),
)


def _dressing_options(command):
    """Add the options of a dressing point, whose names match dressing._dressing_params."""
    for option in reversed(_DRESSING_OPTIONS):
        command = option(command)
    return command


@command.command("curve")
@_dressing_options
@click.option("--r-min-um", type=float, required=True)
@click.option("--r-max-um", type=float, required=True)
@click.option("--points", type=int, default=101, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def curve(r_min_um, r_max_um, points, out, **point) -> None:
    """Normalized soft-core curves (full, vdW, single-term) as CSV columns."""
    import numpy as np

    params = rydkit.dressing._dressing_params(**point)
    r_um = rydkit.grid.axis("separation", "um", r_min_um, r_max_um, points).values
    r_m = np.array(r_um) * 1e-6
    columns = [r_um] + [
        rydkit.dressing.normalized_potential(r_m, params, kind).tolist()
        for kind in ("full", "vdw", "single_term")
    ]
    lines = ["separation_um,v_full,v_vdw,v_single_term"]
    lines += [",".join([_FMT] * 4) % row for row in zip(*columns)]
    _emit("\n".join(lines) + "\n", out)


@command.command("fom")
@_dressing_options
@click.option("--tau-us", type=float, required=True, help="Rydberg lifetime.")
@click.option("--spacing-um", type=float, required=True, help="Lattice period.")
def fom(**point) -> None:
    """Figures of merit for 1D/2D/3D lattices at a dressing point."""
    params = rydkit.dressing._dressing_params(**point)
    records = rydkit.dressing.figures_of_merit(params)
    rabi, det, pair = params.rabi, params.detuning, params.pair
    _emit({
        **point, "rc_um": pair.r_c * 1e6, "c3_ghz_um3": pair.c3,
        "blockade_radius_um": rydkit.dressing.blockade_radius(det, pair.defect, pair.r_c) * 1e6,
        "depth_khz": abs(rydkit.dressing.dressing_depth_perturbative(rabi, det).hz) / 1e3,
        "tau_dr_ms": rydkit.dressing.dressed_decoherence_time(rabi, det, params.lifetime) * 1e3,
        "operations_per_atom": rydkit.dressing.operations_per_atom(params),
        "f_prime": records[0].f_prime,
        "records": [
            {k: v for k, v in asdict(r).items() if k != "f_prime"} for r in records
        ],
    })
