"""``rydkit dressing``: soft-core dressing potentials and figures of merit."""

from __future__ import annotations

import rydkit

from . import _emit, _group, _leaf


def _dressing_options(parser) -> None:
    """Add the options of a dressing point, whose names match dressing._dressing_params."""
    parser.add_argument("--rabi-mhz", type=float, required=True)
    parser.add_argument("--detuning-mhz", type=float, required=True,
                        help="Signed dressing detuning.")
    parser.add_argument("--defect-mhz", type=float, required=True, help="Signed Foerster defect.")
    parser.add_argument("--rc-um", type=float, help="Crossover radius.")
    parser.add_argument("--c3-ghz-um3", type=float, help="C3 coefficient.")
    parser.add_argument("--d-kl", type=float, default=12.0, help="Default: %(default)s.")


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
    lines += [",".join([rydkit.grid._FMT] * 4) % row for row in zip(*columns)]
    _emit("\n".join(lines) + "\n", out)


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
            {k: v for k, v in r._asdict().items() if k != "f_prime"} for r in records
        ],
    })


def command(commands) -> None:
    """Add ``rydkit dressing`` and its commands to the root's ``commands``."""
    group = _group(commands, "dressing", "Soft-core dressing potentials and figures of merit.")

    p = _leaf(group, "curve", curve)
    _dressing_options(p)
    p.add_argument("--r-min-um", type=float, required=True)
    p.add_argument("--r-max-um", type=float, required=True)
    p.add_argument("--points", type=int, default=101, help="Default: %(default)s.")
    p.add_argument("--out")

    p = _leaf(group, "fom", fom)
    _dressing_options(p)
    p.add_argument("--tau-us", type=float, required=True, help="Rydberg lifetime.")
    p.add_argument("--spacing-um", type=float, required=True, help="Lattice period.")
