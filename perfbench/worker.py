"""Warm benchmark worker: one fresh interpreter that imports rydkit from the
checkout's `src`, builds its inputs, prints `ready`, then runs one workload
in a closed loop and prints a JSON summary as its last line.

With `--setup-only` it exits right after `ready`: the controller times these
set-ups, interpreter start included. Run from the checkout root, with
PYTHONPATH=src, by `run.py`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

import inputs

# Sampled cells of a scan grid must match a direct call of the scalar model
# function to this relative tolerance (the repository's own oracle gate).
TOLERANCE = 1e-9
SAMPLED_CELLS = 8  # per grid and pass
REPRODUCE_ENTRIES = 55
# A traced run stops tracing once this many spans are held in memory (about
# 26 bytes each); later operations of the run are untraced.
SPAN_BUDGET = 2_000_000


def _import_rydkit(workload: str) -> None:
    src = (Path.cwd() / "src").resolve()
    import rydkit

    if not Path(rydkit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rydkit imported from {rydkit.__file__}, not from {src}")
    if workload == "cli-oneshot":
        import rydkit.cli  # noqa: F401


class ScanSweep:
    """One pass: every scan quantity on a grid, written to CSV and read back."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from rydkit import grid

        self.grid = grid
        self.specs = inputs.scan_specs(seed, smoke)
        self.rng = random.Random(seed + 1)

    def run(self):
        grid, out = self.grid, []
        for spec in self.specs:
            entry = grid.SCAN_QUANTITIES[spec["quantity"]]
            x_axis = grid.axis(entry.x_name, entry.x_unit, *spec["x"])
            y_axis = grid.axis(entry.y_name, entry.y_unit, *spec["y"])
            g = grid.scan(spec["quantity"], x_axis, y_axis, spec["fixed"])
            out.append((spec, g, grid.ScanGrid.from_csv(g.to_csv())))
        return out

    def check(self, result) -> str | None:
        for spec, g, back in result:
            if back != g:
                return f"{spec['quantity']}: CSV round trip changed the grid"
            for _ in range(SAMPLED_CELLS):
                ix = self.rng.randrange(len(g.x_axis.values))
                iy = self.rng.randrange(len(g.y_axis.values))
                x, y = g.x_axis.values[ix], g.y_axis.values[iy]
                want, scale = _direct_cell(spec["quantity"], x, y, spec["fixed"])
                got = g.cell(ix, iy)
                if not abs(got - want) <= TOLERANCE * (scale or abs(want)):
                    return f"{spec['quantity']} cell ({x!r}, {y!r}): grid {got!r} vs direct {want!r}"
        return None


def _direct_cell(quantity: str, x: float, y: float, fixed: dict) -> tuple[float, float]:
    """A scan cell from the scalar model functions, without the grid layer.

    Returns the value and the scale its error is measured on (0: the value).
    """
    from rydkit import budget, core, dressing, gate_error, species
    from rydkit.units import Frequency

    if quantity == "tau-vac":
        return budget.required_vacuum_lifetime(x, budget.default_t_qec(x), y), 0.0
    if quantity == "doppler-infidelity":
        sp = species.get_species(fixed["species"])
        infid = gate_error.doppler_infidelity(
            sp.schemes[0].effective_k, x * 1e-6, y * 1e-9, sp.mass)
        return math.log10(infid), 0.0
    if quantity == "dressing-potential":
        params = dressing.DressingParams(
            rabi=Frequency.from_hz(y * 1e6),
            detuning=Frequency.from_hz(fixed["detuning_mhz"] * 1e6),
            pair=dressing.PairInteraction(
                defect=Frequency.from_hz(fixed["defect_mhz"] * 1e6), r_c=fixed["rc_um"] * 1e-6),
            lifetime=320e-6,
            spacing=1e-6,
        )
        # normalized to the well depth, so the error is measured on a unit scale
        return dressing.normalized_potential(x * 1e-6, params, "full"), 1.0
    if quantity == "lifetime":
        return core.rydberg_lifetime(x, y, fixed["tau0_ns"] * 1e-9), 0.0
    raise ValueError(f"unknown quantity {quantity!r}")


class Reproduce:
    """One call of the published reproduction run, with its default seed and trials."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from rydkit import report

        self.report = report

    def run(self):
        return self.report.reproduce()

    def check(self, rep) -> str | None:
        if not rep.passed:
            return "reproduction report did not pass"
        if len(rep.entries) != REPRODUCE_ENTRIES:
            return f"expected {REPRODUCE_ENTRIES} entries, got {len(rep.entries)}"
        return None


WARM_WORKLOADS = {"scan-sweep": ScanSweep, "reproduce": Reproduce}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    _import_rydkit(args.workload)
    if args.workload == "cli-oneshot":
        inputs.cli_mix(args.seed)
        workload = None
    else:
        workload = WARM_WORKLOADS[args.workload](args.seed, args.smoke)
    print("ready", flush=True)
    if args.setup_only or workload is None:
        return 0

    import calibrate
    import spans

    def operation():
        try:
            return workload.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    if not args.smoke:
        operation()  # warm-up: lazy imports and first-call caches
    tracer = spans.Tracer() if args.trace else None
    # (wall s, calibration kernel s, wall s at the kernel's reference speed)
    times: list[tuple[float, float, float]] = []
    traced_times: list[tuple[float, float, float]] = []
    failures: list[str] = []
    attempted = 0
    timer = calibrate.python_timer()
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and attempted % 2 == 1 and len(tracer.end) < SPAN_BUDGET
        if traced:
            tracer.install()
        (result, error), elapsed, kernel = timer.measure(operation)
        if traced:
            tracer.uninstall()
        attempted += 1
        (traced_times if traced else times).append(
            (elapsed, kernel, timer.scaled(elapsed, kernel)))
        if error is None:
            error = workload.check(result)
        if error is not None:
            failures.append(error)
        if time.perf_counter() >= deadline and times and (tracer is None or traced_times):
            break

    summary = {}
    if tracer is not None:
        summary = tracer.summary()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps({
        "times": times, "traced_times": traced_times, "attempted": attempted,
        "failed": len(failures), "failures": failures[:5],
        "layers": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
