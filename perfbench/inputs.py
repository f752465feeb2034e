"""Seeded inputs of the three workloads, and the output checks of the CLI mix.

Standard library only: the controller imports this module without rydkit.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WORKLOADS = ("cli-oneshot", "scan-sweep", "reproduce")

# The command a console-script install runs, executed with PYTHONPATH=src.
CLI_ENTRY = "import sys; from rydkit.cli import main; sys.exit(main())"

_BUDGET_KEYS = {
    "vacuum-lifetime": ("n_code", "t_qec_ms", "epsilon", "tau_vac_s"),
    "reload-rate": ("n_phys", "tau_vac_s", "epsilon", "r_load_per_s"),
    "loss": ("n_code", "t_ms", "tau_vac_s", "loss_probability"),
    "simulate": ("n_code", "tau_vac_s", "t_ms", "seed", "trials", "estimate",
                 "standard_error"),
    "crosstalk": ("wavelength_nm", "spacing_um", "numerical_aperture", "efficiency",
                  "cross_section_m2", "eta_abs", "eta_det", "ratio"),
}
_GATE_KEYS = {
    "blockade": ("blockade_mhz", "tau_us", "rabi_opt_mhz", "error_min", "error_at_rabi",
                 "spontaneous", "blockade_leakage", "entanglement_bound"),
    "interaction": ("interaction_mhz", "tau_us", "qubit_ghz", "error",
                    "interaction_opt_mhz", "error_min"),
    "dressing": ("detuning_mhz", "tau_us", "error_min"),
    "floors": ("tau0_ns", "blockade_floor", "dressing_floor"),
    "spontaneous": ("t_pi_ns", "epsilon", "tau_min_us"),
    "stark": ("rabi_mhz", "epsilon", "alpha0_ghz_cm2_v2", "convention",
              "detuning_limit_khz", "field_limit_v_per_cm"),
}
_FOM_KEYS = ("rabi_mhz", "detuning_mhz", "defect_mhz", "rc_um", "c3_ghz_um3", "d_kl",
             "tau_us", "spacing_um", "blockade_radius_um", "depth_khz", "tau_dr_ms",
             "operations_per_atom", "f_prime", "records")
_FOM_RECORD_KEYS = ("dimension", "n_atoms", "n_atoms_floored", "f", "f_composed",
                    "f_prime_per_atom")


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cli_commands(rng: random.Random) -> list[tuple[str, list[str], tuple]]:
    """One of each command of the mix: (label, argv, expected output shape).

    Every value lies inside its model's valid range, so no call should fail
    and none should trip a model-validity warning.
    """
    u, lu = rng.uniform, lambda lo, hi: _log_uniform(rng, lo, hi)
    cmds: list[tuple[str, list[str], tuple]] = []

    def add(label: str, argv: list[str], expect: tuple) -> None:
        cmds.append((label, argv, expect))

    add("budget vacuum-lifetime",
        ["budget", "vacuum-lifetime", "--n-code", str(rng.randint(4, 60)),
         "--epsilon", _num(lu(1e-5, 1e-2))]
        + (["--t-qec-ms", _num(u(0.5, 5.0))] if rng.random() < 0.5 else []),
        ("json", _BUDGET_KEYS["vacuum-lifetime"]))
    add("budget reload-rate",
        ["budget", "reload-rate", "--n-phys", str(rng.randint(100, 5000)),
         "--tau-vac-s", _num(u(50.0, 1000.0)), "--epsilon", _num(lu(1e-5, 1e-2))],
        ("json", _BUDGET_KEYS["reload-rate"]))
    add("budget loss",
        ["budget", "loss", "--n-code", str(rng.randint(4, 50)), "--t-ms", _num(u(0.5, 5.0)),
         "--tau-vac-s", _num(u(100.0, 1000.0))],
        ("json", _BUDGET_KEYS["loss"]))
    add("budget simulate",
        ["budget", "simulate", "--n-code", str(rng.randint(4, 40)),
         "--tau-vac-s", _num(u(100.0, 1000.0)), "--t-ms", _num(u(0.5, 5.0)),
         "--trials", str(rng.randint(10000, 50000)), "--seed", str(rng.randint(0, 2**31))],
        ("json", _BUDGET_KEYS["simulate"]))
    wavelength = u(400.0, 1000.0)
    add("budget crosstalk",
        ["budget", "crosstalk", "--wavelength-nm", _num(wavelength),
         "--spacing-um", _num(wavelength * 1e-3 * u(2.0, 10.0)),
         "--numerical-aperture", _num(u(0.2, 0.9)), "--efficiency", _num(u(0.1, 1.0))],
        ("json", _BUDGET_KEYS["crosstalk"]))

    add("gate-error blockade",
        ["gate-error", "blockade", "--blockade-mhz", _num(lu(20.0, 2000.0)),
         "--tau-us", _num(u(50.0, 500.0))]
        + (["--rabi-mhz", _num(u(1.0, 20.0))] if rng.random() < 0.5 else []),
        ("json", _GATE_KEYS["blockade"]))
    add("gate-error interaction",
        ["gate-error", "interaction", "--interaction-mhz", _num(lu(0.1, 10.0)),
         "--tau-us", _num(u(50.0, 500.0)), "--qubit-ghz", _num(u(6.0, 10.0))],
        ("json", _GATE_KEYS["interaction"]))
    add("gate-error dressing",
        ["gate-error", "dressing", "--detuning-mhz", _num(lu(10.0, 1000.0)),
         "--tau-us", _num(u(50.0, 500.0))],
        ("json", _GATE_KEYS["dressing"]))
    add("gate-error floors",
        ["gate-error", "floors", "--tau0-ns", _num(u(1.0, 5.0))],
        ("json", _GATE_KEYS["floors"]))
    add("gate-error spontaneous",
        ["gate-error", "spontaneous", "--t-pi-ns", _num(u(10.0, 500.0)),
         "--epsilon", _num(lu(1e-6, 1e-2))],
        ("json", _GATE_KEYS["spontaneous"]))
    add("gate-error stark",
        ["gate-error", "stark", "--rabi-mhz", _num(u(1.0, 50.0)),
         "--epsilon", _num(lu(1e-7, 1e-3)), "--alpha0-ghz-cm2-v2", _num(u(50.0, 500.0)),
         "--convention", rng.choice(("direct", "half"))],
        ("json", _GATE_KEYS["stark"]))

    species = rng.choice(("cs", "rb"))
    add("doppler point",
        ["doppler", "--species", species, "--temperature-uk", _num(lu(0.5, 200.0)),
         "--time-ns", _num(lu(5.0, 20000.0))],
        ("json", ("species", "k_per_m", "temperature_uk", "time_ns", "fidelity",
                  "infidelity")))
    temp_points, time_points = rng.randint(10, 30), rng.randint(10, 30)
    add("doppler --scan",
        ["doppler", "--scan", "--species", species,
         "--temp-min-uk", _num(u(0.5, 2.0)), "--temp-max-uk", _num(u(50.0, 200.0)),
         "--temp-points", str(temp_points),
         "--time-min-ns", _num(u(5.0, 20.0)), "--time-max-ns", _num(u(5000.0, 20000.0)),
         "--time-points", str(time_points)],
        ("grid", temp_points, time_points))
    add("lifetime",
        ["lifetime", "--n", _num(u(20.0, 300.0)), "--temperature-k", _num(u(0.0, 400.0)),
         "--species", rng.choice(("cs", "rb"))],
        ("json", ("n", "temperature_k", "species", "tau0_ns", "lifetime_s")))

    sign = rng.choice(("", "-"))
    points = rng.randint(41, 101)
    add("dressing curve",
        ["dressing", "curve", "--rabi-mhz", _num(u(0.5, 2.0)),
         "--detuning-mhz", sign + _num(u(8.0, 15.0)),
         "--defect-mhz", sign + _num(u(15.0, 30.0)), "--rc-um", _num(u(1.0, 2.0)),
         "--r-min-um", _num(u(0.1, 0.3)), "--r-max-um", _num(u(3.0, 6.0)),
         "--points", str(points)],
        ("curve", points))
    add("dressing fom",
        ["dressing", "fom", "--rabi-mhz", _num(u(10.0, 30.0)),
         "--detuning-mhz", sign + _num(u(80.0, 150.0)),
         "--defect-mhz", sign + _num(u(150.0, 300.0)), "--rc-um", _num(u(6.0, 10.0)),
         "--tau-us", _num(u(200.0, 400.0)), "--spacing-um", _num(u(0.8, 1.5))],
        ("fom", _FOM_KEYS))

    x_points, y_points = rng.randint(5, 15), rng.randint(3, 8)
    add("scan",
        ["scan", "--quantity", "tau-vac",
         "--x-min", str(rng.randint(2, 8)), "--x-max", str(rng.randint(50, 120)),
         "--x-points", str(x_points),
         "--y-min", _num(lu(1e-6, 1e-5)), "--y-max", _num(lu(1e-3, 1e-2)),
         "--y-points", str(y_points), "--y-scale", "log"],
        ("grid", x_points, y_points))
    return cmds


# Calls generated per run; a run longer than this cycles through them again.
CLI_CALLS = 256


def cli_mix(seed: int, count: int = CLI_CALLS) -> list[tuple[str, list[str], tuple]]:
    """`count` CLI calls: rounds of every command, each round in a seeded order."""
    rng = random.Random(seed)
    calls: list[tuple[str, list[str], tuple]] = []
    while len(calls) < count:
        round_ = _cli_commands(rng)
        rng.shuffle(round_)
        calls.extend(round_)
    return calls[:count]


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite JSON number {token}")


def _finite_floats(row: list[str]) -> list[float]:
    values = [float(v) for v in row]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite value in row {row[:3]}...")
    return values


def check_cli_output(expect: tuple, stdout: str) -> str | None:
    """None if `stdout` has the expected shape, else the reason it does not.

    JSON must be strict (no NaN or Infinity) and hold every expected key;
    CSV must have the expected row and column counts of finite numbers.
    """
    kind = expect[0]
    try:
        if kind in ("json", "fom"):
            payload = json.loads(stdout, parse_constant=_reject_constant)
            missing = [k for k in expect[1] if k not in payload]
            if kind == "fom" and not missing:
                records = payload["records"]
                if len(records) != 3:
                    return f"expected 3 records, got {len(records)}"
                missing = [k for r in records for k in _FOM_RECORD_KEYS if k not in r]
            return f"missing keys {missing}" if missing else None
        if kind == "grid":
            _, x_points, y_points = expect
            lines = stdout.splitlines()
            comments = [ln for ln in lines if ln.startswith("#")]
            rows = list(csv.reader(ln for ln in lines if ln and not ln.startswith("#")))
            if len(comments) != 3 or len(rows) != y_points + 1:
                return f"expected 3 comments and {y_points + 1} rows, got {len(comments)}, {len(rows)}"
            if any(len(r) != x_points + 1 for r in rows):
                return f"expected {x_points + 1} columns in every row"
            _finite_floats(rows[0][1:])
            for r in rows[1:]:
                _finite_floats(r)
            return None
        if kind == "curve":
            rows = list(csv.reader(io.StringIO(stdout)))
            if rows[0] != ["separation_um", "v_full", "v_vdw", "v_single_term"]:
                return f"unexpected header {rows[0]}"
            if len(rows) != expect[1] + 1 or any(len(r) != 4 for r in rows[1:]):
                return f"expected {expect[1]} rows of 4 columns"
            for r in rows[1:]:
                _finite_floats(r)
            return None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc}"
    raise ValueError(f"unknown expectation {kind!r}")


# Grid sizes of one scan-sweep pass, chosen so that no quantity takes much more
# than a third of a pass on a 2-core x86 box (dressing cells cost ~25 us each,
# the others 2-5 us including the CSV round trip).
SCAN_POINTS = {
    "tau-vac": (200, 200),
    "doppler-infidelity": (160, 160),
    "dressing-potential": (60, 60),
    "lifetime": (200, 200),
}
SMOKE_POINTS = {q: (4, 3) for q in SCAN_POINTS}


def scan_specs(seed: int, smoke: bool = False) -> list[dict]:
    """Axis bounds (from the seed) and sizes of the four scan quantities."""
    rng = random.Random(seed)
    u = rng.uniform
    sign = rng.choice((1.0, -1.0))  # detuning and defect share a sign
    sizes = SMOKE_POINTS if smoke else SCAN_POINTS
    bounds = {
        "tau-vac": ((u(2.0, 10.0), u(50.0, 200.0), "linear"),
                    (_log_uniform(rng, 1e-6, 1e-5), _log_uniform(rng, 1e-3, 1e-2), "log"),
                    {}),
        "doppler-infidelity": ((u(0.5, 2.0), u(50.0, 200.0), "log"),
                               (u(5.0, 20.0), u(5000.0, 20000.0), "log"),
                               {"species": rng.choice(("cs", "rb"))}),
        "dressing-potential": ((u(0.1, 0.5), u(3.0, 8.0), "linear"),
                               (u(0.5, 1.0), u(2.0, 5.0), "linear"),
                               {"detuning_mhz": sign * u(8.0, 15.0),
                                "defect_mhz": sign * u(15.0, 30.0), "rc_um": u(1.0, 2.0)}),
        "lifetime": ((u(20.0, 40.0), u(150.0, 300.0), "linear"),
                     (u(0.0, 10.0), u(300.0, 400.0), "linear"),
                     {"tau0_ns": u(2.5, 3.5)}),
    }
    specs = []
    for quantity, (x, y, fixed) in bounds.items():
        nx, ny = sizes[quantity]
        specs.append({"quantity": quantity, "x": (x[0], x[1], nx, x[2]),
                      "y": (y[0], y[1], ny, y[2]), "fixed": fixed})
    return specs
