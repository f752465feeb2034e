"""Reproduction harness: recompute published reference values and compare.

Every quantitative checkpoint of the Cs/Rb neutral-atom error-budget model
set is recomputed from the library and checked against its published value
(or against an independent numeric oracle where the checkpoint is an
identity). The run is fully deterministic: Monte Carlo and random-grid
checks use fixed seeds. A second thread runs the Monte Carlo and then the last
block of the eigensolver oracle while the caller's thread computes everything
else; each has its own seed and entries are added in a fixed order. Both bound
their working set: the oracle solves its points in fixed blocks and the Monte
Carlo draws every block into one buffer.
"""

from __future__ import annotations

import math
import threading
import warnings

import numpy as np

from . import budget, core, dressing, gate_error
from .constants import MU_B
from .errors import ModelValidityWarning, _per_element, _Record
from .grid import Axis, scan
from .species import CESIUM
from .units import TWO_PI, Frequency

_EXACT = 1e-12  # relative tolerance standing in for "exact arithmetic"
# Seeds the Monte Carlo and the random oracle points; another seed fails the 3-sigma
# Monte Carlo checkpoint about once in 400 runs.
_SEED = 20250810
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi, the golden-section step
_SEARCH_STEPS = math.ceil(math.log(2.0**-26 / 16.0, _INV_GOLDEN))  # 44: ln x +- 8 to 2^-26
# Points the eigensolver oracle solves at once: bounds its temporaries, not its result
_ORACLE_BLOCK = 2500


class ReproEntry(_Record):
    __slots__ = ("label", "computed", "reference", "deviation", "tol_lo", "tol_hi", "passed")

    def __init__(self, label: str, computed: float, reference: float, deviation: float,
                 tol_lo: float, tol_hi: float, passed: bool) -> None:
        # the deviation is relative to the reference, absolute when reference == 0
        self._store(label, computed, reference, deviation, tol_lo, tol_hi, passed)


class ReproductionReport(_Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[ReproEntry, ...]) -> None:
        self._store(entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "entries": [e._asdict() for e in self.entries]}

    def format_lines(self) -> list[str]:
        lines = []
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            lines.append(
                f"[{mark}] {e.label}: computed={e.computed:.6g} "
                f"reference={e.reference:.6g} dev={e.deviation:+.3e} "
                f"tol=[{e.tol_lo:+.3e},{e.tol_hi:+.3e}]"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _entry(
    label: str, computed: float, reference: float, tol_lo: float, tol_hi: float
) -> ReproEntry:
    computed = float(computed)
    deviation = computed if reference == 0 else computed / reference - 1.0
    return ReproEntry(
        label=label,
        computed=computed,
        reference=float(reference),
        deviation=deviation,
        tol_lo=tol_lo,
        tol_hi=tol_hi,
        passed=tol_lo <= deviation <= tol_hi,
    )


def _band(label: str, computed: float, reference: float, lo: float, hi: float) -> ReproEntry:
    return _entry(label, computed, reference, lo / reference - 1.0, hi / reference - 1.0)


def _minimize_log(cost, centers: np.ndarray) -> np.ndarray:
    """Numeric 1-D minima of cost(x): golden-section searches (Kiefer 1953) on u = ln x.

    One search per element of the 1-D ``centers``, in lockstep: every step narrows
    each bracket ln(center) +- 8 by 1/phi, so all stop after ``_SEARCH_STEPS`` = 44,
    at a width of 2^-26 ~ sqrt(eps) in u. Within that of a smooth minimum the cost
    differs from its least value by less than its rounding: more steps compare noise.
    ``cost`` maps an array of x to the array of costs, element by element, so one call
    may search several cost functions, each on its own elements. ln and exp are taken
    per element, so each result is that of the scalar search.

    The state (a, b, c, d, fc, fd) and the step's new point and its cost are
    the rows of one array. The new point near + (1/phi) (far - near) is the
    scalar search's d - (1/phi) (d - a) or c + (1/phi) (b - c), bit for bit. A
    step takes each element's left or right successor state by flat index.
    """
    u = _per_element(math.log, centers)
    state = np.empty((8, u.size))
    a, b, c, d, fc, fd, point, value = state
    a[:], b[:] = u - 8.0, u + 8.0
    c[:], d[:] = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc[:], fd[:] = cost(_per_element(math.exp, c)), cost(_per_element(math.exp, d))
    # the successors as flat indices of state rows: the minimum lies in [a, d], else in [c, b]
    columns = np.arange(u.size)
    left_at = np.array([[0], [3], [6], [2], [7], [4]]) * u.size + columns
    right_at = np.array([[2], [1], [3], [6], [5], [7]]) * u.size + columns
    for _ in range(_SEARCH_STEPS):
        left = fc < fd
        near = np.where(left, d, c)
        np.add(near, _INV_GOLDEN * (np.where(left, a, b) - near), out=point)
        value[:] = cost(_per_element(math.exp, point))
        state[:6] = state.take(np.where(left, left_at, right_at))
    return _per_element(math.exp, 0.5 * (a + b))


def _gate_cost(x: np.ndarray, tau: np.ndarray, blockade: np.ndarray):
    """The gate error as a function of the Rabi frequency w: 7 pi / (4 w tau) + w^2 / (8 x^2)
    where ``blockade`` holds, else 8 pi x / (w^2 tau) + w^2 / x^2, each element with the
    operations of its own gate's formula in the same order."""
    numer = np.where(blockade, 7 * math.pi, 8 * math.pi * x)
    quad = np.where(blockade, 8 * x * x, x * x)

    def cost(w: np.ndarray) -> np.ndarray:
        ww = w * w
        return numer / (np.where(blockade, 4 * w, ww) * tau) + ww / quad

    return cost


def _minimizer_checks(rng: np.random.Generator, points: int = 100) -> list[float]:
    """Worst relative deviations of the blockade and dressing optima from a numeric minimizer.

    Each gate draws ``points`` random (x, tau) pairs, the blockade's first. One
    ``_minimize_log`` search then runs over both gates' centres: its first
    ``points`` elements minimize the blockade cost, the others the dressing
    cost, each element with the arithmetic of its own scalar search.
    """
    cases = (  # search center(x, tau), optimal Rabi frequency, minimal error
        (lambda b, tau: _per_element(pow, b * b / tau, 1 / 3),
         lambda b, tau: gate_error.optimal_rabi(b, tau).rad_per_s,
         gate_error.blockade_gate_error),
        (lambda det, tau: _per_element(pow, _per_element(pow, det, 3) / tau, 0.25),
         lambda det, tau: _per_element(pow, 8 * math.pi * _per_element(pow, det, 3) / tau, 0.25),
         gate_error.dressing_gate_error),
    )
    # log10 of x/2pi and tau: all the blockade's draws, then all the dressing's
    exponents = rng.uniform((6, -6), (9, -3), (len(cases) * points, 2))
    x_hz, tau = _per_element(lambda e: 10**e, exponents).T
    x = TWO_PI * x_hz
    parts = [slice(i, i + points) for i in range(0, x.size, points)]  # each gate's elements
    cost = _gate_cost(x, tau, np.arange(x.size) < points)

    worst = []
    # Some draws have Delta tau < 32 pi, where the dressing error exceeds 1 and warns;
    # the closed form is still the cost's minimum there, which is what is checked.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelValidityWarning)
        w_num = _minimize_log(cost, np.concatenate(
            [case[0](x[s], tau[s]) for case, s in zip(cases, parts)]))
        error_num = cost(w_num)
        for (_, w_opt, error_min), s in zip(cases, parts):
            w, v, t = w_num[s], x[s], tau[s]
            dev = np.maximum(abs(w / w_opt(v, t) - 1), abs(error_num[s] / error_min(v, t) - 1))
            worst.append(float(np.max(dev)))
    return worst


def _floor_variation(floor_fn, tau0: float) -> float:
    values = []
    for n in (50, 100, 200):
        shift = gate_error.rydberg_level_half_spacing(n)
        values.append(floor_fn(shift, tau0 * n**3))
    return max(values) / min(values) - 1.0


def _oracle_blocks(rng: np.random.Generator, points: int = 10000) -> list[list[np.ndarray]]:
    """The dressing oracle's random (Omega, Delta, D) points in rad/s, in blocks of
    ``_ORACLE_BLOCK``: a point's arithmetic is the same in any block."""
    det = rng.choice((-1.0, 1.0), points) * 10 ** rng.uniform(5, 9, points)
    rabi = abs(det) * rng.uniform(0.01, 2.0, points)
    shift = det * rng.uniform(-10.0, 10.0, points)
    return [[a[i:i + _ORACLE_BLOCK] for a in (rabi, det, shift)]
            for i in range(0, points, _ORACLE_BLOCK)]


def _slope(params: dressing.DressingParams, kind: str) -> float:
    r_c = params.pair.r_c
    radii = np.geomspace(r_c / 100, r_c / 20, 24)
    gaps = 1.0 - abs(dressing.normalized_potential(radii, params, kind))
    return float(np.polyfit(np.log(radii), np.log(gaps), 1)[0])


def _worked_example() -> dressing.DressingParams:
    # Cs n=100 dressing point, repulsive branch (matched negative signs)
    pair = dressing.PairInteraction(
        defect=Frequency.from_hz(-200e6), angular_factor=12.0, r_c=8.1e-6
    )
    return dressing.DressingParams(
        rabi=Frequency.from_hz(20e6),
        detuning=Frequency.from_hz(-100e6),
        pair=pair,
        lifetime=320e-6,
        spacing=1e-6,
    )


def reproduce(tau0_s: float = 3.3e-9, trials: int = 100000) -> ReproductionReport:
    """Recompute all reference checkpoints and return the comparison report."""
    trials = budget._trials(trials)  # checked here, before the worker starts
    entries: list[ReproEntry | None] = []
    add = entries.append

    # --- array budgets ---
    add(_entry("vacuum lifetime, 20-qubit code, t_qec=2 ms, eps=1e-4 [s]",
               budget.required_vacuum_lifetime(20, 2e-3, 1e-4), 400.0, -_EXACT, _EXACT))
    add(_entry("reload rate, 2000 qubits, tau_vac=400 s, eps=1e-4 [1/s]",
               budget.required_reload_rate(2000, 400.0, 1e-4), 5e4, -_EXACT, _EXACT))

    xt = budget.measurement_crosstalk(852e-9, 5 * 852e-9, 0.5, 0.5)
    add(_band("crosstalk absorption probability at 5-lambda spacing",
              xt.eta_abs, 0.0015, 0.0014, 0.0016))
    add(_band("crosstalk detection probability (NA=0.5, 50% efficiency)",
              xt.eta_det, 0.034, 0.033, 0.035))
    add(_band("crosstalk absorption/detection ratio", xt.ratio, 0.04, 0.040, 0.050))

    exact_p = -math.expm1(-20 * 2e-3 / 400.0)  # 1 - (per-atom survival)^20
    # A second thread runs the Monte Carlo and then the eigensolves of the dressing
    # oracle's last block, while this one solves its other blocks, every closed-form
    # block and every other checkpoint; numpy's draws and the stacked eigh release the
    # GIL. Whatever can warn runs on this thread, since warning filters are
    # process-wide. The worker is joined just before the return, and its two entries
    # fill the places kept for them, so the entries keep a fixed order.
    blocks = _oracle_blocks(np.random.default_rng(_SEED + 2))
    legs: list = []  # (Monte Carlo result, last exact block), or the worker's exception

    def worker_leg() -> None:
        try:
            legs.append((budget.simulate_loss(20, 400.0, 2e-3, trials, _SEED),
                         dressing.dressed_ground_energy_exact(*blocks[-1]).rad_per_s))
        except BaseException as exc:  # re-raised on the caller's thread after the join
            legs.append(exc)

    worker = threading.Thread(target=worker_leg)
    worker.start()
    try:
        exact = [dressing.dressed_ground_energy_exact(*b).rad_per_s for b in blocks[:-1]]
        closed = [dressing.dressed_ground_energy_closed_form(*b).rad_per_s for b in blocks]
        mc_row = len(entries)
        add(None)  # the Monte Carlo entry, filled after the join
        n = np.array([[1.0], [5.0], [20.0], [100.0]])  # code sizes down, t/tau_vac across
        f = np.geomspace(1e-7, 1e-3, 25)
        margin = np.max(budget.loss_probability(n, f * 400.0, 400.0) - n * f)
        add(_entry("linearized loss bound: max(P - N t/tau) over grid",
                   margin, 0.0, -1.0, 1e-15))

        # --- trap fields ---
        add(_band("magnetic trap field for 4 K depth [T]",
                  core.magnetic_trap_field(4.0, MU_B), 6.0, 5.8, 6.1))
        add(_band("magnetic trap field for 10 mK depth [mT]",
                  core.magnetic_trap_field(0.010, MU_B) * 1e3, 15.0, 14.5, 15.2))

        # --- gate-error floors and oracles ---
        add(_band("blockade gate error floor, tau0 n^3 lifetime",
                  gate_error.asymptotic_blockade_floor(tau0_s), 2e-5, 1.5e-5, 2.5e-5))
        add(_band("dressing gate error floor", gate_error.asymptotic_dressing_floor(tau0_s),
                  1.3e-3, 1.2e-3, 1.4e-3))
        add(_entry("blockade floor n-independence, n in {50,100,200} [rel spread]",
                   _floor_variation(gate_error.blockade_gate_error, tau0_s), 0.0, 0.0, 1e-10))
        add(_entry("dressing floor n-independence [rel spread]",
                   _floor_variation(gate_error.dressing_gate_error, tau0_s), 0.0, 0.0, 1e-10))

        deviations = _minimizer_checks(np.random.default_rng(_SEED + 1))
        for gate, dev in zip(("blockade", "dressing"), deviations):
            add(_entry(f"{gate} optimum vs numeric minimizer, 100 points [rel dev]",
                       dev, 0.0, 0.0, 1e-6))

        # --- Doppler dephasing ---
        k_one_photon = CESIUM.scheme("one-photon").effective_k
        zero_dev = max(
            abs(gate_error.doppler_fidelity(0.0, 5e-6, 1e-7, CESIUM.mass) - 1.0),
            abs(gate_error.doppler_fidelity(k_one_photon, 0.0, 1e-7, CESIUM.mass) - 1.0),
            abs(gate_error.doppler_fidelity(k_one_photon, 5e-6, 0.0, CESIUM.mass) - 1.0),
        )
        add(_entry("Doppler fidelity exactly 1 at zero k, T, or t", zero_dev, 0.0, 0.0, 0.0))
        group_dev = abs(
            gate_error.doppler_infidelity(k_one_photon, 5e-6, 2e-7, CESIUM.mass)
            - gate_error.doppler_infidelity(k_one_photon, 2e-5, 1e-7, CESIUM.mass)
        )
        add(_entry("Doppler exponent grouping (T,2t) == (4T,t)", group_dev, 0.0, 0.0, 0.0))
        dop_grid = scan(
            "doppler-infidelity",
            Axis("temperature", "uK", (1.0, 5.0, 25.0), "log"),
            Axis("rydberg_time", "ns", (100.0, 1000.0), "log"),
        )
        add(_band("Doppler grid cell -log10(1-F) at 5 uK, 100 ns, one-photon Cs",
                  -dop_grid.cell(1, 0), 3.5, 3.45, 3.55))

        # --- Stark budgets ---
        detuning_limit = gate_error.detuning_budget(Frequency.from_hz(20e6), 1e-5)
        add(_band("detuning budget for 1e-5 pi-pulse error at Omega/2pi=20 MHz [kHz]",
                  detuning_limit.hz / 1e3, 63.2, 62.0, 64.0))
        add(_band("dc field limit for 90 kHz detuning budget [1e-4 V/cm]",
                  gate_error.field_budget(Frequency.from_hz(90e3), 205.0) * 1e4, 6.6, 6.5, 6.7))

        # --- dressing stack ---
        params = _worked_example()
        det = params.detuning.rad_per_s
        defect = params.pair.defect.rad_per_s
        r_c = params.pair.r_c

        rb_matched = dressing.blockade_radius(defect, defect, r_c)
        add(_entry("blockade radius at Delta=delta over R_c/sqrt(2)",
                   rb_matched / (r_c / math.sqrt(2.0)), 1.0, -1e-12, 1e-12))
        r_b = dressing.blockade_radius(det, defect, r_c)
        add(_entry("pair shift at blockade radius over |Delta|",
                   abs(dressing.dipole_dipole_shift(r_b, defect, r_c).rad_per_s) / abs(det),
                   1.0, -1e-9, 1e-9))
        add(_entry("implied C3 round-trips the crossover radius",
                   dressing.crossover_radius(dressing.implied_c3(r_c, defect), defect) / r_c,
                   1.0, -1e-9, 1e-9))

        oracle_row = len(entries)
        add(None)  # the dressing oracle's entry, filled after the join
        w, d0 = TWO_PI * 20e6, TWO_PI * 100e6
        free_dev = abs(
            dressing.dressed_ground_energy_exact(w, d0, 0.0).rad_per_s
            / dressing.pair_light_shift_free(w, d0).rad_per_s - 1.0
        )
        blocked_dev = abs(
            dressing.dressed_ground_energy_exact(w, d0, 1e6 * d0).rad_per_s
            / dressing.pair_light_shift_blockaded(w, d0).rad_per_s - 1.0
        )
        add(_entry("dressed limits vs closed forms [rel dev]",
                   max(free_dev, blocked_dev), 0.0, 0.0, 1e-5))

        core_val = abs(dressing.normalized_potential(r_c / 1000.0, params, "full"))
        add(_entry("soft-core value |V| at R -> 0", core_val, 1.0, -1e-4, 1e-4))
        tail = abs(dressing.normalized_potential(1000.0 * r_c, params, "full"))
        add(_entry("soft-core tail |V| at R = 1000 R_c", tail, 0.0, 0.0, 1e-6))
        add(_entry("soft-core near-origin exponent, crossover pair shift",
                   _slope(params, "full"), 3.0, -0.1, 0.1))
        add(_entry("soft-core near-origin exponent, van der Waals pair shift",
                   _slope(params, "vdw"), 6.0, -0.05, 0.05))
        radii = np.geomspace(r_c / 100, 10 * r_c, 120)
        diffs = np.diff(dressing.normalized_potential(radii, params, "full"))
        non_monotone = int(np.sum(np.sign(diffs) != np.sign(diffs[0])))
        add(_entry("soft-core slope sign changes on core grid",
                   non_monotone, 0.0, 0.0, 0.0))
        add(_entry("single-term core scale over blockade radius at Delta=delta",
                   dressing.soft_core_scale(defect, defect, r_c)
                   / dressing.blockade_radius(defect, defect, r_c), 1.0, -1e-12, 1e-12))

        # --- worked dressing example ---
        records = dressing.figures_of_merit(params)
        f1 = records[0]
        depth = abs(dressing.dressing_depth_perturbative(params.rabi, params.detuning).hz)
        tau_dr = dressing.dressed_decoherence_time(params.rabi, params.detuning, params.lifetime)
        add(_band("dressing depth/2pi, perturbative [kHz]", depth / 1e3, 20.0, 19.6, 20.4))
        add(_band("dressing decoherence time tau_dr [ms]", tau_dr * 1e3, 16.0, 15.84, 16.16))
        add(_band("operations per atom, depth x tau_dr / 2pi",
                  dressing.operations_per_atom(params), 320.0, 310.4, 329.6))
        for rec, ref in zip(records, (6, 35, 160)):
            add(_entry(f"atoms in a {rec.dimension}D blockade volume (floored)",
                       rec.n_atoms_floored, ref, 0.0, 0.0))
        for rec, ref in zip(records, (2200.0, 11000.0, 51000.0)):
            add(_band(f"figure of merit F_{rec.dimension}D", rec.f, ref, 0.95 * ref, 1.05 * ref))
            add(_entry(f"F_{rec.dimension}D closed form vs composed route [rel dev]",
                       abs(rec.f / rec.f_composed - 1.0), 0.0, 0.0, 0.02))
        add(_band("avalanche-limited figure of merit F'", f1.f_prime, 640.0, 627.2, 652.8))
        for rec, ref in zip(records, (95.0, 18.0, 4.0)):
            add(_band(f"F' per atom, {rec.dimension}D", rec.f_prime_per_atom,
                      ref, 0.9 * ref, 1.1 * ref))

        # --- asymptotic scalings ---
        for quantity, ref in (("F_1D", 19 / 3), ("F_2D", 20 / 3), ("F_3D", 7.0)):
            exponent = dressing.scaling_exponent(quantity, 300, 600)
            add(_entry(f"scaling exponent of {quantity} over n in [300,600]",
                       exponent, ref, -0.05 / ref, 0.05 / ref))
        add(_entry("scaling exponent of F' (definitional, scales with detuning)",
                   dressing.scaling_exponent("F_prime", 300, 600), 6.0, -0.05 / 6, 0.05 / 6))
        add(_entry("scaling exponent of F' (defect-scaled variant; quoted value is 6)",
                   dressing.scaling_exponent("F_prime_defect", 300, 600), 7.0, -0.05 / 7, 0.05 / 7))

        # --- lifetime model and scan engine wiring ---
        add(_entry("Rydberg lifetime at n=100, T=0 [ms]",
                   core.rydberg_lifetime(100, 0.0, tau0_s) * 1e3, tau0_s * 1e9, -_EXACT, _EXACT))
        taus = [core.rydberg_lifetime(100, t_k, tau0_s) for t_k in (300.0, 77.0, 4.0)]
        ordered = 1.0 if taus[0] < taus[1] < taus[2] else 0.0
        add(_entry("lifetime ordering tau(300 K) < tau(77 K) < tau(4 K)", ordered, 1.0, 0.0, 0.0))
        vac_grid = scan(
            "tau-vac",
            Axis("n_code", "qubits", (4.0, 12.0, 20.0, 28.0), "linear"),
            Axis("epsilon", "", (1e-5, 1e-4, 1e-3, 1e-2), "log"),
        )
        add(_entry("scan cell tau_vac at N_code=20, eps=1e-4 [s]",
                   vac_grid.cell(2, 1), 400.0, -1e-9, 1e-9))
    finally:
        worker.join()
    if isinstance(legs[0], BaseException):
        raise legs[0]
    mc, last_exact = legs[0]
    sigma_dev = abs(mc.estimate - exact_p) / mc.standard_error if mc.standard_error else 0.0
    entries[mc_row] = _entry("Monte Carlo loss vs exact survival model [std errors]",
                             sigma_dev, 0.0, 0.0, 3.0)
    exact = np.concatenate([*exact, last_exact])
    eigen_dev = np.max(abs(np.concatenate(closed) - exact) / np.maximum(abs(exact), 1e-300))
    entries[oracle_row] = _entry("dressed energy: closed form vs eigensolver, 1e4 points "
                                 "[rel dev]", eigen_dev, 0.0, 0.0, 1e-9)
    return ReproductionReport(entries=tuple(entries))
