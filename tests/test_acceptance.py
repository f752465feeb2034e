"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion (each test also prints its verdict under ``-s``).
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import rydkit
from rydkit import CESIUM, DressingParams, Frequency, PairInteraction
from rydkit.cli import main
from rydkit.constants import MU_B
from rydkit.dressing import dressed_decoherence_time
from rydkit.gate_error import rydberg_level_half_spacing
from rydkit.units import TWO_PI

GOLDEN = Path(__file__).parent / "golden"

WORKED = DressingParams(
    rabi=Frequency.from_hz(20e6),
    detuning=Frequency.from_hz(-100e6),
    pair=PairInteraction(defect=Frequency.from_hz(-200e6), r_c=8.1e-6),
    lifetime=320e-6,
    spacing=1e-6,
)


def _announce(number: int, text: str) -> None:
    print(f"criterion {number:02d} ({text}): PASS")


def _minimize_log(cost, center):
    res = minimize_scalar(
        lambda u: cost(math.exp(u)),
        bounds=(math.log(center) - 8.0, math.log(center) + 8.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return math.exp(res.x)


def test_criterion_01_budget_checkpoints():
    assert rydkit.required_vacuum_lifetime(20, 2e-3, 1e-4) == 400.0
    assert rydkit.required_reload_rate(2000, 400.0, 1e-4) == 5e4
    _announce(1, "loss and reload budget checkpoints")


def test_criterion_02_crosstalk():
    lam = 852e-9
    est = rydkit.measurement_crosstalk(lam, 5 * lam, 0.5, 0.5)
    assert 0.0014 <= est.eta_abs <= 0.0016
    assert 0.033 <= est.eta_det <= 0.035
    assert 0.040 <= est.ratio <= 0.050
    _announce(2, "measurement crosstalk estimates")


def test_criterion_03_gate_error_floors():
    blockade_floor = rydkit.asymptotic_blockade_floor(3.3e-9)
    assert 1.5e-5 <= blockade_floor <= 2.5e-5
    dressing_values = []
    blockade_values = []
    for n in (50, 100, 200):
        shift = rydberg_level_half_spacing(n)
        tau = 3.3e-9 * n**3
        blockade_values.append(rydkit.blockade_gate_error(shift, tau))
        dressing_values.append(rydkit.dressing_gate_error(shift, tau))
    assert 1.2e-3 <= dressing_values[0] <= 1.4e-3
    assert max(blockade_values) / min(blockade_values) - 1 < 1e-10
    assert max(dressing_values) / min(dressing_values) - 1 < 1e-10
    assert blockade_values[0] == pytest.approx(blockade_floor, rel=1e-10)
    _announce(3, "asymptotic gate-error floors, n-independent")


# The draws include Delta tau < 32 pi, where the dressing error exceeds 1 and is flagged.
@pytest.mark.filterwarnings("ignore::rydkit.errors.ModelValidityWarning")
def test_criterion_04_minimizer_oracle_equivalence():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        b = TWO_PI * 10 ** rng.uniform(6, 9)
        tau = 10 ** rng.uniform(-6, -3)
        cost = lambda w: 7 * math.pi / (4 * w * tau) + w * w / (8 * b * b)
        w_num = _minimize_log(cost, (b * b / tau) ** (1 / 3))
        assert w_num == pytest.approx(rydkit.optimal_rabi(b, tau).rad_per_s, rel=1e-6)
        assert cost(w_num) == pytest.approx(rydkit.blockade_gate_error(b, tau), rel=1e-6)
    for _ in range(100):
        det = TWO_PI * 10 ** rng.uniform(6, 9)
        tau = 10 ** rng.uniform(-6, -3)
        cost = lambda w: 8 * math.pi * det / (w * w * tau) + w * w / (det * det)
        w_num = _minimize_log(cost, (det**3 / tau) ** 0.25)
        assert cost(w_num) == pytest.approx(rydkit.dressing_gate_error(det, tau), rel=1e-6)
    _announce(4, "numeric minimizer reproduces closed-form optima")


def test_criterion_05_magnetic_trap():
    assert 5.8 <= rydkit.magnetic_trap_field(4.0, MU_B) <= 6.1
    assert 14.5e-3 <= rydkit.magnetic_trap_field(0.010, MU_B) <= 15.2e-3
    _announce(5, "magnetic trap field estimates")


def test_criterion_06_stark_field_budget():
    field = rydkit.field_budget(Frequency.from_hz(90e3), 205.0)
    assert 6.5e-4 <= field <= 6.7e-4
    _announce(6, "Stark field budget")


def test_criterion_07_dressing_worked_example():
    records = rydkit.figures_of_merit(WORKED)
    by_dim = {r.dimension: r for r in records}
    depth = abs(rydkit.dressing_depth_perturbative(WORKED.rabi, WORKED.detuning).hz)
    tau_dr = dressed_decoherence_time(WORKED.rabi, WORKED.detuning, WORKED.lifetime)
    assert depth == pytest.approx(20e3, rel=0.02)
    assert tau_dr == pytest.approx(16e-3, rel=0.01)
    ops = depth * tau_dr
    assert ops == pytest.approx(320.0, rel=0.03)
    assert [by_dim[d].n_atoms_floored for d in (1, 2, 3)] == [6, 35, 160]
    for dim, ref in ((1, 2200.0), (2, 11000.0), (3, 51000.0)):
        assert by_dim[dim].f == pytest.approx(ref, rel=0.05)
    assert by_dim[1].f_prime == pytest.approx(640.0, rel=0.02)
    for dim, ref in ((1, 95.0), (2, 18.0), (3, 4.0)):
        assert by_dim[dim].f_prime_per_atom == pytest.approx(ref, rel=0.10)
    _announce(7, "Cs n=100 dressing worked example")


def test_criterion_08_blockade_radius_identities():
    defect = WORKED.pair.defect
    r_c = WORKED.pair.r_c
    matched = rydkit.blockade_radius(defect, defect, r_c)
    assert matched == pytest.approx(r_c / math.sqrt(2), rel=1e-12)
    r_b = rydkit.blockade_radius(WORKED.detuning, defect, r_c)
    shift = rydkit.dipole_dipole_shift(r_b, defect, r_c)
    assert abs(shift.rad_per_s) == pytest.approx(abs(WORKED.detuning.rad_per_s), rel=1e-9)
    _announce(8, "blockade radius identities")


def test_criterion_09_eigensolver_vs_closed_form():
    rng = np.random.default_rng(40)
    points = []
    for _ in range(10000):
        det = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(5, 9)
        w = abs(det) * rng.uniform(0.01, 2.0)
        points.append((w, det, det * rng.uniform(-10.0, 10.0)))
    w, det, dd = map(np.array, zip(*points))  # each route solves all points in one call
    exact = rydkit.dressed_ground_energy_exact(w, det, dd).rad_per_s
    closed = rydkit.dressed_ground_energy_closed_form(w, det, dd).rad_per_s
    worst = np.max(np.abs(closed - exact) / np.maximum(np.abs(exact), 1e-300))
    assert worst < 1e-9
    w, det = TWO_PI * 20e6, TWO_PI * 100e6
    from rydkit.dressing import pair_light_shift_blockaded, pair_light_shift_free

    assert rydkit.dressed_ground_energy_exact(w, det, 0.0).rad_per_s == pytest.approx(
        pair_light_shift_free(w, det).rad_per_s, rel=1e-5
    )
    assert rydkit.dressed_ground_energy_exact(w, det, 1e6 * det).rad_per_s == pytest.approx(
        pair_light_shift_blockaded(w, det).rad_per_s, rel=1e-5
    )
    _announce(9, "closed-form dressed energy vs eigensolver")


def test_criterion_10_soft_core_shape():
    r_c = WORKED.pair.r_c
    assert abs(rydkit.normalized_potential(r_c / 1000, WORKED)) == pytest.approx(1.0, abs=1e-4)
    assert abs(rydkit.normalized_potential(1000 * r_c, WORKED)) < 1e-6
    radii = np.geomspace(r_c / 100, 10 * r_c, 150)
    values = [rydkit.normalized_potential(r, WORKED) for r in radii]
    diffs = np.diff(values)
    assert np.all(np.sign(diffs) == np.sign(diffs[0]))
    for kind, target in (("full", 3.0), ("vdw", 6.0)):
        fit_radii = np.geomspace(r_c / 100, r_c / 20, 24)
        gaps = [1.0 - abs(rydkit.normalized_potential(r, WORKED, kind)) for r in fit_radii]
        slope = np.polyfit(np.log(fit_radii), np.log(gaps), 1)[0]
        assert slope == pytest.approx(target, abs=0.3)
    from rydkit.dressing import soft_core_scale

    defect = WORKED.pair.defect
    assert soft_core_scale(defect, defect, r_c) == pytest.approx(
        rydkit.blockade_radius(defect, defect, r_c), rel=1e-12
    )
    _announce(10, "soft-core curve shape properties")


def test_criterion_11_scaling_exponents():
    assert rydkit.scaling_exponent("F_1D", 300, 600) == pytest.approx(19 / 3, abs=0.05)
    assert rydkit.scaling_exponent("F_2D", 300, 600) == pytest.approx(20 / 3, abs=0.05)
    assert rydkit.scaling_exponent("F_3D", 300, 600) == pytest.approx(7.0, abs=0.05)
    # the avalanche figure of merit: its definitional form scales as n^6 (the
    # quoted asymptotic), while the defect-scaled variant of the same quantity
    # scales as n^7 - both are reported
    assert rydkit.scaling_exponent("F_prime", 300, 600) == pytest.approx(6.0, abs=0.05)
    assert rydkit.scaling_exponent("F_prime_defect", 300, 600) == pytest.approx(7.0, abs=0.05)
    _announce(11, "asymptotic scaling exponents")


def test_criterion_12_monte_carlo_oracle():
    n, tau, t = 20, 400.0, 2e-3
    exact = 1.0 - math.exp(-t / tau) ** n
    mc = rydkit.simulate_loss(n, tau, t, 100000, seed=20250810)
    assert abs(mc.estimate - exact) <= 3 * mc.standard_error
    for frac in np.geomspace(1e-7, 1e-3, 20):
        assert rydkit.loss_probability(n, frac * tau, tau) <= n * frac
    _announce(12, "Monte Carlo loss oracle and linearized bound")


def test_criterion_13_doppler_properties(capsys):
    k = CESIUM.scheme("one-photon").effective_k
    m = CESIUM.mass
    assert rydkit.doppler_fidelity(0.0, 5e-6, 1e-7, m) == 1.0
    assert rydkit.doppler_fidelity(k, 0.0, 1e-7, m) == 1.0
    assert rydkit.doppler_fidelity(k, 5e-6, 0.0, m) == 1.0
    for temp, t in ((5e-6, 1e-7), (1e-4, 1e-6), (1e-3, 1e-6)):
        fid = rydkit.doppler_fidelity(k, temp, t, m)
        assert 0.5 < fid <= 1.0
    # one-half is approached only as the dephasing exponent diverges
    assert rydkit.doppler_fidelity(k, 1.0, 1e-4, m) == pytest.approx(0.5, abs=1e-12)
    assert rydkit.doppler_infidelity(k, 5e-6, 2e-7, m) == rydkit.doppler_infidelity(
        k, 2e-5, 1e-7, m
    )
    assert main([
        "doppler", "--scan", "--temp-min-uk", "1", "--temp-max-uk", "100",
        "--temp-points", "5", "--time-min-ns", "10", "--time-max-ns", "1000",
        "--time-points", "4",
    ]) == 0
    assert capsys.readouterr().out == (GOLDEN / "doppler_grid.csv").read_text()
    _announce(13, "Doppler fidelity properties and grid emission")


def test_criterion_14_reproduction_report():
    report = rydkit.reproduce(trials=20000)
    failures = [e.label for e in report.entries if not e.passed]
    assert report.passed, f"failing entries: {failures}"
    # deterministic: identical values on a second run
    assert report.to_dict() == rydkit.reproduce(trials=20000).to_dict()
    # sensitivity: a 10% shift of tau0 pushes a floor entry out of its band
    perturbed = rydkit.reproduce(tau0_s=3.3e-9 * 1.1, trials=20000)
    assert not perturbed.passed
    _announce(14, "reproduction report aggregates and gates")
