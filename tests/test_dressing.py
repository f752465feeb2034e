import math
import warnings

import numpy as np
import pytest

from rydkit import (
    BranchResidualWarning,
    DomainError,
    DressingParams,
    Frequency,
    ModelValidityWarning,
    PairInteraction,
    blockade_radius,
    crossover_radius,
    dipole_dipole_shift,
    dressed_ground_energy_closed_form,
    dressed_ground_energy_exact,
    dressing_depth_exact,
    dressing_depth_perturbative,
    figures_of_merit,
    implied_c3,
    normalized_potential,
    scaling_exponent,
    vdw_shift,
)
from rydkit.dressing import (
    _closed_form_fom,
    dressed_decoherence_time,
    f_prime,
    f_prime_defect,
    operations_per_atom,
    pair_light_shift_blockaded,
    pair_light_shift_free,
    soft_core_scale,
)
from rydkit.units import TWO_PI

RC = 8.1e-6
DEFECT = Frequency.from_hz(-200e6)
DETUNING = Frequency.from_hz(-100e6)


def worked_params() -> DressingParams:
    return DressingParams(
        rabi=Frequency.from_hz(20e6),
        detuning=DETUNING,
        pair=PairInteraction(defect=DEFECT, r_c=RC),
        lifetime=320e-6,
        spacing=1e-6,
    )


def _with(params: DressingParams, **changes) -> DressingParams:
    """``params`` with some fields changed, built (and checked) as a new point."""
    return DressingParams(**{**params._asdict(), **changes})


def weak_attractive_params() -> DressingParams:
    # attractive branch (positive detuning and defect), weak dressing
    return DressingParams(
        rabi=Frequency.from_hz(1e6),
        detuning=Frequency.from_hz(10e6),
        pair=PairInteraction(defect=Frequency.from_hz(20e6), r_c=1.5e-6),
        lifetime=1.0,
        spacing=1e-6,
    )


class TestPairShifts:
    def test_dipole_dipole_vanishes_at_infinity(self):
        shift = dipole_dipole_shift(1e3 * RC, DEFECT, RC)
        assert abs(shift.rad_per_s) < 1e-12 * abs(DEFECT.rad_per_s)

    def test_dipole_dipole_at_crossover(self):
        expected = 0.5 * DEFECT.rad_per_s * (1 - math.sqrt(2))
        assert dipole_dipole_shift(RC, DEFECT, RC).rad_per_s == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("frac", [1 / 5, 1 / 10, 1 / 50])
    def test_short_range_resonant_asymptote(self, frac):
        r = frac * RC
        resonant = -0.5 * DEFECT.rad_per_s * (RC / r) ** 3
        assert dipole_dipole_shift(r, DEFECT, RC).rad_per_s == pytest.approx(
            resonant, rel=1e-2
        )

    def test_vdw_at_crossover(self):
        assert vdw_shift(RC, DEFECT, RC).rad_per_s == pytest.approx(
            -DEFECT.rad_per_s / 4, rel=1e-14
        )

    def test_vdw_matches_dipole_dipole_at_long_range(self):
        r = 10 * RC
        ratio = dipole_dipole_shift(r, DEFECT, RC).rad_per_s / vdw_shift(r, DEFECT, RC).rad_per_s
        assert ratio == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_vdw_sign_opposite_to_defect(self, sign):
        shift = vdw_shift(RC, sign * TWO_PI * 2e8, RC)
        assert shift.rad_per_s * sign < 0

    def test_zero_separation_singular(self):
        with pytest.raises(DomainError):
            dipole_dipole_shift(0.0, DEFECT, RC)
        with pytest.raises(DomainError):
            vdw_shift(0.0, DEFECT, RC)


class TestCrossoverRadius:
    def test_defect_scaling(self):
        base = crossover_radius(15.0, TWO_PI * 2e8)
        assert crossover_radius(15.0, TWO_PI * 4e8) == pytest.approx(
            base / 2 ** (1 / 3), rel=1e-12
        )

    def test_c3_scaling(self):
        base = crossover_radius(15.0, TWO_PI * 2e8)
        assert crossover_radius(30.0, TWO_PI * 2e8) == pytest.approx(
            base * 2 ** (1 / 3), rel=1e-12
        )

    def test_implied_c3_round_trip(self):
        c3 = implied_c3(RC, DEFECT)
        assert c3 == pytest.approx(15.3414, rel=1e-4)  # GHz um^3 behind the 8.1 um radius
        assert crossover_radius(c3, DEFECT) == pytest.approx(RC, rel=1e-9)

    def test_pair_interaction_consistency_check(self):
        c3 = implied_c3(RC, DEFECT)
        pair = PairInteraction(defect=DEFECT, c3=c3, r_c=RC)
        assert pair.r_c == RC
        derived = PairInteraction(defect=DEFECT, c3=c3)
        assert derived.r_c == pytest.approx(RC, rel=1e-12)
        # stored as checked: a raw defect in rad/s, c3 given as text
        assert PairInteraction(defect=DEFECT.rad_per_s, c3=str(c3)) == derived
        with pytest.raises(DomainError):
            PairInteraction(defect=DEFECT, c3=c3, r_c=1.01 * RC)
        with pytest.raises(DomainError):
            PairInteraction(defect=DEFECT)

    @pytest.mark.parametrize("fields", [
        {"c3": np.array([5.0, 6.0]), "r_c": np.array([1e-6, 1e-6])},
        {"c3": np.array([5.0, 6.0])},
        {"r_c": np.array([1e-6, 2e-6])},
        {"defect": Frequency(np.array([1e9, 2e9])), "r_c": 1e-6},
        {"angular_factor": np.array([12.0]), "r_c": 1e-6},
    ], ids=["c3-and-r_c", "c3", "r_c", "defect", "angular-factor"])
    def test_pair_interaction_fields_are_scalars(self, fields):
        with pytest.raises(DomainError, match="must be a scalar, not an array"):
            PairInteraction(**{"defect": 1e9, **fields})


class TestBlockadeRadius:
    def test_matched_detuning_identity(self):
        assert blockade_radius(DEFECT, DEFECT, RC) == pytest.approx(
            RC / math.sqrt(2), rel=1e-12
        )

    def test_worked_point(self):
        r_b = blockade_radius(DETUNING, DEFECT, RC)
        assert r_b == pytest.approx(0.83268 * RC, rel=1e-4)
        assert r_b == pytest.approx(6.7447e-6, rel=1e-4)

    def test_linear_in_crossover_radius(self):
        assert blockade_radius(DETUNING, DEFECT, 2 * RC) == pytest.approx(
            2 * blockade_radius(DETUNING, DEFECT, RC), rel=1e-14
        )

    def test_sign_mismatch_names_resonance(self):
        with pytest.raises(DomainError, match="resonance"):
            blockade_radius(Frequency.from_hz(100e6), DEFECT, RC)

    def test_definitional_round_trip(self):
        # |pair shift| at R_b equals |detuning| by construction
        r_b = blockade_radius(DETUNING, DEFECT, RC)
        shift = dipole_dipole_shift(r_b, DEFECT, RC)
        assert abs(shift.rad_per_s) == pytest.approx(abs(DETUNING.rad_per_s), rel=1e-9)


class TestDressedEnergy:
    @pytest.mark.parametrize("det_sign", [1.0, -1.0])
    def test_noninteracting_limit(self, det_sign):
        det = det_sign * TWO_PI * 100e6
        w = TWO_PI * 20e6
        expected = pair_light_shift_free(w, det).rad_per_s
        got = dressed_ground_energy_exact(w, det, 0.0).rad_per_s
        assert got == pytest.approx(expected, rel=1e-12)
        closed = dressed_ground_energy_closed_form(w, det, 0.0).rad_per_s
        assert closed == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("det_sign", [1.0, -1.0])
    def test_blockaded_limit(self, det_sign):
        det = det_sign * TWO_PI * 100e6
        w = TWO_PI * 20e6
        got = dressed_ground_energy_exact(w, det, 1e6 * abs(det)).rad_per_s
        assert got == pytest.approx(
            pair_light_shift_blockaded(w, det).rad_per_s, rel=1e-5
        )

    def test_bare_ground_state_at_zero_rabi(self):
        assert dressed_ground_energy_exact(0.0, TWO_PI * 1e8, TWO_PI * 5e7).rad_per_s == 0.0
        assert dressed_ground_energy_closed_form(0.0, TWO_PI * 1e8, TWO_PI * 5e7).rad_per_s == 0.0

    def test_against_independent_eigensolver(self):
        # oracle rebuilt from scratch: dense symmetric matrix, all eigenpairs
        for det, ratio, dd_ratio in [
            (TWO_PI * 1e7, 0.1, -3.0),
            (TWO_PI * 1e7, 0.5, 1.7),
            (-TWO_PI * 2e8, 0.2, -0.5),
            (TWO_PI * 5e8, 1.5, 8.0),
            (-TWO_PI * 3e6, 0.05, 0.0),
        ]:
            w = abs(det) * ratio
            dd = det * dd_ratio
            h = np.array(
                [
                    [0.0, w / math.sqrt(2), 0.0],
                    [w / math.sqrt(2), -det, w / math.sqrt(2)],
                    [0.0, w / math.sqrt(2), -2 * det + dd],
                ]
            )
            vals, vecs = np.linalg.eigh(h)
            expected = vals[int(np.argmax(np.abs(vecs[0])))]
            assert dressed_ground_energy_exact(w, det, dd).rad_per_s == pytest.approx(
                expected, rel=1e-12
            )

    def test_closed_form_matches_eigensolver_on_grid(self):
        # 40 points per row so the grid skips the exact pair-state degeneracy
        # at dd = 2 Delta, where the selected eigenvalue is identically zero
        worst = 0.0
        for det in (TWO_PI * 1e8, -TWO_PI * 1e8):
            for ratio in np.geomspace(0.01, 2.0, 25):
                for dd_frac in np.linspace(-10.0, 10.0, 40):
                    w = abs(det) * ratio
                    dd = det * dd_frac
                    exact = dressed_ground_energy_exact(w, det, dd).rad_per_s
                    closed = dressed_ground_energy_closed_form(w, det, dd).rad_per_s
                    worst = max(worst, abs(closed - exact) / max(abs(exact), 1e-300))
        assert worst < 1e-9

    def test_closed_form_matches_on_random_points(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(2000):
            det = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(5, 9)
            w = abs(det) * rng.uniform(0.01, 2.0)
            dd = det * rng.uniform(-10.0, 10.0)
            exact = dressed_ground_energy_exact(w, det, dd).rad_per_s
            closed = dressed_ground_energy_closed_form(w, det, dd).rad_per_s
            worst = max(worst, abs(closed - exact) / max(abs(exact), 1e-300))
        assert worst < 1e-9

    def test_reference_spot_value(self):
        # soft-core point at R = R_c for Omega/2pi=1, Delta/2pi=10, delta/2pi=20 MHz
        dd = dipole_dipole_shift(1.5e-6, TWO_PI * 20e6, 1.5e-6).rad_per_s
        exact = dressed_ground_energy_exact(TWO_PI * 1e6, TWO_PI * 10e6, dd).rad_per_s
        closed = dressed_ground_energy_closed_form(TWO_PI * 1e6, TWO_PI * 10e6, dd).rad_per_s
        assert exact == pytest.approx(313245.013, rel=1e-9)
        assert closed == pytest.approx(exact, rel=1e-9)

    def test_continuity_along_physical_path(self):
        # paths with sign(pair shift) opposite to sign(detuning) cross no resonance
        det = TWO_PI * 10e6
        w = 0.1 * det
        path = np.linspace(-10 * det, 0.0, 4001)
        energies = [dressed_ground_energy_exact(w, det, dd).rad_per_s for dd in path]
        max_jump = max(abs(b - a) for a, b in zip(energies, energies[1:]))
        assert max_jump < 1e-6 * det

    def test_depth_perturbative_accuracy_bound(self):
        for ratio in (0.05, 0.1, 0.2, 0.3):
            det = TWO_PI * 100e6
            w = ratio * det
            exact = dressing_depth_exact(w, det).rad_per_s
            pert = dressing_depth_perturbative(w, det).rad_per_s
            assert abs(exact - pert) / abs(exact) < 2 * ratio**2

    # The energies are homogeneous of degree 1 in (Omega, Delta, D): scaled by 2^k, an
    # energy is 2^k times itself, bit for bit. The points are drawn as the reproduce
    # oracle draws them, with |Delta| from 1e3 rad/s: even at 2^-7 of the smallest
    # draw the matrix scale stays clear of its 1 rad/s floor, where homogeneity would
    # hold only to rounding. With Omega/|Delta| in [0.01, 2] the closed form issues no
    # BranchResidualWarning.
    @pytest.mark.parametrize("k", [-7, -3, 1, 3, 20])
    @pytest.mark.parametrize("solver", [dressed_ground_energy_exact,
                                        dressed_ground_energy_closed_form],
                             ids=["exact", "closed_form"])
    def test_energy_is_homogeneous_of_degree_one(self, solver, k):
        rng = np.random.default_rng(12)
        det = rng.choice((-1.0, 1.0), 2000) * 10 ** rng.uniform(3, 9, 2000)
        rabi = abs(det) * rng.uniform(0.01, 2.0, 2000)
        shift = det * rng.uniform(-10.0, 10.0, 2000)
        energy = solver(rabi, det, shift).rad_per_s
        scaled = solver(2.0**k * rabi, 2.0**k * det, 2.0**k * shift).rad_per_s
        np.testing.assert_array_equal(scaled, 2.0**k * energy)


class TestNormalizedPotential:
    def test_core_saturates_to_unity(self):
        params = weak_attractive_params()
        r_c = params.pair.r_c
        assert abs(normalized_potential(r_c / 1000, params)) == pytest.approx(1.0, abs=1e-4)

    def test_tail_vanishes(self):
        params = weak_attractive_params()
        assert abs(normalized_potential(1000 * params.pair.r_c, params)) < 1e-6

    @pytest.mark.parametrize("kind, target", [("full", 3.0), ("vdw", 6.0)])
    def test_near_origin_exponent(self, kind, target):
        params = weak_attractive_params()
        r_c = params.pair.r_c
        radii = np.geomspace(r_c / 100, r_c / 20, 24)
        gaps = [1.0 - abs(normalized_potential(r, params, kind)) for r in radii]
        slope = np.polyfit(np.log(radii), np.log(gaps), 1)[0]
        assert slope == pytest.approx(target, abs=0.3)

    def test_monotone_soft_core(self):
        params = weak_attractive_params()
        r_c = params.pair.r_c
        radii = np.geomspace(r_c / 100, 10 * r_c, 200)
        values = [normalized_potential(r, params) for r in radii]
        diffs = np.diff(values)
        assert np.all(np.sign(diffs) == np.sign(diffs[0]))

    def test_single_term_core_scale_equals_blockade_radius_at_matched_detuning(self):
        defect = Frequency.from_hz(10e6)
        xi = soft_core_scale(defect, defect, 1.5e-6)
        assert xi == pytest.approx(blockade_radius(defect, defect, 1.5e-6), rel=1e-12)

    def test_vdw_and_single_term_agree_in_weak_dressing(self):
        params = weak_attractive_params()
        r_c = params.pair.r_c
        worst = max(
            abs(
                normalized_potential(r, params, "vdw")
                - normalized_potential(r, params, "single_term")
            )
            for r in np.geomspace(r_c / 50, 20 * r_c, 120)
        )
        assert worst < 0.02

    def test_repulsive_branch_core_is_positive(self):
        params = worked_params()  # negative detuning and defect
        v0 = normalized_potential(params.pair.r_c / 1000, params)
        assert v0 == pytest.approx(1.0, abs=1e-4)
        v0_single = normalized_potential(params.pair.r_c / 1000, params, "single_term")
        assert v0_single == pytest.approx(1.0, abs=1e-3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            normalized_potential(1e-6, weak_attractive_params(), "bogus")

    def test_sign_mismatch_rejected(self):
        with pytest.raises(DomainError, match="resonance"):
            DressingParams(
                rabi=Frequency.from_hz(1e6),
                detuning=Frequency.from_hz(-10e6),
                pair=PairInteraction(defect=Frequency.from_hz(20e6), r_c=1.5e-6),
                lifetime=1.0,
                spacing=1e-6,
            )


class TestFiguresOfMerit:
    def test_worked_example(self):
        params = worked_params()
        records = figures_of_merit(params)
        by_dim = {r.dimension: r for r in records}
        depth = dressing_depth_perturbative(params.rabi, params.detuning)
        assert abs(depth.hz) == pytest.approx(20e3, rel=0.02)
        assert dressed_decoherence_time(
            params.rabi, params.detuning, params.lifetime
        ) == pytest.approx(16e-3, rel=0.01)
        assert operations_per_atom(worked_params()) == pytest.approx(320.0, rel=0.03)
        assert [by_dim[d].n_atoms_floored for d in (1, 2, 3)] == [6, 35, 160]
        assert by_dim[1].f == pytest.approx(2200, rel=0.05)
        assert by_dim[2].f == pytest.approx(11000, rel=0.05)
        assert by_dim[3].f == pytest.approx(51000, rel=0.05)
        assert by_dim[1].f_prime == pytest.approx(640.0, rel=0.02)
        assert by_dim[1].f_prime_per_atom == pytest.approx(95.0, rel=0.10)
        assert by_dim[2].f_prime_per_atom == pytest.approx(18.0, rel=0.10)
        assert by_dim[3].f_prime_per_atom == pytest.approx(4.0, rel=0.10)

    def test_frozen_values(self):
        records = figures_of_merit(worked_params())
        assert records[0].n_atoms == pytest.approx(6.744734, rel=1e-6)
        assert records[1].n_atoms == pytest.approx(35.72889, rel=1e-6)
        assert records[2].n_atoms == pytest.approx(160.6546, rel=1e-6)
        assert records[0].f == pytest.approx(2158.315, rel=1e-6)
        assert records[1].f == pytest.approx(11433.24, rel=1e-6)
        assert records[2].f == pytest.approx(51409.46, rel=1e-6)

    def test_closed_form_matches_the_written_out_forms(self):
        # F_d spelled out once per dimension; the closed form must equal each bit for bit.
        # Arguments: Omega^2, |delta|, |Delta|, |Delta + delta|, tau, R_c/a.
        reference = {
            1: lambda w2, dq, dt, s, tau, x: (
                w2 * dq ** (1 / 3) / (2.0 ** (1 / 3) * 8.0 * math.pi)
                / (dt ** (7 / 6) * s ** (1 / 6)) * tau * x
            ),
            2: lambda w2, dq, dt, s, tau, x: (
                w2 * dq ** (2 / 3) / (2.0 ** (2 / 3) * 32.0)
                / (dt ** (4 / 3) * s ** (1 / 3)) * tau * x**2
            ),
            3: lambda w2, dq, dt, s, tau, x: (
                w2 * dq / 96.0 / (dt ** (3 / 2) * s ** (1 / 2)) * tau * x**3
            ),
        }
        rng = np.random.default_rng(61)
        for dim, expected in reference.items():
            for rabi, *rest in _log_uniform(rng, 1e-5, 1e12, (2000, 6)).tolist():
                assert _closed_form_fom(dim, rabi, *rest) == expected(rabi * rabi, *rest)

    def test_closed_form_vs_composed_route(self):
        for record in figures_of_merit(worked_params()):
            assert record.f == pytest.approx(record.f_composed, rel=0.02)

    def test_lifetime_linearity(self):
        base = figures_of_merit(worked_params())
        doubled_params = DressingParams(
            rabi=Frequency.from_hz(20e6),
            detuning=DETUNING,
            pair=PairInteraction(defect=DEFECT, r_c=RC),
            lifetime=2 * 320e-6,
            spacing=1e-6,
        )
        doubled = figures_of_merit(doubled_params)
        for a, b in zip(base, doubled):
            assert b.f == pytest.approx(2 * a.f, rel=1e-12)
            assert b.f_composed == pytest.approx(2 * a.f_composed, rel=1e-12)
            assert b.f_prime == pytest.approx(2 * a.f_prime, rel=1e-12)

    def test_f_prime_forms(self):
        params = worked_params()
        assert f_prime(params.rabi, params.detuning, params.lifetime) == pytest.approx(
            640.0, rel=1e-9
        )
        # the defect-scaled variant is half the definitional one here (|delta| = 2 |Delta|)
        assert f_prime_defect(params.rabi, DEFECT, params.lifetime) == pytest.approx(
            320.0, rel=1e-9
        )

    def test_sign_mismatch_rejected(self):
        with pytest.raises(DomainError, match="resonance"):
            DressingParams(
                rabi=Frequency.from_hz(20e6),
                detuning=Frequency.from_hz(100e6),
                pair=PairInteraction(defect=DEFECT, r_c=RC),
                lifetime=320e-6,
                spacing=1e-6,
            )

    def test_zero_detuning_rejected(self):
        with pytest.raises(DomainError, match="detuning must be nonzero"):
            _with(worked_params(), detuning=Frequency(0.0))

    def test_operations_per_atom_needs_matched_signs(self):
        # the same point as the worked example, with the detuning's sign flipped
        with pytest.raises(DomainError, match="opposite signs"):
            operations_per_atom(_with(worked_params(), detuning=Frequency.from_hz(100e6)))

    def test_raw_floats_are_stored_as_the_checked_values(self):
        # raw floats are rad/s, as everywhere; text parses as a number
        raw = DressingParams(
            rabi=Frequency.from_hz(20e6).rad_per_s,
            detuning=DETUNING.rad_per_s,
            pair=PairInteraction(defect=DEFECT.rad_per_s, angular_factor="12", r_c=str(RC)),
            lifetime=np.float64(320e-6),
            spacing=1e-6,
        )
        assert raw == worked_params()
        assert [type(getattr(raw, f)) for f in ("rabi", "detuning", "lifetime", "spacing")] == [
            Frequency, Frequency, float, float]
        assert [type(getattr(raw.pair, f)) for f in ("defect", "angular_factor", "r_c")] == [
            Frequency, float, float]

    def test_lifetime_given_as_text_is_stored_as_a_float(self):
        params = _with(worked_params(), lifetime="3.2e-4")
        assert params.lifetime == 3.2e-4 and type(params.lifetime) is float
        assert figures_of_merit(params) == figures_of_merit(worked_params())

    def test_strong_dressing_warns(self):
        params = DressingParams(
            rabi=Frequency.from_hz(150e6),
            detuning=DETUNING,
            pair=PairInteraction(defect=DEFECT, r_c=RC),
            lifetime=320e-6,
            spacing=1e-6,
        )
        with pytest.warns(ModelValidityWarning):
            figures_of_merit(params)


class TestScalingExponents:
    def test_heavy_alkali_exponents(self):
        assert scaling_exponent("F_1D", 300, 600) == pytest.approx(19 / 3, abs=0.05)
        assert scaling_exponent("F_2D", 300, 600) == pytest.approx(20 / 3, abs=0.05)
        assert scaling_exponent("F_3D", 300, 600) == pytest.approx(7.0, abs=0.05)

    def test_f_prime_exponents_differ_by_form(self):
        assert scaling_exponent("F_prime", 300, 600) == pytest.approx(6.0, abs=0.05)
        assert scaling_exponent("F_prime_defect", 300, 600) == pytest.approx(7.0, abs=0.05)

    def test_figure_of_merit_beyond_the_float_range(self):
        message = "^F_1D leaves the float range between n_lo and n_hi$"
        with pytest.raises(DomainError, match=message):
            scaling_exponent("F_1D", 300, 1e300)

    def test_validation(self):
        with pytest.raises(DomainError):
            scaling_exponent("F_4D", 300, 600)
        with pytest.raises(DomainError):
            scaling_exponent("F_3D", 30, 600)


def _oracle_sample(seed: int, points: int):
    rng = np.random.default_rng(seed)
    det = rng.choice((-1.0, 1.0), points) * 10 ** rng.uniform(5, 9, points)
    rabi = abs(det) * rng.uniform(0.01, 2.0, points)
    return rabi, det, det * rng.uniform(-10.0, 10.0, points)


def _pointwise(fn, *arrays):
    return np.array([fn(*point) for point in zip(*(a.tolist() for a in arrays))])


class TestArrayPath:
    def test_stacked_exact_equals_scalar_calls_bit_for_bit(self):
        rabi, det, shift = _oracle_sample(11, 10000)
        stacked = dressed_ground_energy_exact(rabi, det, shift).rad_per_s
        scalar = _pointwise(lambda *p: dressed_ground_energy_exact(*p).rad_per_s, rabi, det, shift)
        assert stacked.shape == (10000,)
        assert np.array_equal(stacked, scalar)

    def test_closed_form_array_equals_scalar_calls_exactly(self):
        rabi, det, shift = _oracle_sample(12, 2000)
        stacked = dressed_ground_energy_closed_form(rabi, det, shift).rad_per_s
        scalar = _pointwise(
            lambda *p: dressed_ground_energy_closed_form(*p).rad_per_s, rabi, det, shift
        )
        assert np.array_equal(stacked, scalar)

    @pytest.mark.parametrize(
        "fn", [dressed_ground_energy_exact, dressed_ground_energy_closed_form]
    )
    def test_broadcast_shapes(self, fn):
        rabi = np.array([[1e6], [3e6]])
        det = np.array([1e7, -2e7, 5e7])
        got = fn(rabi, det, 4e6).rad_per_s
        assert got.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == fn(rabi[i, 0], det[j], 4e6).rad_per_s

    def test_one_element_array_keeps_its_shape(self):
        one = np.array([TWO_PI * 1e6])
        for fn in (dressed_ground_energy_exact, dressed_ground_energy_closed_form):
            assert fn(one, TWO_PI * 1e7, 0.0).rad_per_s.shape == (1,)
            assert isinstance(fn(TWO_PI * 1e6, TWO_PI * 1e7, 0.0).rad_per_s, float)

    def test_zero_rabi_elements_are_exactly_zero(self):
        d = TWO_PI * 1e8
        rabi = np.array([0.0, 0.0, 0.2 * d])
        det, shift = np.array([d, -d, d]), np.array([3 * d, 0.0, d])
        for fn in (dressed_ground_energy_exact, dressed_ground_energy_closed_form):
            got = fn(rabi, det, shift).rad_per_s
            assert got[:2].tolist() == [0.0, 0.0] and got[2] != 0.0

    def test_near_degenerate_shift_stays_finite(self):
        # at D = 2 Delta the pair state is degenerate with |gg>: the cubic keeps a
        # residue there, reported by one warning per call
        d = TWO_PI * 1e8
        det = np.array([d, -d, d, -d])
        shift = 2.0 * det * np.array([1 + 1e-12, 1 - 1e-12, 1 + 1e-9, 1 - 1e-6])
        assert np.all(np.isfinite(dressed_ground_energy_exact(0.2 * d, det, shift).rad_per_s))
        with pytest.warns(BranchResidualWarning) as record:
            closed = dressed_ground_energy_closed_form(0.2 * d, det, shift).rad_per_s
        assert len(record) == 1
        assert np.all(np.isfinite(closed))

    def test_very_large_pair_shift_reaches_blockaded_limit(self):
        d = TWO_PI * 1e8
        det = np.array([d, -d, 2 * d])
        rabi = np.array([0.2 * d, 0.3 * d, 0.1 * d])
        blockaded = [pair_light_shift_blockaded(w, x).rad_per_s for w, x in zip(rabi, det)]
        shift = 1e6 * det
        exact = dressed_ground_energy_exact(rabi, det, shift).rad_per_s
        assert exact == pytest.approx(blockaded, rel=1e-5)
        # the closed form loses accuracy out here (and may warn), but stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchResidualWarning)
            closed = dressed_ground_energy_closed_form(rabi, det, shift).rad_per_s
        assert np.all(np.isfinite(closed))

    def test_mixed_sign_detunings(self):
        d = TWO_PI * 1e7
        det = np.array([d, -d, 3 * d, -0.5 * d])
        rabi = np.array([0.1, 0.5, 1.5, 0.05]) * abs(det)
        shift = np.array([-3.0, 1.7, 8.0, 0.0]) * det
        exact = dressed_ground_energy_exact(rabi, det, shift).rad_per_s
        closed = dressed_ground_energy_closed_form(rabi, det, shift).rad_per_s
        for i, point in enumerate(zip(rabi, det, shift)):
            assert exact[i] == dressed_ground_energy_exact(*point).rad_per_s
            assert closed[i] == dressed_ground_energy_closed_form(*point).rad_per_s
        assert closed == pytest.approx(exact, rel=1e-9)
        free = [pair_light_shift_free(w, x).rad_per_s for w, x in zip(rabi, det)]
        assert np.array_equal(np.sign(exact), np.sign(free))

    @pytest.mark.parametrize(
        "fn", [dressed_ground_energy_exact, dressed_ground_energy_closed_form]
    )
    def test_one_bad_element_raises(self, fn):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match=r"frequency must be finite.*at index \(2,\)"):
                fn(np.array([1e6, 2e6, bad]), 1e7, 0.0)


def _log_uniform(rng, lo, hi, size):
    return 10 ** rng.uniform(np.log10(lo), np.log10(hi), size)


class TestArrayPairShifts:
    def test_pair_shifts_equal_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(51)
        r = _log_uniform(rng, 1e-8, 1e-4, 10000)
        r_c = _log_uniform(rng, 1e-7, 1e-5, 10000)
        defect = rng.choice((-1.0, 1.0), 10000) * _log_uniform(rng, 1e6, 1e10, 10000)
        for fn in (dipole_dipole_shift, vdw_shift):
            got = fn(r, defect, r_c).rad_per_s
            assert got.shape == (10000,)
            assert np.array_equal(got, _pointwise(lambda *p: fn(*p).rad_per_s, r, defect, r_c))
        rabi, det, _ = _oracle_sample(52, 10000)
        for fn in (pair_light_shift_free, pair_light_shift_blockaded, dressing_depth_exact):
            got = fn(rabi, det).rad_per_s
            assert np.array_equal(got, _pointwise(lambda *p: fn(*p).rad_per_s, rabi, det))
        xi = soft_core_scale(DETUNING, DEFECT, r_c)
        assert np.array_equal(xi, _pointwise(lambda x: soft_core_scale(DETUNING, DEFECT, x), r_c))

    @pytest.mark.parametrize("kind", ["full", "vdw", "single_term"])
    @pytest.mark.parametrize("params", [worked_params, weak_attractive_params])
    def test_normalized_potential_equals_scalar_calls_bit_for_bit(self, params, kind):
        # worked_params has negative detuning and defect, weak_attractive_params positive
        p = params()
        r = p.pair.r_c * _log_uniform(np.random.default_rng(53), 1e-3, 1e3, 2000)
        got = normalized_potential(r, p, kind)
        assert got.shape == (2000,)
        assert np.array_equal(got, [normalized_potential(x, p, kind) for x in r.tolist()])

    @pytest.mark.parametrize("kind", ["full", "vdw"])
    @pytest.mark.parametrize("params", [worked_params, weak_attractive_params])
    def test_rabi_column_equals_per_row_calls_bit_for_bit(self, params, kind):
        # a DressingParams holding an (n, 1) Rabi column gives one row per Rabi value
        p = params()
        rng = np.random.default_rng(54)
        r = p.pair.r_c * _log_uniform(rng, 1e-2, 1e2, 40)[None, :]
        rabi_hz = p.rabi.hz * rng.uniform(0.2, 5.0, (9, 1))
        got = normalized_potential(r, _with(p, rabi=Frequency.from_hz(rabi_hz)), kind)
        assert got.shape == (9, 40)
        rows = [
            normalized_potential(r, _with(p, rabi=Frequency.from_hz(hz)), kind)
            for hz in rabi_hz.ravel().tolist()
        ]
        assert np.array_equal(got, np.concatenate(rows))

    def test_broadcast_keeps_its_shape(self):
        column, row = np.array([[1e-6], [4e-6]]), np.array([1e7, -2e7, 5e7])
        for fn, args in (
            (dipole_dipole_shift, (column, row, RC)),
            (vdw_shift, (column, row, RC)),
            (pair_light_shift_free, (column * 1e13, row)),
            (pair_light_shift_blockaded, (column * 1e13, row)),
            (dressing_depth_exact, (column * 1e13, row)),
        ):
            got = fn(*args).rad_per_s
            assert got.shape == (2, 3)
            for i, j in np.ndindex(2, 3):
                assert got[i, j] == fn(*(np.broadcast_to(a, (2, 3))[i, j] for a in args)).rad_per_s
        p = worked_params()
        r = column * np.array([1.0, 2.0, 3.0])
        for kind in ("full", "vdw", "single_term"):
            got = normalized_potential(r, p, kind)
            assert got.shape == (2, 3)
            for i, j in np.ndindex(2, 3):
                assert got[i, j] == normalized_potential(r[i, j], p, kind)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: dipole_dipole_shift(np.array([1e-6, 0.0]), DEFECT, RC),
            lambda: dipole_dipole_shift(np.array([1e-6, 1e-300]), DEFECT, RC),  # (R_c/R)^6
            lambda: vdw_shift(1e-6, np.array([1e9, math.nan]), RC),
            lambda: vdw_shift(np.array([1e-6, 1e-300]), DEFECT, RC),
            lambda: pair_light_shift_free(np.array([1e6, math.inf]), 1e7),
            lambda: pair_light_shift_blockaded(1e6, np.array([1e7, 1e300])),  # Delta^2
            lambda: dressing_depth_exact(np.array([1e6, 1e300]), 1e7),
            lambda: soft_core_scale(DETUNING, DEFECT, np.array([RC, -1.0])),
            lambda: normalized_potential(np.array([1e-6, -1.0]), worked_params()),
            lambda: normalized_potential(np.array([1e-6, 1e300]), worked_params(), "single_term"),
        ],
    )
    def test_one_bad_element_raises_domain_error(self, call):
        with pytest.raises(DomainError):
            call()
