import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from rydkit import (
    CESIUM,
    DomainError,
    Frequency,
    ModelValidityWarning,
    asymptotic_blockade_floor,
    asymptotic_dressing_floor,
    blockade_gate_error,
    detuning_budget,
    doppler_fidelity,
    doppler_infidelity,
    dressing_gate_error,
    entanglement_error_bound,
    field_budget,
    interaction_gate_error,
    minimal_interaction_gate_error,
    optimal_interaction_strength,
    optimal_rabi,
    spontaneous_budget,
)
from rydkit.gate_error import (
    blockade_error_budget,
    excitation_error,
    rydberg_level_half_spacing,
)
from rydkit.units import TWO_PI

B_REF = Frequency.from_hz(500e6)   # blockade shift B/2pi = 500 MHz
TAU_REF = 320e-6


def minimize_log(cost, center):
    """Test-local 1-D minimizer oracle, searched in log space around a scale guess."""
    res = minimize_scalar(
        lambda u: cost(math.exp(u)),
        bounds=(math.log(center) - 8.0, math.log(center) + 8.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return math.exp(res.x)


class TestBlockadeGate:
    def test_optimal_rabi_reference_point(self):
        # verified against the independent minimizer below
        assert optimal_rabi(B_REF, TAU_REF).hz == pytest.approx(13.9836e6, rel=1e-4)

    def test_optimal_rabi_scaling(self):
        base = optimal_rabi(B_REF, TAU_REF).rad_per_s
        eight = optimal_rabi(8 * B_REF.rad_per_s, TAU_REF).rad_per_s
        assert eight == pytest.approx(4 * base, rel=1e-12)

    def test_minimizer_oracle_at_reference_point(self):
        b, tau = B_REF.rad_per_s, TAU_REF
        cost = lambda w: 7 * math.pi / (4 * w * tau) + w * w / (8 * b * b)
        w_num = minimize_log(cost, (b * b / tau) ** (1 / 3))
        assert w_num == pytest.approx(optimal_rabi(b, tau).rad_per_s, rel=1e-6)
        assert cost(w_num) == pytest.approx(blockade_gate_error(b, tau), rel=1e-6)

    def test_error_reference_point(self):
        assert blockade_gate_error(B_REF, TAU_REF) == pytest.approx(2.9331e-4, rel=1e-4)

    def test_error_scaling(self):
        base = blockade_gate_error(B_REF, TAU_REF)
        assert blockade_gate_error(4 * B_REF.rad_per_s, TAU_REF) == pytest.approx(
            base * 4 ** (-2 / 3), rel=1e-12
        )

    @pytest.mark.filterwarnings("ignore::rydkit.errors.ModelValidityWarning")
    def test_dominates_entanglement_bound_above_unity(self):
        for bt in np.geomspace(1.0, 1e8, 33):
            assert blockade_gate_error(bt, 1.0) >= entanglement_error_bound(bt, 1.0)

    @pytest.mark.filterwarnings("ignore::rydkit.errors.ModelValidityWarning")
    def test_bound_crossover_near_0_31(self):
        gap = lambda bt: blockade_gate_error(bt, 1.0) - entanglement_error_bound(bt, 1.0)
        assert gap(0.30) < 0 < gap(0.32)

    def test_warns_outside_strong_blockade(self):
        with pytest.warns(ModelValidityWarning):
            blockade_gate_error(5.0, 1.0)

    def test_budget_decomposition_matches_closed_form(self):
        parts = blockade_error_budget(B_REF, TAU_REF)
        assert parts.total == pytest.approx(blockade_gate_error(B_REF, TAU_REF), rel=1e-12)
        # at the optimum the spontaneous term is exactly twice the leakage term
        assert parts.spontaneous == pytest.approx(2 * parts.blockade_leakage, rel=1e-9)


class TestEntanglementBound:
    def test_reference_point(self):
        assert entanglement_error_bound(B_REF, TAU_REF) == pytest.approx(1.9894e-6, rel=1e-4)

    def test_halving_lifetime_doubles_bound(self):
        assert entanglement_error_bound(B_REF, TAU_REF / 2) == pytest.approx(
            2 * entanglement_error_bound(B_REF, TAU_REF), rel=1e-15
        )


class TestAsymptoticFloors:
    def test_blockade_floor_value(self):
        floor = asymptotic_blockade_floor(3.3e-9)
        assert 1.5e-5 <= floor <= 2.5e-5
        assert floor == pytest.approx(1.76313e-5, rel=1e-5)

    def test_blockade_floor_tau0_scaling(self):
        assert asymptotic_blockade_floor(8 * 3.3e-9) == pytest.approx(
            asymptotic_blockade_floor(3.3e-9) / 4, rel=1e-12
        )

    def test_blockade_floor_consistent_with_gate_error(self):
        # substituting B = E_H/(2 hbar n^3), tau = tau0 n^3 removes n entirely
        floor = asymptotic_blockade_floor(3.3e-9)
        for n in (50, 100, 150):
            shift = rydberg_level_half_spacing(n)
            assert blockade_gate_error(shift, 3.3e-9 * n**3) == pytest.approx(
                floor, rel=1e-12
            )

    def test_dressing_floor_value(self):
        floor = asymptotic_dressing_floor(3.3e-9)
        assert 1.2e-3 <= floor <= 1.4e-3
        assert floor == pytest.approx(1.21399e-3, rel=1e-5)

    def test_dressing_floor_consistent_with_gate_error(self):
        floor = asymptotic_dressing_floor(3.3e-9)
        for n in (50, 100, 200):
            shift = rydberg_level_half_spacing(n)
            assert dressing_gate_error(shift, 3.3e-9 * n**3) == pytest.approx(
                floor, rel=1e-12
            )


@pytest.mark.parametrize("fn, baseline", [
    (asymptotic_blockade_floor, 3.3e-9),
    (lambda n: rydberg_level_half_spacing(n).rad_per_s, 100.0),
], ids=["asymptotic_blockade_floor", "rydberg_level_half_spacing"])
def test_power_of_an_array_is_the_scalar_calls(fn, baseline):
    # numpy's vectorized power rounds some of these 1 ulp away from Python's pow
    x = baseline * np.random.default_rng(1).uniform(0.5, 2.0, 2000)
    assert fn(x).tolist() == [fn(v) for v in x.tolist()]


class TestInteractionGate:
    WQ = Frequency.from_hz(9.19e9)

    def test_reference_point(self):
        error = interaction_gate_error(Frequency.from_hz(1e6), TAU_REF, self.WQ)
        assert error == pytest.approx(1.8766e-3, rel=1e-4)

    def test_optimum_matches_minimizer_oracle(self):
        tau, wq = TAU_REF, self.WQ.rad_per_s
        cost = lambda v: math.pi / (v * tau) + 5 * v / (math.sqrt(3) * wq)
        v_num = minimize_log(cost, math.sqrt(wq / tau))
        assert v_num == pytest.approx(
            optimal_interaction_strength(tau, wq).rad_per_s, rel=1e-6
        )
        e_min = minimal_interaction_gate_error(tau, wq)
        assert cost(v_num) == pytest.approx(e_min, rel=1e-6)
        assert e_min == pytest.approx(1.4012e-3, rel=1e-4)

    def test_long_lifetime_limit(self):
        v = Frequency.from_hz(1e6)
        limit = 5 * v.rad_per_s / (math.sqrt(3) * self.WQ.rad_per_s)
        assert interaction_gate_error(v, 1e6, self.WQ) == pytest.approx(limit, rel=1e-6)


class TestDressingGate:
    def test_quadrupling_product_halves_error(self):
        base = dressing_gate_error(TWO_PI * 100e6, 320e-6)
        assert dressing_gate_error(TWO_PI * 400e6, 320e-6) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_minimizer_oracle(self):
        det, tau = TWO_PI * 100e6, 320e-6
        cost = lambda w: 8 * math.pi * det / (w * w * tau) + w * w / (det * det)
        w_num = minimize_log(cost, (det**3 / tau) ** 0.25)
        assert w_num == pytest.approx((8 * math.pi * det**3 / tau) ** 0.25, rel=1e-6)
        assert cost(w_num) == pytest.approx(dressing_gate_error(det, tau), rel=1e-6)


# Each value is the closed form written out; above 1 it is flagged, not changed.
@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: entanglement_error_bound(1e3, 1e-6), 2.0 / (1e3 * 1e-6)),
        (lambda: interaction_gate_error(1e3, 1e-6, 1e9),
         math.pi / (1e3 * 1e-6) + 5.0 * 1e3 / (math.sqrt(3.0) * 1e9)),
        (lambda: minimal_interaction_gate_error(1e-6, 1e3),
         2.0 * math.sqrt(5.0 * math.pi / (math.sqrt(3.0) * 1e3 * 1e-6))),
        (lambda: dressing_gate_error(1e3, 1e-6),
         2.0**2.5 * math.sqrt(math.pi) / math.sqrt(1e3 * 1e-6)),
    ],
    ids=["entanglement", "interaction", "minimal-interaction", "dressing"],
)
def test_gate_error_above_one_is_flagged_and_kept(call, value):
    with pytest.warns(ModelValidityWarning, match="> 1: outside the regime") as record:
        assert call() == value > 1.0
    assert [w.filename for w in record] == [__file__]  # the caller's line is named


def test_gate_errors_below_one_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelValidityWarning)
        entanglement_error_bound(2.0, 1.0)
        interaction_gate_error(Frequency.from_hz(1e6), TAU_REF, Frequency.from_hz(9.19e9))
        minimal_interaction_gate_error(TAU_REF, Frequency.from_hz(9.19e9))
        dressing_gate_error(101.0, 1.0)


class TestSpontaneousBudget:
    def test_reference_points(self):
        assert spontaneous_budget(25e-9, 1e-4) == pytest.approx(437.5e-6, rel=1e-12)
        assert spontaneous_budget(25e-9, 2e-5) == pytest.approx(2.1875e-3, rel=1e-12)

    def test_identity_point(self):
        assert spontaneous_budget(1.0, 1.75) == pytest.approx(1.0, rel=1e-15)


class TestDoppler:
    K1 = CESIUM.scheme("one-photon").effective_k

    def test_exact_unity_at_zero(self):
        assert doppler_fidelity(0.0, 5e-6, 1e-7, CESIUM.mass) == 1.0
        assert doppler_fidelity(self.K1, 0.0, 1e-7, CESIUM.mass) == 1.0
        assert doppler_fidelity(self.K1, 5e-6, 0.0, CESIUM.mass) == 1.0

    def test_reference_point_against_independent_arithmetic(self):
        import scipy.constants as sc

        exponent = self.K1**2 * sc.k * 5e-6 * (100e-9) ** 2 / (2 * CESIUM.mass)
        expected = -math.expm1(-exponent) / 2
        got = doppler_infidelity(self.K1, 5e-6, 100e-9, CESIUM.mass)
        assert got == pytest.approx(expected, rel=1e-6)
        assert got == pytest.approx(3.03e-4, rel=1e-2)

    def test_exponent_grouping_identity(self):
        a = doppler_infidelity(self.K1, 5e-6, 2e-7, CESIUM.mass)
        b = doppler_infidelity(self.K1, 2e-5, 1e-7, CESIUM.mass)
        assert a == b  # bit-identical: the exponent groups as k^2 T t^2

    @given(
        st.floats(min_value=0.0, max_value=3e7),
        st.floats(min_value=0.0, max_value=1e-4),
        st.floats(min_value=0.0, max_value=1e-6),
    )
    def test_bounds(self, k, temp, t):
        fid = doppler_fidelity(k, temp, t, CESIUM.mass)
        assert 0.5 < fid <= 1.0

    def test_asymptote_is_one_half(self):
        assert doppler_fidelity(1e9, 1.0, 1e-3, CESIUM.mass) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_each_argument(self):
        for scale in (2.0, 10.0):
            base = doppler_fidelity(self.K1, 5e-6, 1e-7, CESIUM.mass)
            assert doppler_fidelity(scale * self.K1, 5e-6, 1e-7, CESIUM.mass) < base
            assert doppler_fidelity(self.K1, scale * 5e-6, 1e-7, CESIUM.mass) < base
            assert doppler_fidelity(self.K1, 5e-6, scale * 1e-7, CESIUM.mass) < base

    def test_input_validation(self):
        with pytest.raises(DomainError):
            doppler_infidelity(-1.0, 1e-6, 1e-7, CESIUM.mass)
        with pytest.raises(DomainError):
            doppler_infidelity(1e7, 1e-6, 1e-7, 0.0)

    def test_arrays_equal_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(31)
        k, temp, t, mass = (
            10 ** rng.uniform(np.log10(lo), np.log10(hi), 10000)
            for lo, hi in ((1e5, 1e8), (1e-8, 1e-2), (1e-9, 1e-4), (1e-26, 1e-24))
        )
        got = doppler_infidelity(k, temp, t, mass)
        assert got.shape == (10000,)
        points = zip(k.tolist(), temp.tolist(), t.tolist(), mass.tolist())
        assert np.array_equal(got, [doppler_infidelity(*p) for p in points])

    def test_broadcast_keeps_its_shape(self):
        temp = np.array([[0.0], [5e-6]])
        t = np.array([1e-8, 1e-7, 1e-6])
        got = doppler_infidelity(self.K1, temp, t, CESIUM.mass)
        assert got.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert got[i, j] == doppler_infidelity(self.K1, temp[i, 0], t[j], CESIUM.mass)

    @pytest.mark.parametrize(
        "args",
        [
            (np.array([1e7, -1.0]), 1e-6, 1e-7, 2e-25),
            (1e7, np.array([1e-6, math.nan]), 1e-7, 2e-25),
            (1e7, 1e-6, np.array([1e-7, math.inf]), 2e-25),
            (1e7, 1e-6, 1e-7, np.array([2e-25, 0.0])),
            (1e7, 1e-6, np.array([1e-7, 1e300]), 2e-25),  # t^2 overflows
            (np.array([1e7, 1e154]), 1e30, 0.0, 2e-25),  # an overflow times t^2 = 0
        ],
    )
    def test_one_bad_element_raises_domain_error(self, args):
        with pytest.raises(DomainError):
            doppler_infidelity(*args)


class TestDetuningBudget:
    OMEGA = Frequency.from_hz(20e6)

    def test_leading_order_oracle(self):
        # perturbative expansion: first root at Omega sqrt(eps) + O(eps)
        root = detuning_budget(self.OMEGA, 1e-5)
        assert root.rad_per_s == pytest.approx(
            self.OMEGA.rad_per_s * math.sqrt(1e-5), rel=1e-3
        )
        assert root.hz == pytest.approx(63.25e3, rel=1e-3)

    def test_round_trip_exactness(self):
        for eps in (1e-6, 1e-5, 1e-3, 0.1):
            root = detuning_budget(self.OMEGA, eps)
            assert excitation_error(self.OMEGA, root) == pytest.approx(eps, rel=1e-9)

    def test_vanishes_with_epsilon(self):
        roots = [detuning_budget(self.OMEGA, eps).rad_per_s for eps in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert all(a > b for a, b in zip(roots, roots[1:]))
        # 1 - P = x^2 - (1 - pi^2/16) x^4 + ... with x = Delta/Omega puts the root just
        # above Omega sqrt(eps): at second order, Omega sqrt(eps) (1 + (1 - pi^2/16) eps/2).
        eps, w = 1e-10, self.OMEGA.rad_per_s
        assert roots[-1] == pytest.approx(
            w * math.sqrt(eps) * (1 + (1 - math.pi**2 / 16) / 2 * eps), rel=1e-13
        )

    @pytest.mark.parametrize(
        "eps, root",  # the first root at Omega/2pi = 20 MHz, to 50 digits, rounded
        [(1e-5, 397384.29192241615), (1e-10, 1256.6370614599913)],
    )
    def test_matches_high_precision_root(self, eps, root):
        assert self.OMEGA.rad_per_s == 125663706.14359173
        assert detuning_budget(self.OMEGA, eps).rad_per_s == pytest.approx(root, rel=1e-15)

    def test_tiny_epsilon_keeps_its_scale(self):
        # the root stays Omega sqrt(eps) however small eps: no 1 - P cancellation floor
        assert detuning_budget(1e8, 1e-30).rad_per_s == pytest.approx(1e-7, rel=1e-15, abs=0.0)

    def test_underflowing_detuning_is_rejected(self):
        # the root Omega sqrt(eps) = 1.5e-175 squares to 0.0 inside excitation_error
        with pytest.raises(DomainError, match="the smallest normal float"):
            detuning_budget(1.2552599957618862e-28, 1.3452546560801733e-294)
        with pytest.raises(DomainError, match="the smallest normal float"):
            detuning_budget(1e100, 5e-324)  # 1 - P rounds to a multiple of 5e-324

    @given(st.floats(1e-150, 1e150), st.floats(5e-324, 1e-6))
    def test_small_epsilon_root_is_leading_order(self, rabi, eps):
        if min(eps, rabi * rabi * eps) < sys.float_info.min:
            with pytest.raises(DomainError):
                detuning_budget(rabi, eps)
        else:
            root = detuning_budget(rabi, eps).rad_per_s
            assert root == pytest.approx(rabi * math.sqrt(eps), rel=1e-3)

    def test_monotone_in_rabi_and_epsilon(self):
        eps_roots = [detuning_budget(self.OMEGA, e).rad_per_s for e in (1e-6, 1e-4, 1e-2, 0.3)]
        assert all(a < b for a, b in zip(eps_roots, eps_roots[1:]))
        rabi_roots = [
            detuning_budget(Frequency.from_hz(f), 1e-5).rad_per_s
            for f in (1e6, 5e6, 2e7, 1e8)
        ]
        assert all(a < b for a, b in zip(rabi_roots, rabi_roots[1:]))

    def test_short_first_bracket_is_doubled(self):
        # epsilon within 2e-15 of 1: the first bracket end rounds to below the root
        w, eps = 3.4406062768530205e-24, 1.0 - 2.0**-49
        assert excitation_error(w, w * math.sqrt(eps / (1.0 - eps)) * 1.001) < eps
        root = detuning_budget(w, eps).rad_per_s
        assert excitation_error(w, root) >= eps
        assert excitation_error(w, math.nextafter(root, 0.0)) < eps

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            detuning_budget(self.OMEGA, 0.0)
        with pytest.raises(DomainError):
            detuning_budget(self.OMEGA, 1.0)


def test_excitation_error_keeps_precision_at_small_detuning():
    # 1 - P = x^2 - 0.38 x^4 with x = Delta/Omega = 1e-10, where 1.0 - P rounds to 0.0
    w = 2e8
    assert excitation_error(w, 1e-10 * w) == pytest.approx(1e-20, rel=1e-15, abs=0.0)


class TestFieldBudget:
    def test_reference_point(self):
        field = field_budget(Frequency.from_hz(90e3), 205.0)
        assert 6.5e-4 <= field <= 6.7e-4
        assert field == pytest.approx(6.6259e-4, rel=1e-4)

    def test_alpha_scaling(self):
        assert field_budget(Frequency.from_hz(90e3), 4 * 205.0) == pytest.approx(
            field_budget(Frequency.from_hz(90e3), 205.0) / 2, rel=1e-12
        )

    def test_half_convention_is_sqrt2_larger(self):
        direct = field_budget(Frequency.from_hz(90e3), 205.0)
        half = field_budget(Frequency.from_hz(90e3), 205.0, convention="half")
        assert half == pytest.approx(direct * math.sqrt(2), rel=1e-12)
        assert half == pytest.approx(9.37e-4, rel=1e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            field_budget(Frequency.from_hz(90e3), 0.0)
        with pytest.raises(DomainError):
            field_budget(Frequency.from_hz(90e3), 205.0, convention="bogus")


def test_monotonicity_grid_blockade_error():
    taus = np.geomspace(1e-5, 1e-2, 7)
    shifts = TWO_PI * np.geomspace(1e7, 1e10, 7)
    for tau in taus:
        errs = [blockade_gate_error(b, tau) for b in shifts]
        assert all(a > b for a, b in zip(errs, errs[1:]))
    for b in shifts:
        errs = [blockade_gate_error(b, tau) for tau in taus]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_blockade_inputs_validation():
    for fn in (blockade_error_budget, optimal_rabi):
        fn(Frequency.from_hz(500e6), 320e-6)
        with pytest.raises(DomainError):
            fn(Frequency.from_hz(-1e6), 320e-6)
        with pytest.raises(DomainError):
            fn(Frequency.from_hz(500e6), 0.0)
    with pytest.raises(DomainError):
        blockade_error_budget(Frequency.from_hz(500e6), 320e-6, rabi=Frequency.from_hz(0.0))
