import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydkit import (
    DomainError,
    ModelValidityWarning,
    MonteCarloResult,
    loss_probability,
    measurement_crosstalk,
    required_reload_rate,
    required_vacuum_lifetime,
    simulate_loss,
)
from rydkit.budget import _draw_limit, default_t_qec, detection_solid_angle_fraction


class TestRequiredVacuumLifetime:
    def test_reference_checkpoint(self):
        assert required_vacuum_lifetime(20, 2e-3, 1e-4) == 400.0

    def test_trivial_identity(self):
        assert required_vacuum_lifetime(1, 1.0, 1.0) == 1.0

    def test_direct_arithmetic(self):
        assert required_vacuum_lifetime(10, 1e-3, 1e-3) == pytest.approx(10.0, rel=1e-12)

    def test_exact_linearity_under_doubling(self):
        base = required_vacuum_lifetime(7, 3e-3, 2e-4)
        assert required_vacuum_lifetime(14, 3e-3, 2e-4) == pytest.approx(2 * base, rel=1e-15)
        assert required_vacuum_lifetime(7, 6e-3, 2e-4) == pytest.approx(2 * base, rel=1e-15)
        assert required_vacuum_lifetime(7, 3e-3, 4e-4) == pytest.approx(base / 2, rel=1e-15)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(DomainError):
            required_vacuum_lifetime(20, 2e-3, 0.0)

    def test_default_cycle_time_convention(self):
        assert default_t_qec(10) == pytest.approx(1e-3, rel=1e-15)


class TestRequiredReloadRate:
    def test_reference_checkpoint(self):
        assert required_reload_rate(2000, 400.0, 1e-4) == 5e4

    def test_trivial_identity(self):
        assert required_reload_rate(1, 1.0, 1.0) == 1.0

    def test_direct_arithmetic(self):
        assert required_reload_rate(1000, 100.0, 1e-3) == pytest.approx(1e4, rel=1e-12)

    def test_exact_inverse_linearity(self):
        base = required_reload_rate(300, 50.0, 1e-3)
        assert required_reload_rate(600, 50.0, 1e-3) == pytest.approx(2 * base, rel=1e-15)
        assert required_reload_rate(300, 100.0, 1e-3) == pytest.approx(base / 2, rel=1e-15)
        assert required_reload_rate(300, 50.0, 2e-3) == pytest.approx(base / 2, rel=1e-15)


class TestLossProbability:
    def test_zero_time(self):
        assert loss_probability(20, 0.0, 400.0) == 0.0

    def test_series_checkpoint(self):
        # series expansion N t / tau = 1.0e-4 for the 20-qubit, 2 ms, 400 s point
        assert loss_probability(20, 2e-3, 400.0) == pytest.approx(1.0e-4, rel=1e-3)

    @pytest.mark.filterwarnings("ignore::rydkit.errors.ModelValidityWarning")
    @given(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=1e-9, max_value=10.0),
    )
    def test_linearization_is_upper_bound(self, n, t_over_tau):
        assert loss_probability(n, t_over_tau, 1.0) <= n * t_over_tau

    def test_clamped_with_warning_outside_validity(self):
        message = (r"^per-block loss probability 63.2 > 1; linearized model left "
                   r"its validity range, clamping to 1$")
        with pytest.warns(ModelValidityWarning, match=message):
            assert type(p := loss_probability(100, 1.0, 1.0)) is float and p == 1.0

    def test_arrays_broadcast_and_clamp_with_one_warning(self):
        n, t = np.array([[1.0], [20.0], [100.0]]), np.array([1e-3, 0.1, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            expected = [[loss_probability(k, s, 1.0) for s in t.tolist()] for k in (1, 20, 100)]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            got = loss_probability(n, t, 1.0)
        assert got.tolist() == expected
        assert len(record) == 1 and record[0].category is ModelValidityWarning
        assert str(record[0].message).startswith("per-block loss probability 63.2 > 1;")


class TestSimulateLoss:
    def test_zero_time_exact(self):
        result = simulate_loss(20, 400.0, 0.0, 1000, seed=1)
        assert result.estimate == 0.0
        assert result.standard_error == 0.0

    def test_agrees_with_exact_survival_formula(self):
        # oracle: P = 1 - (e^(-t/tau))^N, exact for i.i.d. exponential lifetimes
        n, tau, t = 20, 400.0, 2e-3
        exact = 1.0 - math.exp(-t / tau) ** n
        result = simulate_loss(n, tau, t, 100000, seed=20250810)
        assert abs(result.estimate - exact) <= 3 * result.standard_error

    def test_single_atom_at_one_lifetime(self):
        result = simulate_loss(1, 1.0, 1.0, 100000, seed=99)
        expected = 1.0 - 1.0 / math.e
        assert abs(result.estimate - expected) <= 3 * result.standard_error

    def test_standard_error_halves_under_four_times_trials(self):
        small = simulate_loss(1, 1.0, 0.5, 10000, seed=5)
        large = simulate_loss(1, 1.0, 0.5, 40000, seed=6)
        ratio = small.standard_error / large.standard_error
        assert 1.6 <= ratio <= 2.4

    def test_deterministic_for_fixed_seed(self):
        a = simulate_loss(5, 100.0, 1.0, 2000, seed=7)
        b = simulate_loss(5, 100.0, 1.0, 2000, seed=7)
        assert a == b

    @pytest.mark.parametrize(
        "n, tau, t, trials",
        [
            (20, 1.0, 0.01, 5000),  # 3276-row blocks: the last is shorter
            (3, 1.0, 0.5, 50000),  # dense: ~78% of rows hit, most with several atoms
            (1, 1.0, 1.0, 70000),  # one atom a row: 65536-row blocks
            (2000, 1e4, 1.0, 1000),  # 32-row blocks, the last of 8 rows
        ],
    )
    def test_blocks_draw_the_same_stream_as_one_draw(self, n, tau, t, trials):
        lifetimes = np.random.default_rng(3).exponential(tau, (trials, n))
        hits = int((lifetimes < t).any(axis=1).sum())
        assert 0 < hits < trials
        p = hits / trials
        expected = MonteCarloResult(trials, p, math.sqrt(p * (1.0 - p) / trials))
        assert simulate_loss(n, tau, t, trials, seed=3) == expected

    def test_lifetime_overflow_is_an_atom_never_lost_and_stays_silent(self):
        # tau_vac times a standard exponential draw above ~1 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate_loss(20, 1e308, 1.0, 1000, seed=1)
        assert result.estimate == 0.0
        assert result.standard_error == 0.0

    def test_too_few_trials_rejected(self):
        with pytest.raises(DomainError):
            simulate_loss(20, 400.0, 2e-3, 100, seed=1)

    # The draws are compared with the limit, not multiplied by tau_vac: a draw x is a
    # hit exactly when the rounded lifetime x * tau_vac is below t, over the whole
    # float range. In the examples t / tau_vac rounds below the limit, or above it,
    # t = 0, t / tau_vac underflows or overflows, and ~1e10 draws in a row have the
    # same subnormal product.
    @given(
        tau_vac=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
        t=st.floats(min_value=0.0, max_value=1.7976931348623157e308),
        x=st.floats(min_value=0.0, allow_infinity=False),
    )
    @example(tau_vac=2.9, t=0.1, x=0.0)
    @example(tau_vac=0.7, t=0.3, x=0.0)
    @example(tau_vac=400.0, t=0.0, x=0.0)
    @example(tau_vac=5e-324, t=0.0, x=1.0)
    @example(tau_vac=1e300, t=1e-300, x=5e-324)
    @example(tau_vac=1e-300, t=1e300, x=1.7976931348623157e308)
    @example(tau_vac=math.nextafter(1.0, 0.0), t=1.7976931348623157e308, x=1.0)
    @example(tau_vac=1e-10, t=1e-320, x=1e-310)
    def test_draw_limit_separates_the_draws_that_hit(self, tau_vac, t, x):
        limit = _draw_limit(t, tau_vac)
        for draw in (limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf), x):
            assert (draw < limit) == (draw * tau_vac < t)

    def test_a_draw_whose_lifetime_rounds_to_t_is_no_hit(self):
        # t is the first draw's rounded lifetime, and t / tau_vac rounds above that draw:
        # a comparison with t / tau_vac would count it as a hit
        draws = np.random.default_rng(5).standard_exponential((1000, 1))
        x0 = float(draws[0, 0])
        tau = next(v for v in np.linspace(1.0, 2.0, 1001).tolist() if x0 * v / v > x0)
        t = x0 * tau
        p = int((draws * tau < t).sum()) / 1000
        expected = MonteCarloResult(1000, p, math.sqrt(p * (1.0 - p) / 1000))
        assert simulate_loss(1, tau, t, 1000, seed=5) == expected

    # tau_vac = 1e308: lifetimes of draws above ~1.8 overflow to inf, atoms never lost;
    # tau_vac = 1e-300: t / tau_vac is 1e297 or 1e298, and at t = 1 ms every trial hits.
    @pytest.mark.parametrize(
        "tau, t", [(1e308, 1e306), (1e308, 1.0), (1e-300, 1e-302), (1e-300, 1e-3)]
    )
    def test_extreme_lifetimes_hit_as_in_the_product_form(self, tau, t):
        with np.errstate(over="ignore"):
            lifetimes = np.random.default_rng(4).standard_exponential((5000, 20)) * tau
        p = int((lifetimes < t).any(axis=1).sum()) / 5000
        expected = MonteCarloResult(5000, p, math.sqrt(p * (1.0 - p) / 5000))
        assert simulate_loss(20, tau, t, 5000, seed=4) == expected


class TestMeasurementCrosstalk:
    def test_reference_point(self):
        lam = 852e-9
        est = measurement_crosstalk(lam, 5 * lam, 0.5, 0.5)
        assert est.cross_section == pytest.approx(3 / (2 * math.pi) * lam**2, rel=1e-15)
        assert 0.0014 <= est.eta_abs <= 0.0016
        assert 0.033 <= est.eta_det <= 0.035
        assert 0.040 <= est.ratio <= 0.050
        assert est.eta_abs == pytest.approx(1.5198e-3, rel=1e-4)
        assert est.eta_det == pytest.approx(3.3494e-2, rel=1e-4)
        assert est.ratio == pytest.approx(4.5376e-2, rel=1e-4)

    def test_absorption_vanishes_at_large_spacing(self):
        lam = 852e-9
        assert measurement_crosstalk(lam, 1.0, 0.5, 0.5).eta_abs < 1e-13

    def test_inverse_square_in_spacing(self):
        lam = 852e-9
        near = measurement_crosstalk(lam, 5 * lam, 0.5, 0.5)
        far = measurement_crosstalk(lam, 10 * lam, 0.5, 0.5)
        assert far.eta_abs == pytest.approx(near.eta_abs / 4, rel=1e-12)

    def test_solid_angle_limit(self):
        assert detection_solid_angle_fraction(1.0) == 0.5

    @pytest.mark.parametrize("na", [1e-8, 1e-4, 1e-2, 0.5, 0.9, 1.0])
    def test_solid_angle_fraction_is_within_two_ulp(self, na):
        # (1 - sqrt(1 - NA^2))/2 at 50 digits: the cancellation costs at most 16 of them
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (1 - (1 - Decimal(na) ** 2).sqrt()) / 2
        error = abs(Decimal(detection_solid_angle_fraction(na)) - exact)
        assert error <= 2 * Decimal(math.ulp(float(exact)))

    def test_solid_angle_fraction_that_underflows_is_named(self):
        # below NA ~ 4.4e-162, NA^2 underflows to 0 and so does the fraction
        with pytest.raises(DomainError, match=r"^solid-angle fraction must be finite and "
                           r"in \(0, inf\), got 0\.0$"):
            detection_solid_angle_fraction(1e-170)
        with pytest.raises(DomainError, match=r"^solid-angle fraction .*, got 0\.0 at index "
                           r"\(1,\)$"):
            detection_solid_angle_fraction(np.array([0.5, 1e-170, 1e-4]))
        with pytest.raises(DomainError, match="^solid-angle fraction "):
            measurement_crosstalk(852e-9, 4.26e-6, 1e-170, 0.5)

    def test_subnormal_solid_angle_fraction_keeps_its_bits(self):
        na2 = 1e-160**2  # subnormal
        assert detection_solid_angle_fraction(1e-160) == na2 / 4.0 > 0.0
        got = detection_solid_angle_fraction(np.array([1e-160, 0.5]))
        assert got.tolist() == [na2 / 4.0, detection_solid_angle_fraction(0.5)]

    def test_small_aperture_has_a_finite_detection_probability(self):
        # NA = 5e-9 once gave a fraction of 0, which the eta_det check rejected
        est = measurement_crosstalk(852e-9, 4.26e-6, 5e-9, 0.5)
        assert est.eta_det == pytest.approx(0.5 * 5e-9**2 / 4, rel=1e-15)
        assert all(math.isfinite(v) and v > 0 for v in est._asdict().values())

    def test_rejects_bad_geometry(self):
        lam = 852e-9
        with pytest.raises(DomainError):
            measurement_crosstalk(lam, 5 * lam, 1.0, 0.5)
        with pytest.raises(DomainError):
            measurement_crosstalk(lam, 0.4 * lam, 0.5, 0.5)
        with pytest.raises(DomainError):
            measurement_crosstalk(lam, 5 * lam, 0.5, 0.0)


def test_loss_budget_validation():
    assert required_vacuum_lifetime(20, 2e-3, 1e-4) == 400.0
    assert required_reload_rate(2000, 400.0, 1e-4) == 5e4
    with pytest.raises(DomainError):
        required_vacuum_lifetime(0, 1e-3, 1e-4)
    with pytest.raises(DomainError):
        required_reload_rate(0, 1.0, 1e-4)
    with pytest.raises(DomainError):
        required_vacuum_lifetime(1, 1e-3, 1.5)
    with pytest.raises(DomainError):
        required_reload_rate(1, 1.0, 1.5)


def _log_uniform(rng, lo, hi, size):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi), size)


class TestArrayPath:
    def test_arrays_equal_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(21)
        n, t, eps = (
            _log_uniform(rng, lo, hi, 10000) for lo, hi in ((1.0, 1e4), (1e-6, 1.0), (1e-8, 1.0))
        )
        assert np.array_equal(default_t_qec(n), [default_t_qec(v) for v in n.tolist()])
        got = required_vacuum_lifetime(n, t, eps)
        assert got.shape == (10000,)
        want = [required_vacuum_lifetime(*p) for p in zip(n.tolist(), t.tolist(), eps.tolist())]
        assert np.array_equal(got, want)

    def test_broadcast_keeps_its_shape(self):
        n = np.array([[4.0], [20.0]])
        eps = np.array([1e-5, 1e-4, 1e-3])
        got = required_vacuum_lifetime(n, default_t_qec(n), eps)
        assert got.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert got[i, j] == required_vacuum_lifetime(n[i, 0], default_t_qec(n[i, 0]), eps[j])

    @pytest.mark.parametrize(
        "args",
        [
            (np.array([4.0, math.nan]), 1e-3, 1e-4),
            (np.array([4.0, 0.5]), 1e-3, 1e-4),
            (20.0, np.array([1e-3, -1.0]), 1e-4),
            (20.0, 1e-3, np.array([1e-4, 1.5])),
            (np.array([4.0, 1e300]), 1e10, 1e-4),  # tau_vac overflows
        ],
    )
    def test_one_bad_element_raises_domain_error(self, args):
        with pytest.raises(DomainError):
            required_vacuum_lifetime(*args)
        with pytest.raises(DomainError, match=r"n_code .* at index \(1,\)"):
            default_t_qec(np.array([4.0, math.inf]))
