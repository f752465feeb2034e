import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rydkit import (
    DomainError,
    ModelValidityWarning,
    loss_probability,
    measurement_crosstalk,
    required_reload_rate,
    required_vacuum_lifetime,
    simulate_loss,
)
from rydkit.budget import default_t_qec, detection_solid_angle_fraction


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
        with pytest.warns(ModelValidityWarning):
            assert loss_probability(100, 1.0, 1.0) == 1.0


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

    def test_too_few_trials_rejected(self):
        with pytest.raises(DomainError):
            simulate_loss(20, 400.0, 2e-3, 100, seed=1)


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
