import math

import numpy as np
import pytest
import scipy.constants as sc

from rydkit import (
    DomainError,
    blackbody_depopulation_rate,
    core,
    magnetic_trap_field,
    rydberg_lifetime,
)
from rydkit.constants import (
    ALPHA_FS,
    ATOMIC_TIME,
    HARTREE,
    HBAR,
    K_B,
    MU_B,
)


class TestConstants:
    def test_atomic_time_identity(self):
        assert ATOMIC_TIME == HBAR / HARTREE

    @pytest.mark.parametrize(
        "ours, standard",
        [
            (K_B, sc.k),
            (HBAR, sc.hbar),
            (HARTREE, sc.physical_constants["Hartree energy"][0]),
            (ATOMIC_TIME, sc.physical_constants["atomic unit of time"][0]),
            (MU_B, sc.physical_constants["Bohr magneton"][0]),
            (ALPHA_FS, sc.alpha),
        ],
    )
    def test_codata_agreement(self, ours, standard):
        assert ours == pytest.approx(standard, rel=1e-6)


class TestRydbergLifetime:
    def test_zero_temperature_is_radiative(self):
        # BBR term vanishes: exactly tau0 n^3
        assert rydberg_lifetime(100, 0.0, 3.3e-9) == 3.3e-9 * 100**3
        assert rydberg_lifetime(100, 0.0, 3.3e-9) == pytest.approx(3.3e-3, rel=1e-12)

    def test_room_temperature_value_against_independent_arithmetic(self):
        # oracle: atomic-unit blackbody rate 4 a^3 (k_B T / E_H) / (3 n^2),
        # converted to SI via the atomic unit of time, all from scipy.constants
        n, temp, tau0 = 100, 300.0, 3.3e-9
        hartree = sc.physical_constants["Hartree energy"][0]
        t_au = sc.physical_constants["atomic unit of time"][0]
        rate_au = 4 * sc.alpha**3 * (sc.k * temp / hartree) / (3 * n**2)
        expected = 1.0 / (1.0 / (tau0 * n**3) + rate_au / t_au)
        assert rydberg_lifetime(n, temp, tau0) == pytest.approx(expected, rel=1e-6)
        assert rydberg_lifetime(n, temp, tau0) == pytest.approx(4.277e-4, rel=1e-3)

    def test_temperature_ordering(self):
        t300 = rydberg_lifetime(100, 300.0, 3.3e-9)
        t77 = rydberg_lifetime(100, 77.0, 3.3e-9)
        t4 = rydberg_lifetime(100, 4.0, 3.3e-9)
        assert t300 < t77 < t4

    def test_monotonic_grid(self):
        ns = np.arange(30, 151, 10)
        for temp in (4.0, 77.0, 300.0):
            taus = [rydberg_lifetime(n, temp, 3.3e-9) for n in ns]
            assert all(a < b for a, b in zip(taus, taus[1:]))
        for n in ns:
            assert (
                rydberg_lifetime(n, 300.0, 3.3e-9)
                < rydberg_lifetime(n, 77.0, 3.3e-9)
                < rydberg_lifetime(n, 4.0, 3.3e-9)
            )

    def test_calls_the_public_blackbody_rate_once(self, monkeypatch):
        calls = []

        def counting(n, temperature):
            calls.append((n, temperature))
            return blackbody_depopulation_rate(n, temperature)

        monkeypatch.setattr(core, "blackbody_depopulation_rate", counting)
        assert rydberg_lifetime(100, 300.0, 3.3e-9) == 1.0 / (
            1.0 / (3.3e-9 * 100.0**3) + blackbody_depopulation_rate(100, 300.0)
        )
        assert calls == [(100.0, 300.0)]

    @pytest.mark.parametrize(
        "args", [(5, 300.0, 3.3e-9), (100, -1.0, 3.3e-9), (100, 300.0, 0.0),
                 (float("nan"), 300.0, 3.3e-9), (100, float("inf"), 3.3e-9)]
    )
    def test_rejects_out_of_range(self, args):
        with pytest.raises(DomainError):
            rydberg_lifetime(*args)

    def test_blackbody_rate_value(self):
        assert blackbody_depopulation_rate(100, 300.0) == pytest.approx(2035.0, rel=1e-3)


class TestMagneticTrapField:
    def test_4k_depth_needs_about_6_tesla(self):
        field = magnetic_trap_field(4.0, MU_B)
        assert 5.8 <= field <= 6.1
        assert field == pytest.approx(5.9549, rel=1e-4)

    def test_10mk_depth_needs_about_15_millitesla(self):
        field = magnetic_trap_field(0.010, MU_B)
        assert 14.5e-3 <= field <= 15.2e-3

    def test_linear_in_inverse_moment(self):
        assert magnetic_trap_field(0.010, 2 * MU_B) == pytest.approx(
            magnetic_trap_field(0.010, MU_B) / 2, rel=1e-15
        )

    @pytest.mark.parametrize("args", [(0.0, 1e-23), (4.0, 0.0), (-1.0, 1e-23)])
    def test_rejects_nonpositive(self, args):
        with pytest.raises(DomainError):
            magnetic_trap_field(*args)


def _log_uniform(rng, lo, hi, size):
    return 10 ** rng.uniform(np.log10(lo), np.log10(hi), size)


class TestArrayPath:
    def test_arrays_equal_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(41)
        n = _log_uniform(rng, 10.0, 1e3, 10000)
        temp = _log_uniform(rng, 1e-3, 1e4, 10000)
        temp[::100] = 0.0
        tau0 = _log_uniform(rng, 1e-10, 1e-6, 10000)
        points = list(zip(n.tolist(), temp.tolist(), tau0.tolist()))
        rate = blackbody_depopulation_rate(n, temp)
        assert np.array_equal(rate, [blackbody_depopulation_rate(v, t) for v, t, _ in points])
        got = rydberg_lifetime(n, temp, tau0)
        assert got.shape == (10000,)
        assert np.array_equal(got, [rydberg_lifetime(*p) for p in points])
        # exactly tau0 n^3 at T = 0, element by element
        radiative = [t0 * v**3 for v, t, t0 in points if t == 0]
        assert got[temp == 0].tolist() == radiative

    def test_broadcast_keeps_its_shape(self):
        n = np.array([[50.0], [100.0]])
        temp = np.array([0.0, 4.0, 300.0])
        for fn, args in ((blackbody_depopulation_rate, ()), (rydberg_lifetime, (3.3e-9,))):
            got = fn(n, temp, *args)
            assert got.shape == (2, 3)
            for i, j in np.ndindex(2, 3):
                assert got[i, j] == fn(n[i, 0], temp[j], *args)

    @pytest.mark.parametrize(
        "args",
        [
            (np.array([100.0, 5.0]), 300.0, 3.3e-9),
            (np.array([100.0, math.nan]), 300.0, 3.3e-9),
            (100.0, np.array([300.0, -1.0]), 3.3e-9),
            (100.0, 300.0, np.array([3.3e-9, 0.0])),
            (np.array([100.0, 1e200]), 300.0, 3.3e-9),  # n^3 overflows
            (np.array([100.0, 1e3]), 0.0, np.array([3.3e-9, 1e300])),  # tau0 n^3 overflows
        ],
    )
    def test_one_bad_element_raises_domain_error(self, args):
        with pytest.raises(DomainError):
            rydberg_lifetime(*args)
        with pytest.raises(DomainError, match=r"temperature .* at index \(1,\)"):
            blackbody_depopulation_rate(100.0, np.array([300.0, math.inf]))
