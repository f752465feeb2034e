"""60-digit references for closed forms.

Each row of ``REFERENCES`` evaluates a closed form at drawn arguments and compares
it with the formula of its docstring, evaluated by mpmath from the same doubles and
the code's own constants (so the row measures rounding, not the constants). The
error is relative, in units of 2^-52 (the ulp of 1). Each bound counts the roundings
on the code's path, at most half a unit each, first order in the unit, and states
the count with its row.

The references run at 360 digits: the docstring forms of the Doppler infidelity, the
excitation error and the solid-angle fraction subtract nearly equal numbers and cancel
up to 300 digits over these draws (at NA = 1e-150), so at least 60 significant digits
remain.

The draws span each documented domain, except where the float range cuts it: every
square and partial product stays a normal float, so no result is a subnormal with
lost digits or a DomainError for leaving the float range. Zero arguments, whose
results are exact, are not drawn. Hypothesis steers the draws towards each row's
worst error (``target``); ``pytest --hypothesis-show-statistics`` reports it.
"""

import math

import mpmath
import pytest
from hypothesis import given, target
from hypothesis import strategies as st

from rydkit.budget import detection_solid_angle_fraction, measurement_crosstalk
from rydkit.constants import K_B
from rydkit.gate_error import doppler_infidelity, excitation_error


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def doppler_reference(k, temperature, time, mass):
    return (1 - mpmath.exp(-k**2 * K_B * temperature * time**2 / (2 * mass))) / 2


def excitation_reference(rabi, detuning):
    g = mpmath.sqrt(rabi**2 + detuning**2)
    return 1 - rabi**2 / g**2 * mpmath.sin(mpmath.pi * g / (2 * rabi)) ** 2


def fraction_reference(numerical_aperture):
    return (1 - mpmath.sqrt(1 - numerical_aperture**2)) / 2


def eta_abs_reference(wavelength, spacing, numerical_aperture, efficiency):
    return 3 / (2 * mpmath.pi) * wavelength**2 / (4 * mpmath.pi * spacing**2)


def eta_det_reference(wavelength, spacing, numerical_aperture, efficiency):
    return efficiency * fraction_reference(numerical_aperture)


def ratio_reference(*args):
    return eta_abs_reference(*args) / eta_det_reference(*args)


# k (rad/m), T (K) and t (s) from 1e-10 to 1e10, m (kg) from 1e-30 to 1e30: the
# exponent k^2 k_B T t^2 / 2m runs from ~1e-104 to ~1e57, where the result is 1/2
DOPPLER = st.tuples(log_uniform(1e-10, 1e10), log_uniform(1e-10, 1e10),
                    log_uniform(1e-10, 1e10), log_uniform(1e-30, 1e30))
# Omega from 1e-60 to 1e60 rad/s, |Delta| / Omega from 1e-40 to 1e4, either sign
EXCITATION = st.builds(lambda rabi, ratio, sign: (rabi, sign * ratio * rabi),
                       log_uniform(1e-60, 1e60), log_uniform(1e-40, 1e4),
                       st.sampled_from((-1.0, 1.0)))
# lambda from 1e-140 to 1e140 m, d / lambda from just above 1/2 to 1e10, NA from 1e-140
# to 0.99 (see the fraction rows), efficiency from 1e-10 to 1
CROSSTALK = st.builds(lambda wavelength, ratio, na, efficiency:
                      (wavelength, ratio * wavelength, na, efficiency),
                      log_uniform(1e-140, 1e140), log_uniform(0.5000001, 1e10),
                      log_uniform(1e-140, 0.99), log_uniform(1e-10, 1.0))

# id: (function, reference, argument strategy, bound in units of 2^-52)
REFERENCES = {
    # k^2, t^2, their product with k_B and T, and the division by 2m: 6 roundings in
    # the exponent x, which expm1 passes on times x e^-x / (1 - e^-x) <= 1, plus expm1's
    # own half unit and its last bit: 4
    "doppler_infidelity": (doppler_infidelity, doppler_reference, DOPPLER, 4),
    # G^2 and G carry 1 unit each, phi = (pi/2)(Delta/(G + Omega))(Delta/Omega) 3.7;
    # sin passes phi's error on times |phi cot phi| <= 1 up to |Delta| = sqrt(3) Omega,
    # and beyond it the sin^2 term weighs at most pi Omega / |Delta| of the result; sin,
    # its square, the products, the sum and the division by G^2 add the rest: 13
    "excitation_error": (excitation_error, excitation_reference, EXCITATION, 13),
    # NA^2, 1 - NA^2, its root, 1 + root and the division: 3.1 at NA = 0.99, where
    # 1 - NA^2 carries NA^2's half unit times NA^2 / (1 - NA^2) = 49: 4
    "detection_solid_angle_fraction": (
        detection_solid_angle_fraction, fraction_reference,
        st.tuples(log_uniform(1e-150, 0.99)), 4),
    # sigma's constant 3/(2 pi) 0.7, lambda^2, d^2, pi's own 0.18 and three products or
    # divisions: 3.4
    "measurement_crosstalk.eta_abs": (lambda *args: measurement_crosstalk(*args).eta_abs,
                                      eta_abs_reference, CROSSTALK, 4),
    # the fraction's 3.1 and the product with the efficiency: 3.6
    "measurement_crosstalk.eta_det": (lambda *args: measurement_crosstalk(*args).eta_det,
                                      eta_det_reference, CROSSTALK, 4),
    # eta_abs 3.4, eta_det 3.6 and the division: 7.5
    "measurement_crosstalk.ratio": (lambda *args: measurement_crosstalk(*args).ratio,
                                    ratio_reference, CROSSTALK, 8),
}

ROWS = [pytest.param(*row, id=name) for name, row in REFERENCES.items()]
# Above NA = 0.99 the fraction's 1 - NA^2 cancels: NA^2's rounding reaches the result
# times up to 1/(8 sqrt(1 - NA^2)), 1,024 units worst on 20,000 draws of NA = 1 - 10^-U
# with U uniform in (0, 16), where (1 - NA)(1 + NA) would keep it within 1.2
ROWS.append(pytest.param(
    detection_solid_angle_fraction, fraction_reference,
    st.tuples(log_uniform(1e-16, 1e-2).map(lambda gap: 1.0 - gap)), 4,
    id="detection_solid_angle_fraction.near_1",
    marks=pytest.mark.xfail(strict=True, reason="1 - NA^2 cancels as NA -> 1"),
))


@pytest.mark.parametrize("fn, reference, arguments, bound", ROWS)
@given(data=st.data())
def test_reference(fn, reference, arguments, bound, data):
    args = data.draw(arguments)
    with mpmath.workdps(360):
        exact = reference(*map(mpmath.mpf, args))
        error = float(abs(mpmath.mpf(fn(*args)) / exact - 1)) / 2.0**-52
    target(error)
    assert error <= bound
