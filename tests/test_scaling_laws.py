"""Scaling laws of the closed forms as oracles.

The paper's closed forms are dimensionally homogeneous, so scaling some arguments
by powers of one factor scales the result by a known power of it, however the
formula is coded: a wrong exponent or a dropped factor breaks the law. Each row
of ``LAWS`` scales argument i by s^e_i and expects the result times s^p. The
factor is s = 2^k, so a product of scaled arguments is scaled exactly, and a law
holds bit for bit wherever the code multiplies and divides scaled arguments.

A square is taken as the product x * x, which is correctly rounded, so it keeps a
law bit for bit too. Where the code takes another power of a scaled argument by pow,
the law holds to a few ulp: the C library's pow need not be correctly rounded, so
pow(2^k x, n) can land an ulp from 2^(kn) pow(x, n) (with glibc 2.36, pow(x, 2)
differs from x * x for about 1 x in 1,000). Those rows allow 4 ulp; 200,000 seeded
draws of each came within 2.04. A row's examples are draws that missed its law when
the code took them by pow.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rydkit import (
    DressingParams,
    Frequency,
    PairInteraction,
    blockade_gate_error,
    blockade_radius,
    doppler_infidelity,
    dressing_gate_error,
    normalized_potential,
    optimal_rabi,
    rydberg_lifetime,
)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def signed(magnitude):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(lambda t: t[0] * t[1])


def potential(kind):
    """normalized_potential at separation r for a pair of crossover radius r_c, with the
    Rabi frequency and the defect given as multiples of |Delta| and Delta."""

    def at(r, r_c, detuning, rabi_ratio, defect_ratio):
        pair = PairInteraction(defect=Frequency(defect_ratio * detuning), r_c=r_c)
        params = DressingParams(rabi=Frequency(rabi_ratio * abs(detuning)),
                                detuning=Frequency(detuning), pair=pair, lifetime=1e-3,
                                spacing=1e-6)
        return normalized_potential(r, params, kind)

    return at


# Frequencies in rad/s. B tau and Delta tau are at least 2 pi 100, inside the regimes
# where the gate errors do not warn. The dressing rows scale only lengths, so Omega,
# Delta and delta keep their drawn values: |Delta| from 2 pi 1 kHz, Omega and |delta|
# from 1% of it, far above the 1 rad/s floor of dressing._scale, below which the
# dressed energy scales only to rounding.
# Lengths: R/R_c from 1e-5 to 1e5, the soft core, its edge and its tail. n starts at
# 2^7 x 10, so n / 2^7 stays at rydberg_lifetime's floor of n = 10.
FREQUENCY = log_uniform(2 * math.pi * 1e6, 2 * math.pi * 1e9)
GATE_TIME = log_uniform(1e-4, 1e-2)
DETUNING = signed(log_uniform(2 * math.pi * 1e3, 2 * math.pi * 1e9))
RATIO = log_uniform(0.01, 10.0)
LENGTH = log_uniform(1e-9, 1e-2)
CROSSOVER = log_uniform(1e-7, 1e-4)


def law(fn, strategies, exponents, power, ulps, *examples):
    """A hypothesis test that scaling argument i of ``fn`` by s^exponents[i], for s = 2^k,
    scales its result by s^power, within a relative tolerance of ``ulps`` units of 2^-52
    (the ulp of 1). Each example, (arguments, k), runs before the drawn ones."""

    @given(args=st.tuples(*strategies), k=st.sampled_from((-7, -3, 1, 3, 20)))
    def holds(args, k):
        scaled = fn(*(a * 2.0 ** (k * e) for a, e in zip(args, exponents)))
        expected = 2.0 ** (k * power) * fn(*args)
        assert abs(scaled - expected) <= ulps * 2.0**-52 * abs(expected)

    for args, k in examples:
        holds = example(args=args, k=k)(holds)
    return holds


LAWS = {
    # B and tau only through B tau
    "blockade_gate_error": law(blockade_gate_error, (FREQUENCY, GATE_TIME), (1, -1), 0, 0),
    "dressing_gate_error": law(dressing_gate_error, (FREQUENCY, GATE_TIME), (1, -1), 0, 0),
    # optimal_rabi is proportional to B at fixed B tau, to a few ulp: it takes B^(2/3) and
    # tau^(-1/3) by pow, with exponents rounded to doubles whose difference falls 5.6e-17
    # short of 1, which shifts the law by |k| 5.6e-17 ln 2 (3.5 ulp at k = 20); each side
    # also rounds four times (two powers and two products), up to half an ulp each
    "optimal_rabi": law(lambda b, tau: optimal_rabi(b, tau).rad_per_s, (FREQUENCY, GATE_TIME),
                        (1, -1), 1, 8),
    # k, T, t and m only through k^2 T t^2 / m: wave number (rad/m), temperature (K),
    # time (s) and mass (kg); k^2 T t^2 / m runs from ~1e-10 to ~1e2. k^2 and t^2 are
    # products, so the law is exact
    "doppler_infidelity": law(doppler_infidelity,
                              (log_uniform(1e6, 3e7), log_uniform(1e-7, 1e-4),
                               log_uniform(1e-8, 1e-6), log_uniform(1e-26, 1e-24)),
                              (1, 2, -1, 2), 0, 0,
                              ((1311201.4272393289, 6.205451990505398e-06,
                                9.231951087277987e-07, 5.494336686006106e-26), -7)),
    # unchanged when R and R_c scale together: through R_c / R, except the single-term
    # form, which takes R^6 and xi^6 by pow
    **{f"normalized_potential_{kind}": law(potential(kind),
                                           (LENGTH, CROSSOVER, DETUNING, RATIO, RATIO),
                                           (1, 1, 0, 0, 0), 0, ulps)
       for kind, ulps in (("full", 0), ("vdw", 0), ("single_term", 4))},
    # proportional to R_c, with the defect delta as a multiple of Delta
    "blockade_radius": law(lambda det, ratio, r_c: blockade_radius(det, ratio * det, r_c),
                           (DETUNING, RATIO, CROSSOVER), (0, 0, 1), 1, 0),
    # tau0 n^3 at T = 0, n^3 by pow
    "rydberg_lifetime": law(lambda n, tau0: rydberg_lifetime(n, 0.0, tau0),
                            (log_uniform(1280.0, 1e4), log_uniform(1e-10, 1e-8)), (1, 1), 4, 4),
}


@pytest.mark.parametrize("holds", LAWS.values(), ids=LAWS.keys())
def test_scaling_law(holds):
    holds()
