"""Draws shared by the tests: log-uniform magnitudes, as a hypothesis strategy and as
seeded numpy arrays."""

import math

from hypothesis import strategies as st


def log_uniform(lo, hi):
    """Strategy for 10^e, e uniform between log10(lo) and log10(hi)."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def log_uniform_array(rng, lo, hi, size):
    """``size`` draws of 10^e from the numpy Generator ``rng``, e uniform between
    log10(lo) and log10(hi)."""
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi), size)
