import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rydkit import DomainError, Frequency
from rydkit.units import TWO_PI


@given(st.floats(min_value=0.0, max_value=1e300, allow_nan=False))
def test_hz_roundtrip_within_one_ulp(x):
    back = Frequency.from_hz(x).hz
    assert abs(back - x) <= math.ulp(x)


def test_ingest_conventions():
    assert Frequency.from_hz(1.0).rad_per_s == TWO_PI
    assert Frequency(3.0).rad_per_s == 3.0
    assert Frequency.from_hz(500e6).hz == pytest.approx(500e6, rel=1e-15)
    # negative (signed) frequencies are legal carriers for detunings
    assert Frequency.from_hz(-200e6).hz == pytest.approx(-200e6, rel=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_rejected(bad):
    with pytest.raises(DomainError):
        Frequency(bad)
    with pytest.raises(DomainError):
        Frequency.from_hz(bad)
