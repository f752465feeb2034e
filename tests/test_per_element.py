"""The input contract of the per-element float math of array results."""

import numpy as np
import pytest

from rydkit import DressingParams, Frequency, PairInteraction
from rydkit import dipole_dipole_shift, doppler_infidelity, loss_probability
from rydkit import normalized_potential, rydberg_lifetime, vdw_shift

_PAIR = PairInteraction(Frequency.from_hz(20e6), r_c=2.0)  # R_c in m: integer R probes the core
_PARAMS = DressingParams(Frequency.from_hz(1e6), Frequency.from_hz(10e6), _PAIR, 1e-4, 1e-6)

# Each public function whose arguments broadcast as ndarrays and reach the per-element
# math, with one argument open and the integer values of it that are probed.
_CALLS = {
    "loss_probability": (lambda t: loss_probability(20, t, 400.0), range(1, 7)),
    "rydberg_lifetime n": (lambda n: rydberg_lifetime(n, 300.0, 3.3e-9), range(10, 70, 10)),
    "rydberg_lifetime temperature": (
        lambda temperature: rydberg_lifetime(np.full((2, 3), 50.0), temperature, 3.3e-9),
        range(0, 6),
    ),
    "dipole_dipole_shift": (lambda r: dipole_dipole_shift(r, _PAIR.defect, 2.0), range(1, 7)),
    "vdw_shift": (lambda r: vdw_shift(r, _PAIR.defect, 2.0), range(1, 7)),
    "normalized_potential full": (lambda r: normalized_potential(r, _PARAMS), range(1, 7)),
    "normalized_potential vdw": (lambda r: normalized_potential(r, _PARAMS, "vdw"), range(1, 7)),
    "normalized_potential single_term": (
        lambda r: normalized_potential(r, _PARAMS, "single_term"), range(1, 7),
    ),
    "doppler_infidelity": (lambda t: doppler_infidelity(1e3, 1e-5, t, 2.2e-25), range(1, 7)),
}
_LAYOUTS = {
    "float16": lambda values: values.astype(np.float16),
    "big-endian float64": lambda values: values.astype(">f8"),
    "int64": lambda values: values.astype(np.int64),
    "bool": lambda values: values.astype(bool),
    "transposed float64": lambda values: np.ascontiguousarray(values.T).T,
}


def _hex(result) -> list[str]:
    return [value.hex() for value in np.ravel(getattr(result, "rad_per_s", result)).tolist()]


@pytest.mark.parametrize("call, layout", [
    (call, layout) for call in _CALLS for layout in _LAYOUTS
    if (call, layout) != ("rydberg_lifetime n", "bool")  # n >= 10: the temperature takes a bool
])
def test_every_input_layout_gives_the_native_float64_result(call, layout):
    # _per_element reads a native float64 array through a memoryview, which refuses
    # float16 and big-endian elements and would hand int64 or bool elements on as ints:
    # the public function's range check must make every layout native float64 first
    fn, values = _CALLS[call]
    array = _LAYOUTS[layout](np.array(values, dtype=float).reshape(2, 3))
    native = np.ascontiguousarray(array, dtype=np.float64)
    assert native.dtype.isnative and native.flags.c_contiguous
    assert _hex(fn(array)) == _hex(fn(native))

