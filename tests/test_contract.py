"""Contract of the public API: a finite result or DomainError, whatever the floats.

Every function exported from rydkit, and every public function of the model
modules budget, core, gate_error and dressing, is called with each float
argument drawn from NaN, +-inf, +-0, negative values and the whole range of
finite magnitudes, subnormals included. It must return a finite value (every
float field, for record results) or raise DomainError; any other exception
fails.
"""

import ast
import functools
import inspect
import json
import math
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydkit
from rydkit import (
    CESIUM,
    DomainError,
    DressingParams,
    Frequency,
    ModelValidityWarning,
    PairInteraction,
)
from rydkit import budget, core, dressing, gate_error
from rydkit.dressing import _SCALING_QUANTITIES
from rydkit.errors import _float_range, _Record, in_range

NAN, INF = float("nan"), float("inf")

FLOATS = st.one_of(st.sampled_from([NAN, INF, -INF, 0.0, -0.0, -1.0]), st.floats())

# Counts small enough that simulate_loss stays fast; 1000 is its minimum trials.
# A non-integral float and a bool are not counts.
INTS = st.one_of(
    st.integers(min_value=-2, max_value=40),
    st.just(1000),
    st.floats().filter(lambda x: not x.is_integer()),
    st.booleans(),
)

# String arguments range over the values the function accepts.
STRINGS = {
    "kind": ("full", "vdw", "single_term"),
    "convention": ("direct", "half"),
    "quantity": _SCALING_QUANTITIES,
    "spacing": ("linear", "log"),
}

# reproduce() runs the 55-checkpoint harness (about 0.05 s a warm call);
# its one float argument, tau0_s, feeds the floor functions tested here.
SKIPPED = {"reproduce"}


def _dressing_params(
    rabi, detuning, defect, angular_factor, c3, r_c, lifetime, spacing, frequency=Frequency
):
    """A DressingParams whose three frequencies are passed as ``frequency(x)``:
    a Frequency, or with ``float`` the raw value in rad/s."""
    return DressingParams(
        rabi=frequency(rabi),
        detuning=frequency(detuning),
        pair=PairInteraction(
            defect=frequency(defect), angular_factor=angular_factor, c3=c3, r_c=r_c
        ),
        lifetime=lifetime,
        spacing=spacing,
    )


# A deferred constructor call: it runs inside the test, where its DomainError passes.
DRESSING_PARAMS = st.builds(
    functools.partial,
    st.just(_dressing_params),
    rabi=FLOATS,
    detuning=FLOATS,
    defect=FLOATS,
    angular_factor=FLOATS,
    c3=st.none() | FLOATS,
    r_c=st.none() | FLOATS,
    lifetime=FLOATS,
    spacing=FLOATS,
    frequency=st.sampled_from([Frequency, float]),
)


def _takes_float(hint) -> bool:
    return float in (set(typing.get_args(hint)) or {hint})


def _strategy(name: str, hint) -> st.SearchStrategy | None:
    """The strategy for one parameter, or None to leave it at its default."""
    if _takes_float(hint):
        return st.none() | FLOATS if type(None) in typing.get_args(hint) else FLOATS
    if hint is int:
        return INTS
    if hint is str:
        return st.sampled_from(STRINGS.get(name, ("x",)))
    if hint is DressingParams:
        return DRESSING_PARAMS
    return None


def _parameters(fn) -> dict[str, st.SearchStrategy]:
    hints = typing.get_type_hints(fn)
    strategies = {}
    for name, param in inspect.signature(fn).parameters.items():
        strategy = _strategy(name, hints.get(name))
        if strategy is None and param.default is inspect.Parameter.empty:
            return {}
        if strategy is not None:
            strategies[name] = strategy
    return strategies


# Exported functions, plus the public functions of the model modules.
PUBLIC = {
    name: fn for name in rydkit.__all__ if inspect.isfunction(fn := getattr(rydkit, name))
}
for module in (budget, core, dressing, gate_error):
    for name, fn in vars(module).items():
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_":
            assert PUBLIC.setdefault(name, fn) is fn, f"two public functions named {name}"

FUNCTIONS = sorted(
    name
    for name, fn in PUBLIC.items()
    if name not in SKIPPED
    and _parameters(fn)
    and any(_takes_float(h) or h is DressingParams for h in typing.get_type_hints(fn).values())
)


def _leaves(value):
    """The values of a result in field order: records (Frequency too) field by field."""
    if isinstance(value, _Record):
        for name in value.__slots__:
            yield from _leaves(getattr(value, name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_every_exported_model_function_is_covered():
    assert len(FUNCTIONS) >= 35
    assert {"simulate_loss", "figures_of_merit", "normalized_potential"} <= set(FUNCTIONS)


def test_module_level_model_functions_are_covered():
    assert {
        "excitation_error",
        "rydberg_level_half_spacing",
        "f_prime",
        "f_prime_defect",
        "blockade_atom_count",
        "operations_per_atom",
        "detection_solid_angle_fraction",
    } <= set(FUNCTIONS)


@pytest.mark.filterwarnings("ignore::rydkit.errors.ModelValidityWarning")
@pytest.mark.parametrize("name", FUNCTIONS)
@settings(deadline=None)
@given(data=st.data())
def test_finite_result_or_domain_error(name, data):
    fn = PUBLIC[name]
    drawn = {arg: data.draw(strategy, label=arg) for arg, strategy in _parameters(fn).items()}
    try:
        kwargs = {
            arg: value() if isinstance(value, functools.partial) else value
            for arg, value in drawn.items()
        }
        result = fn(**kwargs)
    except DomainError:
        return
    bad = [v for v in _leaves(result) if isinstance(v, float) and not math.isfinite(v)]
    assert not bad, f"{name}({drawn}) returned {result!r}"


K_ONE_PHOTON = CESIUM.scheme("one-photon").effective_k


@pytest.mark.parametrize(
    "call",
    [
        lambda: rydkit.loss_probability(5, NAN, 400),
        lambda: rydkit.simulate_loss(20, 400.0, NAN, 1000, 1),
        lambda: rydkit.doppler_infidelity(K_ONE_PHOTON, NAN, 1e-7, CESIUM.mass),
        lambda: rydkit.doppler_fidelity(INF, 5e-6, 1e-7, CESIUM.mass),
        lambda: rydkit.blackbody_depopulation_rate(100, -5),
        lambda: rydkit.spontaneous_budget(INF, 1e-3),
        lambda: rydkit.required_vacuum_lifetime(20, 2e-3, 2.0),
        lambda: rydkit.required_reload_rate(10, 400.0, 5.0),
        lambda: rydkit.default_t_qec(NAN),
        lambda: rydkit.crossover_radius(NAN, 2e9),
        lambda: gate_error.excitation_error(1e160, 1.0),
        lambda: gate_error.excitation_error(1e-160, 1e150),
        lambda: gate_error.excitation_error(5e-324, 0.1),  # 2 Omega (G + Omega) underflows
        lambda: gate_error.rydberg_level_half_spacing(1e103),
        lambda: dressing.f_prime(1e200, 1e-300, 1.0),
        lambda: dressing.f_prime_defect(1.0, 5e-324, 1.0),
        lambda: dressing.blockade_atom_count(3, NAN, 1.0),
        lambda: dressing.blockade_atom_count(3, 1e300, 1e-300),
        lambda: dressing.operations_per_atom(
            _dressing_params(1e70, 10.0, 10.0, 12.0, None, 1e-6, 1e200, 1e-6)
        ),
        # one overflowing input per float-range site that maps Python's OverflowError
        lambda: budget.measurement_crosstalk(1e200, 1e201, 0.5, 0.5),
        lambda: core.rydberg_lifetime(1e103, 300.0, 1.0),
        lambda: dressing.vdw_shift(1e-60, 1e9, 1.0),
        lambda: dressing.implied_c3(1e200, 1e9),
        lambda: dressing.dressing_depth_perturbative(1e100, 1.0),
        lambda: dressing.normalized_potential(
            1e100,
            _dressing_params(1e6, 1e7, 2e7, 12.0, None, 1.5e-6, 320e-6, 1e-6),
            "single_term",
        ),
        lambda: dressing.figures_of_merit(
            _dressing_params(1e6, 1e7, 1e-3, 12.0, None, 1e149, 1e-3, 1e-6)
        ),
        lambda: gate_error.doppler_infidelity(1e200, 1e-6, 1e-7, CESIUM.mass),
        # one zero element, or one element of the wrong sign, in an array argument
        lambda: dressing.blockade_radius(np.array([1e9, 0.0]), 2e9, 1e-6),
        lambda: dressing.blockade_radius(np.array([1e9, -1e9]), 2e9, 1e-6),
        lambda: dressing.soft_core_scale(1e9, np.array([2e9, -2e9]), 1e-6),
        lambda: dressing.crossover_radius(np.array([5.0, 0.0]), 2e9),
        lambda: dressing.f_prime(1e6, np.array([1e7, 0.0]), 1e-4),
        lambda: gate_error.field_budget(1e5, np.array([205.0, 0.0])),
        lambda: dressing.dressing_depth_perturbative(1e6, np.array([1e7, 0.0])),
        # an array in a scalar-only argument
        lambda: budget.simulate_loss(20, np.array([400.0, 500.0]), 2e-3, 1000, 1),
        lambda: gate_error.detuning_budget(np.array([1e6, 2e6]), 1e-3),
        # a count that is not an int
        lambda: budget.simulate_loss(2.5, 400.0, 2e-3, 1000, 1),
        lambda: budget.simulate_loss(20, 400.0, 2e-3, 1000.5, 1),
        lambda: budget.simulate_loss(20, 400.0, 2e-3, 1000, 1.5),
        lambda: budget.simulate_loss(True, 400.0, 2e-3, 1000, 1),
        lambda: budget.simulate_loss(20, 400.0, 2e-3, 1000.0, 1),
        lambda: rydkit.axis("x", "", 0.0, 1.0, 2.5),
        lambda: rydkit.axis("x", "", 1.0, 1.0, True),
        lambda: dressing.blockade_atom_count(True, 5e-6, 1e-6),
        lambda: dressing.blockade_atom_count(2.0, 5e-6, 1e-6),
    ],
)
def test_inputs_that_leaked_now_raise(call):
    with pytest.raises(DomainError):
        call()


# A value that overflows is named by its expression, not by the Frequency check of
# the result, and a rejected value is quoted as a number, never as a numpy repr.
@pytest.mark.parametrize("call, message", [
    (lambda: in_range("x", np.float64(np.inf)), "x must be finite and in (0, inf), got inf"),
    (lambda: in_range("x", np.int64(-3)), "x must be finite and in (0, inf), got -3.0"),
    (lambda: in_range("x", -3), "x must be finite and in (0, inf), got -3"),
    (lambda: dressing.pair_light_shift_free(2e306, 1e6),
     "Delta^2 + Omega^2 must be finite and in [0, inf), got inf"),
    (lambda: dressing.pair_light_shift_blockaded(np.array([1.0, 2e306]), 1e6),
     "Delta^2 + 2 Omega^2 must be finite and in [0, inf), got inf at index (1,)"),
    (lambda: dressing.dressing_depth_perturbative(1e70, 1e-90),
     "Omega^4 / Delta^3 must be finite and in (-inf, inf), got -inf"),
    (lambda: dressing.dressing_depth_perturbative(np.array([1.0, 1e70]), 1e-90),
     "Omega^4 / Delta^3 must be finite and in (-inf, inf), got -inf at index (1,)"),
    (lambda: dressing.dipole_dipole_shift(1e-6, 1e300, 1e-3),
     "pair shift must be finite and in (-inf, inf), got -inf"),
    (lambda: dressing.dressed_ground_energy_exact(1e308, 1e308, 1e308),
     "dressed energy must be finite and in (-inf, inf), got nan"),
    # sqrt(2) times the scale is inf: the coupling Omega / inf would be 0
    (lambda: dressing.dressed_ground_energy_exact(1.7e308, 1e307, 0.0),
     "dressed energy must be finite and in (-inf, inf), got nan"),
    (lambda: dressing.dressed_ground_energy_exact(1e8, 1e9, 1.5e308),
     "dressed energy must be finite and in (-inf, inf), got nan"),
    (lambda: gate_error.optimal_rabi(1e308, 5e-324),
     "optimal Rabi frequency must be finite and in (-inf, inf), got inf"),
    (lambda: gate_error.optimal_interaction_strength(5e-324, 1e308),
     "optimal interaction strength must be finite and in (-inf, inf), got inf"),
])
def test_overflow_is_named_and_quoted_as_a_number(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


def test_in_range_checks_arrays_element_by_element():
    got = in_range("rabi", np.array([[1, 2], [3, 4]]))
    assert got.dtype == np.float64 and got.shape == (2, 2)
    assert in_range("x", np.array([0.0, 1.0]), bounds="[)").tolist() == [0.0, 1.0]
    for bad in (NAN, INF, -INF, -1.0):
        with pytest.raises(DomainError, match=r"rabi must be finite.*at index \(1,\)"):
            in_range("rabi", np.array([1.0, bad, 2.0]))
    with pytest.raises(DomainError, match="rabi"):
        in_range("rabi", np.array([1.0, 1.0]), 0.0, 1.0)


def test_float_range_maps_arithmetic_errors_and_silences_numpy():
    with pytest.raises(DomainError, match=r"^x\^2 is out of float range$"):
        with _float_range("x^2"):
            1e200**2
    with _float_range("x"):  # a RuntimeWarning would fail the suite
        assert (np.array([1e308]) * 10.0)[0] == INF
    assert np.geterr()["over"] == "warn"
    with pytest.raises(KeyError):
        with _float_range("x"):
            {}["k"]


def test_float_range_restores_numpy_error_state_after_a_body_that_raises():
    before = np.geterr()
    with pytest.raises(DomainError):
        with _float_range("x"):
            1e200**2
    assert np.geterr() == before
    with pytest.raises(KeyError):
        with _float_range("x"):
            {}["k"]
    assert np.geterr() == before


_AXES = rydkit.Axis("n_code", "qubits", (20.0,)), rydkit.Axis("epsilon", "", (1e-4,))


# Each named option of the models: the call with an unknown name, and the message.
@pytest.mark.parametrize("call, message", [
    (lambda: dressing.normalized_potential(
        1e-6, _dressing_params(1e6, 1e7, 2e7, 1.0, None, 1e-6, 1e-4, 2e-6), "bogus"),
     "unknown potential kind 'bogus' (choose from full, single_term, vdw)"),
    (lambda: dressing.scaling_exponent("F_4D", 50.0, 100.0),
     "unknown quantity 'F_4D' (choose from F_1D, F_2D, F_3D, F_prime, F_prime_defect)"),
    (lambda: CESIUM.scheme("bogus"),
     "unknown Cs scheme 'bogus' (choose from one-photon, two-photon-counterprop)"),
    (lambda: rydkit.get_species("Xe"), "unknown species 'xe' (choose from cs, rb)"),
    (lambda: rydkit.axis("x", "", 1.0, 2.0, 3, "cubic"),
     "unknown spacing 'cubic' (choose from linear, log)"),
    (lambda: rydkit.scan("nope", *_AXES),
     "unknown scan quantity 'nope' "
     "(choose from doppler-infidelity, dressing-potential, lifetime, tau-vac)"),
    (lambda: rydkit.scan("tau-vac", *_AXES, {"typo": 1.0}),
     "unknown fixed parameter 'typo' (choose from t_qec_ms)"),
    (lambda: gate_error.field_budget(1e5, 205.0, "quarter"),
     "unknown Stark-shift convention 'quarter' (choose from direct, half)"),
    # a value that cannot be a key, or that == compares element by element, is unknown too
    (lambda: gate_error.field_budget(1e5, 205.0, ["direct"]),
     "unknown Stark-shift convention ['direct'] (choose from direct, half)"),
    (lambda: dressing.scaling_exponent(np.array(["F_1D", "F_2D"]), 50.0, 100.0),
     "unknown quantity array(['F_1D', 'F_2D'], dtype='<U4') "
     "(choose from F_1D, F_2D, F_3D, F_prime, F_prime_defect)"),
    # a single-point axis takes no spacing, but a name it does not know is still an error
    (lambda: rydkit.axis("x", "", 1.0, 1.0, 1, "cubic"),
     "unknown spacing 'cubic' (choose from linear, log)"),
], ids=["kind", "scaling-quantity", "scheme", "species", "spacing", "scan-quantity",
        "fixed-key", "convention", "unhashable", "array", "single-point-spacing"])
def test_unknown_name_lists_the_choices(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_only_the_choice_helper_raises_unknown_name():
    """No module but errors.py builds an "unknown ..." DomainError by hand."""
    for path in Path(rydkit.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                text = ast.unparse(node.exc)
                assert path.name == "errors.py" or "unknown " not in text, (path, text)


def test_signs_are_checked_once_per_dressing_point():
    """Matched signs are checked where a DressingParams is built, and by the two
    public functions that take a bare detuning and defect; no consumer re-checks."""
    tree = ast.parse(Path(dressing.__file__).read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    callers = [
        fn.name if owner is tree else f"{owner.name}.{fn.name}"
        for owner in (tree, *classes) for fn in owner.body
        if isinstance(fn, ast.FunctionDef) and any(
            isinstance(n, ast.Call) and ast.unparse(n.func) == "_check_signs"
            for n in ast.walk(fn))
    ]
    assert sorted(callers) == [
        "DressingParams.__init__", "blockade_radius", "soft_core_scale"]


@pytest.mark.parametrize(
    "call",
    [
        lambda: in_range("n", 10**400),
        lambda: in_range("n", 10**5000),  # too long for repr: the message must not print it
        lambda: budget.simulate_loss(10**400, 1.0, 1.0, 1000, 1),
    ],
)
def test_int_beyond_the_float_range_raises_domain_error(call):
    with pytest.raises(DomainError, match=r"^n(_code)? is out of float range$"):
        call()


def test_in_range_rejects_what_float_cannot_parse():
    assert in_range("x", "1.5") == 1.5
    for bad in ("abc", None, [1.0], ""):
        with pytest.raises(DomainError, match="x must be a number"):
            in_range("x", bad)


# The repr of 10**5000 raises ValueError; a float cast of these arrays overflows,
# fails to parse, or drops the imaginary part, as float() of a numpy complex scalar does.
@pytest.mark.parametrize(
    "value",
    [
        [10**5000],
        np.array([10**400, 1], dtype=object),
        np.array(["abc", "1"]),
        np.array([1 + 2j, 1]),
        np.complex128(1 + 2j),
        np.complex64(1 + 2j),
        np.complex128(1),
    ],
    ids=[
        "huge-int-in-list", "huge-int-array", "str-array", "complex-array",
        "complex128", "complex64", "complex128-real-valued",
    ],
)
def test_in_range_rejects_what_is_not_a_real_number(value):
    with pytest.raises(DomainError, match="^n must be a number"):
        in_range("n", value)


def test_in_range_converts_int_bool_and_float_arrays():
    for value in (np.array([3, 0]), np.array([True, False]), np.array([0.1, 0], np.float32)):
        got = in_range("n", value, bounds="[)")
        assert got.dtype == np.float64
        assert got.tolist() == np.asarray(value, dtype=float).tolist()
    floats = np.array([0.5, 2.0])
    assert in_range("n", floats) is floats


# Each function's cases mix inputs inside and outside the model's regime, except
# its last; the one warning quotes the element furthest outside.
@pytest.mark.parametrize(
    "fn, args, warning",
    [
        (gate_error.entanglement_error_bound, (np.array([1e3, 1e9, 2e10]), 1e-6),
         "entanglement error bound = 2000 > 1"),
        (gate_error.entanglement_error_bound, (1e9, np.array([1e-9, 1e-6, 1e-3])),
         "entanglement error bound = 2 > 1"),
        (gate_error.interaction_gate_error, (np.array([1e3, 1e6, 1e8]), 1e-4, 1e10),
         "interaction gate error = 31.4159 > 1"),
        (gate_error.interaction_gate_error, (1e6, np.array([1e-9, 1e-4]), 1e10),
         "interaction gate error = 3141.59 > 1"),
        (gate_error.interaction_gate_error, (1e6, 1e-4, np.array([1e3, 1e10])),
         "interaction gate error = 2886.78 > 1"),
        (gate_error.entanglement_error_bound, (np.array([1e9, 1e10]), 1e-6), None),
        # errors above 1 too, but blockade_gate_error flags only B tau < 10
        (gate_error.blockade_gate_error, (np.array([2.0, 5e6, 1e9]), 1e-6),
         "B tau = 2e-06 < 10"),
        (gate_error.blockade_gate_error, (1e7, np.array([3e-7, 1e-4])), "B tau = 3 < 10"),
        (gate_error.blockade_gate_error, (np.array([1e8, 1e9]), 1e-6), None),
        (gate_error.dressing_gate_error, (np.array([1e4, 1e9, 1e10]), 1e-4),
         "dressing gate error = 10.0265 > 1"),
        (gate_error.dressing_gate_error, (1e9, np.array([1e-8, 1e-4])),
         "dressing gate error = 3.17066 > 1"),
        (gate_error.dressing_gate_error, (np.array([1e9, 1e10]), 1e-4), None),
    ],
)
def test_gate_error_of_an_array_is_the_scalar_calls_with_one_warning(fn, args, warning):
    size = max(np.size(a) for a in args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelValidityWarning)
        expected = [
            fn(*(a.tolist()[i] if np.ndim(a) else a for a in args)) for i in range(size)
        ]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        got = fn(*args)
    assert got.tolist() == expected
    messages = [str(w.message) for w in record]
    if warning is None:
        assert messages == []
    else:
        assert len(messages) == 1 and record[0].category is ModelValidityWarning
        assert messages[0].startswith(f"{warning}: outside the "), messages[0]


# One valid call of each public function that takes a Frequency | float argument.
FREQUENCY_BASELINES = {
    "blockade_radius": {"detuning": 1e7, "defect": 2e7, "r_c": 1.5e-6},
    "crossover_radius": {"c3": 5.0, "defect": 1e9},
    "dipole_dipole_shift": {"r": 1e-6, "defect": 1e8, "r_c": 1.5e-6},
    "vdw_shift": {"r": 1e-6, "defect": 1e8, "r_c": 1.5e-6},
    "implied_c3": {"r_c": 1.5e-6, "defect": 1e8},
    "soft_core_scale": {"detuning": 1e7, "defect": 2e7, "r_c": 1.5e-6},
    "pair_light_shift_free": {"rabi": 1e6, "detuning": 1e7},
    "pair_light_shift_blockaded": {"rabi": 1e6, "detuning": 1e7},
    "dressing_depth_exact": {"rabi": 1e6, "detuning": 1e7},
    "dressing_depth_perturbative": {"rabi": 1e6, "detuning": 1e7},
    "dressed_ground_energy_exact": {"rabi": 1e6, "detuning": 1e7, "pair_shift": 1e8},
    "dressed_ground_energy_closed_form": {"rabi": 1e6, "detuning": 1e7, "pair_shift": 1e8},
    "dressed_decoherence_time": {"rabi": 1e6, "detuning": 1e7, "lifetime": 1e-4},
    "f_prime": {"rabi": 1e6, "detuning": 1e7, "lifetime": 1e-4},
    "f_prime_defect": {"rabi": 1e6, "defect": 1e8, "lifetime": 1e-4},
    "optimal_rabi": {"blockade": 1e8, "lifetime": 1e-4},
    "blockade_gate_error": {"blockade": 1e8, "lifetime": 1e-4},
    "entanglement_error_bound": {"blockade": 1e8, "lifetime": 1e-4},
    "blockade_error_budget": {"blockade": 1e8, "lifetime": 1e-4, "rabi": 1e6},
    "interaction_gate_error": {"v_dd": 1e6, "lifetime": 1e-4, "qubit_freq": 1e10},
    "optimal_interaction_strength": {"lifetime": 1e-4, "qubit_freq": 1e10},
    "minimal_interaction_gate_error": {"lifetime": 1e-4, "qubit_freq": 1e10},
    "dressing_gate_error": {"detuning": 1e8, "lifetime": 1e-4},
    "excitation_error": {"rabi": 1e6, "detuning": 1e4},
    "detuning_budget": {"rabi": 1e6, "epsilon": 1e-3},
    "field_budget": {"detuning_limit": 1e5, "alpha0": 1.0},
}


def _frequency_arguments(fn) -> list[str]:
    hints = typing.get_type_hints(fn)
    parameters = inspect.signature(fn).parameters
    return [arg for arg in parameters if Frequency in typing.get_args(hints[arg])]


def test_every_function_with_a_frequency_argument_has_a_baseline():
    with_frequency = {name for name, fn in PUBLIC.items() if _frequency_arguments(fn)}
    assert with_frequency == set(FREQUENCY_BASELINES)


@pytest.mark.parametrize(
    "name, arg",
    [(name, arg) for name in FREQUENCY_BASELINES for arg in _frequency_arguments(PUBLIC[name])],
)
def test_a_nan_frequency_argument_is_named_in_the_error(name, arg):
    fn, baseline = PUBLIC[name], FREQUENCY_BASELINES[name]
    fn(**baseline)
    with pytest.raises(DomainError, match="must be finite") as raised:
        fn(**{**baseline, arg: NAN})
    assert not str(raised.value).startswith("frequency "), str(raised.value)


# One valid call of each public function with a float argument: the frequency
# baselines, and the functions that take no Frequency. An argument missing here
# takes its default.
ARRAY_BASELINES = {
    **FREQUENCY_BASELINES,
    "asymptotic_blockade_floor": {"tau0": 3.3e-9},
    "asymptotic_dressing_floor": {"tau0": 3.3e-9},
    "axis": {"name": "x", "unit": "", "lo": 1.0, "hi": 10.0, "points": 5},
    "blackbody_depopulation_rate": {"n": 100.0, "temperature": 300.0},
    "blockade_atom_count": {"dimension": 2, "r_b": 1e-5, "spacing": 2e-6},
    "default_t_qec": {"n_code": 20.0},
    "detection_solid_angle_fraction": {"numerical_aperture": 0.4},
    "doppler_fidelity": {"k": K_ONE_PHOTON, "temperature": 1e-5, "time": 1e-6,
                         "mass": CESIUM.mass},
    "doppler_infidelity": {"k": K_ONE_PHOTON, "temperature": 1e-5, "time": 1e-6,
                           "mass": CESIUM.mass},
    "loss_probability": {"n_code": 20.0, "t": 2e-3, "tau_vac": 400.0},
    "magnetic_trap_field": {"depth": 1e-3, "magnetic_moment": 9.27e-24},
    "measurement_crosstalk": {"wavelength": 852e-9, "spacing": 4e-6,
                              "numerical_aperture": 0.4, "efficiency": 0.4},
    "normalized_potential": {
        "r": 1e-6, "params": _dressing_params(1e6, 1e7, 2e7, 12.0, None, 1.5e-6, 320e-6, 1e-6),
    },
    "required_reload_rate": {"n_phys": 1000.0, "tau_vac": 400.0, "epsilon": 1e-3},
    "required_vacuum_lifetime": {"n_code": 20.0, "t_qec": 2e-3, "epsilon": 1e-3},
    "rydberg_level_half_spacing": {"n": 100.0},
    "rydberg_lifetime": {"n": 100.0, "temperature": 300.0, "tau0": 3.3e-9},
    "scaling_exponent": {"quantity": "F_2D", "n_lo": 110.0, "n_hi": 500.0},
    "simulate_loss": {"n_code": 20, "tau_vac": 400.0, "t": 2e-3, "trials": 1000, "seed": 1},
    "spontaneous_budget": {"t_pi": 1e-7, "epsilon_tau": 1e-3},
}

# Each array argument is its baseline times seven factors in [0.5, 2]. The draw of
# seed 19 meets, on an AVX-512 build of numpy, a value where numpy's vectorized power
# differs by 1 ulp from Python's pow in both asymptotic_blockade_floor and
# rydberg_level_half_spacing, so it checks that they take the power per element.
ARRAY_FACTORS = np.random.default_rng(19).uniform(0.5, 2.0, 7)

def _float_arguments(fn) -> list[str]:
    hints = typing.get_type_hints(fn)
    return [arg for arg in inspect.signature(fn).parameters if _takes_float(hints.get(arg))]


def test_every_function_with_a_float_argument_has_an_array_baseline():
    with_float = {name for name, fn in PUBLIC.items() if _float_arguments(fn)} - SKIPPED
    assert with_float == set(ARRAY_BASELINES)


@pytest.mark.filterwarnings("ignore::rydkit.errors.ModelValidityWarning")
@pytest.mark.parametrize("name, arg", [
    (name, arg) for name in ARRAY_BASELINES for arg in _float_arguments(PUBLIC[name])
])
def test_array_argument_gives_elementwise_result_or_domain_error(name, arg):
    fn = PUBLIC[name]
    baseline = ARRAY_BASELINES[name]
    scalar = baseline.get(arg, inspect.signature(fn).parameters[arg].default)
    values = scalar * ARRAY_FACTORS
    expected = [list(_leaves(fn(**{**baseline, arg: v}))) for v in values.tolist()]
    try:
        got = list(_leaves(fn(**{**baseline, arg: values})))
    except DomainError:
        return
    assert len(got) == len(expected[0])
    for i, leaf in enumerate(got):
        want = np.array([e[i] for e in expected], dtype=float)
        have = np.broadcast_to(np.asarray(leaf, dtype=float), want.shape)
        assert have.tobytes() == want.tobytes(), f"field {i}: {have.tolist()} != {want.tolist()}"


GOLDEN_API = Path(__file__).parent / "golden" / "public_api.json"


def _public_api() -> dict[str, str]:
    """Each public name of rydkit: its call signature, or the type name where it has none."""
    api = {}
    for name in rydkit.__all__:
        obj = getattr(rydkit, name)
        try:
            api[name] = str(inspect.signature(obj))
        except (TypeError, ValueError):  # not callable, or a builtin-derived class
            api[name] = type(obj).__name__
    return dict(sorted(api.items()))


def test_public_api_matches_golden_file():
    assert _public_api() == json.loads(GOLDEN_API.read_text())
