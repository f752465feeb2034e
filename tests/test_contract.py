"""Contract of the public API: a finite result or DomainError, whatever the floats.

Every function exported from rydkit is called with each float argument drawn
from NaN, +-inf, +-0, negative values and the whole range of finite
magnitudes, subnormals included. It must return a finite value (every float
field, for dataclass results) or raise DomainError; any other exception fails.
"""

import dataclasses
import functools
import inspect
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydkit
from rydkit import CESIUM, DomainError, DressingParams, Frequency, PairInteraction
from rydkit.dressing import _SCALING_QUANTITIES

NAN, INF = float("nan"), float("inf")

FLOATS = st.one_of(st.sampled_from([NAN, INF, -INF, 0.0, -0.0, -1.0]), st.floats())

# Counts small enough that simulate_loss stays fast; 1000 is its minimum trials.
INTS = st.one_of(st.integers(min_value=-2, max_value=40), st.just(1000))

# String arguments range over the values the function accepts.
STRINGS = {
    "kind": ("full", "vdw", "single_term"),
    "convention": ("direct", "half"),
    "quantity": _SCALING_QUANTITIES,
    "spacing": ("linear", "log"),
}

# reproduce() runs the 55-checkpoint harness (about half a second a call);
# its one float argument, tau0_s, feeds the floor functions tested here.
SKIPPED = {"reproduce"}


def _dressing_params(rabi, detuning, defect, angular_factor, c3, r_c, lifetime, spacing):
    return DressingParams(
        rabi=Frequency(rabi),
        detuning=Frequency(detuning),
        pair=PairInteraction(
            defect=Frequency(defect), angular_factor=angular_factor, c3=c3, r_c=r_c
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


FUNCTIONS = sorted(
    name
    for name, fn in vars(rydkit).items()
    if inspect.isfunction(fn)
    and name not in SKIPPED
    and _parameters(fn)
    and any(_takes_float(h) or h is DressingParams for h in typing.get_type_hints(fn).values())
)


def _floats_in(value):
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _floats_in(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats_in(item)
    elif isinstance(value, float):
        yield value


def test_every_exported_model_function_is_covered():
    assert len(FUNCTIONS) >= 35
    assert {"simulate_loss", "figures_of_merit", "normalized_potential"} <= set(FUNCTIONS)


@pytest.mark.filterwarnings(
    "ignore::rydkit.errors.ModelValidityWarning",
    "ignore::rydkit.errors.BranchResidualWarning",
)
@pytest.mark.parametrize("name", FUNCTIONS)
@settings(deadline=None)
@given(data=st.data())
def test_finite_result_or_domain_error(name, data):
    fn = getattr(rydkit, name)
    drawn = {arg: data.draw(strategy, label=arg) for arg, strategy in _parameters(fn).items()}
    try:
        kwargs = {
            arg: value() if isinstance(value, functools.partial) else value
            for arg, value in drawn.items()
        }
        result = fn(**kwargs)
    except DomainError:
        return
    bad = [v for v in _floats_in(result) if not math.isfinite(v)]
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
    ],
)
def test_inputs_that_leaked_now_raise(call):
    with pytest.raises(DomainError):
        call()
