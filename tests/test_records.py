"""The value types of rydkit: frozen records on ``errors._Record``.

Each public record refuses assignment, compares and hashes by its fields, prints
as the dataclass it used to be, and survives ``copy`` and ``pickle`` equal to itself.
A record holding an ndarray compares by its shape and elements and is not hashable.
"""

import copy
import pickle

import numpy as np
import pytest

from rydkit import (
    Axis,
    CrosstalkEstimate,
    DomainError,
    DressingParams,
    ExcitationScheme,
    FigureOfMerit,
    Frequency,
    GateErrorBudget,
    MonteCarloResult,
    PairInteraction,
    ReproductionReport,
    ScanGrid,
    Species,
    measurement_crosstalk,
)
from rydkit.dressing import _dressing_params
from rydkit.errors import _Record
from rydkit.report import ReproEntry

_SCHEME = ExcitationScheme("two-photon", ((780e-9, 1), (480e-9, -1)))
_SCHEME_TEXT = "ExcitationScheme(label='two-photon', wavelengths=((7.8e-07, 1), (4.8e-07, -1)))"
_PAIR = PairInteraction(Frequency(-1e9), r_c=5e-6)
_PAIR_TEXT = ("PairInteraction(defect=Frequency(rad_per_s=-1000000000.0), angular_factor=12.0, "
              "c3=None, r_c=5e-06)")
_X = Axis("n", "", (50, 60), "linear")
_X_TEXT = "Axis(name='n', unit='', values=(50.0, 60.0), spacing='linear')"
_Y = Axis("temperature", "K", (300,))
_ENTRY = ReproEntry("demo", 1.5, 1.5, 0.0, -1e-12, 1e-12, True)
_ENTRY_TEXT = ("ReproEntry(label='demo', computed=1.5, reference=1.5, deviation=0.0, "
               "tol_lo=-1e-12, tol_hi=1e-12, passed=True)")

# A builder of each record, the text its dataclass printed, and a field with another
# valid value for it.
RECORDS = {
    "Frequency": (lambda: Frequency(2.5), "Frequency(rad_per_s=2.5)", ("rad_per_s", 3.0)),
    "GateErrorBudget": (
        lambda: GateErrorBudget(0.5, 0.25, 0.25),
        "GateErrorBudget(total=0.5, spontaneous=0.25, blockade_leakage=0.25)",
        ("blockade_leakage", 0.5)),
    "MonteCarloResult": (
        lambda: MonteCarloResult(1000, 0.25, 0.01),
        "MonteCarloResult(trials=1000, estimate=0.25, standard_error=0.01)", ("trials", 2000)),
    "CrosstalkEstimate": (
        lambda: CrosstalkEstimate(1e-13, 0.002, 0.02, 0.1),
        "CrosstalkEstimate(cross_section=1e-13, eta_abs=0.002, eta_det=0.02, ratio=0.1)",
        ("ratio", 0.2)),
    "ExcitationScheme": (
        lambda: ExcitationScheme("two-photon", ((780e-9, 1), (480e-9, -1))), _SCHEME_TEXT,
        ("label", "other")),
    "Species": (
        lambda: Species("Rb", 1.5e-25, 2.8e-9, (_SCHEME,)),
        f"Species(name='Rb', mass=1.5e-25, tau0=2.8e-09, schemes=({_SCHEME_TEXT},))",
        ("schemes", ())),
    "PairInteraction": (
        lambda: PairInteraction(Frequency(-1e9), r_c=5e-6), _PAIR_TEXT, ("r_c", 6e-6)),
    "DressingParams": (
        lambda: DressingParams(Frequency(1e8), Frequency(-6e8), _PAIR, 3.2e-4, 4e-6),
        "DressingParams(rabi=Frequency(rad_per_s=100000000.0), "
        f"detuning=Frequency(rad_per_s=-600000000.0), pair={_PAIR_TEXT}, lifetime=0.00032, "
        "spacing=4e-06)",
        ("spacing", 5e-6)),
    "FigureOfMerit": (
        lambda: FigureOfMerit(1, 2.5, 2, 500.0, 500.0, 640.0, 256.0),
        "FigureOfMerit(dimension=1, n_atoms=2.5, n_atoms_floored=2, f=500.0, f_composed=500.0, "
        "f_prime=640.0, f_prime_per_atom=256.0)",
        ("dimension", 2)),
    "Axis": (lambda: Axis("n", "", (50, 60), "linear"), _X_TEXT, ("unit", "K")),
    "ScanGrid": (
        lambda: ScanGrid("demo", _X, _Y, [[1.0, 2.0]]),
        f"ScanGrid(quantity='demo', x_axis={_X_TEXT}, y_axis=Axis(name='temperature', "
        "unit='K', values=(300.0,), spacing='explicit'), cells=array([[1., 2.]]))",
        ("cells", [[1.0, 3.0]])),
    "ReproEntry": (
        lambda: ReproEntry("demo", 1.5, 1.5, 0.0, -1e-12, 1e-12, True), _ENTRY_TEXT,
        ("passed", False)),
    "ReproductionReport": (
        lambda: ReproductionReport((_ENTRY,)), f"ReproductionReport(entries=({_ENTRY_TEXT},))",
        ("entries", ())),
}


# Records built from ndarray inputs, which hold ndarray fields (in a nested record too).
ARRAY_RECORDS = {
    "Frequency": lambda: Frequency(np.array([1.0, 2.0])),
    "DressingParams": lambda: _dressing_params(np.array([[0.5], [1.0]]), 10.0, 20.0, 1.5),
    "CrosstalkEstimate": lambda: measurement_crosstalk(
        np.array([852e-9, 780e-9]), 5e-6, 0.5, 0.5),
}


def _with(record, name, value):
    """A record of the same type with one field changed, built through its ``__init__``."""
    return type(record)(**{**record._asdict(), name: value})


@pytest.fixture(params=RECORDS)
def record(request):
    return RECORDS[request.param]


def test_every_public_record_is_covered():
    import rydkit

    records = {name for name in rydkit.__all__
               if isinstance(getattr(rydkit, name), type)
               and issubclass(getattr(rydkit, name), _Record)}
    assert records == set(RECORDS) - {"ReproEntry"}


def test_fields_cannot_be_assigned_or_deleted(record):
    build, _, (name, value) = record
    r = build()
    with pytest.raises(AttributeError):
        setattr(r, name, value)
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        r.no_such_field = value
    assert build() == r


def test_equality_and_hash_follow_the_fields(record):
    build, _, (name, value) = record
    a, b = build(), build()
    assert a == b and not a != b
    assert a != _with(a, name, value)
    assert _with(a, name, value) == _with(b, name, value)
    if isinstance(a, ScanGrid):  # equal grids would need equal hashes of their cell arrays
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS)
def test_a_record_holding_an_ndarray_compares_by_value(build):
    a, b = build(), build()
    assert a == b and not a != b
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@pytest.mark.parametrize("other", [np.array([1.0, 3.0]), np.array([[1.0, 2.0]]), 1.0],
                         ids=["element", "shape", "scalar"])
def test_records_holding_unequal_ndarrays_differ(other):
    a = Frequency(np.array([1.0, 2.0]))
    assert a != Frequency(other) and not a == Frequency(other)
    assert Frequency(other) != a


def test_repr_is_the_dataclass_text(record):
    build, text, _ = record
    assert repr(build()) == text


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_give_an_equal_record(record, clone):
    build, _, _ = record
    r = build()
    assert clone(r) == r
    assert type(clone(r)) is type(r)


def test_records_of_other_types_are_not_equal():
    assert GateErrorBudget(1.0, 0.5, 0.5) != MonteCarloResult(1.0, 0.5, 0.5)
    assert Frequency(1.0) != 1.0 and 1.0 != Frequency(1.0)


def test_asdict_lists_the_fields_in_order():
    assert MonteCarloResult(1000, 0.25, 0.01)._asdict() == {
        "trials": 1000, "estimate": 0.25, "standard_error": 0.01}
    assert list(_PAIR._asdict()) == ["defect", "angular_factor", "c3", "r_c"]


def test_copy_and_pickle_run_the_checks_again():
    r = Frequency(2.5)
    object.__setattr__(r, "rad_per_s", float("inf"))  # past the check, as nothing in rydkit does
    for clone in (copy.copy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(DomainError, match="^frequency must be finite"):
            clone(r)
