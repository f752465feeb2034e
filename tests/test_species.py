import json
import re

import pytest

from rydkit import (
    CESIUM,
    RUBIDIUM,
    DomainError,
    ExcitationScheme,
    Species,
    get_species,
    load_species_config,
)
from rydkit.species import species_from_dict
from rydkit.units import TWO_PI


def test_builtin_cesium():
    assert CESIUM.tau0 == 3.3e-9
    assert CESIUM.mass == pytest.approx(2.2069e-25, rel=1e-4)


def test_builtin_rubidium():
    assert RUBIDIUM.mass == pytest.approx(1.4432e-25, rel=1e-4)


def test_one_photon_effective_k():
    scheme = CESIUM.scheme("one-photon")
    assert scheme.effective_k == pytest.approx(TWO_PI / 319e-9, rel=1e-15)


def test_counterpropagating_effective_k_subtracts():
    scheme = ExcitationScheme("x", ((894.6e-9, 1), (494.4e-9, -1)))
    expected = abs(TWO_PI / 894.6e-9 - TWO_PI / 494.4e-9)
    assert scheme.effective_k == pytest.approx(expected, rel=1e-15)


def test_copropagating_effective_k_adds():
    scheme = ExcitationScheme("x", ((780e-9, 1), (480e-9, 1))
              )
    assert scheme.effective_k == pytest.approx(TWO_PI / 780e-9 + TWO_PI / 480e-9, rel=1e-15)


def test_unknown_scheme_rejected():
    with pytest.raises(DomainError):
        CESIUM.scheme("does-not-exist")


def test_scheme_without_label_is_the_first():
    assert CESIUM.scheme() is CESIUM.schemes[0]
    assert RUBIDIUM.scheme(None) is RUBIDIUM.schemes[0]


def test_species_without_scheme_names_itself():
    bare = Species("Bare", mass=1e-25, tau0=1e-9)
    for label in (None, "one-photon"):
        with pytest.raises(DomainError, match="Bare has no excitation scheme"):
            bare.scheme(label)


def test_invalid_species_fields():
    with pytest.raises(DomainError):
        Species("x", mass=-1.0, tau0=1e-9)
    with pytest.raises(DomainError):
        Species("x", mass=1e-25, tau0=0.0)
    with pytest.raises(DomainError):
        ExcitationScheme("x", ((319e-9, 2),))
    with pytest.raises(DomainError, match="needs at least one wavelength"):
        ExcitationScheme("uv", ())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "abc"])
def test_non_finite_or_non_numeric_fields_name_the_field(bad):
    with pytest.raises(DomainError, match="mass of x"):
        Species("x", mass=bad, tau0=1e-9)
    with pytest.raises(DomainError, match="tau0 of x"):
        Species("x", mass=1e-25, tau0=bad)
    with pytest.raises(DomainError, match="wavelength"):
        ExcitationScheme("x", ((bad, 1),))


def test_config_round_trip(tmp_path):
    config = {
        "species": [
            {
                "name": "Cs2",
                "mass_kg": 2.2069e-25,
                "tau0_ns": 3.3,
                "qubit_freq_ghz": 9.1926,
                "schemes": [
                    {"label": "uv", "wavelengths_nm": [319.0], "signs": [1]},
                    {"label": "two", "wavelengths_nm": [894.6, 494.4], "signs": [1, -1]},
                ],
                "polarizabilities": [["100p3/2", 205.0, -17.8]],
            }
        ]
    }
    path = tmp_path / "species.json"
    path.write_text(json.dumps(config))
    loaded = load_species_config(str(path))
    sp = loaded["cs2"]
    assert sp.tau0 == pytest.approx(3.3e-9, rel=1e-12)
    assert sp.scheme("uv").effective_k == pytest.approx(TWO_PI / 319e-9, rel=1e-12)
    # config entries shadow built-ins only by name
    assert get_species("cs", loaded) is CESIUM
    assert get_species("cs2", loaded) is sp


def test_config_missing_key():
    with pytest.raises(DomainError):
        species_from_dict({"name": "x", "mass_kg": 1e-25})


def test_unknown_species():
    with pytest.raises(DomainError):
        get_species("unobtainium")
    # a name that is not text is unknown too
    for name in (5, None):
        with pytest.raises(DomainError, match=rf"^unknown species {name} \(choose from cs, rb\)$"):
            get_species(name)


CONFIG_ENTRY = {
    "name": "Xe", "mass_kg": 2.2e-25, "tau0_ns": 3.3, "qubit_freq_ghz": 9.0,
    "schemes": [{"label": "uv", "wavelengths_nm": [319.0], "signs": [1]}],
}


@pytest.mark.parametrize("field, value", [
    ("mass_kg", "abc"),
    ("tau0_ns", None),
    ("schemes", [{"label": "uv", "wavelengths_nm": ["abc"], "signs": [1]}]),
    ("schemes", 5),
    ("schemes", [{"label": "uv", "wavelengths_nm": [894.6, 494.4], "signs": [1]}]),
    ("schemes", [{"label": "uv", "wavelengths_nm": [319.0], "signs": [True]}]),  # True == 1
])
def test_config_bad_value_names_the_species(field, value):
    with pytest.raises(DomainError, match="species 'Xe'"):
        species_from_dict({**CONFIG_ENTRY, field: value})


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps([{**CONFIG_ENTRY, "mass_kg": "abc"}]),
    json.dumps({"entries": []}),
    "3",
])
def test_bad_config_file_names_the_file(tmp_path, text):
    path = tmp_path / "species.json"
    path.write_text(text)
    with pytest.raises(DomainError, match="species config .*species.json"):
        load_species_config(str(path))


def test_config_that_cannot_be_read_names_the_file(tmp_path):
    with pytest.raises(DomainError, match=f"^species config {re.escape(str(tmp_path))}: "):
        load_species_config(str(tmp_path))


def test_config_without_species_key_says_it_is_missing(tmp_path):
    path = tmp_path / "species.json"
    path.write_text(json.dumps({"entries": []}))
    with pytest.raises(DomainError) as excinfo:
        load_species_config(str(path))
    assert str(excinfo.value) == f"species config {path}: missing key 'species'"
