"""Atomic species data: masses, lifetime coefficients, excitation schemes.

Built-in Cs and Rb entries ship with the library; additional or modified
species load from a JSON config file, see :func:`load_species_config`.
"""

from __future__ import annotations

import json

from .constants import ATOMIC_MASS_UNIT
from .errors import DomainError, _choice, _Record, in_range
from .units import TWO_PI


class ExcitationScheme(_Record):
    """A Rydberg excitation method, as a list of (wavelength m, propagation sign)."""

    __slots__ = ("label", "wavelengths")

    def __init__(self, label: str, wavelengths: tuple[tuple[float, int], ...]) -> None:
        if not wavelengths:
            raise DomainError("excitation scheme needs at least one wavelength")
        norm = []
        for lam, sign in wavelengths:
            if isinstance(sign, bool) or sign not in (1, -1):  # True == 1, but is no sign
                raise DomainError(f"propagation sign must be +1 or -1, got {sign!r}")
            norm.append((in_range("wavelength", lam), int(sign)))
        self._store(label, tuple(norm))

    @property
    def effective_k(self) -> float:
        """Net excitation wavevector magnitude |sum_i sign_i 2pi/lambda_i| in 1/m."""
        return abs(sum(sign * TWO_PI / lam for lam, sign in self.wavelengths))


class Species(_Record):
    """Per-species constants used by the lifetime and Doppler models: the mass (kg) and
    the low-l Rydberg lifetime coefficient ``tau0`` (s; tau ~ tau0 n^3)."""

    __slots__ = ("name", "mass", "tau0", "schemes")

    def __init__(self, name: str, mass: float, tau0: float,
                 schemes: tuple[ExcitationScheme, ...] = ()) -> None:
        mass, tau0 = in_range(f"mass of {name}", mass), in_range(f"tau0 of {name}", tau0)
        self._store(name, mass, tau0, schemes)

    def scheme(self, label: str | None = None) -> ExcitationScheme:
        """The scheme with this label; without a label, the species' first scheme."""
        if not self.schemes:
            raise DomainError(f"species {self.name} has no excitation scheme")
        if label is None:
            return self.schemes[0]
        # reversed, so that of two schemes with one label the first is found
        return _choice(f"{self.name} scheme", label, {s.label: s for s in reversed(self.schemes)})


def _resolve_doppler(
    species: Species, scheme: str | None, k_per_m: float | None, mass_kg: float | None
) -> tuple[float, float]:
    """Wavevector and mass of a Doppler estimate; an override given as None takes the
    species' value (its first scheme when ``scheme`` is empty or None)."""
    k = species.scheme(scheme or None).effective_k if k_per_m is None else k_per_m
    return k, species.mass if mass_kg is None else mass_kg


CESIUM = Species(
    name="Cs",
    mass=132.905451961 * ATOMIC_MASS_UNIT,
    tau0=3.3e-9,
    schemes=(
        ExcitationScheme("one-photon", ((319e-9, 1),)),
        # nominal counterpropagating two-photon route via the first resonance line
        ExcitationScheme("two-photon-counterprop", ((894.6e-9, 1), (494.4e-9, -1))),
    ),
)

RUBIDIUM = Species(
    name="Rb",
    mass=86.909180531 * ATOMIC_MASS_UNIT,
    tau0=2.80e-9,
    schemes=(
        ExcitationScheme("two-photon-counterprop", ((780e-9, 1), (480e-9, -1))),
    ),
)

BUILTIN_SPECIES = {"cs": CESIUM, "rb": RUBIDIUM}


def species_from_dict(data: dict) -> Species:
    """Build a Species from config keys.

    Required keys: ``name``, ``mass_kg``, ``tau0_ns``. Optional: ``schemes``
    (list of ``{label, wavelengths_nm, signs}``). Other keys are ignored. A
    missing key or a value that is not a valid number raises DomainError
    naming the species.
    """
    name = data.get("name") if isinstance(data, dict) else None
    try:
        schemes = tuple(
            ExcitationScheme(
                s["label"],
                tuple(zip((float(lam) * 1e-9 for lam in s["wavelengths_nm"]), s["signs"],
                          strict=True)),
            )
            for s in data.get("schemes", ())
        )
        return Species(
            name=str(data["name"]),
            mass=float(data["mass_kg"]),
            tau0=float(data["tau0_ns"]) * 1e-9,
            schemes=schemes,
        )
    except KeyError as exc:
        raise DomainError(f"species {name!r}: config missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"species {name!r}: {exc}") from None


def load_species_config(path: str) -> dict[str, Species]:
    """Load a JSON species config: either a list or ``{"species": [...]}``.

    Raises DomainError naming the file when it cannot be read, is not valid
    JSON or holds an invalid species.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        entries = raw["species"] if isinstance(raw, dict) else raw
        loaded = [species_from_dict(entry) for entry in entries]
    except KeyError as exc:  # species_from_dict reports its own missing keys
        raise DomainError(f"species config {path}: missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise DomainError(f"species config {path}: {exc}") from None
    return {sp.name.lower(): sp for sp in loaded}


def get_species(name: str, config: dict[str, Species] | None = None) -> Species:
    """Look a species up by name, config entries taking precedence over built-ins."""
    key = name.lower() if isinstance(name, str) else name
    return _choice("species", key, {**BUILTIN_SPECIES, **(config or {})})
