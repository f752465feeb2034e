"""Quantitative models for Rydberg-interacting neutral-atom qubit arrays.

Atom-loss and crosstalk budgets, intrinsic gate-error models with their
optimal operating points and asymptotic floors, Doppler and Stark budgets,
dressed soft-core pair potentials with per-dimension figures of merit, a
parameter-scan grid engine, and a reproduction harness for the published
reference values the models were validated against.

The package namespace is lazy: a public name or a submodule is imported on
first access, so ``import rydkit`` loads no model module.
"""

import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "budget": (
        "CrosstalkEstimate",
        "MonteCarloResult",
        "default_t_qec",
        "loss_probability",
        "measurement_crosstalk",
        "required_reload_rate",
        "required_vacuum_lifetime",
        "simulate_loss",
    ),
    "core": (
        "blackbody_depopulation_rate",
        "magnetic_trap_field",
        "rydberg_lifetime",
    ),
    "dressing": (
        "DressingParams",
        "FigureOfMerit",
        "PairInteraction",
        "blockade_radius",
        "crossover_radius",
        "dipole_dipole_shift",
        "dressed_ground_energy_closed_form",
        "dressed_ground_energy_exact",
        "dressing_depth_exact",
        "dressing_depth_perturbative",
        "figures_of_merit",
        "implied_c3",
        "normalized_potential",
        "scaling_exponent",
        "vdw_shift",
    ),
    "errors": ("DomainError", "ModelValidityWarning"),
    "gate_error": (
        "GateErrorBudget",
        "asymptotic_blockade_floor",
        "asymptotic_dressing_floor",
        "blockade_gate_error",
        "detuning_budget",
        "doppler_fidelity",
        "doppler_infidelity",
        "dressing_gate_error",
        "entanglement_error_bound",
        "field_budget",
        "interaction_gate_error",
        "minimal_interaction_gate_error",
        "optimal_interaction_strength",
        "optimal_rabi",
        "spontaneous_budget",
    ),
    "grid": ("Axis", "ScanGrid", "axis", "scan"),
    "report": ("ReproductionReport", "reproduce"),
    "species": (
        "BUILTIN_SPECIES",
        "CESIUM",
        "RUBIDIUM",
        "ExcitationScheme",
        "Species",
        "get_species",
        "load_species_config",
    ),
    "units": ("Frequency",),
}

_SUBMODULES = frozenset({*_EXPORTS, "cli", "constants"})
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """Import a submodule, or a public name from its submodule, on first access."""
    if name in _SUBMODULES:
        return _load(name)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_ORIGIN[name]), name)
    globals()[name] = value  # later lookups skip this function
    return value


def _load(submodule: str):
    """Import a submodule through the import statement's path, which ``-X importtime`` logs."""
    __import__(f"{__name__}.{submodule}")
    return sys.modules[f"{__name__}.{submodule}"]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
