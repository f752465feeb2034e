"""Quantitative models for Rydberg-interacting neutral-atom qubit arrays.

Atom-loss and crosstalk budgets, intrinsic gate-error models with their
optimal operating points and asymptotic floors, Doppler and Stark budgets,
dressed soft-core pair potentials with per-dimension figures of merit, a
parameter-scan grid engine, and a reproduction harness for the published
reference values the models were validated against.
"""

from .budget import (
    CrosstalkEstimate,
    MonteCarloResult,
    default_t_qec,
    loss_probability,
    measurement_crosstalk,
    required_reload_rate,
    required_vacuum_lifetime,
    simulate_loss,
)
from .core import (
    blackbody_depopulation_rate,
    free_electron_polarizability,
    magnetic_trap_field,
    rydberg_lifetime,
)
from .dressing import (
    DressingParams,
    FigureOfMerit,
    PairInteraction,
    blockade_radius,
    crossover_radius,
    dipole_dipole_shift,
    dressed_ground_energy_closed_form,
    dressed_ground_energy_exact,
    dressing_depth_exact,
    dressing_depth_perturbative,
    figures_of_merit,
    implied_c3,
    normalized_potential,
    scaling_exponent,
    vdw_shift,
)
from .errors import BranchResidualWarning, DomainError, ModelValidityWarning
from .gate_error import (
    GateErrorBudget,
    asymptotic_blockade_floor,
    asymptotic_dressing_floor,
    blockade_gate_error,
    detuning_budget,
    doppler_fidelity,
    doppler_infidelity,
    dressing_gate_error,
    entanglement_error_bound,
    field_budget,
    interaction_gate_error,
    minimal_interaction_gate_error,
    optimal_interaction_strength,
    optimal_rabi,
    spontaneous_budget,
)
from .grid import Axis, ScanGrid, axis, scan
from .report import ReproductionReport, reproduce
from .species import (
    BUILTIN_SPECIES,
    CESIUM,
    RUBIDIUM,
    ExcitationScheme,
    Species,
    get_species,
    load_species_config,
)
from .units import Frequency

__version__ = "0.1.0"
