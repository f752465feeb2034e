"""Dressed ground-state pair potentials and many-body figures of merit.

The stack: dipole-dipole and van der Waals pair shifts, the crossover and
blockade radii, the exact dressed ground-state energy of the symmetric
two-atom three-level system (eigensolver and closed-form cubic routes),
normalized soft-core curves, and per-dimension figures of merit for coherent
many-body dressing dynamics.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BranchResidualWarning, DomainError, ModelValidityWarning, in_range
from .units import TWO_PI, Frequency, angular

_CBRT2 = 2.0 ** (1 / 3)


@dataclass(frozen=True)
class PairInteraction:
    """A single dipole-coupled Rydberg pair channel.

    ``c3`` is quoted in GHz um^3 (ordinary-frequency convention); the
    crossover radius ``r_c`` (m) may be given instead of, or along with,
    ``c3`` — when both are given they must be mutually consistent.
    """

    defect: Frequency              # signed Foerster defect
    angular_factor: float = 12.0   # D_kl of the interaction channel
    c3: float | None = None        # GHz um^3
    r_c: float | None = None       # m

    def __post_init__(self) -> None:
        if self.defect.rad_per_s == 0:
            raise DomainError("Foerster defect must be nonzero")
        in_range("angular factor D_kl", self.angular_factor)
        if self.c3 is None and self.r_c is None:
            raise DomainError("supply c3 or r_c")
        if self.r_c is not None:
            in_range("r_c", self.r_c)
        if self.c3 is not None:
            derived = crossover_radius(self.c3, self.defect, self.angular_factor)
            if self.r_c is None:
                object.__setattr__(self, "r_c", derived)
            elif abs(self.r_c / derived - 1.0) > 1e-6:
                raise DomainError(
                    f"inconsistent pair data: r_c = {self.r_c:.6g} m but c3 implies "
                    f"{derived:.6g} m"
                )


@dataclass(frozen=True)
class DressingParams:
    """Full parameter set of a dressing configuration on a qubit lattice."""

    rabi: Frequency
    detuning: Frequency  # signed
    pair: PairInteraction
    lifetime: float      # s, Rydberg lifetime
    spacing: float       # m, lattice period

    def __post_init__(self) -> None:
        in_range("Rabi frequency", self.rabi.rad_per_s)
        if self.detuning.rad_per_s == 0:
            raise DomainError("dressing detuning must be nonzero")
        in_range("lifetime", self.lifetime)
        in_range("lattice spacing", self.spacing)


@dataclass(frozen=True)
class FigureOfMerit:
    """Per-dimension coherent-operations figure of merit of a dressing setup."""

    dimension: int
    depth: Frequency        # perturbative soft-core depth |Omega|^4/(8 Delta^3)
    tau_dr: float           # s, per-atom dressing decoherence time
    n_atoms: float          # atoms inside a blockade volume (real-valued)
    n_atoms_floored: int
    f: float                # closed-form figure of merit
    f_composed: float       # same, composed as depth x tau_dr x N / 2pi
    f_prime: float          # avalanche-limited figure of merit (N-independent)
    f_prime_per_atom: float

    def __post_init__(self) -> None:
        for name in ("tau_dr", "n_atoms", "f", "f_composed", "f_prime", "f_prime_per_atom"):
            in_range(name, getattr(self, name))


def dipole_dipole_shift(r: float, defect: Frequency | float, r_c: float) -> Frequency:
    """Pair frequency shift (delta/2)(1 - sqrt(1 + (R_c/R)^6)) of the coupled channel."""
    r = in_range("separation R", r)
    d = angular(defect)
    r_c = in_range("r_c", r_c)
    try:
        return Frequency(0.5 * d * (1.0 - math.sqrt(1.0 + (r_c / r) ** 6)))
    except OverflowError:
        raise DomainError(f"(R_c/R)^6 is out of float range at R = {r!r}") from None


def vdw_shift(r: float, defect: Frequency | float, r_c: float) -> Frequency:
    """Long-range van der Waals limit -(delta/4)(R_c/R)^6 of the pair shift."""
    r = in_range("separation R", r)
    d = angular(defect)
    r_c = in_range("r_c", r_c)
    try:
        return Frequency(-0.25 * d * (r_c / r) ** 6)
    except OverflowError:
        raise DomainError(f"(R_c/R)^6 is out of float range at R = {r!r}") from None


def crossover_radius(
    c3: float, defect: Frequency | float, angular_factor: float = 12.0
) -> float:
    """Crossover radius (4 D_kl C3^2 / (hbar delta)^2)^(1/6) in meters.

    ``c3`` in GHz um^3 and the defect share the ordinary-frequency convention,
    so the 2pi factors cancel.
    """
    c3 = in_range("c3", c3, -math.inf)
    angular_factor = in_range("angular factor D_kl", angular_factor)
    d_ghz = abs(angular(defect)) / TWO_PI / 1e9
    if d_ghz == 0 or c3 == 0:
        raise DomainError("c3 and the defect must be nonzero")
    return in_range(
        "r_c", (4.0 * angular_factor) ** (1 / 6) * (abs(c3) / d_ghz) ** (1 / 3) * 1e-6
    )


def implied_c3(r_c: float, defect: Frequency | float, angular_factor: float = 12.0) -> float:
    """Invert :func:`crossover_radius`: the C3 (GHz um^3) behind a given R_c (m)."""
    r_c = in_range("r_c", r_c)
    angular_factor = in_range("angular factor D_kl", angular_factor)
    d_ghz = abs(angular(defect)) / TWO_PI / 1e9
    try:
        c3 = d_ghz * (r_c * 1e6) ** 3 / math.sqrt(4.0 * angular_factor)
    except OverflowError:
        raise DomainError(f"R_c^3 is out of float range at R_c = {r_c!r}") from None
    return in_range("c3", c3)


def blockade_radius(
    detuning: Frequency | float, defect: Frequency | float, r_c: float
) -> float:
    """Separation R_b where the pair shift equals the dressing detuning, in meters.

    R_b = R_c |delta|^(1/3) / (2^(1/3) (|Delta| |Delta + delta|)^(1/6)), defined
    only for matched signs of detuning and defect.
    """
    det = angular(detuning)
    d = angular(defect)
    _check_signs(det, d)
    r_c = in_range("r_c", r_c)
    product = in_range("|Delta (Delta + delta)|", abs(det) * abs(det + d))
    return in_range("blockade radius", r_c * abs(d) ** (1 / 3) / (_CBRT2 * product ** (1 / 6)))


def pair_light_shift_free(rabi: Frequency | float, detuning: Frequency | float) -> Frequency:
    """Dressed pair energy at infinite separation: -Delta + sgn(Delta) sqrt(Delta^2 + Omega^2)."""
    w = angular(rabi)
    det = angular(detuning)
    sg = math.copysign(1.0, det)
    return Frequency(-det + sg * math.sqrt(det * det + w * w))


def pair_light_shift_blockaded(
    rabi: Frequency | float, detuning: Frequency | float
) -> Frequency:
    """Dressed pair energy in the fully blockaded limit: (-Delta + sgn(Delta) sqrt(Delta^2 + 2 Omega^2))/2."""
    w = angular(rabi)
    det = angular(detuning)
    sg = math.copysign(1.0, det)
    return Frequency(0.5 * (-det + sg * math.sqrt(det * det + 2.0 * w * w)))


def dressing_depth_exact(rabi: Frequency | float, detuning: Frequency | float) -> Frequency:
    """Soft-core depth as the exact blockaded-minus-free pair light shift."""
    return Frequency(
        pair_light_shift_blockaded(rabi, detuning).rad_per_s
        - pair_light_shift_free(rabi, detuning).rad_per_s
    )


def dressing_depth_perturbative(
    rabi: Frequency | float, detuning: Frequency | float
) -> Frequency:
    """Leading-order soft-core depth -Omega^4/(8 Delta^3) (signed)."""
    w = angular(rabi)
    det = angular(detuning)
    if det == 0:
        raise DomainError("detuning must be nonzero")
    try:
        return Frequency(-(w**4) / (8.0 * det**3))
    except ArithmeticError:
        raise DomainError("Omega^4 / Delta^3 is out of float range") from None


def _hamiltonian_scaled(rabi: float, detuning: float, pair_shift: float):
    scale = max(abs(rabi), abs(detuning), abs(pair_shift), 1.0)
    w = rabi / (math.sqrt(2.0) * scale)
    h = np.array(
        [
            [0.0, w, 0.0],
            [w, -detuning / scale, w],
            [0.0, w, (-2.0 * detuning + pair_shift) / scale],
        ]
    )
    return h, scale


def dressed_ground_energy_exact(
    rabi: Frequency | float,
    detuning: Frequency | float,
    pair_shift: Frequency | float,
) -> Frequency:
    """Dressed ground-branch pair energy from the symmetric-basis 3x3 eigenproblem.

    Diagonalizes H/hbar = [[0, W, 0], [W, -Delta, W], [0, W, -2 Delta + D]]
    with W = Omega/sqrt(2) and selects the eigenvalue whose eigenvector has
    maximal overlap with the doubly-ground state.
    """
    value, _ = _dressed_exact_with_overlap(angular(rabi), angular(detuning), angular(pair_shift))
    return Frequency(value)


def dressed_ground_overlap(
    rabi: Frequency | float,
    detuning: Frequency | float,
    pair_shift: Frequency | float,
) -> float:
    """Overlap |<gg|psi>| of the selected dressed branch with the bare pair ground state."""
    _, overlap = _dressed_exact_with_overlap(angular(rabi), angular(detuning), angular(pair_shift))
    return overlap


def _dressed_exact_with_overlap(
    rabi: float, detuning: float, pair_shift: float
) -> tuple[float, float]:
    if rabi == 0.0:
        return 0.0, 1.0
    h, scale = _hamiltonian_scaled(rabi, detuning, pair_shift)
    vals, vecs = np.linalg.eigh(h)
    idx = int(np.argmax(np.abs(vecs[0, :])))
    return float(vals[idx] * scale), float(abs(vecs[0, idx]))


def dressed_ground_energy_closed_form(
    rabi: Frequency | float,
    detuning: Frequency | float,
    pair_shift: Frequency | float,
) -> Frequency:
    """Dressed ground-branch pair energy from the cubic characteristic polynomial.

    Evaluates the Cardano expression of the 3x3 eigenproblem with complex
    cube roots. All three root branches are formed and the ground branch is
    selected by the analytic eigenvector overlap with the doubly-ground
    state, so the selection stays correct where the cube-root branch rotates
    in the complex plane. A :class:`BranchResidualWarning` is issued if the
    returned root retains an imaginary residue above 1e-9 relative.
    """
    w_raw = angular(rabi)
    scale = max(abs(w_raw), abs(angular(detuning)), abs(angular(pair_shift)), 1.0)
    omega = w_raw / scale
    if omega == 0.0:
        return Frequency(0.0)
    delta = angular(detuning) / scale
    dd = angular(pair_shift) / scale

    omega2 = omega * omega
    a = dd * (18.0 * delta * delta - 18.0 * delta * dd + 4.0 * dd * dd - 9.0 * omega2)
    b = 3.0 * delta * delta - 3.0 * delta * dd + dd * dd + 3.0 * omega2
    c = delta * delta - delta * dd + dd * dd / 3.0 + omega2
    disc = cmath.sqrt(complex(a * a - 16.0 * b**3))
    # pick the additive sqrt branch that keeps |f^3| away from cancellation
    f_cubed = a + disc if abs(a + disc) >= abs(a - disc) else a - disc
    if f_cubed == 0:
        return Frequency(0.0)
    f0 = f_cubed ** (1 / 3)

    w = omega / math.sqrt(2.0)
    best_val = best_overlap = None
    best_resid = 0.0
    for k in range(3):
        f = f0 * cmath.exp(2j * math.pi * k / 3.0)
        lam = -delta + dd / 3.0 + 2.0 ** (2 / 3) * c / f + _CBRT2 * f / 6.0
        lam_re = lam.real
        ratio2 = lam_re / w
        den = lam_re + 2.0 * delta - dd
        if den == 0.0:
            overlap = 0.0
        else:
            ratio3 = ratio2 * w / den
            overlap = 1.0 / math.sqrt(1.0 + ratio2 * ratio2 + ratio3 * ratio3)
        if best_overlap is None or overlap > best_overlap:
            best_val, best_overlap, best_resid = lam_re, overlap, abs(lam.imag)
    if best_resid > 1e-9 * max(abs(best_val), 1e-300):
        warnings.warn(
            f"cubic root kept imaginary residue {best_resid:.3g} vs value {best_val:.3g}",
            BranchResidualWarning,
            stacklevel=2,
        )
    return Frequency(best_val * scale)


def soft_core_scale(
    detuning: Frequency | float, defect: Frequency | float, r_c: float
) -> float:
    """Core radius xi = R_c (delta/(8 Delta))^(1/6) of the single-term approximation, in m."""
    det = angular(detuning)
    d = angular(defect)
    _check_signs(det, d)
    r_c = in_range("r_c", r_c)
    return in_range("core radius", r_c * (d / (8.0 * det)) ** (1 / 6))


def normalized_potential(r: float, params: DressingParams, kind: str = "full") -> float:
    """Normalized soft-core curve V(R) = [E(R) - E(inf)] / |E(0) - E(inf)|.

    ``kind`` selects the pair-shift model feeding the dressed energy:
    ``full`` (dipole-dipole crossover form), ``vdw`` (pure 1/R^6 limit), or
    ``single_term`` (the -xi^6/(R^6 + xi^6) approximation, sign-matched to
    the dressed branch). |V| -> 1 at the origin and V -> 0 at infinity.
    """
    r = in_range("separation R", r)
    det = params.detuning.rad_per_s
    defect = params.pair.defect.rad_per_s
    _check_signs(det, defect)
    r_c = params.pair.r_c
    if kind == "single_term":
        try:
            xi6 = soft_core_scale(det, defect, r_c) ** 6
            return -math.copysign(1.0, det) * xi6 / (r**6 + xi6)
        except ArithmeticError:
            raise DomainError("R^6 or xi^6 is out of float range") from None
    if kind == "full":
        shift = dipole_dipole_shift(r, defect, r_c)
    elif kind == "vdw":
        shift = vdw_shift(r, defect, r_c)
    else:
        raise DomainError(f"unknown potential kind {kind!r}")
    w = params.rabi.rad_per_s
    free = pair_light_shift_free(w, det).rad_per_s
    depth = in_range("well depth", abs(pair_light_shift_blockaded(w, det).rad_per_s - free))
    energy = dressed_ground_energy_exact(w, det, shift).rad_per_s
    return in_range("normalized potential", (energy - free) / depth, -math.inf)


def dressed_decoherence_time(
    rabi: Frequency | float, detuning: Frequency | float, lifetime: float
) -> float:
    """Per-atom dressing decoherence time tau_dr = (2 Delta^2/Omega^2) tau, in s."""
    w = angular(rabi)
    det = angular(detuning)
    lifetime = in_range("lifetime", lifetime)
    w2 = in_range("Omega^2", w * w)
    return in_range("tau_dr", 2.0 * det * det / w2 * lifetime)


def operations_per_atom(params: DressingParams) -> float:
    """Coherent interaction cycles per atom, depth x tau_dr / 2pi (dimension-free)."""
    depth = abs(dressing_depth_perturbative(params.rabi, params.detuning).rad_per_s)
    tau_dr = dressed_decoherence_time(params.rabi, params.detuning, params.lifetime)
    return depth * tau_dr / TWO_PI


def f_prime(
    rabi: Frequency | float, detuning: Frequency | float, lifetime: float
) -> float:
    """Avalanche-limited figure of merit 2 depth tau_dr / 2pi = Omega^2 tau/(4 pi |Delta|).

    The collective decoherence rate grows with atom number, so this form is
    independent of dimensionality and atom count.
    """
    w = angular(rabi)
    det = angular(detuning)
    if w == 0 or det == 0:
        raise DomainError("rabi and detuning must be nonzero")
    lifetime = in_range("lifetime", lifetime)
    return w * w * lifetime / (4.0 * math.pi * abs(det))


def f_prime_defect(
    rabi: Frequency | float, defect: Frequency | float, lifetime: float
) -> float:
    """Defect-scaled variant Omega^2 tau/(4 pi |delta|) of the avalanche figure of merit.

    A commonly printed simplification of :func:`f_prime` that replaces the
    dressing detuning by the Foerster defect; the two agree only when
    |delta| = |Delta| and scale differently with principal quantum number
    (n^7 here vs n^6 for the definitional form).
    """
    w = angular(rabi)
    d = angular(defect)
    if w == 0 or d == 0:
        raise DomainError("rabi and defect must be nonzero")
    lifetime = in_range("lifetime", lifetime)
    return w * w * lifetime / (4.0 * math.pi * abs(d))


def _closed_form_fom(
    dimension: int,
    rabi: float,
    defect_abs: float,
    detuning_abs: float,
    sum_abs: float,
    lifetime: float,
    rc_over_d: float,
) -> float:
    w2 = rabi * rabi
    if dimension == 1:
        return (
            w2 * defect_abs ** (1 / 3) / (2.0 ** (1 / 3) * 8.0 * math.pi)
            / (detuning_abs ** (7 / 6) * sum_abs ** (1 / 6))
            * lifetime * rc_over_d
        )
    if dimension == 2:
        return (
            w2 * defect_abs ** (2 / 3) / (2.0 ** (2 / 3) * 32.0)
            / (detuning_abs ** (4 / 3) * sum_abs ** (1 / 3))
            * lifetime * rc_over_d**2
        )
    if dimension == 3:
        return (
            w2 * defect_abs / 96.0
            / (detuning_abs ** (3 / 2) * sum_abs ** (1 / 2))
            * lifetime * rc_over_d**3
        )
    raise DomainError(f"dimension must be 1, 2, or 3, got {dimension}")


def blockade_atom_count(dimension: int, r_b: float, spacing: float) -> float:
    """Atoms of a period-d lattice inside a blockade length/disk/sphere of diameter R_b."""
    x = r_b / (2.0 * spacing)
    if dimension == 1:
        return r_b / spacing
    if dimension == 2:
        return math.pi * x * x
    if dimension == 3:
        return 4.0 * math.pi / 3.0 * x**3
    raise DomainError(f"dimension must be 1, 2, or 3, got {dimension}")


def figures_of_merit(params: DressingParams) -> tuple[FigureOfMerit, ...]:
    """Figures of merit for 1D, 2D, and 3D lattices at the given dressing point.

    Each record carries the perturbative depth, decoherence time tau_dr, the
    (real and floored) atom number inside a blockade volume, the figure of
    merit computed both from its explicit closed form and composed as
    depth x tau_dr x N / 2pi, and the avalanche-limited variant with its
    per-atom value. Magnitudes enter the formulas; the signs only gate
    validity (matched signs required, weak dressing |Omega| < |Delta| warned).
    """
    w = params.rabi.rad_per_s
    det = params.detuning.rad_per_s
    defect = params.pair.defect.rad_per_s
    _check_signs(det, defect)
    if abs(w) >= abs(det):
        warnings.warn(
            f"|Omega| = {abs(w):.3g} >= |Delta| = {abs(det):.3g}: outside the "
            "weak-dressing regime of the figures of merit",
            ModelValidityWarning,
            stacklevel=2,
        )
    sum_abs = abs(det + defect)
    r_b = blockade_radius(det, defect, params.pair.r_c)
    depth = Frequency(abs(dressing_depth_perturbative(w, det).rad_per_s))
    tau_dr = dressed_decoherence_time(w, det, params.lifetime)
    ops = depth.rad_per_s * tau_dr / TWO_PI
    fp = 2.0 * ops
    records = []
    try:
        for dim in (1, 2, 3):
            n_atoms = blockade_atom_count(dim, r_b, params.spacing)
            f_closed = _closed_form_fom(
                dim, w, abs(defect), abs(det), sum_abs,
                params.lifetime, params.pair.r_c / params.spacing,
            )
            records.append(
                FigureOfMerit(
                    dimension=dim,
                    depth=depth,
                    tau_dr=tau_dr,
                    n_atoms=n_atoms,
                    n_atoms_floored=math.floor(n_atoms),
                    f=f_closed,
                    f_composed=ops * n_atoms,
                    f_prime=fp,
                    f_prime_per_atom=fp / n_atoms,
                )
            )
    except ArithmeticError:
        raise DomainError("a figure of merit is out of float range") from None
    return tuple(records)


@dataclass(frozen=True)
class ScalingModel:
    """Power-law exponents of the dressing parameters in principal quantum number."""

    defect_exponent: float = -4.0     # |delta| ~ 1/n^4
    lifetime_exponent: float = 3.0    # tau ~ n^3
    crossover_exponent: float = 8 / 3  # R_c ~ n^(8/3)
    spacing_exponent: float = 2.0     # d ~ a0 n^2
    detuning_exponent: float = -3.0   # |Delta| ~ 1/n^3


HEAVY_ALKALI_SCALING = ScalingModel()

_SCALING_QUANTITIES = ("F_1D", "F_2D", "F_3D", "F_prime", "F_prime_defect")


def scaling_exponent(
    quantity: str,
    n_lo: float,
    n_hi: float,
    model: ScalingModel = HEAVY_ALKALI_SCALING,
) -> float:
    """Asymptotic exponent d(ln F)/d(ln n) of a figure of merit under power-law scalings.

    Evaluates the chosen quantity with unit prefactors and fixed Omega at
    ``n_lo`` and ``n_hi`` and returns the log-log secant slope.
    """
    if quantity not in _SCALING_QUANTITIES:
        raise DomainError(
            f"unknown quantity {quantity!r} (choose from {', '.join(_SCALING_QUANTITIES)})"
        )
    n_lo = in_range("n_lo", n_lo, 50.0, bounds="[)")
    n_hi = in_range("n_hi", n_hi, n_lo)

    def value(n: float) -> float:
        defect = n**model.defect_exponent
        tau = n**model.lifetime_exponent
        r_c = n**model.crossover_exponent
        d = n**model.spacing_exponent
        det = n**model.detuning_exponent
        if quantity == "F_prime":
            return 1.0 * tau / (4.0 * math.pi * det)
        if quantity == "F_prime_defect":
            return 1.0 * tau / (4.0 * math.pi * defect)
        dim = int(quantity[2])
        return _closed_form_fom(dim, 1.0, defect, det, det + defect, tau, r_c / d)

    try:
        slope = (math.log(value(n_hi)) - math.log(value(n_lo))) / (math.log(n_hi) - math.log(n_lo))
    except (ArithmeticError, ValueError):
        raise DomainError(f"{quantity} leaves the float range between n_lo and n_hi") from None
    return in_range("scaling exponent", slope, -math.inf)


def _check_signs(detuning: float, defect: float) -> None:
    if detuning == 0 or defect == 0:
        raise DomainError("detuning and defect must be nonzero")
    if math.copysign(1.0, detuning) != math.copysign(1.0, defect):
        raise DomainError(
            "detuning and Foerster defect have opposite signs: this combination "
            "has an excitation resonance at finite separation and is excluded"
        )
