"""Dressed ground-state pair potentials and many-body figures of merit.

The stack: dipole-dipole and van der Waals pair shifts, the crossover and
blockade radii, the exact dressed ground-state energy of the symmetric
two-atom three-level system (eigensolver and closed-form cubic routes),
normalized soft-core curves, and per-dimension figures of merit for coherent
many-body dressing dynamics.
"""

from __future__ import annotations

import math

from .errors import BranchResidualWarning, DomainError, _any, _choice, _count, _flag
from .errors import _float_range, _nonzero, _per_element, _Record, _scalar, in_range
from .units import TWO_PI, Frequency

_CBRT2 = 2.0 ** (1 / 3)
_CBRT4 = 2.0 ** (2 / 3)
_SQRT2 = math.sqrt(2.0)


class PairInteraction(_Record):
    """A single dipole-coupled Rydberg pair channel.

    ``defect`` is the signed Foerster defect and ``angular_factor`` the D_kl of
    the channel. ``c3`` is quoted in GHz um^3 (ordinary-frequency convention); the
    crossover radius ``r_c`` (m) may be given instead of, or along with,
    ``c3`` — when both are given they must be mutually consistent. Fields
    are stored as checked: the defect as a Frequency, the numbers as floats.
    """

    __slots__ = ("defect", "angular_factor", "c3", "r_c")

    def __init__(self, defect: Frequency, angular_factor: float = 12.0,
                 c3: float | None = None, r_c: float | None = None) -> None:
        # every field is a scalar, as every builder in the package passes: a pair channel
        # is one point, and the consistency check of c3 and r_c below is one bool
        defect = _nonzero("Foerster defect", _scalar("Foerster defect", defect, -math.inf))
        angular_factor = _scalar("angular factor D_kl", angular_factor)
        if c3 is None and r_c is None:
            raise DomainError("supply c3 or r_c")
        if r_c is not None:
            r_c = _scalar("r_c", r_c)
        if c3 is not None:
            c3 = _nonzero("c3", _scalar("c3", c3, -math.inf))
            derived = crossover_radius(c3, defect, angular_factor)
            if r_c is None:
                r_c = derived
            elif abs(r_c / derived - 1.0) > 1e-6:
                raise DomainError(
                    f"inconsistent pair data: r_c = {r_c:.6g} m but c3 implies {derived:.6g} m"
                )
        self._store(Frequency(defect), angular_factor, c3, r_c)


class DressingParams(_Record):
    """Full parameter set of a dressing configuration on a qubit lattice: the detuning
    (signed, of the defect's sign), the Rydberg lifetime (s) and the lattice period (m).
    Every field and the matched signs of detuning and defect are checked once, here, and
    stored as checked."""

    __slots__ = ("rabi", "detuning", "pair", "lifetime", "spacing")

    def __init__(self, rabi: Frequency, detuning: Frequency, pair: PairInteraction,
                 lifetime: float, spacing: float) -> None:
        rabi = Frequency(in_range("Rabi frequency", rabi))
        detuning, _ = _check_signs(detuning, pair.defect)
        self._store(rabi, Frequency(detuning), pair, in_range("lifetime", lifetime),
                    in_range("lattice spacing", spacing))


def _dressing_params(
    rabi_mhz: float, detuning_mhz: float, defect_mhz: float,
    rc_um: float | None = None, c3_ghz_um3: float | None = None, d_kl: float = 12.0,
    tau_us: float = 320.0, spacing_um: float = 1.0,
) -> DressingParams:
    """DressingParams from lab units (per-2pi MHz, um); ``rabi_mhz`` may be an ndarray."""
    pair = PairInteraction(
        defect=Frequency.from_hz(defect_mhz * 1e6),
        angular_factor=d_kl,
        c3=c3_ghz_um3,
        r_c=rc_um * 1e-6 if rc_um is not None else None,
    )
    return DressingParams(
        rabi=Frequency.from_hz(rabi_mhz * 1e6),
        detuning=Frequency.from_hz(detuning_mhz * 1e6),
        pair=pair, lifetime=tau_us * 1e-6, spacing=spacing_um * 1e-6,
    )


class FigureOfMerit(_Record):
    """Per-dimension coherent-operations figure of merit of a dressing setup.

    ``n_atoms`` counts the atoms inside a blockade volume (real-valued), ``f`` is the
    closed-form figure of merit, ``f_composed`` the same composed as depth x tau_dr x
    N / 2pi, and ``f_prime`` the avalanche-limited one (N-independent).
    """

    __slots__ = ("dimension", "n_atoms", "n_atoms_floored", "f", "f_composed", "f_prime",
                 "f_prime_per_atom")

    def __init__(self, dimension: int, n_atoms: float, n_atoms_floored: int, f: float,
                 f_composed: float, f_prime: float, f_prime_per_atom: float) -> None:
        self._store(dimension, n_atoms, n_atoms_floored, f, f_composed, f_prime, f_prime_per_atom)
        for name in ("n_atoms", "f", "f_composed", "f_prime", "f_prime_per_atom"):
            in_range(name, getattr(self, name))


def dipole_dipole_shift(r: float, defect: Frequency | float, r_c: float) -> Frequency:
    """Pair frequency shift (delta/2)(1 - sqrt(1 + (R_c/R)^6)) of the coupled channel.

    The arguments broadcast as ndarrays.
    """
    import numpy as np

    return _pair_shift(r, defect, r_c, lambda d, x6: 0.5 * d * (1.0 - np.sqrt(1.0 + x6)))


def vdw_shift(r: float, defect: Frequency | float, r_c: float) -> Frequency:
    """Long-range van der Waals limit -(delta/4)(R_c/R)^6 of the pair shift.

    The arguments broadcast as ndarrays.
    """
    return _pair_shift(r, defect, r_c, lambda d, x6: -0.25 * d * x6)


def _pair_shift(r, defect, r_c, shift) -> Frequency:
    """``shift(delta, (R_c/R)^6)`` as a Frequency, with R, the defect and R_c checked."""
    r = in_range("separation R", r)
    d = in_range("defect", defect, -math.inf)
    r_c = in_range("r_c", r_c)
    with _float_range("(R_c/R)^6"):
        return Frequency(in_range("pair shift", shift(d, _per_element(pow, r_c / r, 6)), -math.inf))


def crossover_radius(
    c3: float, defect: Frequency | float, angular_factor: float = 12.0
) -> float:
    """Crossover radius (4 D_kl C3^2 / (hbar delta)^2)^(1/6) in meters.

    ``c3`` in GHz um^3 and the defect share the ordinary-frequency convention,
    so the 2pi factors cancel.
    """
    c3 = _nonzero("c3", c3)
    angular_factor = in_range("angular factor D_kl", angular_factor)
    d_ghz = abs(_nonzero("defect", defect)) / TWO_PI / 1e9
    with _float_range("|c3| / defect"):  # a subnormal defect can reach 0 GHz
        c3_over_d = _per_element(pow, abs(c3) / d_ghz, 1 / 3)
    return in_range("r_c", _per_element(pow, 4.0 * angular_factor, 1 / 6) * c3_over_d * 1e-6)


def implied_c3(r_c: float, defect: Frequency | float, angular_factor: float = 12.0) -> float:
    """Invert :func:`crossover_radius`: the C3 (GHz um^3) behind a given R_c (m)."""
    r_c = in_range("r_c", r_c)
    angular_factor = in_range("angular factor D_kl", angular_factor)
    d_ghz = abs(in_range("defect", defect, -math.inf)) / TWO_PI / 1e9
    with _float_range("R_c^3"):
        r_c3 = _per_element(pow, r_c * 1e6, 3)
        c3 = d_ghz * r_c3 / _per_element(math.sqrt, 4.0 * angular_factor)
    return in_range("c3", c3)


def blockade_radius(
    detuning: Frequency | float, defect: Frequency | float, r_c: float
) -> float:
    """Separation R_b where the pair shift equals the dressing detuning, in meters.

    R_b = R_c |delta|^(1/3) / (2^(1/3) (|Delta| |Delta + delta|)^(1/6)), defined
    only for matched signs of detuning and defect.
    """
    det, d = _check_signs(detuning, defect)
    r_c = in_range("r_c", r_c)
    product = in_range("|Delta (Delta + delta)|", abs(det) * abs(det + d))
    cbrt_d, root6 = _per_element(pow, abs(d), 1 / 3), _per_element(pow, product, 1 / 6)
    return in_range("blockade radius", r_c * cbrt_d / (_CBRT2 * root6))


def pair_light_shift_free(rabi: Frequency | float, detuning: Frequency | float) -> Frequency:
    """Dressed pair energy at infinite separation: -Delta + sgn(Delta) sqrt(Delta^2 + Omega^2).

    The arguments broadcast as ndarrays.
    """
    return _pair_light_shift(rabi, detuning, 1)


def pair_light_shift_blockaded(
    rabi: Frequency | float, detuning: Frequency | float
) -> Frequency:
    """Dressed pair energy in the fully blockaded limit: (-Delta + sgn(Delta) sqrt(Delta^2 + 2 Omega^2))/2.

    The arguments broadcast as ndarrays.
    """
    return _pair_light_shift(rabi, detuning, 2)


def _pair_light_shift(rabi, detuning, k: int) -> Frequency:
    """(-Delta + sgn(Delta) sqrt(Delta^2 + k Omega^2))/k, for k = 1 (free) or 2 (blockaded)."""
    import numpy as np

    w = in_range("Rabi frequency", rabi, -math.inf)
    det = in_range("detuning", detuning, -math.inf)
    expression = "Delta^2 + Omega^2" if k == 1 else "Delta^2 + 2 Omega^2"
    with _float_range(expression):  # a sum that overflows to inf is named here
        total = in_range(expression, det * det + k * w * w, bounds="[)")
        return Frequency((-det + np.copysign(1.0, det) * np.sqrt(total)) / k)


def dressing_depth_exact(rabi: Frequency | float, detuning: Frequency | float) -> Frequency:
    """Soft-core depth as the exact blockaded-minus-free pair light shift (ndarrays too)."""
    return Frequency(
        pair_light_shift_blockaded(rabi, detuning).rad_per_s
        - pair_light_shift_free(rabi, detuning).rad_per_s
    )


def dressing_depth_perturbative(
    rabi: Frequency | float, detuning: Frequency | float
) -> Frequency:
    """Leading-order soft-core depth -Omega^4/(8 Delta^3) (signed)."""
    w = in_range("Rabi frequency", rabi, -math.inf)
    det = _nonzero("detuning", detuning)
    with _float_range("Omega^4 / Delta^3"):
        return Frequency(-_per_element(pow, w, 4) / (8.0 * _per_element(pow, det, 3)))


def _scale(rabi, detuning, pair_shift):
    """max(|Omega|, |Delta|, |D|, 1): the common scale that keeps the matrix O(1)."""
    import numpy as np

    return np.maximum(np.maximum(abs(rabi), abs(detuning)), np.maximum(abs(pair_shift), 1.0))


def dressed_ground_energy_exact(
    rabi: Frequency | float,
    detuning: Frequency | float,
    pair_shift: Frequency | float,
) -> Frequency:
    """Dressed ground-branch pair energy from the symmetric-basis 3x3 eigenproblem.

    Diagonalizes H/hbar = [[0, W, 0], [W, -Delta, W], [0, W, -2 Delta + D]]
    with W = Omega/sqrt(2) and selects the eigenvalue whose eigenvector has
    maximal overlap with the doubly-ground state. The arguments broadcast as
    ndarrays; all points are solved by one stacked eigensolve.
    """
    value, _ = _ground_branch(*_dressed_arguments(rabi, detuning, pair_shift))
    return Frequency(in_range("dressed energy", value, -math.inf))


def _dressed_arguments(rabi, detuning, pair_shift):
    """The Rabi frequency, detuning and pair shift of a dressed energy, checked, in rad/s."""
    names = ("Rabi frequency", "detuning", "pair shift")
    return [in_range(n, v, -math.inf) for n, v in zip(names, (rabi, detuning, pair_shift))]


def _ground_branch(rabi, detuning, pair_shift):
    """Ground-branch eigenvalue and its overlap with |gg>, from one stacked eigensolve.

    The ground branch of each point is the eigenvector with the largest |gg>
    component; its index picks the eigenvalue and the overlap out of the
    solver's output. At Omega = 0 the matrix is diagonal: the solver returns
    the bare state's eigenvalue 0 and its unit eigenvector exactly. Overflows
    are left to the callers' range checks.
    """
    import numpy as np

    scale = _scale(rabi, detuning, pair_shift)
    shape = scale.shape
    h = np.zeros(shape + (9,))
    with _float_range("dressed energy"):
        h[..., 1::2] = (rabi / (_SQRT2 * scale))[..., None]
        h[..., 4] = -detuning / scale
        h[..., 8] = (-2.0 * detuning + pair_shift) / scale
        vals, vecs = np.linalg.eigh(h.reshape(shape + (3, 3)))
        first = abs(vecs[..., 0, :])
        ground = first.argmax(-1, keepdims=True)  # the branch, an index on the last axis
        value, overlap = (np.take_along_axis(x, ground, -1).reshape(shape) for x in (vals, first))
        return value * scale, overlap


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
    in the complex plane. The arguments broadcast as ndarrays. One
    :class:`BranchResidualWarning` is issued if a returned root retains an
    imaginary residue above 1e-9 relative.
    """
    import numpy as np

    w_raw, det, dd_raw = _dressed_arguments(rabi, detuning, pair_shift)
    scale = _scale(w_raw, det, dd_raw)
    with _float_range("dressed energy"):
        value, resid = _cardano_ground_branch(w_raw / scale, det / scale, dd_raw / scale)
        bad = resid > 1e-9 * np.maximum(abs(value), 1e-300)
        _flag(value, bad, lambda _: _residual_message(value, resid, bad),
              category=BranchResidualWarning)
        return Frequency(value * scale)


def _residual_message(value, resid, bad) -> str:
    """The residue and the value at the first flagged point, and how many points are flagged."""
    import numpy as np

    i = np.unravel_index(np.argmax(bad), bad.shape)
    return (f"cubic root kept imaginary residue {resid[i]:.3g} vs value {value[i]:.3g}"
            f" at {np.count_nonzero(bad)} of {bad.size} points")


def _cardano_ground_branch(omega, delta, dd):
    """Scaled ground-branch eigenvalue and the imaginary residue it kept."""
    import numpy as np

    omega2 = omega * omega
    a = dd * (18.0 * delta * delta - 18.0 * delta * dd + 4.0 * dd * dd - 9.0 * omega2)
    b = 3.0 * delta * delta - 3.0 * delta * dd + dd * dd + 3.0 * omega2
    c = delta * delta - delta * dd + dd * dd / 3.0 + omega2
    # b * b * b, not b**3: numpy rounds a power differently for scalars and arrays
    disc = np.sqrt(a * a - 16.0 * b * b * b + 0j)
    # pick the additive sqrt branch that keeps |f^3| away from cancellation:
    # |a + disc| >= |a - disc| exactly when a Re(disc) >= 0
    f_cubed = np.where(a * disc.real >= 0.0, a + disc, a - disc)
    # the three cube-root branches along a trailing axis
    f = (f_cubed ** (1 / 3))[..., None] * np.exp(2j * np.pi * np.arange(3) / 3.0)
    w, delta, dd, c = (x[..., None] for x in (omega / _SQRT2, delta, dd, c))
    lam = -delta + dd / 3.0 + _CBRT4 * c / f + _CBRT2 * f / 6.0
    ratio2 = lam.real / w
    den = lam.real + 2.0 * delta - dd
    ratio3 = ratio2 * w / den
    overlap = np.where(den == 0.0, 0.0, 1.0 / np.sqrt(1.0 + ratio2 * ratio2 + ratio3 * ratio3))
    ground = np.take_along_axis(lam, overlap.argmax(-1, keepdims=True), -1).reshape(f_cubed.shape)
    ground = np.where((omega == 0.0) | (f_cubed == 0.0), 0j, ground)
    return ground.real, abs(ground.imag)


def soft_core_scale(
    detuning: Frequency | float, defect: Frequency | float, r_c: float
) -> float:
    """Core radius xi = R_c (delta/(8 Delta))^(1/6) of the single-term approximation, in m.

    The arguments broadcast as ndarrays.
    """
    det, d = _check_signs(detuning, defect)
    r_c = in_range("r_c", r_c)
    return in_range("core radius", r_c * _per_element(pow, d / (8.0 * det), 1 / 6))


def normalized_potential(r: float, params: DressingParams, kind: str = "full") -> float:
    """Normalized soft-core curve V(R) = [E(R) - E(inf)] / |E(0) - E(inf)|.

    ``kind`` selects the pair-shift model feeding the dressed energy:
    ``full`` (dipole-dipole crossover form), ``vdw`` (pure 1/R^6 limit), or
    ``single_term`` (the -xi^6/(R^6 + xi^6) approximation, sign-matched to
    the dressed branch). |V| -> 1 at the origin and V -> 0 at infinity.
    ``r`` may be an ndarray; the dressed energies of all its separations are
    then solved by one stacked eigensolve.
    """
    r = in_range("separation R", r)
    det, defect, r_c = params.detuning.rad_per_s, params.pair.defect.rad_per_s, params.pair.r_c
    _choice("potential kind", kind, ("full", "single_term", "vdw"))
    if kind == "single_term":
        with _float_range("R^6 or xi^6"):
            xi6 = soft_core_scale(det, defect, r_c) ** 6
            value = -math.copysign(1.0, det) * xi6 / (_per_element(pow, r, 6) + xi6)
        return in_range("normalized potential", value, -math.inf)
    shift = (dipole_dipole_shift if kind == "full" else vdw_shift)(r, defect, r_c)
    w = params.rabi.rad_per_s
    free = pair_light_shift_free(w, det).rad_per_s
    depth = in_range("well depth", abs(dressing_depth_exact(w, det).rad_per_s))
    energy = dressed_ground_energy_exact(w, det, shift).rad_per_s
    with _float_range("normalized potential"):
        value = (energy - free) / depth
    return in_range("normalized potential", value, -math.inf)


def dressed_decoherence_time(
    rabi: Frequency | float, detuning: Frequency | float, lifetime: float
) -> float:
    """Per-atom dressing decoherence time tau_dr = (2 Delta^2/Omega^2) tau, in s."""
    w = in_range("Rabi frequency", rabi, -math.inf)
    det = in_range("detuning", detuning, -math.inf)
    lifetime = in_range("lifetime", lifetime)
    w2 = in_range("Omega^2", w * w)
    return in_range("tau_dr", 2.0 * det * det / w2 * lifetime)


def operations_per_atom(params: DressingParams) -> float:
    """Coherent interaction cycles per atom, depth x tau_dr / 2pi (dimension-free)."""
    depth = abs(dressing_depth_perturbative(params.rabi, params.detuning).rad_per_s)
    tau_dr = dressed_decoherence_time(params.rabi, params.detuning, params.lifetime)
    return in_range("operations per atom", depth * tau_dr / TWO_PI)


def f_prime(
    rabi: Frequency | float, detuning: Frequency | float, lifetime: float
) -> float:
    """Avalanche-limited figure of merit 2 depth tau_dr / 2pi = Omega^2 tau/(4 pi |Delta|).

    The collective decoherence rate grows with atom number, so this form is
    independent of dimensionality and atom count.
    """
    return _avalanche_fom("F'", rabi, "detuning", detuning, lifetime)


def f_prime_defect(
    rabi: Frequency | float, defect: Frequency | float, lifetime: float
) -> float:
    """Defect-scaled variant Omega^2 tau/(4 pi |delta|) of the avalanche figure of merit.

    A commonly printed simplification of :func:`f_prime` that swaps the
    dressing detuning for the Foerster defect; the two agree only when
    |delta| = |Delta| and scale differently with principal quantum number
    (n^7 here vs n^6 for the definitional form).
    """
    return _avalanche_fom("defect-scaled F'", rabi, "defect", defect, lifetime)


def _avalanche_fom(result: str, rabi, name: str, frequency, lifetime) -> float:
    """Omega^2 tau/(4 pi |x|) for the frequency x passed as argument ``name``."""
    w = _nonzero("Rabi frequency", rabi)
    x = _nonzero(name, frequency)
    lifetime = in_range("lifetime", lifetime)
    return in_range(result, w * w * lifetime / (4.0 * math.pi * abs(x)))


_FOM_C = {1: 8.0 * math.pi, 2: 32.0, 3: 48.0}  # c_d of the closed-form F_d


def _closed_form_fom(
    dimension: int,
    rabi: float,
    defect_abs: float,
    detuning_abs: float,
    sum_abs: float,
    lifetime: float,
    rc_over_d: float,
) -> float:
    """F_d of a lattice of dimension d = 1, 2 or 3 and spacing a:

    Omega^2 |delta|^(d/3) tau (R_c/a)^d / (2^(d/3) c_d |Delta|^(1+d/6) |Delta+delta|^(d/6)).
    """
    d = dimension
    return (
        rabi * rabi * defect_abs ** (d / 3) / (2.0 ** (d / 3) * _FOM_C[d])
        / (detuning_abs ** ((6 + d) / 6) * sum_abs ** (d / 6))
        * lifetime * rc_over_d**d
    )


def blockade_atom_count(dimension: int, r_b: float, spacing: float) -> float:
    """Atoms of a period-d lattice inside a blockade length/disk/sphere of diameter R_b."""
    if _count("dimension", dimension, 1) not in (1, 2, 3):
        raise DomainError(f"dimension must be 1, 2, or 3, got {dimension}")
    r_b = in_range("blockade radius", r_b)
    spacing = in_range("lattice spacing", spacing)
    x = r_b / (2.0 * spacing)
    if dimension == 1:
        count = r_b / spacing
    elif dimension == 2:
        count = math.pi * x * x
    else:
        with _float_range("(R_b/2d)^3"):
            count = 4.0 * math.pi / 3.0 * x**3
    return in_range("atoms in a blockade volume", count)


def figures_of_merit(params: DressingParams) -> tuple[FigureOfMerit, ...]:
    """Figures of merit for 1D, 2D, and 3D lattices at the given dressing point.

    Each record carries the (real and floored) atom number inside a blockade
    volume, the figure of merit computed both from its explicit closed form
    and composed as N x :func:`operations_per_atom`, and the avalanche-limited
    variant with its per-atom value. The dimension-independent depth and
    tau_dr are :func:`dressing_depth_perturbative` and
    :func:`dressed_decoherence_time`. Magnitudes enter the formulas; the signs
    only gate validity (matched signs, which DressingParams checks; weak
    dressing |Omega| < |Delta| warned).
    """
    w, det, defect = params.rabi.rad_per_s, params.detuning.rad_per_s, params.pair.defect.rad_per_s
    _flag(w, abs(w) >= abs(det), lambda w: f"|Omega| = {abs(w):.3g} >= |Delta| = "
          f"{abs(det):.3g}: outside the weak-dressing regime of the figures of merit")
    sum_abs = abs(det + defect)
    r_b = blockade_radius(det, defect, params.pair.r_c)
    ops = operations_per_atom(params)
    fp = 2.0 * ops
    records = []
    with _float_range("a figure of merit"):
        for dim in (1, 2, 3):
            n_atoms = blockade_atom_count(dim, r_b, params.spacing)
            f_closed = _closed_form_fom(
                dim, w, abs(defect), abs(det), sum_abs,
                params.lifetime, params.pair.r_c / params.spacing,
            )
            records.append(
                FigureOfMerit(
                    dimension=dim,
                    n_atoms=n_atoms,
                    n_atoms_floored=math.floor(n_atoms),
                    f=f_closed,
                    f_composed=ops * n_atoms,
                    f_prime=fp,
                    f_prime_per_atom=fp / n_atoms,
                )
            )
    return tuple(records)


_SCALING_QUANTITIES = ("F_1D", "F_2D", "F_3D", "F_prime", "F_prime_defect")


def scaling_exponent(quantity: str, n_lo: float, n_hi: float) -> float:
    """Asymptotic exponent d(ln F)/d(ln n) of a figure of merit under heavy-alkali scalings.

    The dressing parameters scale as |delta| ~ n^-4, tau ~ n^3, R_c ~ n^(8/3),
    d ~ n^2 and |Delta| ~ n^-3. Evaluates the chosen quantity with unit
    prefactors and fixed Omega at ``n_lo`` and ``n_hi`` and returns the
    log-log secant slope.
    """
    _choice("quantity", quantity, _SCALING_QUANTITIES)
    n_lo = _scalar("n_lo", n_lo, 50.0, bounds="[)")
    n_hi = _scalar("n_hi", n_hi, n_lo)

    def value(n: float) -> float:
        defect, tau, det = n**-4.0, n**3.0, n**-3.0
        if quantity == "F_prime":
            return f_prime(1.0, det, tau)
        if quantity == "F_prime_defect":
            return f_prime_defect(1.0, defect, tau)
        return _closed_form_fom(
            int(quantity[2]), 1.0, defect, det, det + defect, tau, n ** (8 / 3) / n**2.0
        )

    try:
        slope = (math.log(value(n_hi)) - math.log(value(n_lo))) / (math.log(n_hi) - math.log(n_lo))
    except (ArithmeticError, ValueError):
        raise DomainError(f"{quantity} leaves the float range between n_lo and n_hi") from None
    return in_range("scaling exponent", slope, -math.inf)


def _check_signs(detuning, defect):
    """The detuning and the defect in rad/s, checked to be nonzero and of matching signs."""
    det, d = _nonzero("detuning", detuning), _nonzero("defect", defect)
    if _any((det > 0) != (d > 0)):
        raise DomainError(
            "detuning and Foerster defect have opposite signs: this combination "
            "has an excitation resonance at finite separation and is excluded"
        )
    return det, d
