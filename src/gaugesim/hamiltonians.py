"""Assembly of the three physical Hamiltonians from a declarative spec.

Three systems are supported:

* ``LandauCartesian`` -- planar charged particle in a constant magnetic
  field, two oscillator-basis factors (N x N each);
* ``LandauPolar`` -- the same physics in the radial/angular-momentum form,
  a single N x N factor for one angular sector ``angular_m``;
* ``MonopoleSU2`` -- particle in the field of an SU(2) magnetic monopole,
  three oscillator factors plus three worldline-fermion qubits, with
  coupling strength ``b_field`` read as g_m and B = -g_m / r^2.

The monopole construction is ambiguous as written (the fermion bilinears
are non-Hermitian), so ``variant`` selects between the literal product
form, a Hermitian-Majorana substitution, the Hermitian part of the literal
matrix, and a scalar-B simplification.  ``variant_selection_report``
compares all of them against the reference ground energies and records
which one reproduces them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import basis
from .errors import InvalidConfigError, InvalidSpecError, NotPowerOfTwoError
from .operators import is_hermitian, matrix_function, qubits_of_dim

__all__ = [
    "HamiltonianSpec",
    "BuiltHamiltonian",
    "build",
    "build_landau_cartesian",
    "build_landau_cartesian_position",
    "build_landau_polar",
    "build_monopole_su2",
    "variant_selection_report",
    "VariantReport",
    "KINDS",
    "VARIANTS",
    "MONOPOLE_REFERENCE_ENERGIES",
]

KINDS = ("LandauCartesian", "LandauPolar", "MonopoleSU2")
VARIANTS = ("Literal", "MajoranaFermions", "HermitianPart", "ScalarB")

#: Default per-factor truncation reproducing the published qubit counts
#: (8 Cartesian / 4 polar / 9 monopole).
DEFAULT_TRUNC = {"LandauCartesian": 16, "LandauPolar": 16, "MonopoleSU2": 4}

#: Reference monopole ground energies used by the variant report
#: (lowest eigenvalue, real part, at g_m = 2 and g_m = 0.2).
MONOPOLE_REFERENCE_ENERGIES = {2.0: -2.53854786, 0.2: 0.31120022}

#: Largest register a config may ask for: dense matrices stay at 512x512.
MAX_QUBITS = 9


def read_number(val, where: str, kind, minimum=None, maximum=None):
    """A finite JSON number as ``kind`` (float or int), within the bounds.

    Bools and strings are not numbers here, and an int must hold an
    integral value.
    """
    try:
        finite = not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise InvalidConfigError(f"{where}: expected a finite number, got {val!r}")
    if kind is int and val != int(val):
        raise InvalidConfigError(f"{where}: expected an integer, got {val!r}")
    val = kind(val)
    if minimum is not None and val < minimum:
        raise InvalidConfigError(f"{where}: must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise InvalidConfigError(f"{where}: must be <= {maximum}, got {val}")
    return val


def read_fields(obj, where: str, fields: Mapping, required=()) -> dict:
    """Strictly read one JSON object of a config or spec.

    ``fields`` maps every known key to its rule: ``float`` or ``int`` for
    a number (see ``read_number``), or ``(kind, minimum[, maximum])`` for
    a bounded one; any other tuple lists the allowed values; ``None``
    passes the value on for the caller to check.  Unknown keys and
    missing ``required`` keys are errors.  Returns the keys present.
    """
    if not isinstance(obj, Mapping):
        raise InvalidConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise InvalidConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InvalidConfigError(f"{where}: missing keys {sorted(missing)}")
    out = dict(obj)
    for key, val in obj.items():
        rule = (fields[key],) if fields[key] in (int, float) else fields[key]
        if rule is None:
            continue
        if rule[0] in (int, float):
            out[key] = read_number(val, f"{where}.{key}", *rule)
        elif not any(type(val) is type(c) and val == c for c in rule):
            raise InvalidConfigError(f"{where}.{key}: expected one of {list(rule)}, got {val!r}")
    return out


def _register_qubits(kind: str, trunc: int) -> int:
    k = qubits_of_dim(trunc)
    return {"LandauCartesian": 2 * k, "LandauPolar": k}.get(kind, 3 * k + 3)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of which Hamiltonian to build.

    ``b_field`` is the magnetic field B for the Landau kinds and the
    monopole coupling g_m for ``MonopoleSU2``.  ``r_ref`` is only
    meaningful for the ScalarB variant (B = -g_m / r_ref^2).  ``floor``
    regularizes inverse spectral powers of rho and r^2.
    """

    kind: str
    b_field: float = 2.0
    boson_trunc: int | None = None
    angular_m: int = 0
    variant: str = "Literal"
    r_ref: float | None = None
    floor: float = 1e-8

    def resolved(self) -> "HamiltonianSpec":
        """Fill kind-dependent defaults and validate the result."""
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.variant not in VARIANTS:
            raise InvalidSpecError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        trunc = self.boson_trunc if self.boson_trunc is not None else DEFAULT_TRUNC[self.kind]
        try:
            qubits = _register_qubits(self.kind, trunc)
        except NotPowerOfTwoError:
            qubits = None
        if qubits is None or trunc < 2:
            raise InvalidSpecError(f"boson_trunc must be a power of two >= 2, got {trunc}")
        if qubits > MAX_QUBITS:
            raise InvalidSpecError(
                f"boson_trunc {trunc} needs {qubits} qubits for {self.kind}; at most {MAX_QUBITS}"
            )
        if self.variant == "ScalarB":
            if self.r_ref is None or self.r_ref <= 0.0:
                raise InvalidSpecError("ScalarB variant requires a positive r_ref")
        elif self.r_ref is not None:
            raise InvalidSpecError("r_ref is only valid with the ScalarB variant")
        if self.floor < 0.0:
            raise InvalidSpecError("floor must be non-negative")
        return replace(self, boson_trunc=trunc)

    @property
    def qubits(self) -> int:
        return _register_qubits(self.kind, self.resolved().boson_trunc)

    def to_json(self) -> dict:
        spec = self.resolved()
        variant: object = spec.variant
        if spec.variant == "ScalarB":
            variant = {"ScalarB": float(spec.r_ref)}
        return {
            "kind": spec.kind,
            "b_field": float(spec.b_field),
            "boson_trunc": int(spec.boson_trunc),
            "angular_m": int(spec.angular_m),
            "variant": variant,
            "floor": float(spec.floor),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "HamiltonianSpec":
        fields = read_fields(obj, "hamiltonian", {
            "kind": None, "b_field": float, "boson_trunc": int, "angular_m": int,
            "variant": None, "floor": float,
        }, required=("kind",))
        if isinstance(fields.get("variant"), Mapping):
            scalar_b = read_fields(fields["variant"], "hamiltonian.variant",
                                   {"ScalarB": float}, required=("ScalarB",))
            fields.update(variant="ScalarB", r_ref=scalar_b["ScalarB"])
        return cls(**fields).resolved()


@dataclass(frozen=True)
class BuiltHamiltonian:
    """A concrete Hamiltonian matrix plus the spec that produced it.

    ``hermitian`` is measured at build time (relative defect <= 1e-10);
    the literal monopole variant is expected to fail that check.
    """

    matrix: np.ndarray
    spec: HamiltonianSpec
    hermitian: bool
    qubits: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, or ascending real parts when non-Hermitian."""
        if self.hermitian:
            return np.linalg.eigvalsh(self.matrix)
        return np.sort(np.linalg.eigvals(self.matrix).real)

    def lowest_eigenvalue(self) -> float:
        """Ground energy: min eigenvalue, or min real part when non-Hermitian."""
        return float(self.spectrum()[0])


def matrix_of(h) -> np.ndarray:
    """The matrix of a BuiltHamiltonian, or ``h`` itself as a complex array."""
    return h.matrix if isinstance(h, BuiltHamiltonian) else np.asarray(h, dtype=complex)


def _finish(matrix: np.ndarray, spec: HamiltonianSpec) -> BuiltHamiltonian:
    return BuiltHamiltonian(
        matrix=matrix, spec=spec, hermitian=is_hermitian(matrix),
        qubits=qubits_of_dim(matrix.shape[0]),
    )


def build_landau_cartesian(spec: HamiltonianSpec, squares: str = "projected") -> BuiltHamiltonian:
    """H = (p_x + B/2 y)^2 / 2 + (p_y - B/2 x)^2 / 2 on two oscillator factors.

    ``squares`` selects how the single-factor squares inside the expanded
    form are realized:

    * ``"projected"`` (default) -- x^2 and p^2 enter as truncations of the
      squared operators (osc_q2/osc_p2).  The result is exactly the
      infinite-dimensional Hamiltonian compressed to the truncated basis,
      so its spectrum is bounded below by the true ground energy and the
      lowest Landau level survives at exactly |B|/2.
    * ``"literal"`` -- plain matrix squares of the truncated factors.
      Simpler, but the corner defect of the truncated [Q, P] lets a band
      of edge states sink below the physical ground energy (about 0.87
      at B=2, N=16).

    Cross terms couple distinct tensor factors, so they are identical
    matrix products either way.
    """
    spec = spec.resolved()
    if spec.kind != "LandauCartesian":
        raise InvalidSpecError(f"build_landau_cartesian got kind {spec.kind!r}")
    n = spec.boson_trunc
    mats = _cartesian_factor_mats(basis.osc_q(n), basis.osc_p(n), squares,
                                  basis.osc_q2(n), basis.osc_p2(n))
    return _finish(_landau_cartesian_matrix(spec, n, *mats), spec)


def build_landau_cartesian_position(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """Position-basis form of the Cartesian Landau Hamiltonian.

    Same operator content as ``build_landau_cartesian`` with the diagonal
    grid position matrix and its DFT-conjugated momentum.  This is the
    natural basis for time-evolution runs, where initial and final states
    are grid points; it is not part of the serialized spec.  The squares
    convention is moot here: the position matrix is diagonal and the
    momentum matrix is an exact unitary conjugation of it, so literal
    squares already equal the conjugated squares.
    """
    spec = spec.resolved()
    if spec.kind != "LandauCartesian":
        raise InvalidSpecError(f"build_landau_cartesian_position got kind {spec.kind!r}")
    n = spec.boson_trunc
    q, p = basis.pos_q(n), basis.pos_p(n)
    mats = (q, p, q @ q, p @ p)
    return _finish(_landau_cartesian_matrix(spec, n, *mats), spec)


def _cartesian_factor_mats(q, p, squares, q2_proj, p2_proj):
    if squares == "projected":
        return q, p, q2_proj, p2_proj
    if squares == "literal":
        return q, p, q @ q, p @ p
    raise InvalidSpecError(f"squares must be 'projected' or 'literal', got {squares!r}")


def _landau_cartesian_matrix(spec, n, q, p, q2, p2) -> np.ndarray:
    dims = [n, n]
    x = basis.place(q, 0, dims)
    y = basis.place(q, 1, dims)
    px = basis.place(p, 0, dims)
    py = basis.place(p, 1, dims)
    hb = 0.5 * spec.b_field
    # (p_x + hb y)^2 + (p_y - hb x)^2 expanded; cross factors commute.
    h = 0.5 * (basis.place(p2, 0, dims) + basis.place(p2, 1, dims))
    h += 0.5 * hb ** 2 * (basis.place(q2, 0, dims) + basis.place(q2, 1, dims))
    h += hb * (px @ y) - hb * (py @ x)
    return h


#: Radial oscillator-basis length-scale calibration for the polar build.
#: The scaled basis Q/sqrt(s), P*sqrt(s) is an equally valid truncation for
#: any s > 0; s = 5 minimizes the truncation error of the ground energy
#: against the continuum value |B|/2 at the reference field B = 2
#: (deviation 8.5e-5, versus 3.0e-2 at s = 1).
POLAR_BASIS_SCALE = 5.0


def build_landau_polar(spec: HamiltonianSpec, basis_scale: float = POLAR_BASIS_SCALE) -> BuiltHamiltonian:
    """Radial Hamiltonian for one angular sector m = ``angular_m``.

    H = 1/2 rho^(-1/2) p rho p rho^(-1/2) + 1/2 (B/2)^2 rho^2
        + 1/2 m^2 rho^(-2) - (B/2) m

    The radial operator rho is the spectral absolute value of the
    oscillator Q (Q itself has a symmetric spectrum, so plain fractional
    powers would be undefined); inverse powers use the spec floor.
    ``basis_scale`` stretches the underlying oscillator basis (see
    POLAR_BASIS_SCALE); pass 1.0 for the uncalibrated basis.
    """
    spec = spec.resolved()
    if spec.kind != "LandauPolar":
        raise InvalidSpecError(f"build_landau_polar got kind {spec.kind!r}")
    if basis_scale <= 0.0:
        raise InvalidSpecError(f"basis_scale must be positive, got {basis_scale}")
    n = spec.boson_trunc
    q = basis.osc_q(n) / np.sqrt(basis_scale)
    p = basis.osc_p(n) * np.sqrt(basis_scale)
    floor = spec.floor
    rho = matrix_function(q, np.abs)
    rho2 = matrix_function(q, np.square)
    rho_mh = matrix_function(q, lambda lam: np.abs(lam) ** -0.5, floor=floor)
    m = spec.angular_m
    half_b = 0.5 * spec.b_field
    h = 0.5 * (rho_mh @ p @ rho @ p @ rho_mh) + 0.5 * half_b ** 2 * rho2
    if m != 0:
        rho_m2 = matrix_function(q, lambda lam: np.abs(lam) ** -2.0, floor=floor)
        h = h + 0.5 * m ** 2 * rho_m2 - half_b * m * np.eye(n)
    return _finish(h, spec)


def _monopole_operators(n: int, fermion: np.ndarray):
    """Placed boson (x, y, z, p) and fermion-bilinear operators, dims [n,n,n,2,2,2]."""
    dims = [n, n, n, 2, 2, 2]
    q, p = basis.osc_q(n), basis.osc_p(n)
    xyz = [basis.place(q, s, dims) for s in range(3)]
    mom = [basis.place(p, s, dims) for s in range(3)]
    psi = [basis.place(fermion, 3 + s, dims) for s in range(3)]
    f12 = psi[0] @ psi[1]
    f23 = psi[1] @ psi[2]
    f31 = psi[2] @ psi[0]
    return xyz, mom, (f12, f23, f31)


def build_monopole_su2(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """SU(2) monopole Hamiltonian, 3 bosonic factors + 3 fermion qubits.

    H = 1/2 (p_x + B(-y f12 + z f31))^2
      + 1/2 (p_y + B(-z f23 + x f12))^2
      + 1/2 (p_z + B(-x f31 + y f23))^2

    with f_ab the worldline-fermion bilinears and B = -g_m * (r^2)^(-1)
    as a spectral inverse of r^2 = x^2 + y^2 + z^2 (the ScalarB variant
    replaces it by the constant -g_m / r_ref^2).  The sums are squared as
    written, without extra symmetrization.
    """
    spec = spec.resolved()
    if spec.kind != "MonopoleSU2":
        raise InvalidSpecError(f"build_monopole_su2 got kind {spec.kind!r}")
    n = spec.boson_trunc
    g_m = spec.b_field

    if spec.variant == "MajoranaFermions":
        # Hermitian per-slot fermions (psi + psi^dag)/sqrt(2); keeps the
        # qubit layout, makes every bilinear Hermitian.
        f = basis.fermion_factor()
        fermion = (f + f.conj().T) / np.sqrt(2.0)
    else:
        fermion = basis.fermion_factor()

    (x, y, z), (px, py, pz), (f12, f23, f31) = _monopole_operators(n, fermion)

    if spec.variant == "ScalarB":
        b_op = (-g_m / float(spec.r_ref) ** 2) * np.eye(x.shape[0], dtype=np.complex128)
    else:
        r2 = x @ x + y @ y + z @ z
        b_op = -g_m * matrix_function(r2, lambda lam: 1.0 / lam, floor=spec.floor)

    t1 = px + b_op @ (-y @ f12 + z @ f31)
    t2 = py + b_op @ (-z @ f23 + x @ f12)
    t3 = pz + b_op @ (-x @ f31 + y @ f23)
    h = 0.5 * (t1 @ t1 + t2 @ t2 + t3 @ t3)

    if spec.variant == "HermitianPart":
        h = 0.5 * (h + h.conj().T)
    return _finish(h, spec)


_BUILDERS = {
    "LandauCartesian": build_landau_cartesian,
    "LandauPolar": build_landau_polar,
    "MonopoleSU2": build_monopole_su2,
}


def build(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """Dispatch to the builder selected by ``spec.kind``."""
    spec = spec.resolved()
    return _BUILDERS[spec.kind](spec)


@dataclass(frozen=True)
class VariantReport:
    """Lowest eigenvalues per monopole variant, compared to the references.

    ``values[variant][g_m]`` is the lowest eigenvalue (real part for the
    non-Hermitian literal form).  ``matches`` lists variants within
    ``tolerance`` of the reference at every coupling; ``closest`` is the
    variant with the smallest worst-case deviation, and
    ``closest_hermitian`` restricts that to Hermitian builds.
    """

    values: dict
    hermitian: dict
    reference: dict
    tolerance: float
    matches: list
    closest: str
    closest_hermitian: str

    def to_markdown(self) -> str:
        gms = sorted(self.reference)
        lines = ["| variant | " + " | ".join(f"g_m={g:g}" for g in gms) + " | Hermitian | match |",
                 "|---|" + "---|" * (len(gms) + 2)]
        for name, per_gm in self.values.items():
            cells = " | ".join(f"{per_gm[g]:.8f}" for g in gms)
            mark = "yes" if name in self.matches else ""
            lines.append(f"| {name} | {cells} | {'yes' if self.hermitian[name] else 'no'} | {mark} |")
        ref = " | ".join(f"{self.reference[g]:.8f}" for g in gms)
        lines.append(f"| reference | {ref} |  |  |")
        return "\n".join(lines)


def variant_selection_report() -> VariantReport:
    """Diagonalize every monopole variant and compare to the references.

    Builds each variant with N = 4 (ScalarB at r_ref = 1) at the couplings
    of MONOPOLE_REFERENCE_ENERGIES; a variant matches when it lies within
    1e-3 of every reference.  Ties are broken in VARIANTS order.
    """
    reference = dict(MONOPOLE_REFERENCE_ENERGIES)
    tolerance = 1e-3
    values: dict = {}
    hermitian: dict = {}
    for variant in VARIANTS:
        per_gm = {}
        herm = True
        for g_m in reference:
            spec = HamiltonianSpec(
                kind="MonopoleSU2",
                b_field=g_m,
                boson_trunc=4,
                variant=variant,
                r_ref=1.0 if variant == "ScalarB" else None,
                floor=1e-8,
            )
            built = build_monopole_su2(spec)
            per_gm[g_m] = built.lowest_eigenvalue()
            herm = herm and built.hermitian
        values[variant] = per_gm
        hermitian[variant] = herm

    def worst(variant: str) -> float:
        return max(abs(values[variant][g] - reference[g]) for g in reference)

    matches = [v for v in VARIANTS if worst(v) <= tolerance]
    closest = min(VARIANTS, key=worst)
    closest_hermitian = min((v for v in VARIANTS if hermitian[v]), key=worst)
    return VariantReport(
        values=values,
        hermitian=hermitian,
        reference=reference,
        tolerance=tolerance,
        matches=matches,
        closest=closest,
        closest_hermitian=closest_hermitian,
    )
