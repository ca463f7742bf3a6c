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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import basis
from .errors import (
    GaugesimError,
    InvalidSpecError,
    NotHermitianError,
    NotPowerOfTwoError,
    read_fields,
    read_number,
    read_own_fields,
)
from .operators import (
    HERM_TOL,
    MAX_QUBITS,
    EigenSystem,
    _size_stacks,
    _spectral,
    hermitian_eig,
    is_hermitian,
    qubits_of_dim,
)

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
#: (lowest eigenvalue at g_m = 2 and g_m = 0.2).
MONOPOLE_REFERENCE_ENERGIES = {2.0: -2.53854786, 0.2: 0.31120022}


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of which Hamiltonian to build.

    ``b_field`` is the magnetic field B for the Landau kinds and the
    monopole coupling g_m for ``MonopoleSU2``.  ``angular_m`` is only
    meaningful for ``LandauPolar``, ``variant`` only for ``MonopoleSU2``,
    and ``r_ref`` only for the ScalarB variant (B = -g_m / r_ref^2).

    A spec is valid once it exists: construction (and so
    ``dataclasses.replace`` and ``from_json``) fills the kind's default
    ``boson_trunc`` and raises InvalidSpecError for anything else.
    ``FIELDS`` is each field's ``read_fields`` rule (``kind`` and
    ``variant`` are checked against ``KINDS`` and ``VARIANTS`` before it);
    the JSON form has the same keys, except that ``r_ref`` travels as
    ``{"ScalarB": r_ref}`` under ``variant``.
    """

    kind: str
    b_field: float = 2.0
    boson_trunc: int | None = None
    angular_m: int = 0
    variant: str = "Literal"
    r_ref: float | None = None

    FIELDS = {"kind": None, "b_field": float, "boson_trunc": int, "angular_m": int, "variant": None,
              "r_ref": float}

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.variant not in VARIANTS:
            raise InvalidSpecError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.boson_trunc is None:
            object.__setattr__(self, "boson_trunc", DEFAULT_TRUNC[self.kind])
        read_own_fields(self, "hamiltonian")
        trunc = self.boson_trunc
        try:
            qubits = self.qubits
        except NotPowerOfTwoError:
            qubits = None
        if qubits is None or trunc < 2:
            raise InvalidSpecError(f"boson_trunc must be a power of two >= 2, got {trunc}")
        if qubits > MAX_QUBITS:
            raise InvalidSpecError(
                f"boson_trunc {trunc} needs {qubits} qubits for {self.kind}; at most {MAX_QUBITS}"
            )
        if self.angular_m != 0 and self.kind != "LandauPolar":
            raise InvalidSpecError(f"angular_m is only valid for kind 'LandauPolar', not {self.kind!r}")
        if self.variant != "Literal" and self.kind != "MonopoleSU2":
            raise InvalidSpecError(f"variant is only valid for kind 'MonopoleSU2', not {self.kind!r}")
        if self.variant == "ScalarB":
            if self.r_ref is None or self.r_ref <= 0.0:
                raise InvalidSpecError("ScalarB variant requires a positive r_ref")
        elif self.r_ref is not None:
            raise InvalidSpecError("r_ref is only valid with the ScalarB variant")

    @property
    def qubits(self) -> int:
        k = qubits_of_dim(self.boson_trunc)
        return {"LandauCartesian": 2 * k, "LandauPolar": k}.get(self.kind, 3 * k + 3)

    def to_json(self) -> dict:
        blob = {name: getattr(self, name) for name in self.FIELDS if name != "r_ref"}
        if self.variant == "ScalarB":
            blob["variant"] = {"ScalarB": self.r_ref}
        return blob

    @classmethod
    def from_json(cls, obj: Mapping) -> "HamiltonianSpec":
        # keys only: the constructor reads the values
        keys = dict.fromkeys(name for name in cls.FIELDS if name != "r_ref")
        fields = read_fields(obj, "hamiltonian", keys, required=("kind",))
        if isinstance(fields.get("variant"), Mapping):
            scalar_b = read_fields(fields["variant"], "hamiltonian.variant",
                                   {"ScalarB": cls.FIELDS["r_ref"]}, required=("ScalarB",))
            fields.update(variant="ScalarB", r_ref=scalar_b["ScalarB"])
        return cls(**fields)


@dataclass(frozen=True)
class BuiltHamiltonian:
    """A concrete Hamiltonian matrix plus the spec that produced it.

    ``hermitian`` is ``is_hermitian(matrix)`` (relative defect <= 1e-10),
    read at build time from the blocks; the Literal and ScalarB monopole
    variants are expected to fail it (their bilinears are non-Hermitian).
    Every entry point that takes an operator takes a build as well:
    ``operators.as_operator`` reads its ``matrix`` and ``is_hermitian`` its
    ``hermitian``, so its matrix is never checked again.

    ``blocks`` holds the basis indices of each symmetry sector, in the
    order of the sector labels the builder gives its basis.  Every entry
    whose row block comes after its column block is exactly zero, and
    every diagonal block is Hermitian, so H is block upper-triangular
    (block diagonal when H is Hermitian) and its spectrum is the union of
    the diagonal blocks' spectra.

    ``orbits``, when set, is the orbit table of a quarter-turn R of the
    basis that H commutes with exactly (row o: s_o, R s_o, R^2 s_o,
    R^3 s_o).  Its four phase sectors, spanned by the combinations
    1/2 sum_j i**-(k j) e_(R^j s_o) of each orbit (k = 0..3), then take the
    place of the blocks: ``spectrum`` and ``eigensystem`` solve them.
    """

    matrix: np.ndarray
    spec: HamiltonianSpec
    hermitian: bool
    qubits: int
    blocks: tuple
    orbits: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues: the union over the Hermitian diagonal blocks."""
        stacks = _diagonal_blocks(self.matrix, self.blocks, self.orbits)
        return np.sort(np.concatenate([np.linalg.eigvalsh(sub).ravel() for sub, _, _ in stacks]))

    def eigensystem(self) -> EigenSystem:
        """Ascending eigenvalues and their eigenvectors in the basis of
        ``matrix``, from one ``eigh`` per stack of diagonal blocks; what
        ``operators.hermitian_eig`` returns for a build.  NotHermitianError
        unless ``hermitian``: a block upper-triangular H is not diagonalized
        by its blocks' eigenvectors."""
        if not self.hermitian:
            raise NotHermitianError(f"{self.spec.kind}: the build is not Hermitian")
        values, vectors, start = [], np.zeros(self.matrix.shape, dtype=np.complex128), 0
        for sub, tables, phases in _diagonal_blocks(self.matrix, self.blocks, self.orbits):
            lam, u = np.linalg.eigh(sub)
            count, size = tables.shape[:2]
            # eigenvector e of sector c: sum_o u[c, o, e] sum_j phases[c, j] e_(tables[c, o, j])
            cols = start + np.arange(count * size).reshape(count, 1, 1, size)
            vectors[tables[..., None], cols] = phases[:, None, :, None] * u[:, :, None, :]
            values.append(lam.ravel())
            start += count * size
        values = np.concatenate(values)
        order = np.argsort(values, kind="stable")
        return EigenSystem(values=values[order], vectors=vectors[:, order])

    def lowest_eigenvalue(self) -> float:
        """Ground energy: the lowest eigenvalue."""
        return float(self.spectrum()[0])


def _blocks_by(keys) -> tuple:
    """Index arrays of equal ``keys``, in ascending key order."""
    keys = np.asarray(keys)
    return tuple(np.flatnonzero(keys == k) for k in np.unique(keys))


#: [k, m] = i**-(k m), exactly: the quarter-turn sectors' phase factors
_QUARTER = np.array([1.0, -1j, -1.0, 1j])[np.outer(np.arange(4), np.arange(4)) % 4]


def _diagonal_blocks(matrix: np.ndarray, blocks: tuple, orbits=None) -> list:
    """The diagonal blocks of ``matrix``, one (sub, tables, phases) per stack
    of equal-sized sectors: sub[c] is sector c's block, and its basis vector
    o is sum_j phases[c, j] e_(tables[c, o, j]).

    A block is a plain index set (one index, phase 1), so sub[c] is a
    gather.  With ``orbits`` the sectors are the quarter-turn's four phase
    sectors instead (see ``BuiltHamiltonian``): as H[R a, R b] = H[a, b],
    sub[k][o, o'] = sum_m i**-(k m) H[s_o, R^m s_o'], four gathers and no
    dense change of basis.
    """
    if orbits is not None:
        parts = matrix[orbits[:, None, :1], orbits[None, :, :]]  # [o, o', m] = H[s_o, R^m s_o']
        sub = parts[..., 0] + sum(_QUARTER[:, m, None, None] * parts[..., m] for m in (1, 2, 3))
        return [(sub, np.broadcast_to(orbits, (4,) + orbits.shape), _QUARTER / 2)]
    return [(matrix[idx[:, :, None], idx[:, None, :]], idx[:, :, None], np.ones((len(idx), 1)))
            for idx in _size_stacks(blocks)]


def _quarter_orbits(rotation: np.ndarray) -> np.ndarray:
    """Orbit table of the basis permutation ``rotation`` (R), one row
    s_o, R s_o, R^2 s_o, R^3 s_o per orbit with s_o its smallest index;
    GaugesimError unless R^4 = 1 and every orbit has four indices."""
    table = [np.arange(len(rotation))]
    for _ in range(3):
        table.append(rotation[table[-1]])
    table = np.stack(table, axis=1)
    orbits = table[table.min(axis=1) == table[:, 0]]
    if not (np.array_equal(rotation[table[:, 3]], table[:, 0]) and 4 * len(orbits) == len(rotation)):
        raise GaugesimError("the rotation is not a quarter-turn with orbits of four")
    return orbits


def _finish(matrix: np.ndarray, spec: HamiltonianSpec, labels, rotation=None) -> BuiltHamiltonian:
    """Wrap a built matrix given each basis index's sector label (or one for
    all), refusing an entry below the sector blocks or a non-Hermitian
    block.  The whole matrix's Hermiticity defect is then the larger of the
    blocks' and the largest entry above them, so ``hermitian`` holds exactly
    when that entry is within ``HERM_TOL`` of the largest entry of all.
    The blocks are gathered first: when they hold as many 64-bit words
    with a bit set as the whole matrix, every entry off them is exactly
    +0.0 and the scans for entries below and above them are skipped
    (anything else off them, -0.0 and NaN included, makes them run).  With
    one label there is nothing off the one block, and no scan runs.

    A builder that passes a ``rotation`` (a quarter-turn permutation of the
    basis, as index array) also needs H to commute with it bit for bit,
    H[R a, R b] == H[a, b], the sector-basis form of the zeros below the
    blocks; the Hermiticity check then runs on its four phase sectors.
    """
    labels = np.broadcast_to(labels, matrix.shape[:1])
    blocks = _blocks_by(labels)
    stacks = _diagonal_blocks(matrix, blocks) if rotation is None else None
    above = 0.0
    if len(blocks) > 1 and (stacks is None or np.count_nonzero(matrix.view(np.uint64))
                            != sum(np.count_nonzero(sub.view(np.uint64)) for sub, _, _ in stacks)):
        if np.any(matrix[labels[:, None] > labels[None, :]]):
            raise GaugesimError(f"{spec.kind}: non-zero entry below its diagonal blocks")
        above = np.abs(matrix[labels[:, None] < labels[None, :]]).max(initial=0.0)
    orbits = None
    if rotation is not None:
        orbits = _quarter_orbits(rotation)
        if not np.array_equal(matrix[rotation[:, None], rotation], matrix):
            raise GaugesimError(f"{spec.kind}: does not commute exactly with its quarter-turn")
        stacks = _diagonal_blocks(matrix, blocks, orbits)
    scale = above
    for sub, _, _ in stacks:
        if not np.all(is_hermitian(sub)):
            raise GaugesimError(f"{spec.kind}: a diagonal block of size {sub.shape[1]} is not Hermitian")
        scale = max(scale, np.abs(sub).max())
    return BuiltHamiltonian(matrix=matrix, spec=spec, hermitian=bool(above <= HERM_TOL * scale),
                            qubits=qubits_of_dim(len(labels)), blocks=blocks, orbits=orbits)


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
    if spec.kind != "LandauCartesian":
        raise InvalidSpecError(f"build_landau_cartesian got kind {spec.kind!r}")
    n = spec.boson_trunc
    mats = _cartesian_factor_mats(basis.osc_q(n), basis.osc_p(n), squares,
                                  basis.osc_q2(n), basis.osc_p2(n))
    # every term moves n_x + n_y by an even amount: (-1)^(n_x + n_y) sectors
    i = np.arange(n * n)
    return _finish(_landau_cartesian_matrix(spec, n, *mats), spec, (i ^ (i >> qubits_of_dim(n))) & 1)


def build_landau_cartesian_position(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """Position-basis form of the Cartesian Landau Hamiltonian.

    Same operator content as ``build_landau_cartesian`` with the diagonal
    grid position matrix and its DFT-conjugated momentum.  This is the
    natural basis for time-evolution runs, where initial and final states
    are grid points; it is not part of the serialized spec.  The squares
    convention is moot here: the position matrix is diagonal and the
    momentum matrix is an exact unitary conjugation of it, so literal
    squares already equal the conjugated squares.

    H commutes with the quarter-turn (x, y) -> (-y, x) of the grid, and
    the build makes that exact: q is antisymmetric under the grid reversal
    J bit for bit, p and p^2 are made so by p <- (p - JpJ)/2 and
    p^2 <- (p^2 + Jp^2J)/2 (a change of at most a few ulp), and the
    turn then maps each Kronecker term onto its partner.  So its four
    64x64 phase sectors (at 16x16 points) carry every eigen-solve.
    """
    if spec.kind != "LandauCartesian":
        raise InvalidSpecError(f"build_landau_cartesian_position got kind {spec.kind!r}")
    n = spec.boson_trunc
    q, p = basis.pos_q(n), basis.pos_p(n)
    rev = np.arange(n)[::-1]
    p2 = p @ p
    p, p2 = 0.5 * (p - p[rev][:, rev]), 0.5 * (p2 + p2[rev][:, rev])
    ix, iy = np.divmod(np.arange(n * n), n)  # index ix * n + iy, turned to (n - 1 - iy, ix)
    return _finish(_landau_cartesian_matrix(spec, n, q, p, q @ q, p2), spec, 0,
                   rotation=(n - 1 - iy) * n + ix)


def _cartesian_factor_mats(q, p, squares, q2_proj, p2_proj):
    if squares == "projected":
        return q, p, q2_proj, p2_proj
    if squares == "literal":
        return q, p, q @ q, p @ p
    raise InvalidSpecError(f"squares must be 'projected' or 'literal', got {squares!r}")


def _with_identity(a: np.ndarray) -> np.ndarray:
    """a (x) 1 + 1 (x) a, written into two strided views of the zero
    (n, n, n, n) matrix [i, k, j, l] (row i n + k, column j n + l): a[i, j]
    where k == l, then a[k, l] added where i == j.  Entry by entry these
    are the sums ``np.kron`` gives, without its n**4 products by 1 and 0."""
    n = len(a)
    out = np.zeros((n, n, n, n), dtype=np.complex128)
    np.einsum("ikjk->ijk", out)[...] = a[:, :, None]
    np.einsum("ikil->ikl", out)[...] += a
    return out.reshape(n * n, n * n)


def _landau_cartesian_matrix(spec, n, q, p, q2, p2) -> np.ndarray:
    hb = 0.5 * spec.b_field
    # (p_x + hb y)^2 + (p_y - hb x)^2 expanded; cross factors commute, and
    # each term is one Kronecker product: p_x y = p (x) q, p_y x = q (x) p.
    h = 0.5 * _with_identity(p2)
    h += 0.5 * hb ** 2 * _with_identity(q2)
    h += hb * np.kron(p, q) - hb * np.kron(q, p)
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
    powers would be undefined).  At a power-of-two N, Q has no zero
    eigenvalue, so the inverse powers are finite.
    ``basis_scale`` stretches the underlying oscillator basis (see
    POLAR_BASIS_SCALE); pass 1.0 for the uncalibrated basis.
    """
    if spec.kind != "LandauPolar":
        raise InvalidSpecError(f"build_landau_polar got kind {spec.kind!r}")
    basis_scale = read_number(basis_scale, "basis_scale", float, error=InvalidSpecError)
    if basis_scale <= 0.0:
        raise InvalidSpecError(f"basis_scale must be positive, got {basis_scale}")
    n = spec.boson_trunc
    q = basis.osc_q(n) / np.sqrt(basis_scale)
    p = basis.osc_p(n) * np.sqrt(basis_scale)
    es = hermitian_eig(q)
    rho = _spectral(es, np.abs)
    rho2 = _spectral(es, np.square)
    rho_mh = _spectral(es, lambda lam: np.abs(lam) ** -0.5)
    m = spec.angular_m
    half_b = 0.5 * spec.b_field
    h = 0.5 * (rho_mh @ p @ rho @ p @ rho_mh) + 0.5 * half_b ** 2 * rho2
    if m != 0:
        rho_m2 = _spectral(es, lambda lam: np.abs(lam) ** -2.0)
        h = h + 0.5 * m ** 2 * rho_m2 - half_b * m * np.eye(n)
    return _finish(h, spec, 0)


def build_monopole_su2(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """SU(2) monopole Hamiltonian, 3 bosonic factors + 3 fermion qubits.

    H = 1/2 (p_x + B(-y f12 + z f31))^2
      + 1/2 (p_y + B(-z f23 + x f12))^2
      + 1/2 (p_z + B(-x f31 + y f23))^2

    with f_ab the worldline-fermion bilinears and B = -g_m * (r^2)^(-1)
    as a spectral inverse of r^2 = x^2 + y^2 + z^2 (the ScalarB variant
    replaces it by the constant -g_m / r_ref^2).  The sums are squared as
    written, without extra symmetrization.

    Each operator is A (x) F: x, p and B act on the N^3-dim boson space,
    the bilinears on the 8-dim fermion space.  So t_i = sum_k A_k (x) F_k
    and H = 1/2 sum_i sum_{k,l} (A_k A_l) (x) (F_k F_l): the boson factors
    are summed per distinct fermion product.  x, y, z and B are real and
    p = i P with P real, so every boson product is a real one.

    Every term keeps the fermion parity and, per axis i, the charge
    Q_i = (-1)^(n_i) pi_i of fermion slot i and the parity pi_i of boson
    register i, so H is assembled block by block on these 16 sectors.
    """
    if spec.kind != "MonopoleSU2":
        raise InvalidSpecError(f"build_monopole_su2 got kind {spec.kind!r}")
    n = spec.boson_trunc
    g_m = spec.b_field

    fermion = basis.fermion_factor()
    if spec.variant == "MajoranaFermions":
        # Hermitian per-slot fermions (psi + psi^dag)/sqrt(2); keeps the
        # qubit layout, makes every bilinear Hermitian.
        fermion = (fermion + fermion.conj().T) / np.sqrt(2.0)
    psi = [basis.place(fermion, s, [2, 2, 2]) for s in range(3)]
    f12, f23, f31 = psi[0] @ psi[1], psi[1] @ psi[2], psi[2] @ psi[0]

    dims = [n, n, n]
    x, y, z = (basis.place(basis.osc_q(n), s, dims).real for s in range(3))
    px, py, pz = (basis.place(basis.osc_p(n), s, dims).imag for s in range(3))  # p = i P

    k = qubits_of_dim(n)
    if spec.variant == "ScalarB":
        b_op = -g_m / spec.r_ref ** 2
    else:
        # r^2 is diagonal in W = V (x) V (x) V, where q^2 = V diag(lam) V^T
        q = basis.osc_q(n).real
        lam, v = np.linalg.eigh(q @ q)
        w = np.kron(np.kron(v, v), v)
        lam3 = (lam[:, None, None] + lam[None, :, None] + lam[None, None, :]).ravel()
        b_op = -g_m * ((w / lam3) @ w.T)
        # r^2 keeps each register's parity, so (r^2)^-1 does too; eigh may
        # mix parities within the degenerate levels of q^2, and the
        # round-off that leaves between parities is zeroed here
        reg = np.arange(n ** 3) & (1 | 1 << k | 1 << 2 * k)
        b_op[reg[:, None] != reg[None, :]] = 0.0
    bx, by, bz = (np.dot(b_op, a) for a in (x, y, z))  # b_op may be a scalar
    one = np.eye(8)
    ts = (((1j, px, one), (-1, by, f12), (1, bz, f31)),  # each t_i as (phase, R_k, F_k): A_k = phase R_k
          ((1j, py, one), (-1, bz, f23), (1, bx, f12)),
          ((1j, pz, one), (-1, bx, f31), (1, by, f23)))

    groups: dict = {}  # F_k F_l as bytes -> [F_k F_l, sum of A_k A_l]
    for t in ts:
        for c_k, r_k, f_k in t:
            for c_l, r_l, f_l in t:
                f = f_k @ f_l
                if f.any():  # products of raising-operator bilinears vanish
                    groups.setdefault(f.tobytes(), [f, 0])[1] += (c_k * c_l) * (r_k @ r_l)

    # index = boson * 8 + fermion pattern; the low bits of the boson
    # registers x, y, z sit at 3 + 2k, 3 + k and 3
    i = np.arange(8 * n ** 3)
    slots = (i >> 2) & 1, (i >> 1) & 1, i & 1
    parities = (i >> (3 + 2 * k)) & 1, (i >> (3 + k)) & 1, (i >> 3) & 1
    occupation = np.bitwise_count(i & 7)
    charges = [s ^ p for s, p in zip(slots, parities)]
    sector = (occupation & 1) * 8 + charges[0] * 4 + charges[1] * 2 + charges[2]
    sectors = np.stack(_blocks_by(sector))

    # 1/2 sum_g A_g (x) F_g on each sector: its boson and fermion indices
    # gather the sector's block from every factor pair
    rows, cols = sectors[:, :, None], sectors[:, None, :]
    h_blocks = 0.5 * sum(a[rows >> 3, cols >> 3] * f[rows & 7, cols & 7] for f, a in groups.values())
    if spec.variant == "HermitianPart":
        h_blocks = 0.5 * (h_blocks + h_blocks.conj().transpose(0, 2, 1))
    h = np.zeros((len(i), len(i)), dtype=np.complex128)
    h[rows, cols] = h_blocks

    if spec.variant in ("Literal", "ScalarB"):
        # raising-operator bilinears only lower the occupation: H is block
        # upper-triangular by occupation, then fermion pattern, then the
        # three register parities
        keys = (occupation * 8 + (i & 7)) * 8 + parities[0] * 4 + parities[1] * 2 + parities[2]
    else:
        keys = sector
    return _finish(h, spec, keys)


_BUILDERS = {
    "LandauCartesian": build_landau_cartesian,
    "LandauPolar": build_landau_polar,
    "MonopoleSU2": build_monopole_su2,
}


def build(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """Dispatch to the builder selected by ``spec.kind``."""
    return _BUILDERS[spec.kind](spec)


@dataclass(frozen=True)
class VariantReport:
    """Lowest eigenvalues per monopole variant, compared to the references.

    ``values[variant][g_m]`` is the lowest eigenvalue.  ``matches`` lists variants within
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
