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
matrix, and a scalar-B simplification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Mapping

import numpy as np

from . import basis
from .errors import (
    GaugesimError,
    InvalidConfigError,
    NotPowerOfTwoError,
    read_fields,
    read_own_fields,
)
from .operators import (
    HERM_TOL,
    MAX_QUBITS,
    EigenSystem,
    _require_hermitian,
    _spectral,
    hermitian_eig,
    is_hermitian,
    qubits_of_dim,
)

__all__ = [
    "HamiltonianSpec",
    "BuiltHamiltonian",
    "build",
    "build_landau_cartesian_position",
    "KINDS",
    "VARIANTS",
]

KINDS = ("LandauCartesian", "LandauPolar", "MonopoleSU2")
VARIANTS = ("Literal", "MajoranaFermions", "HermitianPart", "ScalarB")

#: Default per-factor truncation reproducing the published qubit counts
#: (8 Cartesian / 4 polar / 9 monopole).
DEFAULT_TRUNC = {"LandauCartesian": 16, "LandauPolar": 16, "MonopoleSU2": 4}

@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative description of which Hamiltonian to build.

    ``b_field`` is the magnetic field B for the Landau kinds and the
    monopole coupling g_m for ``MonopoleSU2``.  ``angular_m`` is only
    meaningful for ``LandauPolar``, ``variant`` only for ``MonopoleSU2``,
    and ``r_ref`` only for the ScalarB variant (B = -g_m / r_ref^2).

    A spec is valid once it exists: construction (and so
    ``dataclasses.replace`` and ``from_json``) applies every field's
    ``read_fields`` rule in ``FIELDS``, fills the kind's default
    ``boson_trunc``, checks the rules that tie fields together and raises
    InvalidConfigError for anything else.  ``from_json`` reads the JSON
    form, which has the same keys, except that ``r_ref`` travels as
    ``{"ScalarB": r_ref}`` under ``variant``.
    """

    kind: str
    b_field: float = 2.0
    boson_trunc: int | None = None
    angular_m: int = 0
    variant: str = "Literal"
    r_ref: float | None = None

    FIELDS = {"kind": KINDS, "b_field": float, "boson_trunc": (int, 2), "angular_m": int, "variant": VARIANTS,
              "r_ref": float}

    def __post_init__(self):
        read_own_fields(self, "hamiltonian")
        if self.boson_trunc is None:
            object.__setattr__(self, "boson_trunc", DEFAULT_TRUNC[self.kind])
        trunc = self.boson_trunc
        try:
            qubits = self.qubits
        except NotPowerOfTwoError:
            raise InvalidConfigError(f"boson_trunc must be a power of two, got {trunc}") from None
        if qubits > MAX_QUBITS:
            raise InvalidConfigError(f"boson_trunc {trunc} needs {qubits} qubits for {self.kind}; "
                                     f"at most {MAX_QUBITS}")
        if self.angular_m != 0 and self.kind != "LandauPolar":
            raise InvalidConfigError(f"angular_m is only valid for kind 'LandauPolar', not {self.kind!r}")
        if self.variant != "Literal" and self.kind != "MonopoleSU2":
            raise InvalidConfigError(f"variant is only valid for kind 'MonopoleSU2', not {self.kind!r}")
        if self.variant == "ScalarB":
            if self.r_ref is None or self.r_ref <= 0.0:
                raise InvalidConfigError("ScalarB variant requires a positive r_ref")
        elif self.r_ref is not None:
            raise InvalidConfigError("r_ref is only valid with the ScalarB variant")

    @property
    def qubits(self) -> int:
        k = qubits_of_dim(self.boson_trunc)
        return {"LandauCartesian": 2 * k, "LandauPolar": k}.get(self.kind, 3 * k + 3)

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


@dataclass(frozen=True, eq=False)
class BuiltHamiltonian:
    """A concrete Hamiltonian, kept as the blocks its builder filled, plus
    the spec that produced it.

    ``entries[c]`` is H on the indices ``filled[c]`` (rows and columns),
    and every entry off these blocks is exactly +0.0: a monopole build
    fills its 16 sectors and the Cartesian oscillator build its two parity
    sectors, a dense builder (polar, the position grid) one block, the
    whole matrix (``filled`` is then the one row 0..dim-1).  ``matrix`` is
    assembled from them on first read (for one whole block, it is a view
    of it), so a caller that never reads it never pays for it.

    ``hermitian`` is ``is_hermitian(matrix)`` (relative defect <= 1e-10),
    read at build time from the blocks; the Literal and ScalarB monopole
    variants are expected to fail it (their bilinears are non-Hermitian).
    Every entry point that takes an operator takes a build as well:
    ``operators.as_operator`` reads its ``matrix`` and ``is_hermitian`` its
    ``hermitian``, so its matrix is never checked again.

    ``blocks`` is the read-only (count, size) array of the symmetry sectors'
    basis indices, one row per sector label the builder gives its basis,
    in ascending label order; every sector has one size, and each lies
    inside one filled block.  Every entry whose row block comes after its
    column block is exactly zero, and every diagonal block is Hermitian,
    so H is block upper-triangular (block diagonal when H is Hermitian)
    and its spectrum is the union of the diagonal blocks' spectra.

    ``orbits``, when set, is the orbit table of a quarter-turn R of the
    basis that H commutes with exactly (row o: s_o, R s_o, R^2 s_o,
    R^3 s_o).  Its four phase sectors, spanned by the combinations
    1/2 sum_j i**-(k j) e_(R^j s_o) of each orbit (k = 0..3), then take the
    place of the blocks: ``spectrum`` and ``eigensystem`` solve them.

    A build is read-only, so the builders share one (``==`` is identity):
    every array it reaches (``entries``, ``filled``, ``matrix``,
    ``blocks``, ``orbits``, its spectrum and ``real_form``) is a read-only
    view, never a copy.  Its block views (``spectrum``, ``eigensystem``,
    ``real_form``) share one gather from the filled blocks,
    ``_diagonal_blocks``; each held one (and the assembled ``matrix``) is
    made at most once per build object, and ``dataclasses.replace``
    carries none over.
    """

    entries: np.ndarray
    filled: np.ndarray
    spec: HamiltonianSpec
    hermitian: bool
    blocks: np.ndarray
    orbits: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _read_only(self.entries))
        object.__setattr__(self, "filled", _read_only(self.filled))
        object.__setattr__(self, "blocks", _read_only(self.blocks))
        if self.orbits is not None:
            object.__setattr__(self, "orbits", _read_only(self.orbits))

    @property
    def dim(self) -> int:
        return self.filled.size

    @property
    def qubits(self) -> int:
        return qubits_of_dim(self.dim)

    @cached_property
    def matrix(self) -> np.ndarray:
        """H as one dense matrix, assembled on first read: the filled blocks
        scattered into zeros, or the one whole block itself."""
        if np.array_equal(self.filled, np.arange(self.dim)[None]):
            return self.entries[0]
        h = np.zeros((self.dim,) * 2, dtype=self.entries.dtype)
        h[self.filled[:, :, None], self.filled[:, None, :]] = self.entries
        return _read_only(h)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        sub, _, _ = _diagonal_blocks(self.entries, self.filled, self.blocks, self.orbits)
        values = np.sort(np.linalg.eigvalsh(sub).ravel())
        values.flags.writeable = False
        return values

    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues: the union over the Hermitian diagonal
        blocks, solved once per build and shared by every later call
        (``lowest_eigenvalue`` too) as one read-only array."""
        return self._spectrum

    def eigensystem(self) -> EigenSystem:
        """Ascending eigenvalues and their eigenvectors in the basis of
        ``matrix``, from one ``eigh`` of the stack of diagonal blocks; what
        ``operators.hermitian_eig`` returns for a build.  Refused by
        ``operators._require_hermitian`` unless ``hermitian``: a block
        upper-triangular H is not diagonalized by its blocks' eigenvectors."""
        _require_hermitian(self, "eigensystem")
        sub, tables, phases = _diagonal_blocks(self.entries, self.filled, self.blocks, self.orbits)
        lam, u = np.linalg.eigh(sub)
        count, size = tables.shape[:2]
        vectors = np.zeros((self.dim,) * 2, dtype=np.complex128)
        # eigenvector e of sector c: sum_o u[c, o, e] sum_j phases[c, j] e_(tables[c, o, j])
        cols = np.arange(count * size).reshape(count, 1, 1, size)
        vectors[tables[..., None], cols] = phases[:, None, :, None] * u[:, :, None, :]
        values = lam.ravel()
        order = np.argsort(values, kind="stable")
        return EigenSystem(values=values[order], vectors=vectors[:, order])

    def lowest_eigenvalue(self) -> float:
        """Ground energy: the lowest eigenvalue."""
        return float(self.spectrum()[0])

    @cached_property
    def real_form(self) -> tuple:
        """The symmetric real part 0.5 (Re H + Re H^T) on the diagonal
        blocks, as one (idx, sub) pair: idx is ``blocks``, and sub[c] is the
        part on the indices idx[c], bit for bit the dense one gathered there.
        A Hermitian build is block diagonal, so this pair is the whole of
        Re H, which ``vqe`` minimizes against.  Gathered on first read, once
        per build; refused by ``operators._require_hermitian`` unless
        ``hermitian``."""
        _require_hermitian(self, "real_form")
        sub, _, _ = _diagonal_blocks(self.entries, self.filled, self.blocks)
        return self.blocks, _read_only(0.5 * (sub.real + sub.real.transpose(0, 2, 1)))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (the caller's array stays writeable)."""
    view = a.view()
    view.flags.writeable = False
    return view


def _blocks_by(keys) -> np.ndarray:
    """The indices of equal ``keys`` as one (count, size) array, one row
    per key in ascending key order, each row ascending; GaugesimError when
    the keys label unequal counts of indices."""
    keys = np.asarray(keys)
    counts = np.unique(keys, return_counts=True)[1]
    if np.any(counts != counts[0]):
        raise GaugesimError(f"sectors of unequal sizes {sorted(set(counts.tolist()))}")
    return np.argsort(keys, kind="stable").reshape(len(counts), -1)


#: [k, m] = i**-(k m), exactly: the quarter-turn sectors' phase factors
_QUARTER = np.array([1.0, -1j, -1.0, 1j])[np.outer(np.arange(4), np.arange(4)) % 4]


def _diagonal_blocks(entries: np.ndarray, filled: np.ndarray, blocks: np.ndarray, orbits=None) -> tuple:
    """The diagonal blocks of H, kept as ``entries`` on the index sets
    ``filled`` (see ``BuiltHamiltonian``), as one (sub, tables, phases)
    stack of its sectors: sub[c] is sector c's block, and its basis
    vector o is sum_j phases[c, j] e_(tables[c, o, j]).

    A block is a plain index set (one index, phase 1) inside one filled
    block, so sub[c] is a gather from that block's entries; blocks that
    are the filled ones give ``entries`` itself.  With ``orbits``
    (a build that filled one block, the whole matrix) the sectors are the
    quarter-turn's four phase sectors instead (see ``BuiltHamiltonian``):
    as H[R a, R b] = H[a, b], sub[k][o, o'] = sum_m i**-(k m) H[s_o, R^m s_o'],
    four gathers and no dense change of basis.
    """
    if orbits is not None:
        parts = entries[0][orbits[:, None, :1], orbits[None, :, :]]  # [o, o', m] = H[s_o, R^m s_o']
        sub = parts[..., 0] + sum(_QUARTER[:, m, None, None] * parts[..., m] for m in (1, 2, 3))
        return sub, np.broadcast_to(orbits, (4,) + orbits.shape), _QUARTER / 2
    if np.array_equal(blocks, filled):
        sub = entries
    else:
        at = np.empty(filled.size, dtype=np.intp)  # index i is entry at[i] of the flattened ``filled``
        at[filled.ravel()] = np.arange(filled.size)
        home, pos = np.divmod(at[blocks], filled.shape[1])
        sub = entries[home[:, :1, None], pos[:, :, None], pos[:, None, :]]
    return sub, blocks[:, :, None], np.ones((len(blocks), 1))


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


def _finish(h: np.ndarray, spec: HamiltonianSpec, labels, rotation=None, filled=None) -> BuiltHamiltonian:
    """Wrap the blocks a builder filled given each basis index's sector label
    (or one for all), refusing an entry below the sector blocks or a
    non-Hermitian block.  With ``filled``, ``h`` is the (count, size, size)
    stack of H on the index sets ``filled`` (count, size), every entry off
    them +0.0, and each label's indices lie inside one of them (the
    monopole's 16 sectors, the Cartesian oscillator's two parity sectors);
    without it, ``h`` is the whole matrix, taken (by view) as the one
    filled block.

    The whole matrix's Hermiticity defect is then the larger of the sector
    blocks' and the largest entry above them, so ``hermitian`` holds
    exactly when that entry is within ``HERM_TOL`` of the largest entry of
    all.  With more than one label, two masks of the filled blocks find
    the entries below and above the sector blocks; with one label there is
    nothing off the one block, and no mask runs.  The labels must give
    every sector one size (GaugesimError otherwise).

    A builder that passes a ``rotation`` (a quarter-turn permutation of the
    basis, as index array) hands the whole matrix and also needs H to
    commute with it bit for bit, H[R a, R b] == H[a, b], the sector-basis
    form of the zeros below the blocks; the Hermiticity check then runs on
    its four phase sectors.
    """
    if filled is None:
        h, filled = h[None], np.arange(len(h))[None]
    labels = np.broadcast_to(labels, (filled.size,))
    blocks = _blocks_by(labels)
    above = 0.0
    if len(blocks) > 1:
        inner = labels[filled]  # the labels of each filled block's indices
        if np.any(h[inner[:, :, None] > inner[:, None, :]]):
            raise GaugesimError(f"{spec.kind}: non-zero entry below its diagonal blocks")
        above = np.abs(h[inner[:, :, None] < inner[:, None, :]]).max(initial=0.0)
    orbits = None
    if rotation is not None:
        orbits = _quarter_orbits(rotation)
        if not np.array_equal(h[0][rotation[:, None], rotation], h[0]):
            raise GaugesimError(f"{spec.kind}: does not commute exactly with its quarter-turn")
    sub, _, _ = _diagonal_blocks(h, filled, blocks, orbits)
    if not np.all(is_hermitian(sub)):
        raise GaugesimError(f"{spec.kind}: a diagonal block of size {sub.shape[1]} is not Hermitian")
    scale = max(above, np.abs(sub).max())
    return BuiltHamiltonian(entries=h, filled=filled, spec=spec, hermitian=bool(above <= HERM_TOL * scale),
                            blocks=blocks, orbits=orbits)


def _finite(h: np.ndarray, spec: HamiltonianSpec) -> np.ndarray:
    """``h``, the array a builder hands ``_finish``, if every entry is
    finite; otherwise GaugesimError naming the kind and the field (a field
    whose terms pass the float range leaves inf or NaN entries)."""
    if not np.isfinite(h).all():
        raise GaugesimError(f"{spec.kind}: an entry of H overflows the float range at b_field {spec.b_field:g}")
    return h


#: The one build slot, shared by ``build`` and the grid builder: [key, build] of the held build, or empty.
_SLOT: list = []


def _held(builder):
    """``builder`` behind the one build slot.

    A call with the held build's builder and spec (compared by type, then
    by value) returns the held build.  Any other call empties the slot
    before it builds, so the slot never keeps an old build alive next to a
    new one, and then holds the new build.  A build is read-only, so its
    callers can share it.
    """
    @wraps(builder)
    def held(spec):
        key = builder, type(spec), spec
        entry = _SLOT[:]  # one read: another thread may empty the slot meanwhile
        if entry and entry[0] == key:
            return entry[1]
        entry.clear()
        _SLOT.clear()  # the held build goes before the next one is made
        built = builder(spec)
        _SLOT[:] = key, built
        return built

    return held


def _build_landau_cartesian(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """H = (p_x + B/2 y)^2 / 2 + (p_y - B/2 x)^2 / 2 on two oscillator factors.

    x^2 and p^2 enter as truncations of the squared operators
    (osc_q2/osc_p2), so the matrix is the untruncated H compressed to the
    truncated basis and the lowest Landau level stays at exactly |B|/2.

    Every term moves n_x + n_y by an even amount, so H is assembled on its
    two (-1)^(n_x + n_y) sectors, and the build keeps them: its ``matrix``
    is assembled only when read.  With ix = 2a + u and iy = 2b + (u ^ s),
    sector s is the product index (a, u, b), ascending in the basis, and
    each Kronecker term on it is a broadcast of its (n/2, 2, n/2, 2)
    factors, the y factor's u axes reversed when s = 1.  The terms are
    summed as in ``_landau_cartesian_matrix``, so the blocks are its
    entries bit for bit.
    """
    n = spec.boson_trunc
    hb = 0.5 * spec.b_field
    m = n // 2
    # x factors [a, u, a', u'] = f[2a + u, 2a' + u'], y factors [u, b, u', b'] = f[2b + u, 2b' + u']
    qx, px, q2x, p2x = (f.reshape(m, 2, m, 2) for f in (basis.osc_q(n), basis.osc_p(n),
                                                        basis.osc_q2(n), basis.osc_p2(n)))
    ys = [f.transpose(1, 0, 3, 2) for f in (qx, px, q2x, p2x)]
    h = np.empty((2, m, 2, m, m, 2, m), dtype=np.complex128)  # [s, a, u, b, a', u', b']
    for s, (qy, py, q2y, p2y) in enumerate((ys, [y[::-1, :, ::-1] for y in ys])):  # iy = 2b + (u ^ s)
        h[s] = 0.5 * _with_identity_sector(p2x, p2y)
        h[s] += 0.5 * (hb * hb) * _with_identity_sector(q2x, q2y)
        h[s] += hb * _kron_sector(px, qy) - hb * _kron_sector(qx, py)
    i = np.arange(n * n)
    labels = (i ^ (i >> qubits_of_dim(n))) & 1
    h = _finite(h.reshape(2, n * n // 2, n * n // 2), spec)
    return _finish(h, spec, labels, filled=_blocks_by(labels))


def _kron_sector(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """x (x) y on one parity sector, from the x factor fx and the y factor fy:
    [a, u, b, a', u', b'] = fx[a, u, a', u'] fy[u, b, u', b']."""
    return fx[:, :, None, :, :, None] * fy[None, :, :, None, :, :]


def _with_identity_sector(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """a (x) 1 + 1 (x) a on one parity sector, from its x factor fx
    [a, u, a', u'] and y factor fy [u, b, u', b'] (see
    ``_build_landau_cartesian``), written as ``_with_identity`` does into
    two diagonal views of the zero block [a, u, b, a', u', b']: fx where
    (u, b) == (u', b'), then fy added where (a, u) == (a', u')."""
    m = len(fx)
    out = np.zeros((m, 2, m, m, 2, m), dtype=np.complex128)
    np.einsum("aubcub->aubc", out)[...] = np.einsum("aucu->auc", fx)[:, :, None, :]
    np.einsum("aubauc->aubc", out)[...] += np.einsum("ubuc->ubc", fy)
    return out


@_held
def build_landau_cartesian_position(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """Position-basis form of the Cartesian Landau Hamiltonian.

    Same operator content as ``build`` gives a LandauCartesian spec, with the diagonal
    grid position matrix and its DFT-conjugated momentum.  This is the
    natural basis for time-evolution runs, where initial and final states
    are grid points; it is not part of the serialized spec.  Its squares
    are plain matrix products: the position matrix is diagonal and the
    momentum matrix is an exact unitary conjugation of it, so they already
    equal the conjugated squares.

    ``basis.pos_p`` is minus the momentum whose plane waves are F's
    columns, so the expanded form assembles H at field -B.  P is purely
    imaginary, so H(-B) = conj H(B): the build conjugates it in place.

    H commutes with the quarter-turn (x, y) -> (-y, x) of the grid, and
    the build makes that exact: q is antisymmetric under the grid reversal
    J bit for bit, p and p^2 are made so by p <- (p - JpJ)/2 and
    p^2 <- (p^2 + Jp^2J)/2 (a change of at most a few ulp), and the
    turn then maps each Kronecker term onto its partner.  So its four
    64x64 phase sectors (at 16x16 points) carry every eigen-solve.
    """
    if spec.kind != "LandauCartesian":
        raise InvalidConfigError(f"build_landau_cartesian_position got kind {spec.kind!r}")
    n = spec.boson_trunc
    q, p = basis.pos_q(n), basis.pos_p(n)
    rev = np.arange(n)[::-1]
    p2 = p @ p
    p, p2 = 0.5 * (p - p[rev][:, rev]), 0.5 * (p2 + p2[rev][:, rev])
    ix, iy = np.divmod(np.arange(n * n), n)  # index ix * n + iy, turned to (n - 1 - iy, ix)
    h = _landau_cartesian_matrix(spec, n, q, p, q @ q, p2)
    np.conjugate(h, out=h)
    return _finish(_finite(h, spec), spec, 0, rotation=(n - 1 - iy) * n + ix)


def _with_identity(a: np.ndarray) -> np.ndarray:
    """a (x) 1 + 1 (x) a of the grid build, written into two strided views
    of the zero (n, n, n, n) matrix [i, k, j, l] (row i n + k, column
    j n + l): a[i, j] where k == l, then a[k, l] added where i == j.  Entry
    by entry these are the sums ``np.kron`` gives, without its n**4
    products by 1 and 0."""
    n = len(a)
    out = np.zeros((n, n, n, n), dtype=np.complex128)
    np.einsum("ikjk->ijk", out)[...] = a[:, :, None]
    np.einsum("ikil->ikl", out)[...] += a
    return out.reshape(n * n, n * n)


def _landau_cartesian_matrix(spec, n, q, p, q2, p2) -> np.ndarray:
    # the grid's whole matrix; the oscillator build sums the same terms on its sectors
    hb = 0.5 * spec.b_field
    # (p_x + hb y)^2 + (p_y - hb x)^2 expanded; cross factors commute, and
    # each term is one Kronecker product: p_x y = p (x) q, p_y x = q (x) p.
    h = 0.5 * _with_identity(p2)
    h += 0.5 * (hb * hb) * _with_identity(q2)
    h += hb * np.kron(p, q) - hb * np.kron(q, p)
    return h


#: Radial oscillator-basis length-scale calibration for the polar build.
#: The scaled basis Q/sqrt(s), P*sqrt(s) is an equally valid truncation for
#: any s > 0; s = 5 minimizes the truncation error of the ground energy
#: against the continuum value |B|/2 at the reference field B = 2
#: (deviation 8.5e-5, versus 3.0e-2 at s = 1, where the ground is 0.9698777).
POLAR_BASIS_SCALE = 5.0


def _build_landau_polar(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """Radial Hamiltonian for one angular sector m = ``angular_m``.

    H = 1/2 rho^(-1/2) p rho p rho^(-1/2) + 1/2 (B/2)^2 rho^2
        + 1/2 m^2 rho^(-2) - (B/2) m

    The radial operator rho is the spectral absolute value of the
    oscillator Q (Q itself has a symmetric spectrum, so plain fractional
    powers would be undefined).  At a power-of-two N, Q has no zero
    eigenvalue, so the inverse powers are finite.  The oscillator basis is
    stretched by POLAR_BASIS_SCALE, read at each call.
    """
    n = spec.boson_trunc
    q = basis.osc_q(n) / np.sqrt(POLAR_BASIS_SCALE)
    p = basis.osc_p(n) * np.sqrt(POLAR_BASIS_SCALE)
    es = hermitian_eig(q)
    rho = _spectral(es, np.abs)
    rho2 = _spectral(es, np.square)
    rho_mh = _spectral(es, lambda lam: np.abs(lam) ** -0.5)
    m = spec.angular_m
    half_b = 0.5 * spec.b_field
    h = 0.5 * (rho_mh @ p @ rho @ p @ rho_mh) + 0.5 * (half_b * half_b) * rho2
    if m != 0:
        rho_m2 = _spectral(es, lambda lam: np.abs(lam) ** -2.0)
        h = h + 0.5 * m ** 2 * rho_m2 - half_b * m * np.eye(n)
    return _finish(_finite(h, spec), spec, 0)


def _build_monopole_su2(spec: HamiltonianSpec) -> BuiltHamiltonian:
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
    register i, so H is assembled block by block on these 16 sectors, and
    the build keeps them: its ``matrix`` is assembled only when read.
    """
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

    inv_r2, cross, sectors, sector, literal = _monopole_tables(n)
    b_op = -g_m / spec.r_ref ** 2 if spec.variant == "ScalarB" else np.where(cross, 0.0, -g_m * inv_r2)
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

    # 1/2 sum_g A_g (x) F_g on each sector: its boson and fermion indices
    # gather the sector's block from every factor pair (flat, one take each)
    rows, cols = sectors[:, :, None], sectors[:, None, :]
    boson, fermion_idx = (rows >> 3) * n ** 3 + (cols >> 3), (rows & 7) * 8 + (cols & 7)
    h_blocks = 0.5 * sum(a.take(boson) * f.take(fermion_idx) for f, a in groups.values())
    del boson, fermion_idx  # 256 KB of indices that need not outlive the sum
    if spec.variant == "HermitianPart":
        h_blocks = 0.5 * (h_blocks + h_blocks.conj().transpose(0, 2, 1))
    labels = literal if spec.variant in ("Literal", "ScalarB") else sector
    return _finish(_finite(h_blocks, spec), spec, labels, filled=sectors)


@lru_cache(maxsize=None)
def _monopole_tables(n: int) -> tuple:
    """The g_m-free parts of ``_build_monopole_su2`` at ``boson_trunc`` n, read-only: (r^2)^-1,
    its cross-parity mask, the sector blocks' index sets and the two key arrays."""
    k = qubits_of_dim(n)
    # r^2 is diagonal in W = V (x) V (x) V, where q^2 = V diag(lam) V^T
    q = basis.osc_q(n).real
    lam, v = np.linalg.eigh(q @ q)
    w = np.kron(np.kron(v, v), v)
    lam3 = (lam[:, None, None] + lam[None, :, None] + lam[None, None, :]).ravel()
    inv_r2 = (w / lam3) @ w.T
    # r^2 keeps each register's parity, so (r^2)^-1 does too; eigh may mix
    # parities within the degenerate levels of q^2: the builder zeroes the
    # round-off that leaves between parities
    reg = np.arange(n ** 3) & (1 | 1 << k | 1 << 2 * k)
    cross = reg[:, None] != reg[None, :]

    # index = boson * 8 + fermion pattern; the low bits of the boson
    # registers x, y, z sit at 3 + 2k, 3 + k and 3
    i = np.arange(8 * n ** 3)
    slots = (i >> 2) & 1, (i >> 1) & 1, i & 1
    parities = (i >> (3 + 2 * k)) & 1, (i >> (3 + k)) & 1, (i >> 3) & 1
    occupation = np.bitwise_count(i & 7)
    charges = [s ^ p for s, p in zip(slots, parities)]
    sector = (occupation & 1) * 8 + charges[0] * 4 + charges[1] * 2 + charges[2]
    sectors = _blocks_by(sector)
    # raising-operator bilinears only lower the occupation: the Literal and ScalarB matrices
    # are block upper-triangular by occupation, then fermion pattern, then the register parities
    literal = (occupation * 8 + (i & 7)) * 8 + parities[0] * 4 + parities[1] * 2 + parities[2]
    for t in (inv_r2, cross, sectors, sector, literal):
        t.flags.writeable = False
    return inv_r2, cross, sectors, sector, literal


_BUILDERS = {
    "LandauCartesian": _build_landau_cartesian,
    "LandauPolar": _build_landau_polar,
    "MonopoleSU2": _build_monopole_su2,
}


@_held
def build(spec: HamiltonianSpec) -> BuiltHamiltonian:
    """The build of ``spec`` by the builder of ``spec.kind``; the one way to
    build every kind (``build_landau_cartesian_position`` is a second basis,
    not a kind).  A repeated call returns the held build (see ``_held``)."""
    return _BUILDERS[spec.kind](spec)

