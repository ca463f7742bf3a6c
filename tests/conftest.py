import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.linalg import expm

from gaugesim import circuits, hamiltonians
from gaugesim.basis import fermion_factor, osc_p, osc_q, place, pos_grid
from gaugesim.errors import GaugesimError
from gaugesim.evolution import momentum_state, pauli_decompose
from gaugesim.hamiltonians import (
    VARIANTS,
    BuiltHamiltonian,
    HamiltonianSpec,
    _blocks_by,
    _diagonal_blocks,
    _quarter_orbits,
    build,
)
from gaugesim.operators import HERM_TOL, is_hermitian, qubits_of_dim

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def pauli_matrix(label: str) -> np.ndarray:
    """Materialize a Pauli string the slow, obvious way (test oracle only)."""
    out = PAULI[label[0]]
    for ch in label[1:]:
        out = np.kron(out, PAULI[ch])
    return out


def pauli_label_to_index(label: str) -> int:
    """Base-4 index of a Pauli string, I, X, Y, Z = 0..3, qubit 0 most significant."""
    idx = 0
    for ch in label:
        idx = (idx << 2) | "IXYZ".index(ch)
    return idx


def pauli_reconstruct(terms) -> np.ndarray:
    """The matrix sum_s c_s P_s of a ``PauliTermList`` by inverting the block
    transform of ``pauli_decompose`` (round-trip oracle, test only)."""
    n = terms.n_qubits
    work = np.zeros(4 ** n, dtype=np.complex128)
    for label, coeff in terms.terms:
        work[pauli_label_to_index(label)] = coeff
    work = work.reshape(-1, 1, 1)
    for _ in range(n):
        half = work.shape[-1]
        blocks = work.reshape(-1, 4, half, half)
        ci, cx, cy, cz = (blocks[:, k] for k in range(4))
        top = np.concatenate([ci + cz, cx - 1j * cy], axis=2)
        bot = np.concatenate([cx + 1j * cy, ci - cz], axis=2)
        work = np.concatenate([top, bot], axis=1)
    return work.reshape(2 ** n, 2 ** n)


def butterfly_decompose(h) -> list:
    """(label, coefficient) pairs of a Hermitian matrix by the tensored block
    transform, qubit by qubit (test oracle only, independent of the
    Walsh-Hadamard form of ``pauli_decompose``):

        [[A, B], [C, D]]  ->  (A+D)/2, (B+C)/2, i(B-C)/2, (A-D)/2

    gives the I, X, Y, Z coefficient blocks of the leading qubit, and the
    blocks recurse.  Same 1e-12 * max|c| pruning and lexicographic order."""
    m = np.asarray(h, dtype=np.complex128)
    n = qubits_of_dim(m.shape[0])
    work = m.reshape(1, m.shape[0], m.shape[0])
    for _ in range(n):
        half = work.shape[-1] // 2
        a = work[:, :half, :half]
        b = work[:, :half, half:]
        c = work[:, half:, :half]
        d = work[:, half:, half:]
        work = 0.5 * np.stack([a + d, b + c, 1j * (b - c), a - d], axis=1)
        work = work.reshape(-1, half, half)
    coeffs = work.reshape(-1)
    scale = float(np.max(np.abs(coeffs)))
    keep = np.nonzero(np.abs(coeffs.real) > 1e-12 * scale)[0]
    return [("".join("IXYZ"[(int(i) >> 2 * (n - 1 - q)) & 3] for q in range(n)), float(coeffs.real[i]))
            for i in keep]


def kron_landau_cartesian_matrix(spec, n, q, p, q2, p2) -> np.ndarray:
    """``hamiltonians._landau_cartesian_matrix`` from six ``np.kron``
    products, the identity factors included (test oracle only)."""
    one = np.eye(n, dtype=np.complex128)
    hb = 0.5 * spec.b_field
    h = 0.5 * (np.kron(p2, one) + np.kron(one, p2))
    h += 0.5 * hb ** 2 * (np.kron(q2, one) + np.kron(one, q2))
    h += hb * np.kron(p, q) - hb * np.kron(q, p)
    return h


def exact_unitary(h, t: float) -> np.ndarray:
    """exp(-i t h) by scipy's Pade scaling and squaring (test oracle only).

    Independent of the library's spectral propagator, which it checks.
    """
    return expm(-1j * t * np.asarray(h, dtype=np.complex128))


def random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# The property tests draw the same examples on every run and keep nothing.
settings.register_profile("gaugesim", derandomize=True, database=None, deadline=None)
settings.load_profile("gaugesim")


@pytest.fixture(autouse=True, scope="session")
def _hypothesis_storage(tmp_path_factory):
    # Hypothesis caches the constants it reads from source files under its
    # home directory, ./.hypothesis by default; keep the checkout clean.
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    set_hypothesis_home_dir(None)


@pytest.fixture(autouse=True)
def _empty_build_slot():
    # every test starts without a held build, so a test that patches a
    # builder's parts sees them run instead of a build an earlier test left
    hamiltonians._SLOT.clear()


# Dense gate oracle: each gate as a full 2**n x 2**n matrix, built from
# Kronecker products of 2x2 factors (qubit 0 = leftmost factor).
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def kron_factors(n: int, factors: dict) -> np.ndarray:
    """I (x) ... (x) factors[q] (x) ... (x) I over n qubits."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, factors.get(q, I2))
    return out


def dense_ry(n: int, qubit: int, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return kron_factors(n, {qubit: np.array([[c, -s], [s, c]], dtype=complex)})


def dense_controlled(n: int, control: int, target: int, gate: np.ndarray) -> np.ndarray:
    """|0><0|_c + |1><1|_c gate_t."""
    return kron_factors(n, {control: P0}) + kron_factors(n, {control: P1, target: gate})


def dense_ansatz_state(n: int, depth: int, params, entangler: str = "cz") -> np.ndarray:
    """The layered Ry form, gate by gate: Ry layer, then ``depth`` blocks of
    [all pairs (c < t) in ascending order, Ry layer]."""
    gate = SZ if entangler == "cz" else SX
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    for d, thetas in enumerate(np.reshape(params, (depth + 1, n))):
        if d:
            for c in range(n - 1):
                for t in range(c + 1, n):
                    psi = dense_controlled(n, c, t, gate) @ psi
        for q in range(n):
            psi = dense_ry(n, q, thetas[q]) @ psi
    return psi


def outer_vertex_scan(k1: int, k3: int, n: int, p2_values) -> np.ndarray:
    """|vertex_amplitude| over p2 with one exponential per (p2, grid point)
    pair: the phases exp(i p2 x_j) as one outer product (test oracle only)."""
    weights = np.conj(momentum_state(k1, n)) * momentum_state(k3, n)
    phases = np.exp(1j * np.outer(np.asarray(p2_values, dtype=float), pos_grid(n)))
    return np.abs(phases @ weights)


def dense_monopole(spec) -> np.ndarray:
    """The SU(2) monopole matrix of ``spec`` built at full size (test oracle only).

    Every operator is placed on the whole [n, n, n, 2, 2, 2] register, B
    comes from one eigendecomposition of the full r^2, and each
    t_i = p_i + B (...) of ``hamiltonians._build_monopole_su2``'s docstring is squared
    with full-size products.
    """
    n = spec.boson_trunc
    dims = [n, n, n, 2, 2, 2]
    fermion = fermion_factor()
    if spec.variant == "MajoranaFermions":
        fermion = (fermion + fermion.conj().T) / np.sqrt(2.0)
    x, y, z = (place(osc_q(n), s, dims) for s in range(3))
    px, py, pz = (place(osc_p(n), s, dims) for s in range(3))
    psi = [place(fermion, 3 + s, dims) for s in range(3)]
    f12, f23, f31 = psi[0] @ psi[1], psi[1] @ psi[2], psi[2] @ psi[0]
    if spec.variant == "ScalarB":
        b_op = (-spec.b_field / spec.r_ref ** 2) * np.eye(x.shape[0])
    else:
        lam, v = np.linalg.eigh(x @ x + y @ y + z @ z)
        b_op = -spec.b_field * ((v / lam) @ v.conj().T)
    t1 = px + b_op @ (-y @ f12 + z @ f31)
    t2 = py + b_op @ (-z @ f23 + x @ f12)
    t3 = pz + b_op @ (-x @ f31 + y @ f23)
    h = 0.5 * (t1 @ t1 + t2 @ t2 + t3 @ t3)
    if spec.variant == "HermitianPart":
        h = 0.5 * (h + h.conj().T)
    return h


#: Reference monopole ground energies (lowest eigenvalue) at g_m = 0.2 and 2;
#: demos/04_monopole_variants.py holds its own copy, and the committed
#: docs/monopole_variants.md ties the two.
MONOPOLE_REFERENCE = {0.2: 0.31120022, 2.0: -2.53854786}


def monopole_variant_table() -> tuple:
    """(values, hermitian) of every monopole variant, straight from ``build``
    (test oracle only): values[variant][g_m] is the lowest eigenvalue at N = 4
    (ScalarB at r_ref = 1) at each coupling of MONOPOLE_REFERENCE, and
    hermitian[variant] whether every one of those builds is Hermitian."""
    values, hermitian = {}, {}
    for variant in VARIANTS:
        builds = {g_m: build(HamiltonianSpec(kind="MonopoleSU2", b_field=g_m, boson_trunc=4, variant=variant,
                                             r_ref=1.0 if variant == "ScalarB" else None))
                  for g_m in MONOPOLE_REFERENCE}
        values[variant] = {g_m: built.lowest_eigenvalue() for g_m, built in builds.items()}
        hermitian[variant] = all(built.hermitian for built in builds.values())
    return values, hermitian


def worst_reference_deviation(per_gm: dict) -> float:
    """The largest |value - reference| over the couplings of MONOPOLE_REFERENCE."""
    return max(abs(per_gm[g_m] - ref) for g_m, ref in MONOPOLE_REFERENCE.items())


def two_scan_finish(matrix, spec, labels, rotation=None) -> BuiltHamiltonian:
    """``hamiltonians._finish`` from the whole matrix (test oracle only): a
    boolean mask of the whole matrix, not of the filled blocks, finds the
    entries below the sector blocks, and another the largest entry above
    them, every time, with one label too."""
    labels = np.broadcast_to(labels, matrix.shape[:1])
    if np.any(matrix[labels[:, None] > labels[None, :]]):
        raise GaugesimError(f"{spec.kind}: non-zero entry below its diagonal blocks")
    orbits = None
    if rotation is not None:
        orbits = _quarter_orbits(rotation)
        if not np.array_equal(matrix[rotation[:, None], rotation], matrix):
            raise GaugesimError(f"{spec.kind}: does not commute exactly with its quarter-turn")
    blocks = _blocks_by(labels)
    above = scale = np.abs(matrix[labels[:, None] < labels[None, :]]).max(initial=0.0)
    whole = np.arange(len(matrix))[None]  # the matrix as one filled block
    sub, _, _ = _diagonal_blocks(matrix[None], whole, blocks, orbits)
    if not np.all(is_hermitian(sub)):
        raise GaugesimError(f"{spec.kind}: a diagonal block of size {sub.shape[1]} is not Hermitian")
    scale = max(scale, np.abs(sub).max())
    return BuiltHamiltonian(entries=matrix[None], filled=whole, spec=spec,
                            hermitian=bool(above <= HERM_TOL * scale), blocks=blocks, orbits=orbits)


def pair_trotter(groups, ts, n_steps: int, psi0) -> np.ndarray:
    """The first-order X-mask product one group at a time (test oracle only).

    Each step applies every (x, src, d) group of ``evolution._groups`` in
    ascending mask order as a gather and two elementwise products: on the pairs
    (i, i ^ x), psi[i] -> cos(dt |d|) psi[i] - i sin(dt |d|) (d / |d|) psi[i ^ x].
    Rows of the result index ``ts``.
    """
    dt = (np.asarray(ts, dtype=float) / n_steps)[:, None]
    factors = []
    for x, src, d in groups:
        if x == 0:
            factors.append((np.exp(-1j * dt * d), None, None))
            continue
        mag = np.abs(d)
        unit = np.divide(d, mag, out=np.zeros_like(d), where=mag > 0.0)
        factors.append((np.cos(dt * mag), -1j * np.sin(dt * mag) * unit, src))
    psi = np.repeat(np.asarray(psi0)[None, :], len(dt), axis=0).astype(np.complex128)
    for _ in range(n_steps):
        for c, s, src in factors:
            psi = c * psi if src is None else c * psi + s * psi[:, src]
    return psi


def per_string_trotter(h, psi0, ts, steps: int) -> np.ndarray:
    """The paper's first-order product, one exponential per Pauli string
    (test oracle only).

    Each step applies exp(-i dt c P) for every (label, c) of
    ``pauli_decompose(h).terms`` in label order:
    psi -> cos(dt c) psi - i sin(dt c) P psi, with
    (P psi)[j] = i**popcount(x & z) (-1)**popcount(z & (j ^ x)) psi[j ^ x]
    for the string's X/Y pattern x and Z/Y pattern z (qubit 0 the most
    significant bit).  Rows of the result index ``ts``.
    """
    terms = pauli_decompose(h)
    n = terms.n_qubits
    j = np.arange(2 ** n)
    dt = (np.asarray(ts, dtype=float) / steps)[:, None]
    factors = []
    for label, c in terms.terms:
        x, z = (int(label.translate(str.maketrans("IXYZ", bits)) or "0", 2) for bits in ("0110", "0011"))
        sign = 1 - 2 * (np.bitwise_count(z & (j ^ x)).astype(np.int64) % 2)
        phase = 1j ** ((x & z).bit_count() % 4) * sign
        factors.append((np.cos(dt * c), -1j * np.sin(dt * c) * phase, j ^ x))
    psi = np.repeat(np.asarray(psi0, dtype=np.complex128)[None, :], len(dt), axis=0)
    for _ in range(steps):
        for cos, sin, src in factors:
            psi = cos * psi + sin * psi[:, src]
    return psi


def per_layer_factors(thetas):
    """The Kronecker factors (L, R) of one Ry layer, built for that layer
    alone: a cos/sin table, then per register half a gather over
    (qubit, bit), a product, a gather through i ^ j and a sign product
    (test oracle only)."""
    n = len(thetas)
    h = n // 2
    cs = np.stack([np.cos(thetas / 2.0), np.sin(thetas / 2.0)], axis=1)
    factors = []
    for part in (cs[:h], cs[h:]):
        k = len(part)
        idx = np.arange(2 ** k)
        rows = np.arange(k)[:, None]
        bits = (idx >> (k - 1 - rows)) & 1
        sign = np.where(np.bitwise_count(idx & ~idx[:, None]) % 2, -1.0, 1.0)
        factors.append(sign * part[rows, bits].prod(axis=0)[idx[:, None] ^ idx])
    return factors


def per_layer_ry(psi, thetas):
    """L M R^T with ``per_layer_factors`` on each state along the last axis."""
    left, right = per_layer_factors(thetas)
    view = psi.reshape(psi.shape[:-1] + (len(left), len(right)))
    return (left @ view @ right.T).reshape(psi.shape)


def per_layer_ansatz_state(cfg, params):
    """``circuits.ansatz_state`` with each layer's factors built alone (test oracle only)."""
    n = cfg.n_qubits
    psi = np.zeros(2 ** n)
    psi[0] = 1.0
    for d, thetas in enumerate(np.reshape(params, (cfg.depth + 1, n))):
        if d:
            psi = circuits._entangle(psi, n, cfg.entangler)
        psi = per_layer_ry(psi, thetas)
    return psi


def per_layer_adjoint_gradient(cfg, params, state, h_state):
    """``circuits.adjoint_gradient`` with each layer's factors built alone (test oracle only)."""
    n = cfg.n_qubits
    layers = np.reshape(params, (cfg.depth + 1, n))
    grad = np.empty_like(layers)
    flip, sign = circuits._flip_tables(n)
    pair = np.stack([state, h_state])
    for d in range(cfg.depth, -1, -1):
        grad[d] = (sign * pair[0][flip]) @ pair[1]
        if d:
            pair = circuits._entangle(per_layer_ry(pair, -layers[d]), n, cfg.entangler, inverse=True)
    return grad.reshape(-1)


def stepwise_wu_yang(r_start, r_end, steps, g, gp) -> np.ndarray:
    """``analytic.wu_yang_solve``'s RK4 with a right-hand-side function and
    one array row written per step (test oracle only; no input checks)."""
    def rhs(r, g, gp):
        return gp, g * (g * g - 1.0) / (r * r)

    h = (r_end - r_start) / steps
    out = np.empty((steps + 1, 3))
    r = r_start
    out[0] = (r, g, gp)
    for k in range(steps):
        k1g, k1p = rhs(r, g, gp)
        k2g, k2p = rhs(r + h / 2, g + h / 2 * k1g, gp + h / 2 * k1p)
        k3g, k3p = rhs(r + h / 2, g + h / 2 * k2g, gp + h / 2 * k2p)
        k4g, k4p = rhs(r + h, g + h * k3g, gp + h * k3p)
        g += h / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g)
        gp += h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        r = r_start + (k + 1) * h
        out[k + 1] = (r, g, gp)
    return out


def free_planar_kernel(rho_i, phi_i, rho_f, phi_f, t) -> complex:
    """The free planar propagator exp(i |r_f - r_i|^2 / (2t)) / (2 pi i t),
    with |r_f - r_i|^2 written in polar coordinates (test oracle only)."""
    dist2 = rho_f ** 2 + rho_i ** 2 - 2.0 * rho_f * rho_i * np.cos(phi_f - phi_i)
    return complex(np.exp(1j * dist2 / (2.0 * t)) / (2j * np.pi * t))
