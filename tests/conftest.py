import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.linalg import expm

from gaugesim import circuits, hamiltonians
from gaugesim.basis import fermion_factor, osc_p, osc_q, place, pos_grid, pos_p, pos_q
from gaugesim.evolution import momentum_state, pauli_decompose
from gaugesim.hamiltonians import (
    VARIANTS,
    BuiltHamiltonian,
    HamiltonianSpec,
    _blocks_by,
    _diagonal_blocks,
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
    """(p_x + B/2 y)^2 / 2 + (p_y - B/2 x)^2 / 2 expanded, from six
    ``np.kron`` products of the one-axis factors q, p, q2, p2, the identity
    factors included (test oracle only)."""
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
    # every test starts without a held build or cached polar terms, so a test
    # that patches a builder's parts sees them run instead of a build or terms
    # an earlier test left
    hamiltonians._SLOT.clear()
    hamiltonians._polar_terms.cache_clear()


def empty_monopole_terms():
    """Empty the monopole term cache and the build slot, so that the next
    monopole build starts cold: it assembles its terms again."""
    hamiltonians._monopole_terms.cache_clear()
    hamiltonians._monopole_kinetic.cache_clear()
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


def quarter_orbits(rotation) -> np.ndarray:
    """Orbit table of the basis permutation ``rotation`` (R), one row
    s_o, R s_o, R^2 s_o, R^3 s_o per orbit with s_o its smallest index (test
    helper; a build refuses any table but its spec's grid's)."""
    table = np.stack([np.arange(len(rotation)), rotation, rotation[rotation], rotation[rotation[rotation]]], axis=1)
    return table[table.min(axis=1) == table[:, 0]]


def whole_build(matrix, spec, labels, rotation=None) -> BuiltHamiltonian:
    """The build of a whole ``matrix`` as one filled block, with the sector
    ``labels`` of its indices (or one for all) and, for a grid, the
    quarter-turn ``rotation`` as index array: the constructor's checks run
    on the input a dense builder would hand it (test helper)."""
    labels = np.broadcast_to(labels, matrix.shape[:1])
    return BuiltHamiltonian(entries=matrix[None], filled=np.arange(len(matrix))[None], spec=spec,
                            blocks=_blocks_by(labels), orbits=None if rotation is None else quarter_orbits(rotation))


def two_scan_finish(matrix, spec, labels, rotation=None):
    """The outcome of building a whole ``matrix`` with sector ``labels``
    (test oracle only): the refusal's message, or (hermitian, blocks as
    lists).  A boolean mask of the whole matrix, not of the filled blocks,
    finds the entries below the sector blocks, and another the largest
    entry above them, every time, with one label too; the quarter-turn is
    the given ``rotation``, not one read back from orbits."""
    labels = np.broadcast_to(labels, matrix.shape[:1])
    if np.any(matrix[labels[:, None] > labels[None, :]]):
        return f"{spec.kind}: non-zero entry below its diagonal blocks"
    orbits = None
    if rotation is not None:
        orbits = quarter_orbits(rotation)
        if not np.array_equal(matrix[rotation[:, None], rotation], matrix):
            return f"{spec.kind}: does not commute exactly with its quarter-turn"
    blocks = _blocks_by(labels)
    above = scale = np.abs(matrix[labels[:, None] < labels[None, :]]).max(initial=0.0)
    whole = np.arange(len(matrix))[None]  # the matrix as one filled block
    sub, _, _ = _diagonal_blocks(matrix[None], whole, blocks, orbits)
    if not np.all(is_hermitian(sub)):
        return f"{spec.kind}: a diagonal block of size {sub.shape[1]} is not Hermitian"
    scale = max(scale, np.abs(sub).max())
    return bool(above <= HERM_TOL * scale), [b.tolist() for b in blocks]


def bfs_gauge(built) -> tuple | None:
    """A power-of-i gauge of ``built``'s diagonal blocks found by search (test
    oracle only): (powers, components), or None when there is none.

    Per block, a breadth-first search over the entries that are not zero
    gives each connected component's first index the power 0 and each index
    it reaches the power that makes its tree edge real: H[a, b] i**(p_b - p_a)
    is real for p_b = p_a when the entry is real, p_a + 1 when it is
    imaginary, and for no power otherwise.  The powers are then kept only if
    every entry of every block, so gauged, has imaginary part exactly 0.0.
    ``components`` labels each index's component (one label per component).
    """
    sub, tables, _ = _diagonal_blocks(built.entries, built.filled, built.blocks)
    powers, components = np.zeros(built.dim, dtype=np.int64), np.full(built.dim, -1)
    turn = np.array([1.0, 1j, -1.0, -1j])
    for block, idx in zip(sub, tables[..., 0]):
        for root in range(len(idx)):
            if components[idx[root]] >= 0:
                continue
            components[idx[root]], queue = idx[root], [root]
            while queue:
                a = queue.pop(0)
                for b in np.flatnonzero((block[a] != 0) | (block[:, a] != 0)):
                    if components[idx[b]] >= 0:
                        continue
                    z = block[a, b] if block[a, b] != 0 else np.conj(block[b, a])
                    if z.imag != 0 and z.real != 0:
                        return None
                    powers[idx[b]] = powers[idx[a]] + (z.imag != 0)
                    components[idx[b]] = idx[root]
                    queue.append(b)
        p = powers[idx]
        if np.any((turn[(p[None, :] - p[:, None]) % 4] * block).imag != 0):
            return None
    return powers, components


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


def dense_grid_halves(spec) -> tuple:
    """(H_A, H_B) of the position grid's build of ``spec``, from the
    Kronecker terms of its expanded form, conjugated as the build does
    (test oracle only): with hb = B/2, H_A = conj(p^2 (x) 1 / 2
    + hb^2 1 (x) q^2 / 2 + hb p (x) q) on the x register and
    H_B = conj(1 (x) p^2 / 2 + hb^2 q^2 (x) 1 / 2 - hb q (x) p) on the y
    register, q = ``pos_q(n)`` and p = ``pos_p(n)``."""
    n, hb = spec.boson_trunc, 0.5 * spec.b_field
    q, p, one = pos_q(n), pos_p(n), np.eye(n)
    h_a = 0.5 * np.kron(p @ p, one) + 0.5 * hb ** 2 * np.kron(one, q @ q) + hb * np.kron(p, q)
    h_b = 0.5 * np.kron(one, p @ p) + 0.5 * hb ** 2 * np.kron(q @ q, one) - hb * np.kron(q, p)
    return h_a.conj(), h_b.conj()


def split_trotter(spec, psi0, ts, steps: int) -> np.ndarray:
    """The first-order split [exp(-i dt H_A) exp(-i dt H_B)]**steps of
    ``dense_grid_halves(spec)``, each factor by ``expm`` (test oracle only).
    Rows of the result index ``ts``."""
    h_a, h_b = dense_grid_halves(spec)
    return np.stack([np.linalg.matrix_power(expm(-1j * t / steps * h_a) @ expm(-1j * t / steps * h_b), steps)
                     @ psi0 for t in ts])


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


def bridge_green(b_field, tau, total_t):
    """g_B(tau) = 2 sinh(B tau/2) sinh(B (T - tau)/2) / (B sinh(BT/2)), the
    fixed-endpoint worldline Green's function at coincident proper times in
    a constant field B, from Gaussian integrals of the Euclidean Mehler
    kernel (Feynman and Hibbs); at B = 0 the Brownian bridge tau (T - tau)/T
    (test oracle only)."""
    if b_field == 0.0:
        return tau * (total_t - tau) / total_t
    return (2.0 * np.sinh(b_field * tau / 2) * np.sinh(b_field * (total_t - tau) / 2)
            / (b_field * np.sinh(b_field * total_t / 2)))


def one_vertex_worldline(k, c, b_field, tau, total_t) -> complex:
    """<exp(i k.x(tau))> over the worldlines from c back to c in proper time
    T in the field B: exp(i k.c) exp(-|k|^2 g_B(tau) / 2) (test oracle only)."""
    k, c = np.asarray(k, dtype=float), np.asarray(c, dtype=float)
    return complex(np.exp(1j * (k @ c) - (k @ k) * bridge_green(b_field, tau, total_t) / 2))


def two_vertex_worldline(k1, k2, c, b_field, tau1, tau2, total_t) -> complex:
    """<exp(i k1.x(tau1)) exp(i k2.x(tau2))> over the worldlines from c back to
    c in proper time T in the field B, tau1 < tau2 (test oracle only).

    The Euclidean Mehler kernel of H = (p_x + B y/2)^2 / 2 + (p_y - B x/2)^2 / 2,
    <x| e^{-d H} |x'> ~ exp(-a(d) |x - x'|^2 + i (B/2) (x'_1 x_2 - x'_2 x_1)) with
    a(d) = (B/4) coth(B d/2) (1/(2d) at B = 0), chains c -> x1 -> x2 -> c over
    the proper times tau1, tau2 - tau1, T - tau2.  Its exponent in z = (x1, x2)
    is -z.M z / 2 + v.z + const, with M complex symmetric 4x4, so the vertices
    give exp(i k.w - k.M^-1 k / 2), k = (k1, k2) and w = M^-1 v.
    """
    durations = np.diff([0.0, tau1, tau2, total_t])
    if b_field == 0.0:
        a = 1.0 / (2.0 * durations)
    else:
        a = b_field / 4.0 / np.tanh(b_field * durations / 2.0)
    turn = np.array([[0.0, 1.0], [-1.0, 0.0]])  # x'.turn.x = x'_1 x_2 - x'_2 x_1
    p = np.zeros((4, 2, 4, 2), dtype=np.complex128)  # exponent -X.P X / 2 over X = (c, x1, x2, c)
    for j in range(3):
        p[j, :, j] += 2 * a[j] * I2
        p[j + 1, :, j + 1] += 2 * a[j] * I2
        p[j, :, j + 1] += -2 * a[j] * I2 - 0.5j * b_field * turn
        p[j + 1, :, j] += -2 * a[j] * I2 + 0.5j * b_field * turn
    p = p.reshape(8, 8)
    ends = np.concatenate([np.asarray(c, dtype=float)] * 2)
    v = -(p[2:6, :2] @ ends[:2] + p[2:6, 6:] @ ends[2:])
    k = np.concatenate([k1, k2]).astype(float)
    w, mk = np.linalg.solve(p[2:6, 2:6], np.stack([v, k], axis=1)).T
    return complex(np.exp(1j * (k @ w) - (k @ mk) / 2))


def apply_gates(gates, n_bits: int, states) -> np.ndarray:
    """A gate list run on the statevector columns of ``states`` (2**n_bits rows),
    gate by gate (test oracle only).  Gates act on bits of the basis index,
    bit b of weight 2**b: ("h", b) Hadamard, ("p", b, phi) the phase gate
    diag(1, e^{i phi}), ("cp", b1, b2, phi) the phase e^{i phi} where both
    bits are 1, ("swap", b1, b2) and ("cx", control, target)."""
    psi = np.array(states, dtype=np.complex128).reshape(2 ** n_bits, -1)
    j = np.arange(2 ** n_bits)

    def bit(b):
        return (j >> b) & 1

    for name, *args in gates:
        if name == "h":
            low = j[bit(args[0]) == 0]
            high = low | 1 << args[0]
            psi[low], psi[high] = (psi[low] + psi[high]) / np.sqrt(2), (psi[low] - psi[high]) / np.sqrt(2)
        elif name == "p":
            psi[bit(args[0]) == 1] *= np.exp(1j * args[1])
        elif name == "cp":
            psi[(bit(args[0]) & bit(args[1])) == 1] *= np.exp(1j * args[2])
        elif name == "swap":
            psi = psi[j ^ (bit(args[0]) ^ bit(args[1])) * (1 << args[0] | 1 << args[1])]
        elif name == "cx":
            psi = psi[j ^ bit(args[0]) << args[1]]
        else:
            raise ValueError(f"unknown gate {name!r}")
    return psi
