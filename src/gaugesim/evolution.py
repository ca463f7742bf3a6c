"""Pauli decomposition, Trotterized time evolution, transition amplitudes,
and vertex-operator scattering on the position-basis grid.

Pauli-string conventions match the circuit engine: label character 0 acts
on qubit 0, the most significant bit of the basis index, and labels are
ordered lexicographically over {I, X, Y, Z} (which is exactly the base-4
enumeration the fast transform produces).  Trotter steps do not follow that
order: they apply one exact exponential per X-mask group of strings, in
ascending mask order (see ``PauliTermList.groups``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import pos_grid, sylvester_f
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidTimesError,
    NotHermitianError,
)
from .hamiltonians import matrix_of
from .operators import _propagate, hermitian_eig, is_hermitian, qubits_of_dim

__all__ = [
    "PauliTermList",
    "pauli_decompose",
    "pauli_reconstruct",
    "pauli_label_to_index",
    "pauli_index_to_label",
    "trotter_evolve",
    "TransitionSeries",
    "transition_series",
    "write_transition_csv",
    "momentum_state",
    "vertex_amplitude",
    "vertex_scan",
    "dual_lattice_period",
    "wrap_momentum",
    "scattering_process",
]

_DIGITS = "IXYZ"
_X_BITS = str.maketrans("IXYZ", "0110")
_ZY_BITS = str.maketrans("IXYZ", "0011")


def pauli_index_to_label(index: int, n_qubits: int) -> str:
    chars = []
    for q in range(n_qubits):
        shift = 2 * (n_qubits - 1 - q)
        chars.append(_DIGITS[(index >> shift) & 3])
    return "".join(chars)


def pauli_label_to_index(label: str) -> int:
    idx = 0
    for ch in label:
        idx = (idx << 2) | _DIGITS.index(ch)
    return idx


@dataclass
class PauliTermList:
    """Hermitian operator as a list of (Pauli label, real coefficient).

    Labels are unique and kept in lexicographic order.  Trotter steps act
    by X-mask groups of terms (see ``groups``), built lazily and cached.
    """

    n_qubits: int
    terms: list
    _groups: list | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def coefficients_vector(self) -> np.ndarray:
        """Dense 4**n coefficient vector in label order (zeros where pruned)."""
        vec = np.zeros(4 ** self.n_qubits)
        for label, coeff in self.terms:
            vec[pauli_label_to_index(label)] = coeff
        return vec

    def groups(self) -> list:
        """(x, src, d) per distinct X-mask x of the terms, x ascending.

        The strings sharing the X/Y pattern x sum to H_x with
        (H_x psi)[i] = d[i] psi[src[i]], src[i] = i ^ x and

            d[i] = sum_s c_s * i**n_Y(s) * (-1)**popcount((i ^ x) & zy_s),

        zy_s being the Z/Y pattern of string s.  H_x is Hermitian, so
        d[i ^ x] = conj(d[i]): H_x is a direct sum of 2x2 blocks
        [[0, d], [conj d, 0]] on the pairs (i, i ^ x), or diagonal for x = 0.
        """
        if self._groups is None:
            by_mask = {}
            for label, coeff in self.terms:
                x = int(label.translate(_X_BITS), 2)
                zy = int(label.translate(_ZY_BITS), 2)
                by_mask.setdefault(x, []).append((zy, coeff * 1j ** label.count("Y")))
            idx = np.arange(self.dim)
            groups = []
            for x in sorted(by_mask):
                zys, weights = (np.array(v) for v in zip(*by_mask[x]))
                src = idx ^ x
                signs = 1.0 - 2.0 * (np.bitwise_count(src[None, :] & zys[:, None]) & 1)
                groups.append((x, src, (weights[:, None] * signs).sum(axis=0)))
            self._groups = groups
        return self._groups


def pauli_decompose(h) -> PauliTermList:
    """Expand a Hermitian matrix over Pauli strings, c_s = Tr(P_s H) / 2**n.

    Runs the tensored block transform qubit by qubit, O(n 4**n) total,
    without ever materializing a Pauli matrix:

        [[A, B], [C, D]]  ->  (A+D)/2, (B+C)/2, i(B-C)/2, (A-D)/2

    yields the I, X, Y, Z coefficient blocks for the leading qubit, and
    recursion on the blocks handles the rest.  Coefficients at or below
    1e-12 * max|c| are dropped.
    """
    m = np.asarray(h, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {m.shape}")
    n = qubits_of_dim(m.shape[0])
    if not is_hermitian(m):
        raise NotHermitianError("pauli_decompose requires a Hermitian matrix")

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

    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    resid = float(np.max(np.abs(coeffs.imag))) if coeffs.size else 0.0
    if scale > 0.0 and resid > 1e-10 * scale:
        raise NotHermitianError(f"complex Pauli coefficients (residue {resid:.3e})")
    real = coeffs.real
    keep = np.nonzero(np.abs(real) > 1e-12 * scale)[0]
    terms = [(pauli_index_to_label(int(i), n), float(real[i])) for i in keep]
    return PauliTermList(n_qubits=n, terms=terms)


def pauli_reconstruct(terms: PauliTermList) -> np.ndarray:
    """Rebuild the matrix sum_s c_s P_s by inverting the block transform."""
    n = terms.n_qubits
    work = terms.coefficients_vector().astype(np.complex128).reshape(-1, 1, 1)
    for _ in range(n):
        half = work.shape[-1]
        blocks = work.reshape(-1, 4, half, half)
        ci, cx, cy, cz = (blocks[:, k] for k in range(4))
        top = np.concatenate([ci + cz, cx - 1j * cy], axis=2)
        bot = np.concatenate([cx + 1j * cy, ci - cz], axis=2)
        work = np.concatenate([top, bot], axis=1)
    return work.reshape(terms.dim, terms.dim)


def _apply_trotter(groups, ts, n_steps: int, psi0: np.ndarray) -> np.ndarray:
    """First-order product over the X-mask groups for a batch of times; rows index ts.

    On each pair (i, i ^ x) the block [[0, d], [conj d, 0]] squares to
    |d|**2, so exp(-i dt H_x) maps psi[i] to
    cos(dt |d|) psi[i] - i sin(dt |d|) (d / |d|) psi[i ^ x].  These factors
    are formed once per time, before the steps.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    dt = (np.asarray(ts, dtype=float) / n_steps)[:, None]
    factors = []
    for x, src, d in groups:
        if x == 0:
            factors.append((np.exp(-1j * dt * d), None, None))
            continue
        mag = np.abs(d)
        unit = np.divide(d, mag, out=np.zeros_like(d), where=mag > 0.0)
        factors.append((np.cos(dt * mag), -1j * np.sin(dt * mag) * unit, src))
    psi = np.repeat(psi0[None, :], len(dt), axis=0).astype(np.complex128)
    for _ in range(n_steps):
        for c, s, src in factors:
            psi = c * psi if src is None else c * psi + s * psi[:, src]
    return psi


def trotter_evolve(terms: PauliTermList, t: float, n_steps: int, psi0) -> np.ndarray:
    """Apply the first-order product [prod_x exp(-i H_x t/n)]**n to psi0.

    H_x sums the terms with X-mask x (see ``PauliTermList.groups``); the
    factors apply in ascending x, each as an exact closed-form exponential
    of 2x2 blocks (a gather and two elementwise products), so no matrix
    exponentials are formed.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if len(psi0) != terms.dim:
        raise DimensionMismatchError(
            f"state length {len(psi0)} vs operator dim {terms.dim}"
        )
    return _apply_trotter(terms.groups(), [t], int(n_steps), psi0)[0]


@dataclass(frozen=True)
class TransitionSeries:
    """Amplitudes <f| U(t) |i> over a time grid.

    ``amplitudes[j, k]`` is the amplitude at ts[j] into final state k;
    ``labels[k]`` names that final state: its grid index for "all", its
    position in the list of final states otherwise.
    """

    ts: np.ndarray
    amplitudes: np.ndarray
    labels: list

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _final_states(psi_fs, dim: int):
    """Matrix whose columns are the requested final states, plus labels."""
    if isinstance(psi_fs, str) and psi_fs == "all":
        return np.eye(dim, dtype=np.complex128), list(range(dim))
    mat = np.column_stack([np.asarray(p, dtype=np.complex128) for p in psi_fs])
    if mat.shape[0] != dim:
        raise DimensionMismatchError("final states do not match H dimension")
    return mat, list(range(mat.shape[1]))


def _evolver(hm, method: str, trotter_steps: int):
    """Decompose H once; returns evolve(psi, ts), exp(-iHt) psi per t in ts.

    "exact" propagates spectrally, "trotter" by the grouped first-order
    product with ``trotter_steps`` steps.
    """
    if method == "exact":
        es = hermitian_eig(hm)
        return lambda psi, ts: _propagate(es, psi, ts)
    if method == "trotter":
        terms = pauli_decompose(hm)
        return lambda psi, ts: _apply_trotter(terms.groups(), ts, int(trotter_steps), psi)
    raise ValueError(f"method must be 'exact' or 'trotter', got {method!r}")


def transition_series(h, psi_i, psi_fs, ts, method: str = "exact",
                      trotter_steps: int = 100) -> TransitionSeries:
    """Transition amplitudes under exact or Trotterized evolution.

    ``psi_fs`` is a list of final statevectors or "all" for the full
    computational basis.  method "exact" uses the spectral propagator;
    "trotter" uses the first-order product with ``trotter_steps`` per
    time point.
    """
    hm = matrix_of(h)
    psi_i = np.asarray(psi_i, dtype=np.complex128)
    if len(psi_i) != hm.shape[0]:
        raise DimensionMismatchError(
            f"initial state length {len(psi_i)} vs H dim {hm.shape[0]}"
        )
    ts = np.asarray(ts, dtype=float)
    finals, labels = _final_states(psi_fs, hm.shape[0])
    states = _evolver(hm, method, trotter_steps)(psi_i, ts)
    amps = states @ finals.conj()
    return TransitionSeries(ts=ts, amplitudes=amps, labels=labels)


def write_transition_csv(series: TransitionSeries, path):
    """CSV with header t,re_<label>,im_<label>,prob_<label> per final state."""
    cols = []
    for lab in series.labels:
        cols += [f"re_{lab}", f"im_{lab}", f"prob_{lab}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for j, t in enumerate(series.ts):
            row = [f"{t:.17g}"]
            for k in range(series.amplitudes.shape[1]):
                a = series.amplitudes[j, k]
                row += [f"{a.real:.17g}", f"{a.imag:.17g}", f"{abs(a) ** 2:.17g}"]
            fh.write(",".join(row) + "\n")


def momentum_state(k: int, n: int) -> np.ndarray:
    """k-th momentum eigenstate on the n-point grid.

    This is the k-th column of F^dag (the conjugate of the k-th column of
    the symmetric Sylvester matrix): it satisfies
    pos_p(n) |p_k> = x_k |p_k> with x_k the k-th grid value.
    """
    if not 0 <= k < n:
        raise IndexOutOfRangeError(f"momentum index {k} outside grid of {n}")
    return np.conj(sylvester_f(n)[:, k])


def vertex_amplitude(k1: int, p2: float, k3: int, n: int) -> complex:
    """Three-point amplitude <p_k1| exp(i p2 X) |p_k3> on the n-point grid.

    X is the diagonal position operator, so the insertion is an exact
    elementwise phase.  The modulus peaks (at exactly 1) when p2 matches
    the grid momentum transfer x_k3 - x_k1, up to the dual-lattice period.
    """
    bra = momentum_state(k1, n)
    ket = momentum_state(k3, n)
    phase = np.exp(1j * float(p2) * pos_grid(n))
    return complex(np.vdot(bra, phase * ket))


def dual_lattice_period(n: int) -> float:
    """Period of |vertex_amplitude| in p2: pi / s for grid unit s.

    Shifting p2 by pi/s multiplies every term of the amplitude by a
    common sign, so the modulus is exactly periodic and the peak location
    is only defined modulo this value.
    """
    s = np.sqrt(2.0 * np.pi / (4.0 * n))
    return np.pi / s


def wrap_momentum(p2: float, n: int) -> float:
    """Reduce a momentum transfer into [-period/2, period/2)."""
    period = dual_lattice_period(n)
    return float((p2 + period / 2.0) % period - period / 2.0)


def vertex_scan(k1: int, k3: int, n: int, p2_values) -> np.ndarray:
    """|vertex_amplitude| over a grid of p2 values."""
    bra = momentum_state(k1, n)
    ket = momentum_state(k3, n)
    grid = pos_grid(n)
    phases = np.exp(1j * np.outer(np.asarray(p2_values, dtype=float), grid))
    return np.abs(phases @ (np.conj(bra) * ket))


def scattering_process(h_free, p2: float, tau: float, total_t: float, psi0,
                       method: str = "exact", trotter_steps: int = 100) -> np.ndarray:
    """Evolve, insert the vertex exp(i p2 X), evolve again.

    Returns U(total_t - tau) V(p2) U(tau) |psi0>, X the diagonal position
    operator of the matching grid.  tau may sit at either endpoint (the
    pure before/after limits).  H is decomposed once for both legs.
    """
    hm = matrix_of(h_free)
    if not 0.0 <= tau <= total_t:
        raise InvalidTimesError(f"need 0 <= tau <= total_T, got tau={tau}, total_T={total_t}")
    psi = np.asarray(psi0, dtype=np.complex128)
    if len(psi) != hm.shape[0]:
        raise DimensionMismatchError(f"initial state length {len(psi)} vs H dim {hm.shape[0]}")
    evolve = _evolver(hm, method, trotter_steps)

    def leg(state, t):
        return state if t == 0.0 else evolve(state, [t])[0]

    psi = leg(psi, tau)
    psi = np.exp(1j * float(p2) * pos_grid(hm.shape[0])) * psi
    return leg(psi, total_t - tau)
