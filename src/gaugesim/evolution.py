"""Pauli decomposition, Trotterized time evolution, transition amplitudes,
and vertex-operator scattering on the position-basis grid.

Pauli-string conventions match the circuit engine: label character 0 acts
on qubit 0, the most significant bit of the basis index, and labels are
ordered lexicographically over {I, X, Y, Z} (which is exactly the base-4
enumeration the fast transform produces).  Trotter steps do not follow that
order: they apply one exact exponential per X-mask group of strings, in
ascending mask order.  A group's operator H_x holds the entries H[i, i ^ x]
of H, so ``_groups`` reads it off the matrix itself; the strings only say
which masks to keep.  Each maximal run of
consecutive groups whose masks span at most 4 dimensions over GF(2) keeps
every coset of that span, so the run's factors are multiplied out once per
call into one block of at most 16x16 per coset and time; a step is then one
batched matmul and one gather per run (see ``_apply_trotter``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .basis import pos_grid, sylvester_f
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidSizeError,
    InvalidTimesError,
    NotHermitianError,
    read_number,
)
from .operators import _propagate, as_operator, hermitian_eig, is_hermitian, qubits_of_dim

__all__ = [
    "PauliTermList",
    "pauli_decompose",
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


def _label(index: int, n_qubits: int) -> str:
    """The Pauli string at base-4 ``index`` of the transform's output, one
    character per qubit, qubit 0 from the most significant digit pair."""
    return "".join(_DIGITS[(index >> 2 * (n_qubits - 1 - q)) & 3] for q in range(n_qubits))


@dataclass
class PauliTermList:
    """The paper's Pauli-string view of a Hermitian operator on ``n_qubits``:
    (label, real coefficient) pairs, labels unique and in lexicographic order.

    ``pauli_decompose`` makes it; the Trotter groups use only the labels'
    X/Y patterns (see ``_groups``).
    """

    n_qubits: int
    terms: list


def pauli_decompose(h) -> PauliTermList:
    """Expand a Hermitian matrix over Pauli strings, c_s = Tr(P_s H) / 2**n.

    Runs the tensored block transform qubit by qubit, O(n 4**n) total,
    without ever materializing a Pauli matrix:

        [[A, B], [C, D]]  ->  (A+D)/2, (B+C)/2, i(B-C)/2, (A-D)/2

    yields the I, X, Y, Z coefficient blocks for the leading qubit, and
    recursion on the blocks handles the rest.  Coefficients at or below
    1e-12 * max|c| are dropped.  ``h`` is a matrix or a build (see
    ``operators.as_operator``).
    """
    m = as_operator(h)
    n = qubits_of_dim(m.shape[0])
    if not is_hermitian(h):
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
    terms = [(_label(int(i), n), float(real[i])) for i in keep]
    return PauliTermList(n_qubits=n, terms=terms)


def _groups(h) -> list:
    """(x, src, d) per X-mask x of the strings ``pauli_decompose(h)`` keeps, x ascending.

    The strings sharing the X/Y pattern x sum to H_x, the part of H on the
    index pairs (i, i ^ x): (H_x psi)[i] = d[i] psi[src[i]] with
    src[i] = i ^ x and d[i] = H[i, i ^ x].  d is read from the Hermitian
    part, (H[i, i ^ x] + conj H[i ^ x, i]) / 2, so d[i ^ x] = conj(d[i])
    bit for bit: H_x is a direct sum of 2x2 blocks [[0, d], [conj d, 0]]
    on the pairs, or diagonal and real for x = 0.  ``h`` is a matrix or a
    build, passed on as given, so ``pauli_decompose`` makes the one
    Hermiticity check (none for a build, which carries its flag).
    """
    masks = {int(label.translate(_X_BITS), 2) for label, _ in pauli_decompose(h).terms}
    hm = as_operator(h)
    idx = np.arange(hm.shape[0])
    return [(x, idx ^ x, 0.5 * (hm[idx, idx ^ x] + hm[idx ^ x, idx].conj())) for x in sorted(masks)]


#: Largest GF(2) rank of the X-masks that one run composes into a block, so
#: blocks are at most 2**4 = 16 wide.  Larger blocks cost more to compose,
#: smaller ones more matmuls per step; 4 was fastest on the position grid
#: (30 ms per 11 x 100-step call, against 52 ms at rank 3 and 41 ms at 5,
#: 2-vCPU host), on the oscillator basis and on the monopole.
_RUN_RANK = 4


def _span_basis(masks) -> list:
    """GF(2) basis of the span of ``masks``, one vector per leading bit, descending."""
    basis = []
    for x in masks:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis = sorted(basis + [x], reverse=True)
    return basis


def _mask_runs(groups) -> list:
    """Split the ascending groups into maximal consecutive runs whose X-masks
    span at most ``_RUN_RANK`` dimensions over GF(2)."""
    runs = []
    for group in groups:
        if runs and len(_span_basis([g[0] for g in runs[-1]] + [group[0]])) <= _RUN_RANK:
            runs[-1].append(group)
        else:
            runs.append([group])
    return runs


def _run_blocks(run, dt, dim: int):
    """One run's product of group exponentials as blocks on the cosets of its span.

    With span S = <x of the run> = {span[c]}, ``layout[r, c]`` lists coset
    r of S in the order span[c], and x = span[a] moves c to c ^ a inside
    every coset.  On each pair (i, i ^ x) the block [[0, d], [conj d, 0]]
    squares to |d|**2, so exp(-i dt H_x) maps psi[i] to
    cos(dt |d|) psi[i] - i sin(dt |d|) (d / |d|) psi[i ^ x].  These
    factors act, in ascending x, on the rows of identity blocks stored as
    prod[row, col, t, r]; c -> c ^ a reverses some bit axes of the row
    index, a strided view rather than a gather.  Returns blocks[t, r] =
    the run's product at dt[t] on coset r, and the layout.
    """
    span = np.zeros(1, dtype=np.int64)
    for b in _span_basis([x for x, _, _ in run]):
        span = np.concatenate([span, span ^ b])
    reps = np.unique((np.arange(dim)[:, None] ^ span).min(axis=1))
    layout = reps[:, None] ^ span
    k, tail = len(span), (len(dt), len(reps))
    d = np.stack([d for _, _, d in run])[:, layout.T][:, :, None]  # (group, c, 1, r)
    mag = np.abs(d)
    unit = np.divide(d, mag, out=np.zeros_like(d), where=mag > 0.0)
    angle = dt[:, None] * mag
    cos, sin = np.cos(angle), np.sin(angle) * (-1j * unit)
    prod = np.zeros((k, k) + tail, dtype=np.complex128)
    prod[np.arange(k), np.arange(k)] = 1.0
    swapped = np.empty_like(prod)
    bits = k.bit_length() - 1
    row_bits = (2,) * bits + (k,) + tail  # the row index split into bits, high bit first
    for g, (x, _, _) in enumerate(run):
        if x == 0:
            prod *= np.exp(-1j * dt[:, None] * d[g])[:, None]
            continue
        a = int(np.flatnonzero(span == x)[0])
        flip = tuple(slice(None, None, -1) if a >> (bits - 1 - m) & 1 else slice(None)
                     for m in range(bits))
        np.multiply(prod.reshape(row_bits)[flip], sin[g].reshape(row_bits[:bits] + (1,) + tail),
                    out=swapped.reshape(row_bits))
        prod *= cos[g][:, None]
        prod += swapped
    return np.ascontiguousarray(prod.transpose(2, 3, 0, 1)), layout.ravel()


def _apply_trotter(groups, ts, n_steps: int, psi0: np.ndarray) -> np.ndarray:
    """First-order product over the X-mask groups for a batch of times; rows index ts.

    Consecutive groups are composed, once per time and before the steps,
    into one block per coset of their span (see ``_mask_runs`` and
    ``_run_blocks``).  A step is then one batched matmul per run, each
    followed by a gather into the next run's coset layout.  Rows with
    t == 0 are psi0 itself.
    """
    ts = np.asarray(ts, dtype=float)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    out = np.repeat(psi0[None, :], len(ts), axis=0)
    live = np.flatnonzero(ts != 0.0)
    runs = _mask_runs(groups)
    if not (runs and live.size):
        return out
    dt = ts[live] / n_steps
    stages = [_run_blocks(run, dt, len(psi0)) for run in runs]
    layouts = [layout for _, layout in stages]
    # moves[j] gathers run j's layout into the next run's (cyclically)
    moves = [np.argsort(a)[b] for a, b in zip(layouts, layouts[1:] + layouts[:1])]
    psi = out[live][:, layouts[0]]
    product = np.empty_like(psi)
    for _ in range(n_steps):
        for (blocks, _), move in zip(stages, moves):
            shape = blocks.shape[:3] + (1,)
            np.matmul(blocks, psi.reshape(shape), out=product.reshape(shape))
            np.take(product, move, axis=1, out=psi)
    out[live] = psi[:, np.argsort(layouts[0])]
    return out


def _finite_numbers(values, what: str = "evolution times", error=InvalidTimesError) -> np.ndarray:
    """``values`` as a float array: the array form of ``read_number``'s rule.

    NaN and infinite entries are refused with ``error`` naming ``what``,
    and so is every entry that is not a real number: bools and strings,
    which a float conversion would read as 0, 1 or a number, complex
    numbers and None.  A floating ndarray holds only real numbers, so it
    needs the finiteness pass alone.
    """
    if (isinstance(values, np.ndarray) and values.dtype.kind == "f"
            or all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in np.asarray(values, dtype=object).flat)):
        floats = np.asarray(values, dtype=float)
        if np.all(np.isfinite(floats)):
            return floats
    raise error(f"{what} must be finite numbers, got {np.asarray(values, dtype=object).tolist()}")


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
        """|a|^2 per amplitude: hypot(Re a, Im a), squared by libm ``pow``.

        This equals the scalar ``abs(a) ** 2`` bit for bit, which keeps the
        eoh CSV cells byte-stable; ``np.abs`` and an array ``** 2`` (a plain
        product) each differ from it by 1 ulp in some cells.
        """
        a = self.amplitudes
        return np.float_power(np.hypot(a.real, a.imag), 2)


def _final_states(psi_fs, dim: int):
    """Matrix whose columns are the requested final states (None for "all"), plus labels."""
    if isinstance(psi_fs, str) and psi_fs == "all":
        return None, list(range(dim))
    mat = np.column_stack([np.asarray(p, dtype=np.complex128) for p in psi_fs])
    if mat.shape[0] != dim:
        raise DimensionMismatchError("final states do not match H dimension")
    return mat, list(range(mat.shape[1]))


def _evolver(h, method: str, trotter_steps: int):
    """Decompose H once; returns evolve(psi, ts), exp(-iHt) psi per t in ts.

    "exact" propagates spectrally, "trotter" by the grouped first-order
    product [prod_x exp(-i H_x t/n)]**n with n = ``trotter_steps`` (see
    ``_apply_trotter``).  ``h``, a matrix or a build, goes to
    ``hermitian_eig`` or ``_groups`` as given, so a build's matrix is not
    checked again and a plain array is checked once.
    """
    if method == "exact":
        es = hermitian_eig(h)
        return lambda psi, ts: _propagate(es, psi, ts)
    if method == "trotter":
        steps = read_number(trotter_steps, "trotter_steps", int, 1, error=ValueError)
        groups = _groups(h)
        return lambda psi, ts: _apply_trotter(groups, ts, steps, psi)
    raise ValueError(f"method must be 'exact' or 'trotter', got {method!r}")


def transition_series(h, psi_i, psi_fs, ts, method: str = "exact",
                      trotter_steps: int = 100) -> TransitionSeries:
    """Transition amplitudes under exact or Trotterized evolution.

    ``psi_fs`` is a list of final statevectors or "all" for the full
    computational basis.  method "exact" uses the spectral propagator;
    "trotter" uses the first-order product with ``trotter_steps`` per
    time point.  ``h`` is a matrix or a BuiltHamiltonian.
    """
    dim = as_operator(h).shape[0]
    psi_i = np.asarray(psi_i, dtype=np.complex128)
    if len(psi_i) != dim:
        raise DimensionMismatchError(f"initial state length {len(psi_i)} vs H dim {dim}")
    ts = _finite_numbers(ts)
    finals, labels = _final_states(psi_fs, dim)
    states = _evolver(h, method, trotter_steps)(psi_i, ts)
    amps = states if finals is None else states @ finals.conj()
    return TransitionSeries(ts=ts, amplitudes=amps, labels=labels)


def write_transition_csv(series: TransitionSeries, path):
    """CSV with header t,re_<label>,im_<label>,prob_<label> per final state."""
    cols = []
    for lab in series.labels:
        cols += [f"re_{lab}", f"im_{lab}", f"prob_{lab}"]
    table = np.empty((len(series.ts), 1 + len(cols)))
    table[:, 0] = series.ts
    table[:, 1::3] = series.amplitudes.real
    table[:, 2::3] = series.amplitudes.imag
    table[:, 3::3] = series.probabilities()
    row = ",".join(["{:.17g}"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        fh.writelines(row.format(*cells) for cells in table.tolist())


def momentum_state(k: int, n: int) -> np.ndarray:
    """k-th momentum eigenstate on the n-point grid.

    This is the k-th column of F^dag (the conjugate of the k-th column of
    the symmetric Sylvester matrix): it satisfies
    pos_p(n) |p_k> = x_k |p_k> with x_k the k-th grid value.
    """
    f = sylvester_f(n)  # refuses a bad size before k is compared with it
    k = read_number(k, "momentum index", int, 0, len(f) - 1, error=IndexOutOfRangeError)
    return np.conj(f[:, k])


def vertex_amplitude(k1: int, p2: float, k3: int, n: int) -> complex:
    """Three-point amplitude <p_k1| exp(i p2 X) |p_k3> on the n-point grid.

    X is the diagonal position operator, so the insertion is an exact
    elementwise phase.  The modulus peaks (at exactly 1) when p2 matches
    the grid momentum transfer x_k3 - x_k1, up to the dual-lattice period.
    """
    p2 = read_number(p2, "p2", float, error=ValueError)
    bra = momentum_state(k1, n)
    ket = momentum_state(k3, n)
    phase = np.exp(1j * p2 * pos_grid(n))
    return complex(np.vdot(bra, phase * ket))


def dual_lattice_period(n: int) -> float:
    """Period of |vertex_amplitude| in p2: pi / s for grid unit s.

    Shifting p2 by pi/s multiplies every term of the amplitude by a
    common sign, so the modulus is exactly periodic and the peak location
    is only defined modulo this value.
    """
    n = read_number(n, "grid size", int, 2, error=InvalidSizeError)
    s = np.sqrt(2.0 * np.pi / (4.0 * n))
    return np.pi / s


def wrap_momentum(p2: float, n: int) -> float:
    """Reduce a momentum transfer into [-period/2, period/2)."""
    period = dual_lattice_period(n)
    return float((p2 + period / 2.0) % period - period / 2.0)


def vertex_scan(k1: int, k3: int, n: int, p2_values) -> np.ndarray:
    """|vertex_amplitude| over any list of p2 values, each a finite number.

    The grid is uniform, x_j = x_0 + j dx, so the amplitude is the
    unimodular exp(i p2 x_0) times a polynomial in z = exp(i p2 dx) with
    coefficients conj(bra) * ket; Horner's rule evaluates it with one
    exponential per p2 value.
    """
    p2s = np.ravel(_finite_numbers(p2_values, "p2 values", ValueError))
    weights = np.conj(momentum_state(k1, n)) * momentum_state(k3, n)
    grid = pos_grid(n)
    z = np.exp(1j * (grid[1] - grid[0]) * p2s)
    amp = np.full_like(z, weights[-1])
    for w in weights[-2::-1]:
        amp *= z
        amp += w
    return np.abs(amp)


def scattering_process(h_free, p2: float, tau: float, total_t: float, psi0,
                       method: str = "exact", trotter_steps: int = 100) -> np.ndarray:
    """Evolve, insert the vertex exp(i p2 X), evolve again.

    Returns U(total_t - tau) V(p2) U(tau) |psi0>, X the diagonal position
    operator of the matching grid.  tau may sit at either endpoint (the
    pure before/after limits).  H, a matrix or a BuiltHamiltonian, is
    decomposed once for both legs.
    """
    dim = as_operator(h_free).shape[0]
    p2 = read_number(p2, "p2", float, error=ValueError)
    tau, total_t = _finite_numbers([tau, total_t])
    if not 0.0 <= tau <= total_t:
        raise InvalidTimesError(f"need 0 <= tau <= total_T, got tau={tau}, total_T={total_t}")
    psi = np.asarray(psi0, dtype=np.complex128)
    if len(psi) != dim:
        raise DimensionMismatchError(f"initial state length {len(psi)} vs H dim {dim}")
    evolve = _evolver(h_free, method, trotter_steps)

    def leg(state, t):
        return state if t == 0.0 else evolve(state, [t])[0]

    psi = leg(psi, tau)
    psi = np.exp(1j * p2 * pos_grid(dim)) * psi
    return leg(psi, total_t - tau)
