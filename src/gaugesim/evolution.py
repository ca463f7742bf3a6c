"""Pauli decomposition, Trotterized time evolution, transition amplitudes,
and vertex-operator scattering on the position-basis grid.

Pauli-string conventions match the circuit engine: label character 0 acts
on qubit 0, the most significant bit of the basis index, and labels are
ordered lexicographically over {I, X, Y, Z}.  The decomposition reads each
X/Y pattern x off the matrix entries H[c, c ^ x] and takes one
Walsh-Hadamard transform over c.  Trotter steps do not follow the label
order: they apply one exact exponential per X-mask group of strings, in
ascending mask order.  A group's operator H_x holds the entries H[i, i ^ x]
of H, so ``_groups`` reads it off the matrix itself; the strings only say
which masks to keep.  One function, ``_product``, applies that product: a
gather, two elementwise products and an add per group.  A step runs it
once, except on the position grid's build, which carries its quarter-turn:
that maps the masks of one grid register onto the other's with equal
entries, so ``_product`` composes the y register's groups once per call,
on n comb states, and a step is one batched matmul along each axis of the
(time, x, y) state, with no gather (see ``_registers``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _sylvester_columns, pos_grid
from .errors import (
    DimensionMismatchError,
    GaugesimError,
    IndexOutOfRangeError,
    InvalidSizeError,
    InvalidTimesError,
    read_number,
    read_numbers,
    write_rows,
)
from .operators import (MAX_QUBITS, _dim, _propagate, _require_hermitian, _require_phase, as_operator,
                        hermitian_eig, qubits_of_dim)

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

#: Largest ``trotter_steps`` a Trotter evolution (and the eoh config) may ask for.
MAX_TROTTER_STEPS = 100000

_X_BITS = str.maketrans("IXYZ", "0110")


def _labels(indices: np.ndarray, n_qubits: int) -> list:
    """The Pauli strings at the base-4 ``indices`` of the transform's output,
    one character per qubit, qubit 0 from the most significant digit pair:
    the digits of every index at once, looked up in b"IXYZ" and read as
    ``n_qubits``-byte strings.  A 0-qubit operator's one string is ''."""
    if n_qubits == 0:
        return [""] * len(indices)
    digits = (indices[:, None] >> 2 * np.arange(n_qubits - 1, -1, -1)) & 3
    table = np.frombuffer(b"IXYZ", dtype=np.uint8)[digits]
    return table.view(f"S{n_qubits}").ravel().astype(str).tolist()


@dataclass
class PauliTermList:
    """The paper's Pauli-string view of a Hermitian operator on ``n_qubits``:
    (label, real coefficient) pairs, labels unique and in lexicographic order.

    ``pauli_decompose`` makes it; the Trotter groups use only the labels'
    X/Y patterns (see ``_groups``).
    """

    n_qubits: int
    terms: list


#: [x bit, z bit] -> base-4 digit of the Pauli letter: I 0, Z 3, X 1, Y 2
_DIGITS = np.array([[0, 3], [1, 2]])

#: i**k for k = popcount(x & z) mod 4: the phase of X^x Z^z in its string
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _hadamard(bits: int) -> np.ndarray:
    """The 2**bits x 2**bits Walsh-Hadamard matrix, [z, c] = (-1)**popcount(z & c)."""
    i = np.arange(1 << bits)
    return 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)


def pauli_decompose(h) -> PauliTermList:
    """Expand a Hermitian matrix over Pauli strings, c_s = Tr(P_s H) / 2**n.

    A string with X/Y pattern x and Z/Y pattern z is
    P = i**popcount(x & z) X^x Z^z, so c = i**popcount(x & z) / 2**n
    sum_c (-1)**popcount(z & c) H[c, c ^ x]: one gather d[x, c] = H[c, c ^ x],
    then a Walsh-Hadamard transform over c, O(n 4**n) in all and without
    ever materializing a Pauli matrix.  The transform is the Kronecker
    product of two Hadamard matrices, one per half of c's bits, so it is
    two small real matmuls per x on the real and imaginary parts alike.
    ``h`` is a matrix or a build (see ``operators.as_operator``) that
    ``is_hermitian`` accepts; the coefficients are those of its Hermitian
    part (their real parts), which ``_groups`` evolves.  Those at or below
    1e-12 * max|c| are dropped, and labels are built only for the kept ones.
    """
    m = as_operator(h)
    n = qubits_of_dim(m.shape[0])
    _require_hermitian(h, "pauli_decompose")

    dim = m.shape[0]
    c = np.arange(dim)
    index = c ^ c[:, None]
    index += dim * c
    d = m.ravel()[index]  # [x, c] = H[c, c ^ x]
    del index
    low = n // 2
    # c = (high, low) bits; the interleaved (re, im) pairs pass the low factor as kron(., I2)
    half = d.view(float).reshape(dim, 2 ** (n - low), 2 ** (low + 1)) @ np.kron(_hadamard(low), np.eye(2))
    del d
    coeffs = (_hadamard(n - low) @ half).view(np.complex128).reshape(dim, dim)  # [x, z]
    del half
    coeffs *= (_I_POWERS / dim)[np.bitwise_count(c[:, None] & c) & 3]

    scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    xs, zs = np.nonzero(np.abs(coeffs.real) > 1e-12 * scale)
    keep = np.zeros(len(xs), dtype=np.int64)  # base-4 label index, qubit 0 most significant
    for b in range(n):
        keep |= _DIGITS[(xs >> b) & 1, (zs >> b) & 1] << 2 * b
    order = np.argsort(keep)
    terms = list(zip(_labels(keep[order], n), coeffs.real[xs[order], zs[order]].tolist()))
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
    masks = {int(label.translate(_X_BITS) or "0", 2) for label, _ in pauli_decompose(h).terms}
    hm = as_operator(h)
    idx = np.arange(hm.shape[0])
    return [(x, idx ^ x, 0.5 * (hm[idx, idx ^ x] + hm[idx ^ x, idx].conj())) for x in sorted(masks)]


def _factors(groups, dt) -> list:
    """Each group's exponential exp(-i dt[t] H_x) as (src, cos, sin), every
    array shaped (time, 1, dim) to act on a batch of states (time, k, dim).

    On each pair (i, i ^ x) the block [[0, d], [conj d, 0]] squares to
    |d|**2, so the factor maps psi[i] to cos(dt |d|) psi[i]
    - i sin(dt |d|) (d / |d|) psi[i ^ x].  For x = 0, H_x is diagonal and
    real: src and sin are None and cos is the phase exp(-i dt d).
    """
    factors = []
    for x, src, d in groups:
        if x == 0:
            factors.append((None, np.exp(-1j * dt[:, None] * d)[:, None], None))
            continue
        mag = np.abs(d)
        unit = np.divide(d, mag, out=np.zeros_like(d), where=mag > 0.0)
        angle = dt[:, None] * mag
        cos = np.cos(angle)
        sin = np.sin(angle, out=angle) * (-1j * unit)
        factors.append((src, cos[:, None], sin[:, None]))
    return factors


def _product(factors, states: np.ndarray) -> None:
    """Apply the ``factors`` (see ``_factors``) in order, in place, to
    ``states`` of shape (time, k, dim): per non-diagonal group one gather
    states[..., i ^ x], two elementwise products and an add.  Every
    src[i] = i ^ x is in range, so the gather's mode "clip" changes no
    value; it only spares the copy of ``out`` that the default mode makes."""
    swapped = np.empty_like(states)
    for src, cos, sin in factors:
        if src is not None:
            np.take(states, src, axis=-1, out=swapped, mode="clip")
            swapped *= sin
        states *= cos
        if src is not None:
            states += swapped


def _registers(h, groups):
    """The y register's non-diagonal groups when ``h`` is a grid build whose
    x register repeats them under its quarter-turn; otherwise None.

    On the n x n position grid (index ix * n + iy) a mask m < n pairs iy
    with iy ^ m and a mask m * n pairs ix with ix ^ m.  The turn R:
    (ix, iy) -> (n-1-iy, ix) carries the pair (i, i ^ m n) onto
    (R i, R i ^ m), so where H commutes with R bit for bit (a build with
    ``orbits``), d_(m n)[ix n + iy] == d_m[(n-1-iy) n + ix].  That equality
    is checked here entry for entry, and so are the masks: apart from
    x = 0 they must be at least one mask m < n, and the same masks times n.
    """
    if getattr(h, "orbits", None) is None or not groups:
        return None
    dim = len(groups[0][1])
    n = 1 << qubits_of_dim(dim) // 2
    ys = [g for g in groups if 0 < g[0] < n]
    xs = [g for g in groups if g[0] >= n]
    if not ys or n * n != dim or [x for x, _, _ in xs] != [m * n for m, _, _ in ys]:
        return None
    ix, iy = np.divmod(np.arange(dim), n)
    turn = (n - 1 - iy) * n + ix
    return ys if all(np.array_equal(dx, dy[turn]) for (_, _, dx), (_, _, dy) in zip(xs, ys)) else None


def _register_steps(groups, ys, dt, n_steps: int, psi: np.ndarray) -> np.ndarray:
    """The first-order product on the grid's two registers (see ``_registers``).

    The product P' of the y register's non-diagonal groups is composed
    once per time by ``_product`` on n comb states: comb iy_in is the sum
    over ix of the basis states (ix, iy_in), and as the y masks never
    change ix, its entry (ix, iy_out) is P'[ix][iy_out, iy_in], the n x n
    block of P' at ix.  The y run is P' with its columns scaled by the
    x = 0 phases; the x run is the same P' read at n-1-iy, acting on ix.
    With the state held as (time, ix, iy), a step is one batched matmul
    along each axis, and no gather.
    """
    count, dim = psi.shape
    n = 1 << qubits_of_dim(dim) // 2
    combs = np.zeros((count, n, n, n), dtype=np.complex128)  # [t, iy in, ix, iy out]
    combs[:] = np.eye(n)[:, None]
    _product(_factors(ys, dt), combs.reshape(count, n, dim))
    y_run = np.ascontiguousarray(combs.transpose(0, 2, 3, 1))  # [t, ix, iy out, iy in]
    x_run = np.ascontiguousarray(y_run[:, ::-1])  # [t, iy, ix out, ix in]
    if groups[0][0] == 0:
        y_run *= np.exp(-1j * dt[:, None] * groups[0][2]).reshape(count, n, 1, n)
    state = psi.reshape(count, n, n)
    turned = np.empty_like(state)
    for _ in range(n_steps):
        np.matmul(y_run, state[..., None], out=turned[..., None])
        np.matmul(x_run, turned.transpose(0, 2, 1)[..., None], out=state.transpose(0, 2, 1)[..., None])
    return state.reshape(count, dim)


def _apply_trotter(groups, ts, n_steps: int, psi0: np.ndarray, registers=None) -> np.ndarray:
    """First-order product over the X-mask groups at the 1-D times ``ts``, one row each.

    With ``registers`` (from ``_registers``) the grid's two registers
    share one composition (``_register_steps``).  Otherwise each step
    applies every group's exponential in ascending mask order
    (``_product``).  Rows with t == 0 are psi0 itself.  An angle dt |d| of
    any group (the diagonal phases too) above ``MAX_PHASE`` is refused.
    """
    ts = np.asarray(ts, dtype=float)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    out = np.repeat(psi0[None, :], len(ts), axis=0)
    live = np.flatnonzero(ts != 0.0)
    if not (groups and live.size):
        return out
    dt = ts[live] / n_steps
    _require_phase(dt, [np.abs(d).max(initial=0.0) for _, _, d in groups], "trotter evolution")
    if registers is not None:
        out[live] = _register_steps(groups, registers, dt, n_steps, out[live])
        return out
    factors = _factors(groups, dt)
    psi = out[live][:, None]
    for _ in range(n_steps):
        _product(factors, psi)
    out[live] = psi[:, 0]
    return out


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
    if isinstance(psi_fs, str) or not np.iterable(psi_fs):
        raise DimensionMismatchError(f"psi_fs must be 'all' or a list of states, got {psi_fs!r}")
    states = [_state(p, dim, f"final state {k}") for k, p in enumerate(psi_fs)]
    if not states:
        raise DimensionMismatchError("no final states given: pass a list of states or 'all'")
    return np.column_stack(states), list(range(len(states)))


def _state(psi, dim: int, what: str) -> np.ndarray:
    """``psi`` as a complex statevector (``read_numbers``: ValueError naming
    ``what``) of H's shape (dim,), else DimensionMismatchError."""
    psi = read_numbers(psi, what, ValueError, complex)
    if psi.shape != (dim,):
        raise DimensionMismatchError(f"{what} has shape {psi.shape}, H needs ({dim},)")
    return psi


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
        steps = read_number(trotter_steps, "trotter_steps", int, 1, MAX_TROTTER_STEPS, error=ValueError)
        groups = _groups(h)
        registers = _registers(h, groups)
        return lambda psi, ts: _apply_trotter(groups, ts, steps, psi, registers)
    raise ValueError(f"method must be 'exact' or 'trotter', got {method!r}")


def transition_series(h, psi_i, psi_fs, ts, method: str = "exact",
                      trotter_steps: int = 100) -> TransitionSeries:
    """Transition amplitudes under exact or Trotterized evolution.

    ``psi_fs`` is a list of final statevectors or "all" for the full
    computational basis; ``ts`` is a list of times or one time.  method
    "exact" uses the spectral propagator; "trotter" uses the first-order
    product with ``trotter_steps`` per time point.  ``h`` is a matrix or a
    BuiltHamiltonian (sized by ``operators._dim``, without its matrix).
    """
    dim = _dim(h)
    psi_i = _state(psi_i, dim, "initial state")
    ts = read_numbers(ts, "evolution times", InvalidTimesError)
    if ts.ndim > 1:
        raise InvalidTimesError(f"evolution times must be a number or a 1-D list, got shape {ts.shape}")
    ts = ts.reshape(-1)
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
    write_rows(path, "t," + ",".join(cols), table)


def momentum_state(k: int, n: int) -> np.ndarray:
    """k-th momentum eigenstate on the n-point grid, conj(``sylvester_f(n)``[:, k]) built
    alone: pos_p(n) |p_k> = x_k |p_k> with x_k the k-th grid value."""
    n = read_number(n, "basis size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    k = read_number(k, "momentum index", int, 0, n - 1, error=IndexOutOfRangeError)
    return np.conj(_sylvester_columns(n, k))


def _vertex_grid(p2_values, n: int, who: str, error=GaugesimError) -> np.ndarray:
    """The n-point position grid X of a vertex insertion exp(i p2 X), once
    its largest phase max|p2| max|x| is within ``MAX_PHASE`` (``error``
    naming ``who`` otherwise): the one vertex phase rule, of ``vertex_amplitude``,
    ``vertex_scan``, ``scattering_process`` and the scatter command's p2 window."""
    grid = pos_grid(n)
    _require_phase(p2_values, grid, who, error)
    return grid


def _vertex_kernel(k1: int, k3: int, n: int, p2s, who: str) -> np.ndarray:
    """<p_k1| exp(i p2 X) |p_k3> per p2: (1/n) sum_j exp(i o_j phi) = sin(n phi) / (n sin phi),
    o_j = 2j + 1 - n, phi = s p2 - s^2 (o_k3 - o_k1) = pi (p2 / P - (k3 - k1) / n) for grid
    unit s and P = ``dual_lattice_period(n)``.  phi + pi multiplies the sum by (-1)^(n - 1),
    so phi is reduced by m pi into [-pi/2, pi/2] first (the kernel is 1 where that is 0):
    unreduced, sin(n phi) and sin(phi) are rounding noise at the aliased peaks phi = m pi."""
    n = read_number(n, "basis size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    k1, k3 = (read_number(k, "momentum index", int, 0, n - 1, error=IndexOutOfRangeError) for k in (k1, k3))
    _vertex_grid(p2s, n, who)
    t = p2s / dual_lattice_period(n) - (k3 - k1) / n
    m = np.rint(t)
    phi = np.pi * (t - m)
    amp = np.divide(np.sin(n * phi), n * np.sin(phi), out=np.ones_like(phi), where=phi != 0.0)
    return amp * (-1.0) ** (m * (n - 1))


def vertex_amplitude(k1: int, p2: float, k3: int, n: int) -> complex:
    """Three-point amplitude <p_k1| exp(i p2 X) |p_k3> on the n-point grid, X the diagonal
    position operator: the real Dirichlet kernel of ``_vertex_kernel`` (imaginary part 0.0).
    The modulus peaks (at exactly 1) when p2 matches the grid momentum transfer
    x_k3 - x_k1, up to the dual-lattice period.
    """
    p2 = read_number(p2, "p2", float, error=ValueError)
    return complex(_vertex_kernel(k1, k3, n, p2, "vertex_amplitude"))


def dual_lattice_period(n: int) -> float:
    """Period of |vertex_amplitude| in p2: pi / s for grid unit s.

    Shifting p2 by pi/s shifts the kernel's phi by pi (see ``_vertex_kernel``),
    which multiplies the amplitude by (-1)^(n - 1), so the modulus is exactly
    periodic and the peak location is only defined modulo this value.
    """
    n = read_number(n, "grid size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    s = np.sqrt(2.0 * np.pi / (4.0 * n))
    return np.pi / s


def wrap_momentum(p2: float, n: int) -> float:
    """Reduce a momentum transfer into [-period/2, period/2)."""
    p2 = read_number(p2, "p2", float, error=ValueError)
    period = dual_lattice_period(n)
    return float((p2 + period / 2.0) % period - period / 2.0)


def vertex_scan(k1: int, k3: int, n: int, p2_values) -> np.ndarray:
    """|vertex_amplitude| over any list of p2 values, each a finite number, at once."""
    p2s = np.ravel(read_numbers(p2_values, "p2 values", ValueError))
    return np.abs(_vertex_kernel(k1, k3, n, p2s, "vertex_scan"))


def scattering_process(h_free, p2: float, tau: float, total_t: float, psi0,
                       method: str = "exact", trotter_steps: int = 100) -> np.ndarray:
    """Evolve, insert the vertex exp(i p2 X), evolve again.

    Returns U(total_t - tau) V(p2) U(tau) |psi0>, X = ``pos_grid(dim)``.
    tau may sit at either endpoint (the pure before/after limits).  H, a
    matrix on that 1-D grid, is decomposed once for both legs; no build
    lives on it, so a BuiltHamiltonian is refused (GaugesimError).
    """
    if hasattr(h_free, "hermitian"):
        raise GaugesimError(f"scattering_process: the {h_free.spec.kind} build is not on the 1-D position grid")
    dim = _dim(h_free)
    p2 = read_number(p2, "p2", float, error=ValueError)
    grid = _vertex_grid(p2, dim, "scattering_process")
    tau, total_t = read_numbers([tau, total_t], "evolution times", InvalidTimesError)
    if not 0.0 <= tau <= total_t:
        raise InvalidTimesError(f"need 0 <= tau <= total_T, got tau={tau}, total_T={total_t}")
    psi = _state(psi0, dim, "initial state")
    evolve = _evolver(h_free, method, trotter_steps)
    psi = evolve(psi, [tau])[0]
    psi = np.exp(1j * p2 * grid) * psi
    return evolve(psi, [total_t - tau])[0]
