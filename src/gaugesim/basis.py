"""Elementary operator matrices in the oscillator and position bases.

Conventions:

* oscillator basis: Q and P are the usual ladder combinations truncated to
  the lowest n number states, so [Q, P] = i*1 everywhere except the last
  diagonal entry (n-1, n-1), where truncation forces i*(1 - n);
* position basis: the grid is the antisymmetric set of n points
  sqrt(2*pi/(4n)) * (2j - (n+1)) for 1-based j, momentum follows by
  conjugating with the symmetric DFT (Sylvester) matrix F;
* tensor placement: slot 0 is the leftmost Kronecker factor and therefore
  the most significant part of the composite index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, InvalidSizeError, read_number
from .operators import MAX_QUBITS, as_operator

__all__ = [
    "osc_q",
    "osc_p",
    "osc_q2",
    "osc_p2",
    "pos_q",
    "pos_grid",
    "sylvester_f",
    "pos_p",
    "fermion_factor",
    "place",
]


def osc_q(n: int) -> np.ndarray:
    """Position operator in the truncated oscillator basis.

    Tridiagonal with Q[j, j+1] = Q[j+1, j] = sqrt(j+1)/sqrt(2).
    """
    n = read_number(n, "basis size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    off = np.sqrt(np.arange(1, n)) / np.sqrt(2.0)
    q = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    q[idx, idx + 1] = off
    q[idx + 1, idx] = off
    return q


def osc_p(n: int) -> np.ndarray:
    """Momentum operator in the truncated oscillator basis (purely imaginary)."""
    n = read_number(n, "basis size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    off = np.sqrt(np.arange(1, n)) / np.sqrt(2.0)
    p = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    p[idx, idx + 1] = -1j * off
    p[idx + 1, idx] = 1j * off
    return p


def osc_q2(n: int) -> np.ndarray:
    """Truncated matrix of the squared position operator x^2.

    This is the n x n block of the infinite x^2 matrix, not osc_q(n) @
    osc_q(n): the two differ in the last two diagonal entries, where the
    matrix square loses the contribution that passes through truncated
    states.  Entries: diag (2j+1)/2, second off-diagonals
    sqrt((j+1)(j+2))/2.
    """
    n = read_number(n, "basis size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    m = np.zeros((n, n), dtype=np.complex128)
    j = np.arange(n)
    m[j, j] = (2 * j + 1) / 2.0
    k = np.arange(n - 2)
    off = np.sqrt((k + 1) * (k + 2)) / 2.0
    m[k, k + 2] = off
    m[k + 2, k] = off
    return m


def osc_p2(n: int) -> np.ndarray:
    """Truncated matrix of the squared momentum operator p^2.

    Same structure as osc_q2 with negated second off-diagonals.
    """
    m = osc_q2(n)
    k = np.arange(m.shape[0] - 2)
    m[k, k + 2] *= -1.0
    m[k + 2, k] *= -1.0
    return m


def pos_grid(n: int) -> np.ndarray:
    """The n position-grid values sqrt(2*pi/(4n)) * (2j - (n+1)), j = 1..n."""
    n = read_number(n, "basis size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 * np.pi / (4.0 * n)) * (2 * j - (n + 1))


def pos_q(n: int) -> np.ndarray:
    """Diagonal position operator on the antisymmetric grid."""
    return np.diag(pos_grid(n)).astype(np.complex128)


def sylvester_f(n: int) -> np.ndarray:
    """Symmetric unitary DFT matrix on the centered grid.

    F[j, k] = exp(i * (2*pi/(4n)) * (2j - (n+1)) * (2k - (n+1))) / sqrt(n)
    with 1-based j, k.  All entries are unimodular up to the 1/sqrt(n)
    normalization, and F is symmetric (not Hermitian).
    """
    n = read_number(n, "basis size", int, 2, 2 ** MAX_QUBITS, error=InvalidSizeError)
    return _sylvester_columns(n, slice(None))


def _sylvester_columns(n: int, k) -> np.ndarray:
    """Column(s) ``k`` of ``sylvester_f(n)`` alone, n read already: the one grid DFT expression."""
    o = 2 * np.arange(1, n + 1) - (n + 1)
    phase = (2.0 * np.pi / (4.0 * n)) * np.multiply.outer(o, o[k])
    return np.exp(1j * phase) / np.sqrt(n)


def pos_p(n: int) -> np.ndarray:
    """Momentum operator in the position basis: F^dag Q F (dense, Hermitian)."""
    f = sylvester_f(n)
    return f.conj().T @ pos_q(n) @ f


def fermion_factor() -> np.ndarray:
    """Single worldline-fermion raising factor [[0, 1], [0, 0]]."""
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def place(op, slot: int, dims) -> np.ndarray:
    """Embed ``op`` at tensor position ``slot`` with identity padding.

    Returns I_{d0} (x) ... (x) op (x) ... (x) I_{dlast} for the factor
    dimensions in ``dims``.  Requires dim(op) == dims[slot].
    """
    m = as_operator(op)
    if isinstance(dims, str) or not np.iterable(dims):
        raise InvalidSizeError(f"dims must be a list of sizes, got {dims!r}")
    dims = [read_number(d, "dims[]", int, 1, error=InvalidSizeError) for d in dims]
    if math.prod(dims) > 2 ** MAX_QUBITS:
        raise InvalidSizeError(f"dims {dims} span more than {2 ** MAX_QUBITS} dimensions")
    slot = read_number(slot, "slot", int, 0, len(dims) - 1, error=DimensionMismatchError)
    if m.shape[0] != dims[slot]:
        raise DimensionMismatchError(
            f"operator dim {m.shape[0]} does not match dims[{slot}] = {dims[slot]}"
        )
    left, right = math.prod(dims[:slot]), math.prod(dims[slot + 1:])
    # np.kron(np.kron(I_left, op), I_right)'s products, one broadcast; skipping a factor 1 keeps -0.0
    out = m.reshape(1, len(m), 1, 1, len(m), 1)
    if left > 1:
        out = np.eye(left, dtype=np.complex128).reshape(left, 1, 1, left, 1, 1) * out
    if right > 1:
        out = out * np.eye(right, dtype=np.complex128).reshape(1, 1, right, 1, 1, right)
    return out.reshape(left * len(m) * right, -1)
