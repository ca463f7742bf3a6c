"""Dense complex operator kernel.

Operators are plain ``numpy.ndarray`` values of shape ``(d, d)`` and dtype
complex128.  Everything here is a pure function: inputs are never mutated,
so values can be shared freely between threads.  Problem sizes stay at or
below 512x512, where dense O(n^3) linear algebra is entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotHermitianError, NotPowerOfTwoError, read_number

__all__ = [
    "EigenSystem",
    "as_operator",
    "herm_defect",
    "is_hermitian",
    "hermitian_eig",
    "matrix_function",
    "qubits_of_dim",
]

#: Relative Hermiticity tolerance of ``is_hermitian`` and ``hermitian_eig``.
HERM_TOL = 1e-10


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex128 matrix (no copy when already one)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def qubits_of_dim(dim: int) -> int:
    """The n with dim == 2**n; NotPowerOfTwoError for any other dim (0 included)."""
    dim = read_number(dim, "dimension", int, 1, error=NotPowerOfTwoError)
    if dim & (dim - 1):
        raise NotPowerOfTwoError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def herm_defect(a) -> float:
    """max |a - a^dag| entrywise, the absolute deviation from Hermiticity."""
    m = as_operator(a)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def is_hermitian(a) -> bool:
    """True when the Hermiticity defect is below ``HERM_TOL * max|a|``."""
    m = as_operator(a)
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale == 0.0:
        return True
    return herm_defect(m) <= HERM_TOL * scale


@dataclass(frozen=True)
class EigenSystem:
    """Full spectrum of a Hermitian operator.

    ``values`` is ascending and real; the columns of ``vectors`` are the
    matching orthonormal eigenvectors, so a = V diag(values) V^dag.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(a) -> EigenSystem:
    """Diagonalize a Hermitian operator (ascending real spectrum).

    Raises NotHermitianError when the input violates ``HERM_TOL``.  Backed
    by LAPACK's dense Hermitian solver, which is robust and deterministic at
    these sizes.
    """
    m = as_operator(a)
    if not is_hermitian(m):
        raise NotHermitianError(
            f"hermitian_eig: matrix is not Hermitian to tolerance {HERM_TOL:g} "
            f"(defect {herm_defect(m):.3e})"
        )
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(values=values.astype(float), vectors=vectors.astype(np.complex128))


def matrix_function(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Spectral function f(a) of a Hermitian operator."""
    es = hermitian_eig(a)
    flam = np.asarray(f(es.values), dtype=np.complex128)
    v = es.vectors
    return (v * flam) @ v.conj().T


def _propagate(es: EigenSystem, states, ts) -> np.ndarray:
    """exp(-i h t) @ states for every t in ts, from the eigensystem ``es`` of h.

    ``states`` is one state of shape (d,) or a matrix of column states
    (d, k); the result gains a leading axis indexing ``ts``.
    """
    coeff = es.vectors.conj().T @ states
    phases = np.exp(-1j * np.outer(es.values, np.asarray(ts, dtype=float)))
    x = phases.reshape(phases.shape + (1,) * (coeff.ndim - 1)) * coeff[:, None]
    out = es.vectors @ x.reshape(len(coeff), -1)
    return np.moveaxis(out.reshape(x.shape), 1, 0)
