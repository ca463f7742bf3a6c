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

from .errors import NotHermitianError, NotPowerOfTwoError, read_number, read_numbers

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

#: Largest register a spec, an ansatz or a scan may ask for: dense matrices
#: stay at 512x512.
MAX_QUBITS = 9


def as_operator(a) -> np.ndarray:
    """A square complex128 matrix of numbers, NaN included (no copy when already
    one): the one operator intake, which takes a build (a BuiltHamiltonian) as its ``matrix``."""
    m = read_numbers(getattr(a, "matrix", a), "operator", ValueError, complex, finite=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def qubits_of_dim(dim: int) -> int:
    """The n with dim == 2**n; NotPowerOfTwoError for any other dim (0 included)."""
    dim = read_number(dim, "dimension", int, 1, error=NotPowerOfTwoError)
    if dim & (dim - 1):
        raise NotPowerOfTwoError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def herm_defect(a):
    """max |a - a^dag| entrywise, the absolute deviation from Hermiticity
    (of its ``matrix`` for a build); an array of one defect per matrix for a
    (..., d, d) stack."""
    m = read_numbers(getattr(a, "matrix", a), "operator", ValueError, complex, finite=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = np.abs(m - m.swapaxes(-1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    return float(defect) if defect.ndim == 0 else defect


def is_hermitian(a):
    """True when the Hermiticity defect is below ``HERM_TOL * max|a|`` (never
    with a NaN or an infinite entry); an array of one answer per matrix for a
    stack.  A build answers with its ``hermitian`` flag, set by this rule."""
    if hasattr(a, "hermitian"):
        return a.hermitian
    m = read_numbers(a, "operator", ValueError, complex, finite=False)
    defect = herm_defect(m)
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    ok = (scale == 0.0) | ((defect <= HERM_TOL * scale) & (scale < np.inf))
    return bool(ok) if ok.ndim == 0 else ok


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

    A build (anything with an ``eigensystem``, in practice a
    BuiltHamiltonian) answers from its own symmetry sectors, and refuses
    itself unless flagged Hermitian.  A matrix (see ``as_operator``) raises
    NotHermitianError when ``is_hermitian`` fails, and goes whole to
    LAPACK's dense Hermitian solver, which is robust and deterministic at
    these sizes.
    """
    if hasattr(a, "eigensystem"):
        return a.eigensystem()
    m = as_operator(a)
    if not is_hermitian(m):
        raise NotHermitianError(
            f"hermitian_eig: matrix is not Hermitian to tolerance {HERM_TOL:g} "
            f"(defect {herm_defect(m):.3e})"
        )
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(values=values, vectors=vectors)


def matrix_function(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Spectral function f(a) of a Hermitian operator."""
    return _spectral(hermitian_eig(a), f)


def _spectral(es: EigenSystem, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """f(a) from the eigensystem ``es`` of a, so several functions of one a share it."""
    flam = np.asarray(f(es.values), dtype=np.complex128)
    v = es.vectors
    return (v * flam) @ v.conj().T


def _propagate(es: EigenSystem, states, ts) -> np.ndarray:
    """exp(-i h t) @ states for every t in ts, from the eigensystem ``es`` of h.

    ``states`` is one state of shape (d,) or a matrix of column states
    (d, k); the result gains a leading axis indexing ``ts``.  Rows at
    t == 0 are ``states`` itself, copied bit for bit (V V^dag states would
    leave rounding there), as in the Trotter product.
    """
    ts = np.asarray(ts, dtype=float)
    coeff = es.vectors.conj().T @ states
    phases = np.exp(-1j * np.outer(es.values, ts))
    x = phases.reshape(phases.shape + (1,) * (coeff.ndim - 1)) * coeff[:, None]
    out = np.moveaxis((es.vectors @ x.reshape(len(coeff), -1)).reshape(x.shape), 1, 0)
    out[ts == 0.0] = states
    return out
