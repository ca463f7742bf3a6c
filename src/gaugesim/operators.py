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

from .errors import GaugesimError, NotHermitianError, NotPowerOfTwoError, read_number, read_numbers

__all__ = [
    "EigenSystem",
    "as_operator",
    "herm_defect",
    "is_hermitian",
    "hermitian_eig",
    "matrix_function",
    "qubits_of_dim",
]

#: Relative Hermiticity tolerance of ``is_hermitian``, the one Hermiticity rule.
HERM_TOL = 1e-10

#: Largest register a spec, an ansatz or a scan may ask for: dense matrices
#: stay at 512x512.
MAX_QUBITS = 9

#: Largest phase (rad) an evolution or a vertex insertion may apply: at 1e9
#: float64 still resolves an angle to about 1.2e-7 rad (ulp(1e9)).
MAX_PHASE = 1e9


def as_operator(a) -> np.ndarray:
    """A square complex128 matrix of numbers, NaN included (no copy when already
    one): the one operator intake, which takes a build (a BuiltHamiltonian) as its ``matrix``."""
    m = read_numbers(getattr(a, "matrix", a), "operator", ValueError, complex, finite=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _dim(a) -> int:
    """The one sizing rule: a build's ``dim`` (no matrix assembled), else ``len(as_operator(a))``."""
    return a.dim if hasattr(a, "hermitian") else len(as_operator(a))


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


def _require_hermitian(a, who: str) -> None:
    """NotHermitianError naming ``who`` unless ``is_hermitian(a)``: the one
    Hermiticity refusal of every entry point.  A build answers with its
    flag; for a matrix the message names the defect."""
    if is_hermitian(a):
        return
    what = f"the {a.spec.kind} build" if hasattr(a, "hermitian") else f"the matrix (defect {herm_defect(a):.3e})"
    raise NotHermitianError(f"{who}: {what} is not Hermitian to relative tolerance {HERM_TOL:g}; "
                            "take its Hermitian part (variant 'HermitianPart' for a monopole build)")


def _require_phase(a, b, who: str, error=GaugesimError) -> None:
    """``error`` naming ``who`` unless the largest phase max|a| max|b| (rad) a
    computation applies is at most ``MAX_PHASE``: beyond it float64 cannot
    resolve the angle, and the amplitudes would mean nothing.  The product
    is taken in Python floats, which overflow to inf without a warning."""
    phase = float(np.abs(a).max(initial=0.0)) * float(np.abs(b).max(initial=0.0))
    if not phase <= MAX_PHASE:
        raise error(f"{who}: phase {phase:.3e} rad is above {MAX_PHASE:g} rad, which float64 cannot resolve")


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
    itself unless flagged Hermitian.  A matrix (see ``as_operator``) is
    refused by ``_require_hermitian`` unless ``is_hermitian``, and goes
    whole to LAPACK's dense Hermitian solver, which is robust and
    deterministic at these sizes.
    """
    if hasattr(a, "eigensystem"):
        return a.eigensystem()
    m = as_operator(a)
    _require_hermitian(m, "hermitian_eig")
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
    leave rounding there), as in the Trotter product.  The largest phase
    max|lambda| max|t| is refused above ``MAX_PHASE``.
    """
    ts = np.asarray(ts, dtype=float)
    _require_phase(es.values, ts, "exact evolution")
    coeff = es.vectors.conj().T @ states
    phases = np.exp(-1j * np.outer(es.values, ts))
    x = phases.reshape(phases.shape + (1,) * (coeff.ndim - 1)) * coeff[:, None]
    out = np.moveaxis((es.vectors @ x.reshape(len(coeff), -1)).reshape(x.shape), 1, 0)
    out[ts == 0.0] = states
    return out
