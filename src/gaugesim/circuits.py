"""The layered Ry variational form on real statevectors.

States are plain 1-D float64 ndarrays of length 2**n.  Qubit 0 is the
most significant bit of the basis index, matching the tensor-slot
convention of the basis module (slot 0 = leftmost Kronecker factor).
Ry, CZ and CX have real matrices, so ``ansatz_state`` prepares a real
state, and ``adjoint_gradient`` differentiates it with one backward
sweep (Jones & Gacon, arXiv:2009.02823).  Both apply each rotation layer
through one kernel, ``_ry_layer``: two small matrix products with the
Kronecker factors of the layer's rotations, not one call per gate.
``expectation`` gives <psi|H|psi> for any (complex) state and Hermitian H.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, NotHermitianError, read_fields
from .operators import MAX_QUBITS

__all__ = [
    "AnsatzConfig",
    "ansatz_state",
    "adjoint_gradient",
    "expectation",
]


@lru_cache(maxsize=None)
def _kron_tables(k: int) -> tuple:
    """Index tables for the Kronecker product K of k rotations [[c, -s], [s, c]].

    K[i, j] = sign[i, j] * mag[i ^ j], where mag[m] is the product over
    qubits q of s_q if bit q of m is set and c_q otherwise: the gather
    (rows, bits) of the (k, 2) table [c_q, s_q].  Each factor -s comes
    from a bit that is 0 in i and 1 in j.
    """
    idx = np.arange(2 ** k)
    rows = np.arange(k)[:, None]
    bits = (idx >> (k - 1 - rows)) & 1
    xor = idx[:, None] ^ idx
    sign = np.where(np.bitwise_count(idx & ~idx[:, None]) % 2, -1.0, 1.0)
    for table in (rows, bits, xor, sign):
        table.flags.writeable = False
    return rows, bits, xor, sign


def _ry_layer(psi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Ry(t_0) (x) ... (x) Ry(t_{n-1}) on each state along the last axis of ``psi``.

    Each state is viewed as a (2**h, 2**(n-h)) matrix M with h = n // 2,
    and the layer acts as L M R^T: L and R are the Kronecker products of
    the rotations on qubits [0, h) and [h, n).  Negated angles give L^T
    and R^T exactly, which undoes the layer.
    """
    n = len(thetas)
    h = n // 2
    cs = np.stack([np.cos(thetas / 2.0), np.sin(thetas / 2.0)], axis=1)
    factors = []
    for part in (cs[:h], cs[h:]):
        rows, bits, xor, sign = _kron_tables(len(part))
        factors.append(sign * part[rows, bits].prod(axis=0)[xor])
    left, right = factors
    view = psi.reshape(psi.shape[:-1] + (2 ** h, 2 ** (n - h)))
    return (left @ view @ right.T).reshape(psi.shape)


@lru_cache(maxsize=None)
def _flip_tables(n: int) -> tuple:
    """Gather indices and signs of A = [[0, -1], [1, 0]] on each qubit:
    (A_q phi)[i] = sign[q, i] * phi[flip[q, i]]."""
    idx = np.arange(2 ** n)
    bits = 1 << (n - 1 - np.arange(n))[:, None]
    flip = idx ^ bits
    sign = np.where(idx & bits, 1.0, -1.0)
    flip.flags.writeable = sign.flags.writeable = False
    return flip, sign


@lru_cache(maxsize=None)
def _cz_full_layer_signs(n: int) -> np.ndarray:
    """Diagonal of the all-pairs CZ layer: (-1)**C(popcount, 2).

    Every CZ is diagonal, so the whole entangling layer collapses to one
    sign vector; using it is exactly equivalent to applying the pair
    gates one by one, in any order.
    """
    idx = np.arange(2 ** n, dtype=np.uint64)
    k = np.bitwise_count(idx).astype(np.int64)
    return np.where((k * (k - 1) // 2) % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=None)
def _cx_full_layer_sources(n: int, inverse: bool = False) -> np.ndarray:
    """Gather indices of the all-pairs CX layer: ``layer(psi) = psi[src]``.

    The pairs act one by one in ascending (control < target) order; a CX
    only permutes amplitudes, so the whole layer is one permutation.
    ``inverse`` gives the indices that undo the layer.
    """
    idx = np.arange(2 ** n)
    src = idx
    for c in range(n - 1):
        ctrl = ((idx >> (n - 1 - c)) & 1).astype(bool)
        for t in range(c + 1, n):
            src = src[np.where(ctrl, idx ^ (1 << (n - 1 - t)), idx)]
    src = np.argsort(src) if inverse else src
    src.flags.writeable = False
    return src


def _entangle(psi: np.ndarray, n: int, entangler: str, inverse: bool = False) -> np.ndarray:
    """The all-pairs entangling layer (or its inverse) on the last axis of ``psi``."""
    if entangler == "cz":
        return psi * _cz_full_layer_signs(n)
    return np.take(psi, _cx_full_layer_sources(n, inverse), axis=-1)


@dataclass(frozen=True)
class AnsatzConfig:
    """Layered Ry form: a rotation layer, then ``depth`` blocks of
    [all-pairs entangler, rotation layer].

    ``params`` must hold n_qubits * (depth + 1) angles, ordered layer by
    layer; None gives all zeros.  ``entangler`` is "cz" (default;
    order-free) or "cx" (pairs applied in ascending (control < target)
    order).

    ``FIELDS`` is each field's ``read_fields`` rule, caps included (the
    register at ``MAX_QUBITS``); the constructor applies it, so the CLI
    passes its ``ansatz`` keys as given.
    """

    n_qubits: int
    depth: int
    params: np.ndarray | None = None
    entangler: str = "cz"

    FIELDS = {"n_qubits": (int, 1, MAX_QUBITS), "depth": (int, 0, 64), "entangler": ("cz", "cx")}

    def __post_init__(self):
        shape = read_fields({name: getattr(self, name) for name in self.FIELDS}, "ansatz", self.FIELDS)
        for name, value in shape.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "params", self._angles(self.params))

    @property
    def n_params(self) -> int:
        return self.n_qubits * (self.depth + 1)

    def _angles(self, params) -> np.ndarray:
        """``params`` as the float array of ``n_params`` angles (None: zeros)."""
        p = np.zeros(self.n_params) if params is None else np.asarray(params, dtype=float)
        if p.shape != (self.n_params,):
            raise InvalidConfigError(
                f"expected {self.n_params} parameters, got shape {p.shape}"
            )
        return p

    def with_params(self, params) -> "AnsatzConfig":
        """This ansatz with new angles; the shape, read once at construction,
        is not read again."""
        new = copy.copy(self)
        object.__setattr__(new, "params", self._angles(params))
        return new


def ansatz_state(cfg: AnsatzConfig) -> np.ndarray:
    """Real (float64) statevector prepared by the ansatz from |0...0>."""
    n = cfg.n_qubits
    psi = np.zeros(2 ** n)
    psi[0] = 1.0
    for d, thetas in enumerate(cfg.params.reshape(cfg.depth + 1, n)):
        if d:
            psi = _entangle(psi, n, cfg.entangler)
        psi = _ry_layer(psi, thetas)
    return psi


def adjoint_gradient(cfg: AnsatzConfig, state, h_state) -> np.ndarray:
    """Gradient of psi^T S psi over ``cfg.params`` by one backward sweep.

    ``state`` is ``ansatz_state(cfg)`` and ``h_state`` is ``S @ state`` for
    a real symmetric S.  Walking the layers in reverse, the entry of the
    Ry on qubit q is <lam|A_q|phi> with A = [[0, -1], [1, 0]] (dRy/dt =
    A Ry / 2).  The rotations of one layer commute, so all its entries are
    read at the layer's output before the whole layer is undone on both
    phi and lam.
    """
    n = cfg.n_qubits
    layers = cfg.params.reshape(cfg.depth + 1, n)
    grad = np.empty_like(layers)
    flip, sign = _flip_tables(n)
    pair = np.stack([state, h_state])
    for d in range(cfg.depth, -1, -1):
        grad[d] = (sign * pair[0][flip]) @ pair[1]
        if d:
            pair = _entangle(_ry_layer(pair, -layers[d]), n, cfg.entangler, inverse=True)
    return grad.reshape(-1)


def expectation(state, h) -> float:
    """Real expectation value <psi| H |psi>.

    H must act on the same register (dimension check) and be Hermitian;
    a residual imaginary part above 1e-10 indicates a non-Hermitian H
    and raises.
    """
    psi = np.asarray(state, dtype=np.complex128)
    hm = np.asarray(h, dtype=np.complex128)
    if hm.shape != (len(psi), len(psi)):
        raise DimensionMismatchError(
            f"operator shape {hm.shape} does not match state of length {len(psi)}"
        )
    val = complex(np.vdot(psi, hm @ psi))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise NotHermitianError(
            f"expectation has imaginary residue {val.imag:.3e}; "
            "operator is not Hermitian (apply the HermitianPart variant first)"
        )
    return val.real
