"""The layered Ry variational form on real statevectors.

States are plain 1-D float64 ndarrays of length 2**n.  Qubit 0 is the
most significant bit of the basis index, matching the tensor-slot
convention of the basis module (slot 0 = leftmost Kronecker factor).
Ry, CZ and CX have real matrices, so ``ansatz_state`` prepares a real
state, and ``adjoint_gradient`` differentiates it with one backward
sweep (Jones & Gacon, arXiv:2009.02823).  Each sweep builds the Kronecker
factors of all its rotation layers in one table pass (``_factors``), and
a layer is two small matrix products with them, not one call per gate.
``expectation`` gives <psi|H|psi> for any (complex) state and Hermitian H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, read_numbers, read_own_fields
from .operators import MAX_QUBITS, _require_hermitian

__all__ = [
    "AnsatzConfig",
    "ansatz_state",
    "adjoint_gradient",
    "expectation",
]


@lru_cache(maxsize=None)
def _factor_tables(n: int) -> tuple:
    """(pick, signed) tables of the Kronecker product K of the rotations
    [[c, -s], [s, c]] on qubits [0, n // 2), then of those on [n // 2, n).

    K[i, j] = +-mag[i ^ j], mag[m] the product over the half's qubits q of s_q
    if bit q of m is set, else c_q: the gather ``pick``, [q, m] -> q + n * bit,
    of [c_0 .. c_(n-1), s_0 .. s_(n-1)].  Each factor -s comes from a bit 0 in
    i and 1 in j, so K is the gather ``signed`` of [mag, -mag]."""
    tables = []
    for qubits in (np.arange(n // 2), np.arange(n // 2, n)):
        k = len(qubits)
        idx = np.arange(2 ** k)
        pick = qubits[:, None] + n * ((idx >> (k - 1 - np.arange(k)[:, None])) & 1)
        signed = (idx[:, None] ^ idx) + 2 ** k * (np.bitwise_count(idx & ~idx[:, None]) % 2)
        pick.flags.writeable = signed.flags.writeable = False
        tables.append((pick, signed))
    return tuple(tables)


def _factors(layers: np.ndarray) -> list:
    """The Kronecker factors (L, R) of each rotation layer, one row of n
    angles in ``layers``, stacked: the layer acts on a state viewed as a
    (2**h, 2**(n-h)) matrix M, h = n // 2, as L M R^T, with L and R the
    rotations on qubits [0, h) and [h, n).  Negated angles give L^T and R^T
    exactly, which undoes the layer."""
    cs = np.concatenate([np.cos(layers / 2.0), np.sin(layers / 2.0)], axis=1)
    factors = []
    for pick, signed in _factor_tables(layers.shape[1]):
        mag = cs.take(pick, axis=1).prod(axis=1)
        factors.append(np.concatenate([mag, -mag], axis=1).take(signed, axis=1))
    return factors


def _rotate(psi: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """L M R^T on each state M along the last axis of ``psi`` (see ``_factors``)."""
    view = psi.reshape(psi.shape[:-1] + (len(left), len(right)))
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
    """Diagonal of the all-pairs CZ layer: (-1)**C(k, 2) for popcount k, -1 where bit 1 of k is set.

    Every CZ is diagonal, so the whole entangling layer collapses to one
    sign vector; using it is exactly equivalent to applying the pair
    gates one by one, in any order.
    """
    signs = np.where(np.bitwise_count(np.arange(2 ** n)) & 2, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=None)
def _cx_full_layer_sources(n: int, inverse: bool = False) -> np.ndarray:
    """Gather indices of the all-pairs CX layer: ``layer(psi) = psi[src]``.

    The pairs act in ascending (control < target) order, so bit q becomes
    b_q ^ b_(q-1): basis state i goes to the Gray code g(i) = i ^ (i >> 1),
    as under the ladder of n - 1 CNOTs CX(q - 1 -> q), q = n - 1 down to 1.
    ``src`` is g's inverse, the prefix XOR of i's bits (ceil(log2 n)
    shift-and-XOR steps); with ``inverse`` it is g, which undoes the layer.
    """
    src = np.arange(2 ** n)
    for shift in [1] if inverse else [1 << k for k in range((n - 1).bit_length())]:
        src ^= src >> shift
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

    The form only: the optimizer owns the angles, n_qubits * (depth + 1)
    of them (``n_params``), ordered layer by layer, and passes them to
    ``ansatz_state`` and ``adjoint_gradient``.  ``entangler`` is "cz"
    (default; order-free) or "cx" (pairs in ascending (control < target)
    order: a Gray code, n - 1 CNOTs as a ladder; ``_cx_full_layer_sources``).

    ``FIELDS`` is each field's ``read_fields`` rule, caps included (the
    register at ``MAX_QUBITS``); the constructor applies it, so the CLI
    passes its ``ansatz`` keys (all but ``n_qubits``) as given.
    """

    n_qubits: int
    depth: int = 3
    entangler: str = "cz"

    FIELDS = {"n_qubits": (int, 1, MAX_QUBITS), "depth": (int, 0, 64), "entangler": ("cz", "cx")}

    def __post_init__(self):
        read_own_fields(self, "ansatz")

    @property
    def n_params(self) -> int:
        return self.n_qubits * (self.depth + 1)


def _layers(cfg: AnsatzConfig, params) -> np.ndarray:
    """``params`` as the (depth + 1, n_qubits) float array of angles, one row
    per rotation layer; InvalidConfigError unless ``cfg.n_params`` finite numbers are given."""
    p = read_numbers(params, "params", InvalidConfigError)
    if p.shape != (cfg.n_params,):
        raise InvalidConfigError(f"expected {cfg.n_params} parameters, got shape {p.shape}")
    return p.reshape(cfg.depth + 1, cfg.n_qubits)


def ansatz_state(cfg: AnsatzConfig, params) -> np.ndarray:
    """Real (float64) statevector prepared by the ansatz with angles
    ``params`` from |0...0>."""
    n = cfg.n_qubits
    psi = np.zeros(2 ** n)
    psi[0] = 1.0
    for d, (left, right) in enumerate(zip(*_factors(_layers(cfg, params)))):
        if d:
            psi = _entangle(psi, n, cfg.entangler)
        psi = _rotate(psi, left, right)
    return psi


def adjoint_gradient(cfg: AnsatzConfig, params, state, h_state) -> np.ndarray:
    """Gradient of psi^T S psi over ``params`` by one backward sweep.

    ``state`` is ``ansatz_state(cfg, params)`` and ``h_state`` is
    ``S @ state`` for a real symmetric S.  Walking the layers in reverse,
    the entry of the Ry on qubit q is <lam|A_q|phi> with A = [[0, -1],
    [1, 0]] (dRy/dt = A Ry / 2).  The rotations of one layer commute, so
    all its entries are read at the layer's output before the whole layer
    is undone on both phi and lam.
    """
    n = cfg.n_qubits
    layers = _layers(cfg, params)
    pair = [read_numbers(v, what, ValueError) for v, what in ((state, "state"), (h_state, "h_state"))]
    if any(v.shape != (2 ** n,) for v in pair):
        raise DimensionMismatchError(f"state and h_state need shape ({2 ** n},)")
    pair = np.stack(pair)
    grad = np.empty_like(layers)
    flip, sign = _flip_tables(n)
    lefts, rights = _factors(-layers[1:])
    for d in range(cfg.depth, -1, -1):
        grad[d] = (sign * pair[0][flip]) @ pair[1]
        if d:
            pair = _entangle(_rotate(pair, lefts[d - 1], rights[d - 1]), n, cfg.entangler, inverse=True)
    return grad.reshape(-1)


def expectation(state, h) -> float:
    """Real expectation value Re <psi| H |psi>.

    H, a matrix of finite numbers or a build (its ``matrix``), must act on
    the same register (dimension check) and be Hermitian: it is refused up
    front by ``operators._require_hermitian``, whatever the state.
    """
    psi = read_numbers(state, "state", ValueError, complex)
    hm = read_numbers(getattr(h, "matrix", h), "operator", ValueError, complex)
    if psi.ndim != 1 or hm.shape != psi.shape * 2:
        raise DimensionMismatchError(f"operator shape {hm.shape} does not match state of shape {psi.shape}")
    _require_hermitian(h, "expectation")
    return float(np.vdot(psi, hm @ psi).real)
