"""The layered Ry variational form on real statevectors.

States are plain 1-D float64 ndarrays of length 2**n.  Qubit 0 is the
most significant bit of the basis index, matching the tensor-slot
convention of the basis module (slot 0 = leftmost Kronecker factor).
Ry, CZ and CX have real matrices, so ``ansatz_state`` prepares a real
state, and ``adjoint_gradient`` differentiates it with one backward
sweep (Jones & Gacon, arXiv:2009.02823).  ``expectation`` gives
<psi|H|psi> for any (complex) state and Hermitian H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, NotHermitianError

__all__ = [
    "AnsatzConfig",
    "ansatz_state",
    "adjoint_gradient",
    "expectation",
]


def _ry(psi: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    """Ry(theta) on ``qubit`` of each state along the last axis of the
    contiguous array ``psi``, in place."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    view = psi.reshape(psi.shape[:-1] + (2 ** qubit, 2, -1))
    a = view[..., 0, :].copy()
    b = view[..., 1, :]
    view[..., 0, :] = c * a - s * b
    view[..., 1, :] = s * a + c * b
    return psi


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
    layer.  ``entangler`` is "cz" (default; order-free) or "cx" (pairs
    applied in ascending (control < target) order).
    """

    n_qubits: int
    depth: int
    params: np.ndarray
    entangler: str = "cz"

    def __post_init__(self):
        if self.n_qubits < 1 or self.depth < 0:
            raise InvalidConfigError(
                f"bad ansatz shape: n_qubits={self.n_qubits}, depth={self.depth}"
            )
        if self.entangler not in ("cz", "cx"):
            raise InvalidConfigError(f"unsupported entangler {self.entangler!r}")
        p = np.asarray(self.params, dtype=float)
        if p.shape != (self.n_params,):
            raise InvalidConfigError(
                f"expected {self.n_params} parameters, got shape {p.shape}"
            )
        object.__setattr__(self, "params", p)

    @property
    def n_params(self) -> int:
        return self.n_qubits * (self.depth + 1)

    def with_params(self, params) -> "AnsatzConfig":
        return AnsatzConfig(
            n_qubits=self.n_qubits,
            depth=self.depth,
            params=np.asarray(params, dtype=float),
            entangler=self.entangler,
        )


def ansatz_state(cfg: AnsatzConfig) -> np.ndarray:
    """Real (float64) statevector prepared by the ansatz from |0...0>."""
    n = cfg.n_qubits
    psi = np.zeros(2 ** n)
    psi[0] = 1.0
    for d, thetas in enumerate(cfg.params.reshape(cfg.depth + 1, n)):
        if d:
            psi = _entangle(psi, n, cfg.entangler)
        for q in range(n):
            _ry(psi, q, thetas[q])
    return psi


def adjoint_gradient(cfg: AnsatzConfig, state, h_state) -> np.ndarray:
    """Gradient of psi^T S psi over ``cfg.params`` by one backward sweep.

    ``state`` is ``ansatz_state(cfg)`` and ``h_state`` is ``S @ state`` for
    a real symmetric S.  Walking the gates in reverse, the entry of the Ry
    on qubit q is <lam|A_q|phi> with A = [[0, -1], [1, 0]] (dRy/dt =
    A Ry / 2), read before that Ry is undone on both phi and lam.
    """
    n = cfg.n_qubits
    layers = cfg.params.reshape(cfg.depth + 1, n)
    grad = np.empty_like(layers)
    pair = np.stack([state, h_state])
    for d in range(cfg.depth, -1, -1):
        for q in range(n - 1, -1, -1):
            view = pair.reshape(2, 2 ** q, 2, -1)
            grad[d, q] = (np.vdot(view[1, :, 1, :], view[0, :, 0, :])
                          - np.vdot(view[1, :, 0, :], view[0, :, 1, :]))
            _ry(pair, q, -layers[d, q])
        if d:
            pair = _entangle(pair, n, cfg.entangler, inverse=True)
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
