import numpy as np
import pytest

from gaugesim.circuits import (
    AnsatzConfig,
    ansatz_state,
    apply_cx,
    apply_cz,
    apply_ry,
    expectation,
    zero_state,
)
from gaugesim.errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NotHermitianError,
    QubitOutOfRangeError,
)
from gaugesim.hamiltonians import HamiltonianSpec, build_landau_cartesian
from gaugesim.operators import hermitian_eig

from conftest import PAULI, random_hermitian, random_state


def test_ry_identity_and_flip():
    psi = zero_state(1)
    np.testing.assert_allclose(apply_ry(psi, 0, 0.0), psi, atol=1e-15)
    np.testing.assert_allclose(apply_ry(psi, 0, np.pi), [0, 1], atol=1e-12)
    np.testing.assert_allclose(apply_ry(psi, 0, np.pi / 2), [1, 1] / np.sqrt(2), atol=1e-12)


def test_ry_matches_dense_matrix(rng):
    theta = 0.77
    ry = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                   [np.sin(theta / 2), np.cos(theta / 2)]])
    psi = random_state(rng, 8)
    for qubit, mats in ((0, (ry, np.eye(2), np.eye(2))),
                        (1, (np.eye(2), ry, np.eye(2))),
                        (2, (np.eye(2), np.eye(2), ry))):
        dense = np.kron(np.kron(mats[0], mats[1]), mats[2])
        np.testing.assert_allclose(apply_ry(psi, qubit, theta), dense @ psi, atol=1e-12)


def test_cz_phases():
    np.testing.assert_allclose(apply_cz([1, 0, 0, 0], 0, 1), [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(apply_cz([0, 0, 0, 1], 0, 1), [0, 0, 0, -1], atol=1e-15)
    psi = np.array([0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(apply_cz(apply_cz(psi, 1, 0), 0, 1), psi, atol=1e-15)


def test_cx_action():
    np.testing.assert_allclose(apply_cx([0, 0, 1, 0], 0, 1), [0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(apply_cx([1, 0, 0, 0], 0, 1), [1, 0, 0, 0], atol=1e-15)


def test_gate_norm_preservation(rng):
    for _ in range(10):
        psi = random_state(rng, 16)
        out = apply_ry(psi, int(rng.integers(4)), rng.uniform(-np.pi, np.pi))
        out = apply_cz(out, 0, 3)
        out = apply_cx(out, 2, 1)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_gate_qubit_range_errors():
    psi = zero_state(2)
    with pytest.raises(QubitOutOfRangeError):
        apply_ry(psi, 2, 0.1)
    with pytest.raises(QubitOutOfRangeError):
        apply_cz(psi, 0, 0)
    with pytest.raises(QubitOutOfRangeError):
        apply_cx(psi, -1, 0)


def test_ansatz_zero_params_is_vacuum():
    cfg = AnsatzConfig(n_qubits=3, depth=2, params=np.zeros(9))
    np.testing.assert_allclose(ansatz_state(cfg), zero_state(3), atol=1e-15)


def test_ansatz_single_qubit_depth0():
    cfg = AnsatzConfig(n_qubits=1, depth=0, params=np.array([np.pi]))
    np.testing.assert_allclose(ansatz_state(cfg), [0, 1], atol=1e-12)


def test_ansatz_normalized_and_deterministic(rng):
    params = rng.uniform(-np.pi, np.pi, 32)
    cfg = AnsatzConfig(n_qubits=8, depth=3, params=params)
    psi1 = ansatz_state(cfg)
    psi2 = ansatz_state(cfg)
    assert abs(np.linalg.norm(psi1) - 1.0) < 1e-12
    np.testing.assert_array_equal(psi1, psi2)


def test_ansatz_cz_layer_matches_explicit_gates(rng):
    # the fused sign-vector entangler equals pairwise CZ application
    params = rng.uniform(-np.pi, np.pi, 8)
    cfg = AnsatzConfig(n_qubits=4, depth=1, params=params)
    psi = zero_state(4)
    for q in range(4):
        psi = apply_ry(psi, q, params[q])
    for c in range(3):
        for t in range(c + 1, 4):
            psi = apply_cz(psi, c, t)
    for q in range(4):
        psi = apply_ry(psi, q, params[4 + q])
    np.testing.assert_allclose(ansatz_state(cfg), psi, atol=1e-13)


def test_ansatz_cx_entangler_runs(rng):
    cfg = AnsatzConfig(n_qubits=3, depth=2, params=rng.uniform(-1, 1, 9), entangler="cx")
    assert abs(np.linalg.norm(ansatz_state(cfg)) - 1.0) < 1e-12


def test_ansatz_cx_layer_matches_explicit_gates(rng):
    # the fused CX permutation equals pairwise CX in ascending (control, target) order
    params = rng.uniform(-np.pi, np.pi, 12)
    cfg = AnsatzConfig(n_qubits=4, depth=2, params=params, entangler="cx")
    psi = zero_state(4)
    for d, thetas in enumerate(params.reshape(3, 4)):
        if d:
            for c in range(3):
                for t in range(c + 1, 4):
                    psi = apply_cx(psi, c, t)
        for q in range(4):
            psi = apply_ry(psi, q, thetas[q])
    state = ansatz_state(cfg)
    assert state.dtype == np.float64
    np.testing.assert_allclose(state, psi, atol=1e-13)


def test_ansatz_config_validation():
    with pytest.raises(InvalidConfigError):
        AnsatzConfig(n_qubits=2, depth=1, params=np.zeros(3))
    with pytest.raises(InvalidConfigError):
        AnsatzConfig(n_qubits=2, depth=1, params=np.zeros(4), entangler="swap")
    with pytest.raises(InvalidConfigError):
        AnsatzConfig(n_qubits=0, depth=1, params=np.zeros(0))


def test_expectation_simple_cases():
    assert expectation([1, 0], PAULI["Z"]) == 1.0
    psi = np.array([0.6, 0.8j])
    assert abs(expectation(psi, np.eye(2)) - 1.0) < 1e-12


def test_expectation_ground_state_consistency():
    built = build_landau_cartesian(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    es = hermitian_eig(built.matrix)
    assert abs(expectation(es.vectors[:, 0], built.matrix) - 1.0) < 1e-9


def test_expectation_variational_bound(rng):
    h = random_hermitian(rng, 16)
    lam = hermitian_eig(h).values[0]
    for _ in range(25):
        assert expectation(random_state(rng, 16), h) >= lam - 1e-9


def test_expectation_errors():
    with pytest.raises(DimensionMismatchError):
        expectation([1, 0], np.eye(4))
    with pytest.raises(NotHermitianError):
        expectation(np.array([1.0, 1.0j]) / np.sqrt(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
