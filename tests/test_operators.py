import numpy as np
import pytest

from gaugesim.basis import osc_q
from gaugesim.circuits import apply_ry
from gaugesim.errors import DimensionMismatchError, NotHermitianError, NotPowerOfTwoError
from gaugesim.evolution import pauli_decompose
from gaugesim.operators import (
    evolve_unitary,
    herm_defect,
    hermitian_eig,
    is_hermitian,
    kron,
    matrix_function,
    qubits_of_dim,
)

from conftest import PAULI, random_hermitian


def test_kron_identity():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_block_structure():
    # Z (x) X has X in the upper-left block and -X in the lower-right.
    zx = kron(PAULI["Z"], PAULI["X"])
    np.testing.assert_array_equal(zx[:2, :2], PAULI["X"])
    np.testing.assert_array_equal(zx[2:, 2:], -PAULI["X"])
    np.testing.assert_array_equal(zx[:2, 2:], np.zeros((2, 2)))


def test_kron_q2_with_identity_spectrum():
    # oracle: brute-force 4x4 diagonalization
    m = kron(osc_q(2), np.eye(2))
    vals = np.linalg.eigvalsh(m)
    expected = np.sort([1 / np.sqrt(2), 1 / np.sqrt(2), -1 / np.sqrt(2), -1 / np.sqrt(2)])
    np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_kron_associative_exact_on_representable_entries(rng):
    # entries whose pairwise products are exact in binary floating point
    pool = np.array([0.0, 1.0, -1.0, 0.5, -0.5, 2.0])
    for _ in range(20):
        a, b, c = (rng.choice(pool, size=(2, 2)) + 1j * rng.choice(pool, size=(2, 2))
                   for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        np.testing.assert_array_equal(left, right)


def test_kron_associative_close_on_random(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), rtol=1e-15, atol=1e-15)


def test_eig_pauli_z():
    np.testing.assert_allclose(hermitian_eig(PAULI["Z"]).values, [-1.0, 1.0], atol=1e-14)


def test_eig_osc_q2_closed_form():
    # 2x2 closed form: eigenvalues of (1/sqrt2)[[0,1],[1,0]] are -/+ 1/sqrt2
    es = hermitian_eig(osc_q(2))
    np.testing.assert_allclose(es.values, [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)


def test_eig_identity():
    np.testing.assert_allclose(hermitian_eig(np.eye(4)).values, np.ones(4), atol=1e-14)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_reconstruction_and_residuals(rng):
    for dim in (3, 8, 17):
        a = random_hermitian(rng, dim)
        es = hermitian_eig(a)
        fro = np.linalg.norm(a)
        assert np.linalg.norm(es.reconstruct() - a) <= 1e-9 * fro
        for k in range(dim):
            v = es.vectors[:, k]
            assert np.linalg.norm(a @ v - es.values[k] * v) <= 1e-9 * fro
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        assert np.all(np.diff(es.values) >= -1e-12)


def test_matrix_function_identity(rng):
    a = random_hermitian(rng, 6)
    np.testing.assert_allclose(matrix_function(a, lambda lam: lam), a, atol=1e-10)


def test_matrix_function_square_of_x():
    np.testing.assert_allclose(matrix_function(PAULI["X"], np.square), np.eye(2), atol=1e-12)


def test_matrix_function_inverse_sqrt_diagonal():
    a = np.diag([4.0, 9.0]).astype(complex)
    out = matrix_function(a, lambda lam: np.abs(lam) ** -0.5)
    np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_matrix_function_floor_clamps_small_eigenvalues():
    a = np.diag([1e-12, 2.0]).astype(complex)
    out = matrix_function(a, lambda lam: 1.0 / lam, floor=1e-8)
    np.testing.assert_allclose(np.diag(out).real, [1e8, 0.5])


def test_matrix_function_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        matrix_function(np.array([[0.0, 1.0], [0.0, 0.0]]), np.abs)


def test_evolve_t0_is_identity(rng):
    a = random_hermitian(rng, 5)
    np.testing.assert_allclose(evolve_unitary(a, 0.0), np.eye(5), atol=1e-12)


def test_evolve_diagonal_phases():
    u = evolve_unitary(PAULI["Z"], np.pi / 2)
    np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-12)


def test_evolve_unitarity_and_composition(rng):
    a = random_hermitian(rng, 7)
    u1 = evolve_unitary(a, 0.7)
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(7))) <= 1e-10
    u2 = evolve_unitary(a, 0.4)
    u12 = evolve_unitary(a, 1.1)
    np.testing.assert_allclose(u1 @ u2, u12, atol=1e-9)


def test_matrix_function_matches_evolve_on_diagonals():
    h = np.diag([0.3, -1.2, 2.5]).astype(complex)
    t = 0.8
    rebuilt = matrix_function(h, lambda lam: np.cos(lam * t)) - 1j * matrix_function(
        h, lambda lam: np.sin(lam * t)
    )
    np.testing.assert_allclose(rebuilt, evolve_unitary(h, t), atol=1e-12)


def test_herm_defect_and_is_hermitian():
    assert herm_defect(PAULI["Y"]) == 0.0
    assert is_hermitian(PAULI["Y"])
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_qubits_of_dim():
    assert [qubits_of_dim(d) for d in (1, 2, 4, 512, np.int64(256))] == [0, 1, 2, 9, 8]
    for dim in (0, 3, 6, -4):
        with pytest.raises(NotPowerOfTwoError):
            qubits_of_dim(dim)
    assert issubclass(NotPowerOfTwoError, DimensionMismatchError)
    # empty inputs used to end in OverflowError from int(log2(0))
    with pytest.raises(NotPowerOfTwoError):
        apply_ry(np.array([]), 0, 0.1)
    with pytest.raises(NotPowerOfTwoError):
        pauli_decompose(np.zeros((0, 0)))
