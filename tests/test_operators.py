import numpy as np
import pytest

from gaugesim.basis import osc_q, place
from gaugesim.circuits import AnsatzConfig, expectation
from gaugesim.errors import DimensionMismatchError, NotHermitianError, NotPowerOfTwoError
from gaugesim.evolution import pauli_decompose, scattering_process, transition_series
from gaugesim.hamiltonians import HamiltonianSpec, build
from gaugesim.operators import (
    _propagate,
    herm_defect,
    hermitian_eig,
    is_hermitian,
    matrix_function,
    qubits_of_dim,
)
from gaugesim.vqe import OptimizerSettings, energy_gradient, minimize

from conftest import PAULI, exact_unitary, random_hermitian


def propagated(h, ts) -> np.ndarray:
    """exp(-i h t) for every t in ts, column k the library's spectral
    propagator (which takes one state) applied to basis state k."""
    es = hermitian_eig(h)
    return np.stack([_propagate(es, column, ts) for column in np.eye(len(h), dtype=np.complex128)], axis=-1)


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
        v = es.vectors
        assert np.linalg.norm((v * es.values) @ v.conj().T - a) <= 1e-9 * fro
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


def test_matrix_function_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        matrix_function(np.array([[0.0, 1.0], [0.0, 0.0]]), np.abs)


def test_evolve_t0_is_identity(rng):
    a = random_hermitian(rng, 5)
    u = propagated(a, [0.0])[0]
    np.testing.assert_allclose(u, exact_unitary(a, 0.0), atol=1e-12)
    np.testing.assert_allclose(u, np.eye(5), atol=1e-12)


def test_evolve_diagonal_phases():
    u = propagated(PAULI["Z"], [np.pi / 2])[0]
    np.testing.assert_allclose(u, exact_unitary(PAULI["Z"], np.pi / 2), atol=1e-12)
    np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-12)


def test_evolve_unitarity_and_composition(rng):
    a = random_hermitian(rng, 7)
    u1, u2, u12 = propagated(a, [0.7, 0.4, 1.1])
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(7))) <= 1e-10
    np.testing.assert_allclose(u1, exact_unitary(a, 0.7), atol=1e-9)
    np.testing.assert_allclose(u1 @ u2, exact_unitary(a, 1.1), atol=1e-9)
    np.testing.assert_allclose(u12, exact_unitary(a, 1.1), atol=1e-9)


def test_matrix_function_matches_evolve_on_diagonals():
    h = np.diag([0.3, -1.2, 2.5]).astype(complex)
    t = 0.8
    rebuilt = matrix_function(h, lambda lam: np.cos(lam * t)) - 1j * matrix_function(
        h, lambda lam: np.sin(lam * t)
    )
    np.testing.assert_allclose(rebuilt, exact_unitary(h, t), atol=1e-12)
    np.testing.assert_allclose(propagated(h, [t])[0], exact_unitary(h, t), atol=1e-12)


def test_herm_defect_takes_a_build():
    # a build goes in as its matrix, like every operator intake; Literal is not Hermitian
    for spec in (HamiltonianSpec(kind="LandauPolar", b_field=2.0),
                 HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, boson_trunc=2)):
        b = build(spec)
        assert herm_defect(b) == herm_defect(b.matrix)
    assert herm_defect(b) > 0.0


def test_herm_defect_and_is_hermitian():
    assert herm_defect(PAULI["Y"]) == 0.0
    assert is_hermitian(PAULI["Y"])
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_every_hermitian_entry_point_follows_is_hermitian():
    # A = diag(1, 0, ..., 0) + 4e-11 i Z(x)Z(x)Z has defect 8e-11, inside
    # is_hermitian's 1e-10 max|A|; A_bad adds 2e-10 at [0, 1] only (defect
    # 2e-10).  Every entry point accepts A and refuses A_bad, whatever A's
    # imaginary Pauli coefficients (4e-11) or <e_0|A_bad|e_0> (1) say.
    zzz = np.diag([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    a = np.diag(np.eye(8)[0]) + 4e-11j * zzz
    a_bad = a.copy()
    a_bad[0, 1] += 2e-10
    assert herm_defect(a) == pytest.approx(8e-11) and is_hermitian(a)
    assert herm_defect(a_bad) == pytest.approx(2e-10) and not is_hermitian(a_bad)
    e0 = np.eye(8)[0]
    ansatz = AnsatzConfig(3, depth=0)
    calls = [hermitian_eig, pauli_decompose, lambda h: expectation(e0, h),
             lambda h: minimize(h, ansatz, OptimizerSettings(max_iter=3)),
             lambda h: energy_gradient(h, ansatz, [0.1, 0.2, 0.3])]
    for method in ("exact", "trotter"):
        calls += [lambda h, m=method: transition_series(h, e0, "all", [0.5], method=m, trotter_steps=4),
                  lambda h, m=method: scattering_process(h, 0.3, 0.2, 0.5, e0, method=m, trotter_steps=4)]
    for call in calls:
        call(a)
        with pytest.raises(NotHermitianError, match="not Hermitian.*HermitianPart"):
            call(a_bad)


def test_a_matrix_entry_that_is_not_a_number_is_refused():
    # numpy used to end these in its bare "complex() arg is a malformed string"
    held = np.array([[1.0, "x"], ["x", 1.0]], dtype=object)
    for call in (pauli_decompose, hermitian_eig, is_hermitian, herm_defect):
        with pytest.raises(ValueError, match="operator: entry 1 is not a number, got 'x'"):
            call(held)
    # place runs no Hermiticity check, so it reads its operator finite
    with pytest.raises(ValueError, match="operator: entry 1 is not a finite number, got 'x'"):
        place(held, 0, [2, 2])
    # NaN and infinite entries are numbers: the Hermiticity check refuses them
    with np.errstate(invalid="ignore"):  # inf - inf in the defect
        for bad in (np.nan, np.inf):
            m = np.array([[1.0, bad], [bad, 1.0]])
            assert not is_hermitian(m)
            with pytest.raises(NotHermitianError):
                hermitian_eig(m)


def test_qubits_of_dim():
    assert [qubits_of_dim(d) for d in (1, 2, 4, 512, np.int64(256))] == [0, 1, 2, 9, 8]
    for dim in (0, 3, 6, -4):
        with pytest.raises(NotPowerOfTwoError):
            qubits_of_dim(dim)
    assert issubclass(NotPowerOfTwoError, DimensionMismatchError)
    # empty inputs used to end in OverflowError from int(log2(0))
    with pytest.raises(NotPowerOfTwoError):
        transition_series(np.zeros((0, 0)), np.array([]), "all", [0.0], method="trotter")
    with pytest.raises(NotPowerOfTwoError):
        pauli_decompose(np.zeros((0, 0)))
