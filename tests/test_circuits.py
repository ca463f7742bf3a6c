import numpy as np
import pytest

from gaugesim import circuits
from gaugesim.circuits import AnsatzConfig, adjoint_gradient, ansatz_state, expectation
from gaugesim.errors import DimensionMismatchError, GaugesimError, InvalidConfigError, NotHermitianError
from gaugesim.hamiltonians import HamiltonianSpec, build
from gaugesim.operators import hermitian_eig

from conftest import (
    PAULI,
    SX,
    dense_ansatz_state,
    dense_controlled,
    dense_ry,
    per_layer_adjoint_gradient,
    per_layer_ansatz_state,
    random_hermitian,
    random_state,
)


def _state(n, depth, params, entangler="cz"):
    return ansatz_state(AnsatzConfig(n_qubits=n, depth=depth, entangler=entangler),
                        np.array(params, dtype=float))


def test_ry_identity_and_flip():
    np.testing.assert_allclose(_state(1, 0, [0.0]), [1, 0], atol=1e-15)
    np.testing.assert_allclose(_state(1, 0, [np.pi]), [0, 1], atol=1e-12)
    np.testing.assert_allclose(_state(1, 0, [np.pi / 2]), [1, 1] / np.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 10))
def test_ry_layer_matches_dense_gates(rng, n):
    # the two-factor layer kernel (n = 1 gives an empty left factor), on one
    # state and on a stack along the last axis, against the gates one by one
    thetas = rng.uniform(-np.pi, np.pi, n)
    dense = np.eye(2 ** n)
    for q in range(n):
        dense = dense_ry(n, q, thetas[q]) @ dense
    states = rng.normal(size=(2, 2 ** n))
    (left,), (right,) = circuits._factors(thetas[None])
    np.testing.assert_allclose(circuits._rotate(states[0], left, right), dense @ states[0],
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(circuits._rotate(states, left, right), states @ dense.T,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_one_table_pass_equals_the_per_layer_factors_bit_for_bit(rng, entangler):
    # all layers' factors from one pass are the same products in the same
    # order as each layer's alone, so states and gradients match bit for
    # bit; the angles include 0, -0, +-pi and random values
    for n in range(1, 10):
        for depth in range(5):
            cfg = AnsatzConfig(n, depth, entangler)
            params = rng.uniform(-np.pi, np.pi, cfg.n_params)
            params[::2] = rng.choice([0.0, -0.0, np.pi, -np.pi], len(params[::2]))
            state = ansatz_state(cfg, params)
            assert state.tobytes() == per_layer_ansatz_state(cfg, params).tobytes(), (n, depth)
            h_state = rng.normal(size=state.shape)
            grad = adjoint_gradient(cfg, params, state, h_state)
            assert grad.tobytes() == per_layer_adjoint_gradient(cfg, params, state, h_state).tobytes(), (n, depth)


def test_transposed_factors_equal_the_negated_angles_bit_for_bit(rng):
    # the adjoint sweep undoes layers 1 and up with contiguous copies of
    # the forward factors' transposes; they are the floats a table pass on
    # the negated angles gives, signed zeros included, so the bytes of
    # ``adjoint_gradient`` did not move when it stopped negating them
    for n in range(1, 10):
        for depth in range(5):
            layers = rng.uniform(-np.pi, np.pi, (depth + 1, n))
            layers.ravel()[::2] = rng.choice([0.0, -0.0, np.pi, -np.pi], layers.size - layers.size // 2)
            undo = circuits._factors(-layers[1:])
            for forward, negated in zip(circuits._factors(layers), undo):
                copy = np.ascontiguousarray(forward[1:].transpose(0, 2, 1))
                assert copy.flags.c_contiguous and copy.shape == negated.shape, (n, depth)
                assert copy.tobytes() == negated.tobytes(), (n, depth)


def test_cz_phases():
    # Ry(pi) prepares |1>, so the first layer picks the basis state the CZ sees
    np.testing.assert_allclose(_state(2, 1, [0, 0, 0, 0]), [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(_state(2, 1, [np.pi, 0, 0, 0]), [0, 0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(_state(2, 1, [np.pi, np.pi, 0, 0]), [0, 0, 0, -1], atol=1e-12)


def test_cx_action():
    np.testing.assert_allclose(_state(2, 1, [np.pi, 0, 0, 0], "cx"), [0, 0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(_state(2, 1, [0, np.pi, 0, 0], "cx"), [0, 1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(_state(2, 1, [0, 0, 0, 0], "cx"), [1, 0, 0, 0], atol=1e-15)


def _pair_sources(n):
    """Gather sources of the all-pairs CX layer, its n(n-1)/2 pair
    permutations composed one by one in ascending (control < target) order."""
    idx = np.arange(2 ** n)
    src = idx
    for c in range(n - 1):
        ctrl = ((idx >> (n - 1 - c)) & 1).astype(bool)
        for t in range(c + 1, n):
            src = src[np.where(ctrl, idx ^ (1 << (n - 1 - t)), idx)]
    return src


@pytest.mark.parametrize("n", range(1, 10))
def test_cx_layer_table_is_the_composed_pair_permutations(n):
    # the closed form (the Gray code's inverse as a gather) equals the pairs
    # composed one by one, bit for bit
    assert circuits._cx_full_layer_sources(n).tobytes() == _pair_sources(n).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_cx_layer_inverse_table_undoes_the_layer(n):
    forward = circuits._cx_full_layer_sources(n)
    inverse = circuits._cx_full_layer_sources(n, inverse=True)
    np.testing.assert_array_equal(forward[inverse], np.arange(2 ** n))


@pytest.mark.parametrize("n", range(1, 7))
def test_cx_layer_equals_the_nearest_neighbour_ladder(n):
    # all n(n-1)/2 pairs in ascending order = the n - 1 CNOTs CX(q - 1 -> q)
    # applied for q = n - 1 down to 1 = the gather of the layer's table
    pairs = np.eye(2 ** n)
    for c in range(n - 1):
        for t in range(c + 1, n):
            pairs = dense_controlled(n, c, t, SX) @ pairs
    ladder = np.eye(2 ** n)
    for q in range(n - 1, 0, -1):
        ladder = dense_controlled(n, q - 1, q, SX) @ ladder
    np.testing.assert_array_equal(pairs, ladder)
    np.testing.assert_array_equal(ladder, np.eye(2 ** n)[circuits._cx_full_layer_sources(n)])


@pytest.mark.parametrize("n", range(1, 10))
def test_cz_layer_signs_are_the_product_of_the_pair_diagonals(n):
    bits = (np.arange(2 ** n)[:, None] >> (n - 1 - np.arange(n))) & 1
    signs = np.ones(2 ** n)
    for c in range(n - 1):
        for t in range(c + 1, n):
            signs *= np.where(bits[:, c] & bits[:, t], -1.0, 1.0)
    assert circuits._cz_full_layer_signs(n).tobytes() == signs.tobytes()


def test_ansatz_zero_params_is_vacuum():
    np.testing.assert_allclose(_state(3, 2, np.zeros(9)), np.eye(8)[0], atol=1e-15)


def test_ansatz_single_qubit_depth0():
    cfg = AnsatzConfig(n_qubits=1, depth=0)
    np.testing.assert_allclose(ansatz_state(cfg, np.array([np.pi])), [0, 1], atol=1e-12)


def test_ansatz_normalized_and_deterministic(rng):
    params = rng.uniform(-np.pi, np.pi, 32)
    cfg = AnsatzConfig(n_qubits=8, depth=3)
    psi1 = ansatz_state(cfg, params)
    psi2 = ansatz_state(cfg, params)
    assert abs(np.linalg.norm(psi1) - 1.0) < 1e-12
    np.testing.assert_array_equal(psi1, psi2)


def _check_against_dense_oracle(rng, entangler):
    for n in range(1, 5):
        for depth in range(4):
            params = rng.uniform(-np.pi, np.pi, n * (depth + 1))
            state = _state(n, depth, params, entangler)
            assert state.dtype == np.float64
            np.testing.assert_allclose(state, dense_ansatz_state(n, depth, params, entangler),
                                       rtol=0, atol=1e-13, err_msg=f"n={n} depth={depth}")


@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_ansatz_matches_explicit_gates_at_nine_qubits(rng, entangler):
    params = rng.uniform(-np.pi, np.pi, 9 * 2)
    np.testing.assert_allclose(_state(9, 1, params, entangler),
                               dense_ansatz_state(9, 1, params, entangler), rtol=0, atol=1e-13)


def test_ansatz_cz_layer_matches_explicit_gates(rng):
    # the fused sign-vector entangler equals the CZ gates one by one
    _check_against_dense_oracle(rng, "cz")


def test_ansatz_cx_entangler_runs(rng):
    cfg = AnsatzConfig(n_qubits=3, depth=2, entangler="cx")
    assert abs(np.linalg.norm(ansatz_state(cfg, rng.uniform(-1, 1, 9))) - 1.0) < 1e-12


def test_ansatz_cx_layer_matches_explicit_gates(rng):
    # the fused CX permutation equals the CX gates in ascending (control, target) order
    _check_against_dense_oracle(rng, "cx")


def test_ansatz_config_validation():
    with pytest.raises(InvalidConfigError, match="expected 4 parameters, got shape"):
        ansatz_state(AnsatzConfig(n_qubits=2, depth=1), np.zeros(3))
    # angles follow the number rule: strings, None and bools are not angles
    cfg = AnsatzConfig(n_qubits=2, depth=1)
    state = ansatz_state(cfg, np.zeros(4))
    for params, got in ((["0.1"] * 4, "'0.1'"), ([None] * 4, "None"), ([True] * 4, "True"),
                        ([0.1, np.nan, 0.2, 0.3], "nan"), (np.array([0.1, 0.2, np.inf, 0.3]), "inf")):
        with pytest.raises(InvalidConfigError, match=f"params: entry [012] is not a finite number, got {got}"):
            ansatz_state(cfg, params)
        with pytest.raises(InvalidConfigError, match=f"params: entry [012] is not a finite number, got {got}"):
            adjoint_gradient(cfg, params, state, state)
    with pytest.raises(ValueError, match="h_state: entry 1 is not a finite number, got nan"):
        adjoint_gradient(cfg, np.zeros(4), state, [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError, match=r"state and h_state need shape \(4,\)"):
        adjoint_gradient(cfg, np.zeros(4), state[:2], state)
    with pytest.raises(InvalidConfigError):
        AnsatzConfig(n_qubits=2, depth=1, entangler="swap")
    with pytest.raises(InvalidConfigError):
        AnsatzConfig(n_qubits=0, depth=1)


def test_ansatz_register_is_capped_and_depth_defaults_to_three():
    with pytest.raises(InvalidConfigError, match="ansatz.n_qubits: must be <= 9, got 10"):
        AnsatzConfig(n_qubits=10, depth=0)
    made = AnsatzConfig(3)
    assert (made.n_qubits, made.depth, made.entangler, made.n_params) == (3, 3, "cz", 12)


def test_ansatz_shape_is_read_by_name():
    # refused when made, not later in ansatz_state; a bool is not a count
    with pytest.raises(InvalidConfigError, match="ansatz.depth: expected an integer, got 1.5"):
        AnsatzConfig(n_qubits=2, depth=1.5)
    with pytest.raises(InvalidConfigError, match="ansatz.depth: expected a finite number, got True"):
        AnsatzConfig(n_qubits=2, depth=True)
    with pytest.raises(InvalidConfigError, match="ansatz.depth: expected an integer, got 1.5"):
        AnsatzConfig(2, 1.5)
    with pytest.raises(InvalidConfigError, match="ansatz.depth: must be <= 64, got 65"):
        AnsatzConfig(1, 65)
    cfg = AnsatzConfig(n_qubits=np.int64(2), depth=1.0)
    assert type(cfg.n_qubits) is int and type(cfg.depth) is int


def test_expectation_simple_cases():
    assert expectation([1, 0], PAULI["Z"]) == 1.0
    psi = np.array([0.6, 0.8j])
    assert abs(expectation(psi, np.eye(2)) - 1.0) < 1e-12


def test_expectation_ground_state_consistency():
    built = build(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    es = hermitian_eig(built.matrix)
    assert abs(expectation(es.vectors[:, 0], built.matrix) - 1.0) < 1e-9


def test_expectation_takes_a_build(rng):
    # a build goes in as its matrix, like every operator intake
    for spec in (HamiltonianSpec(kind="LandauPolar", b_field=2.0),
                 HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, boson_trunc=2, variant="HermitianPart")):
        b = build(spec)
        psi = random_state(rng, b.dim)
        assert expectation(psi, b) == expectation(psi, b.matrix)


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
    # a NaN or a string used to give a NaN expectation or numpy's bare message
    for state, h, message in (([np.nan, 0.0], PAULI["Z"], "state: entry 0 .* got nan"),
                              (["1", 0], PAULI["Z"], "state: entry 0 .* got '1'"),
                              ([1.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], "operator: entry 0 .* got nan")):
        with pytest.raises(ValueError, match=message):
            expectation(state, h)
    with pytest.raises(DimensionMismatchError):
        expectation(1.0, 2.0)
    # a finite state whose value overflows used to come back as inf
    with pytest.raises(GaugesimError, match="expectation: the value: expected a finite number, got inf"):
        with np.errstate(over="ignore"):
            expectation([1e308, 0.8], [[1.0, 0.5], [0.5, -1.0]])
