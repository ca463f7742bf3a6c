import re

import numpy as np
import pytest

from gaugesim.basis import (
    fermion_factor,
    osc_p,
    osc_p2,
    osc_q,
    osc_q2,
    place,
    pos_grid,
    pos_p,
    pos_q,
    sylvester_f,
)
from gaugesim.analytic import landau_energy, polar_energy
from gaugesim.circuits import AnsatzConfig, ansatz_state
from gaugesim.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidSizeError,
    NotPowerOfTwoError,
)
from gaugesim.evolution import (
    dual_lattice_period,
    momentum_state,
    transition_series,
    vertex_amplitude,
    vertex_scan,
    wrap_momentum,
)
from gaugesim.operators import qubits_of_dim


def test_osc_q_smallest():
    np.testing.assert_allclose(osc_q(2), np.array([[0, 1], [1, 0]]) / np.sqrt(2), atol=1e-15)


def test_osc_q_offdiagonals_n4():
    q = osc_q(4)
    off = np.array([q[j, j + 1] for j in range(3)])
    np.testing.assert_allclose(off, np.sqrt([1, 2, 3]) / np.sqrt(2), atol=1e-15)
    assert q[3, 2] == q[2, 3]


def test_osc_q_hermitian_real():
    q = osc_q(16)
    assert np.max(np.abs(q - q.conj().T)) == 0.0
    assert np.max(np.abs(q.imag)) == 0.0


def test_osc_p_smallest():
    np.testing.assert_allclose(
        osc_p(2), (1j / np.sqrt(2)) * np.array([[0, -1], [1, 0]]), atol=1e-15
    )


def test_osc_commutator_corner():
    for n in (4, 16):
        q, p = osc_q(n), osc_p(n)
        comm = q @ p - p @ q
        expected = 1j * np.eye(n)
        expected[n - 1, n - 1] = 1j * (1 - n)
        np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_osc_p_isospectral_with_q():
    for n in (4, 16):
        np.testing.assert_allclose(
            np.linalg.eigvalsh(osc_p(n)), np.linalg.eigvalsh(osc_q(n)), atol=1e-12
        )


def test_osc_squares_match_larger_truncation_blocks():
    # oracle: the (n+2)-truncated matrix square agrees with the projected
    # square on its leading n x n block (products reach two steps at most)
    for n in (4, 8):
        big = osc_q(n + 2)
        np.testing.assert_allclose(osc_q2(n), (big @ big)[:n, :n], atol=1e-13)
        bigp = osc_p(n + 2)
        np.testing.assert_allclose(osc_p2(n), (bigp @ bigp)[:n, :n], atol=1e-13)


def test_osc_squares_differ_from_plain_squares_at_corner():
    n = 6
    delta = osc_q2(n) - osc_q(n) @ osc_q(n)
    assert np.max(np.abs(delta[: n - 2, : n - 2])) < 1e-14
    assert abs(delta[n - 1, n - 1]) > 1.0


def test_pos_grid_values():
    # formula oracle at n=4, 1-based j=1: sqrt(2*pi/16) * (2 - 5)
    g = pos_grid(4)
    assert abs(g[0] - np.sqrt(2 * np.pi / 16) * (-3)) < 1e-15
    assert abs(g[0] + 1.87997) < 1e-4
    np.testing.assert_allclose(pos_grid(2), [-np.sqrt(np.pi / 4), np.sqrt(np.pi / 4)], atol=1e-15)


def test_pos_q_traceless():
    for n in (2, 5, 16):
        assert abs(np.trace(pos_q(n))) < 1e-12


def test_sylvester_unitary():
    for n in (2, 4, 8, 16):
        f = sylvester_f(n)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(np.abs(f), np.full((n, n), 1 / np.sqrt(n)), atol=1e-12)


def test_sylvester_n2_entry():
    f = sylvester_f(2)
    assert abs(f[0, 0] - np.exp(1j * np.pi / 4) / np.sqrt(2)) < 1e-14


def test_pos_p_hermitian_isospectral():
    p = pos_p(16)
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    np.testing.assert_allclose(np.linalg.eigvalsh(p), np.sort(pos_grid(16)), atol=1e-10)


def test_pos_commutator_on_smooth_central_states():
    # a finite grid cannot carry the canonical commutator entrywise (the
    # trace forces the diagonal to zero); the canonical value is recovered
    # in expectation on smooth grid-interior states, with the sign set by
    # the positive-exponent DFT phase convention: <g|[Q,P]|g> -> -i
    n = 16
    comm = pos_q(n) @ pos_p(n) - pos_p(n) @ pos_q(n)
    assert abs(np.trace(comm)) < 1e-12
    assert np.max(np.abs(np.diag(comm))) < 1e-12
    assert np.max(np.abs(comm + comm.conj().T)) < 1e-12  # anti-Hermitian
    x = pos_grid(n)
    gauss = np.exp(-x ** 2 / 2.0)
    gauss /= np.linalg.norm(gauss)
    assert abs(np.vdot(gauss, comm @ gauss) - (-1j)) < 1e-8
    # the same sandwich with an edge-localized state is far from canonical
    edge = np.zeros(n)
    edge[0] = 1.0
    assert abs(np.vdot(edge, comm @ edge) - (-1j)) > 0.5


def test_fermion_factor_algebra():
    psi = fermion_factor()
    np.testing.assert_array_equal(psi @ psi, np.zeros((2, 2)))
    np.testing.assert_array_equal(psi.conj().T @ psi + psi @ psi.conj().T, np.eye(2))
    assert np.max(np.abs(psi - psi.conj().T)) == 1.0


def test_place_positions():
    q = osc_q(16)
    np.testing.assert_array_equal(place(q, 0, [16, 16]), np.kron(q, np.eye(16)))
    psi = fermion_factor()
    expected = np.kron(np.kron(np.kron(np.eye(64), np.eye(2)), psi), np.eye(2))
    np.testing.assert_array_equal(place(psi, 2, [64, 2, 2, 2]), expected)
    np.testing.assert_array_equal(place(np.eye(2), 0, [2, 2]), np.eye(4))
    np.testing.assert_array_equal(place(np.eye(2), 1, [2, 2]), np.eye(4))


def test_place_is_the_kron_chain_bit_for_bit(rng):
    # the same products as np.kron(np.kron(I_left, op), I_right), a factor
    # 1 skipped, so signed zeros come out the same too
    for dims in ([2, 2, 2], [3, 4], [4], [2, 3, 2, 2], [1, 3, 1], [5, 1, 2], [4, 4, 4]):
        for slot, d in enumerate(dims):
            op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            op[0, 0], op[-1, 0], op[0, -1] = complex(-0.0, -0.0), complex(-1.5, 0.0), complex(0.0, -2.0)
            left, right = int(np.prod(dims[:slot])), int(np.prod(dims[slot + 1:]))
            expected = op
            if left > 1:
                expected = np.kron(np.eye(left, dtype=complex), expected)
            if right > 1:
                expected = np.kron(expected, np.eye(right, dtype=complex))
            out = place(op, slot, dims)
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes(), (dims, slot)


def test_place_slots_commute_exactly(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    pa = place(a, 0, [3, 4])
    pb = place(b, 1, [3, 4])
    assert np.array_equal(pa @ pb, pb @ pa)
    assert pa.shape == (12, 12)


def test_size_and_dimension_errors():
    with pytest.raises(InvalidSizeError):
        osc_q(1)
    with pytest.raises(InvalidSizeError):
        osc_p(0)
    with pytest.raises(InvalidSizeError):
        pos_q(1)
    with pytest.raises(InvalidSizeError):
        sylvester_f(1)
    for call in (lambda: dual_lattice_period(0), lambda: wrap_momentum(1.0, 1)):
        with pytest.raises(InvalidSizeError):
            call()
    with pytest.raises(DimensionMismatchError):
        place(np.eye(3), 0, [2, 2])
    with pytest.raises(DimensionMismatchError):
        place(np.eye(2), 5, [2, 2])


SIZED = {
    "osc_q": osc_q,
    "osc_p": osc_p,
    "osc_q2": osc_q2,
    "osc_p2": osc_p2,
    "pos_grid": pos_grid,
    "pos_q": pos_q,
    "sylvester_f": sylvester_f,
    "pos_p": pos_p,
    "momentum_state": lambda n: momentum_state(3, n),
    "vertex_amplitude": lambda n: vertex_amplitude(3, 0.5, 9, n),
    "vertex_scan": lambda n: vertex_scan(3, 9, n, [0.0]),
}


@pytest.mark.parametrize("name", [*SIZED, "dual_lattice_period"])
def test_sizes_above_the_register_cap_are_refused(name):
    # dense matrices stay at 512x512; 1e308 used to end in numpy's bare
    # "Maximum allowed size exceeded", or an infinite period
    call = SIZED.get(name, dual_lattice_period)
    call(512)
    for size in (513, 1e308):
        with pytest.raises(InvalidSizeError, match="must be <= 512"):
            call(size)


def test_place_dims_are_a_list_of_sizes_within_the_cap():
    for dims in (True, 4, "22", None):
        with pytest.raises(InvalidSizeError, match="dims must be a list of sizes"):
            place(np.eye(2), 0, dims)
    with pytest.raises(InvalidSizeError, match="span more than 512 dimensions"):
        place(np.eye(2), 0, [2, 1e300])
    assert place(np.eye(2), 1, [2, 2, 128]).shape == (512, 512)


@pytest.mark.parametrize("name", SIZED)
@pytest.mark.parametrize("size", [16.9, 16.5, 4.5, True, np.True_, float("nan"), float("inf"), "16"])
def test_non_integral_sizes_are_refused_not_truncated(name, size):
    with pytest.raises(InvalidSizeError, match=re.escape(repr(size))):
        SIZED[name](size)


@pytest.mark.parametrize("name", SIZED)
def test_integral_sizes_of_any_numeric_type_are_accepted(name):
    expected = SIZED[name](16)
    for size in (16.0, np.int64(16), np.float32(16.0)):
        np.testing.assert_array_equal(SIZED[name](size), expected)


_H = np.diag([0.3, -0.1, 0.7, 0.2]) + 0.1
_PSI = np.full(4, 0.5)

# caller-supplied counts and indices, each refused with the class its
# callers catch; the value 2 is valid for every entry
COUNTED = {
    "landau_energy level": (lambda v: landau_energy(2.0, v), ValueError),
    "polar_energy n": (lambda v: polar_energy(2.0, v, 0), ValueError),
    "momentum_state index": (lambda v: momentum_state(v, 16), IndexOutOfRangeError),
    "vertex_scan index": (lambda v: vertex_scan(v, 3, 16, [0.0, 1.3]), IndexOutOfRangeError),
    "ansatz n_qubits": (lambda v: ansatz_state(AnsatzConfig(n_qubits=v, depth=0), [0.4, 1.1]),
                        InvalidConfigError),
    "ansatz depth": (lambda v: ansatz_state(AnsatzConfig(n_qubits=2, depth=v), np.linspace(0, 1, 6)),
                     InvalidConfigError),
    "transition_series trotter_steps": (
        lambda v: transition_series(_H, _PSI, "all", [0.5], method="trotter", trotter_steps=v).amplitudes,
        ValueError),
    "place slot": (lambda v: place(np.eye(2), v, [2, 2, 2]), DimensionMismatchError),
    "place dims": (lambda v: place(np.eye(2), 0, [2, v]), InvalidSizeError),
    "qubits_of_dim": (qubits_of_dim, NotPowerOfTwoError),
    "dual_lattice_period n": (dual_lattice_period, InvalidSizeError),
    "wrap_momentum n": (lambda v: wrap_momentum(1.0, v), InvalidSizeError),
}


@pytest.mark.parametrize("name", COUNTED)
@pytest.mark.parametrize("value", [2.5, 1.5, True, np.True_, float("nan"), float("inf"), "2"])
def test_non_integral_counts_and_indices_are_refused_not_truncated(name, value):
    call, error = COUNTED[name]
    with pytest.raises(error, match=re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("name", COUNTED)
def test_integral_counts_and_indices_of_any_numeric_type_are_accepted(name):
    call, _ = COUNTED[name]
    expected = call(2)
    for value in (2.0, np.int64(2), np.float32(2.0)):
        np.testing.assert_array_equal(call(value), expected)
