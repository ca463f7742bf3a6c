import dataclasses
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from gaugesim.analytic import kernel_polar
from gaugesim.basis import pos_grid, pos_p, pos_q, sylvester_f
from gaugesim.errors import (
    DimensionMismatchError,
    GaugesimError,
    IndexOutOfRangeError,
    InvalidSizeError,
    InvalidTimesError,
    NotHermitianError,
    NotPowerOfTwoError,
    write_rows,
)
from scipy.linalg import expm

from gaugesim.evolution import (
    TransitionSeries,
    _apply_trotter,
    _evolver,
    _groups,
    _labels,
    dual_lattice_period,
    momentum_state,
    pauli_decompose,
    scattering_process,
    transition_series,
    vertex_amplitude,
    vertex_scan,
    wrap_momentum,
    write_transition_csv,
)
from gaugesim.hamiltonians import (
    VARIANTS,
    HamiltonianSpec,
    _grid_halves,
    build,
    build_landau_cartesian_position,
)
from gaugesim.operators import MAX_PHASE, _propagate, as_operator, hermitian_eig
from gaugesim.vqe import VqeResult, write_trace_csv

from conftest import (
    PAULI,
    apply_gates,
    butterfly_decompose,
    dense_grid_halves,
    exact_unitary,
    one_vertex_worldline,
    outer_vertex_scan,
    pair_trotter,
    pauli_matrix,
    per_string_trotter,
    pauli_reconstruct,
    random_hermitian,
    random_state,
    split_trotter,
    two_vertex_worldline,
)


# ------------------------------------------------------------ decomposition


def test_decompose_simple_cases():
    terms = pauli_decompose(PAULI["Z"])
    assert terms.terms == [("Z", 1.0)]
    terms = pauli_decompose(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert dict(terms.terms) == {"X": 1.0, "Z": 1.0}


def test_decompose_matches_trace_oracle(rng):
    # oracle: c_s = Tr(P_s H) / 2^n with materialized Pauli strings
    h = random_hermitian(rng, 4)
    terms = dict(pauli_decompose(h).terms)
    for a in "IXYZ":
        for b in "IXYZ":
            label = a + b
            c = np.trace(pauli_matrix(label) @ h).real / 4.0
            assert abs(terms.get(label, 0.0) - c) < 1e-12


def test_decompose_is_lexicographically_ordered(rng):
    h = random_hermitian(rng, 8)
    labels = [lab for lab, _ in pauli_decompose(h).terms]
    assert labels == sorted(labels)


def test_decompose_round_trip(rng):
    for n in (1, 2, 3):
        h = random_hermitian(rng, 2 ** n)
        rec = pauli_reconstruct(pauli_decompose(h))
        assert np.linalg.norm(rec - h) <= 1e-12 * np.linalg.norm(h)


def test_decompose_guards():
    with pytest.raises(NotPowerOfTwoError):
        pauli_decompose(np.eye(3))
    with pytest.raises(NotHermitianError):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_zero_qubit_operator_has_the_empty_label():
    h, ts = 2.5 * np.eye(1), [0.0, 0.5, -1.25]
    assert pauli_decompose(h).terms == [("", 2.5)]
    assert [x for x, _, _ in _groups(h)] == [0]
    trotter = transition_series(h, [1.0], "all", ts, method="trotter", trotter_steps=3)
    exact = transition_series(h, [1.0], "all", ts, method="exact")
    np.testing.assert_allclose(trotter.amplitudes, exact.amplitudes, rtol=0, atol=1e-14)
    np.testing.assert_allclose(exact.amplitudes[:, 0], np.exp(-2.5j * np.array(ts)), rtol=0, atol=1e-14)


def test_decompose_prunes_small_coefficients(rng):
    h = pauli_matrix("XZ") * 2.0 + np.eye(4) * 1e-15
    terms = pauli_decompose(h)
    assert [lab for lab, _ in terms.terms] == ["XZ"]


def _label(index, n_qubits):
    """One Pauli string, character by character: qubit q is base-4 digit
    n_qubits - 1 - q of ``index`` (0 I, 1 X, 2 Y, 3 Z)."""
    return "".join("IXYZ"[(index >> 2 * (n_qubits - 1 - q)) & 3] for q in range(n_qubits))


@pytest.mark.parametrize("n", range(1, 10))
def test_labels_match_one_label_at_a_time(n, rng):
    size = 4 ** n
    indices = np.arange(size) if size <= 4096 else np.concatenate(
        [[0, 1, size - 2, size - 1], np.sort(rng.choice(size, 2000, replace=False))])
    labels = _labels(indices, n)
    assert labels == [_label(int(i), n) for i in indices]
    assert all(type(lab) is str for lab in labels)


def test_decompose_keeps_plain_labels_and_floats(rng):
    terms = pauli_decompose(random_hermitian(rng, 8)).terms
    assert terms and all(type(lab) is str and type(c) is float for lab, c in terms)


def _builds_for_decompose():
    """(name, operator) for every builder: the Hermitian part of the two
    non-Hermitian monopole variants, which ``pauli_decompose`` refuses."""
    out = []
    for variant in VARIANTS:
        built = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant=variant,
                                      r_ref=1.0 if variant == "ScalarB" else None))
        out.append((variant, built if built.hermitian else 0.5 * (built.matrix + built.matrix.conj().T)))
    cart = HamiltonianSpec(kind="LandauCartesian", b_field=2.0)
    out += [("oscillator", build(cart)), ("grid", build_landau_cartesian_position(cart))]
    out += [(f"polar m={m}", build(HamiltonianSpec(kind="LandauPolar", b_field=2.0, angular_m=m)))
            for m in range(3)]
    return out


@pytest.mark.parametrize("n", range(1, 10))
def test_decompose_matches_butterfly_on_random_matrices(n):
    h = random_hermitian(np.random.default_rng(500 + n), 2 ** n)
    _assert_same_terms(pauli_decompose(h).terms, butterfly_decompose(h))


def test_decompose_matches_butterfly_on_every_builder():
    for name, h in _builds_for_decompose():
        _assert_same_terms(pauli_decompose(h).terms, butterfly_decompose(getattr(h, "matrix", h)), name)


def _assert_same_terms(terms, oracle, name=""):
    assert [lab for lab, _ in terms] == [lab for lab, _ in oracle], name
    got, want = (np.array([c for _, c in t]) for t in (terms, oracle))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name


def test_decompose_peak_memory():
    # the block transform peaked at 3.0 MB on the grid and 12.0 MB on the
    # 9-qubit monopole; and what a call leaves allocated is its result, not
    # a table of 4**n entries (a complex one is 1 MB and 4 MB here)
    grid = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    monopole = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart"))
    for built, block_transform_mb in ((grid, 3.0), (monopole, 12.0)):
        built.matrix  # a monopole build assembles its matrix on first read, kept with the build
        tracemalloc.start()
        try:
            terms = pauli_decompose(built)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block_transform_mb * 2 ** 20, (built.spec.variant, peak)
        assert kept <= 2 * 4 ** built.qubits, (built.spec.variant, kept, len(terms.terms))


# ----------------------------------------------------------------- trotter


def _trotter(h, t, n_steps, psi):
    """The first-order product [prod_x exp(-i H_x t/n)]**n applied to psi:
    the one row of a Trotter transition series at t into the whole basis."""
    return transition_series(h, psi, "all", [t], method="trotter", trotter_steps=n_steps).amplitudes[0]


def test_trotter_t0_identity(rng):
    h = random_hermitian(rng, 8)
    psi = random_state(rng, 8)
    np.testing.assert_allclose(_trotter(h, 0.0, 5, psi), psi, atol=1e-14)
    # a t = 0 row is psi itself, not stepped: bit for bit, signed zeros too
    psi[0] = complex(-0.0, -0.0)
    row = _apply_trotter(_groups(h), [0.0, 0.5], 3, psi)[0]
    assert np.array_equal(row, psi)
    assert np.array_equal(np.signbit(row.view(float)), np.signbit(psi.view(float)))


def test_trotter_single_term_exact(rng):
    h = 0.37 * pauli_matrix("XYZ")
    psi = random_state(rng, 8)
    approx = _trotter(h, 1.3, 1, psi)
    exact = exact_unitary(h, 1.3) @ psi
    np.testing.assert_allclose(approx, exact, atol=1e-10)
    # n_steps does not matter for a single term
    np.testing.assert_allclose(_trotter(h, 1.3, 17, psi), exact, atol=1e-10)


def test_trotter_first_order_on_toy_pair(rng):
    # H = 0.7 X + 0.4 Z: error vs exact scales ~ 1/n_steps (order 1.0 +- 0.2)
    h = 0.7 * PAULI["X"] + 0.4 * PAULI["Z"]
    psi = random_state(rng, 2)
    exact = exact_unitary(h, 1.0) @ psi
    errs = [np.linalg.norm(_trotter(h, 1.0, n, psi) - exact) for n in (8, 16, 32, 64)]
    orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(0.8 <= o <= 1.2 for o in orders)


def test_trotter_preserves_norm(rng):
    h = random_hermitian(rng, 16)
    psi = random_state(rng, 16)
    out = _trotter(h, 0.9, 7, psi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_trotter_landau_convergence(rng):
    built = build(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    psi = random_state(rng, 256)
    exact = exact_unitary(built.matrix, 0.5) @ psi
    errs = [np.linalg.norm(_trotter(built, 0.5, n, psi) - exact) for n in (25, 50, 100)]
    for e1, e2 in zip(errs, errs[1:]):
        assert 1.6 <= e1 / e2 <= 2.4


def _x_mask(label):
    return sum(1 << (len(label) - 1 - q) for q, ch in enumerate(label) if ch in "XY")


def _group_matrices(terms):
    """H_x per X-mask, ascending, summed from materialized Pauli strings."""
    out = {}
    for label, coeff in terms.terms:
        x = _x_mask(label)
        out[x] = out.get(x, 0) + coeff * pauli_matrix(label)
    return [out[x] for x in sorted(out)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_factor_is_exact_exponential(n):
    rng = np.random.default_rng(100 + n)
    h = random_hermitian(rng, 2 ** n)
    terms = pauli_decompose(h)
    assert any("Y" in label for label, _ in terms.terms)
    groups = _groups(h)
    oracles = _group_matrices(terms)
    assert [x for x, _, _ in groups] == sorted({_x_mask(lab) for lab, _ in terms.terms})
    eye = np.eye(2 ** n)
    for (x, src, d), h_x in zip(groups, oracles):
        rebuilt = np.zeros_like(h_x)
        rebuilt[np.arange(2 ** n), src] = d
        np.testing.assert_allclose(rebuilt, h_x, atol=1e-12)
        for t in (0.37, 2.9):
            factor = np.column_stack([_apply_trotter([(x, src, d)], [t], 1, col)[0] for col in eye])
            np.testing.assert_allclose(factor, expm(-1j * t * h_x), atol=1e-12)


def _oracle_input(case):
    """(h, psi) for the dense product oracle: a random 2**case matrix, or a build."""
    if isinstance(case, int):
        rng = np.random.default_rng(200 + case)
        h = random_hermitian(rng, 2 ** case)
    else:
        rng = np.random.default_rng(211)
        h = build({"oscillator": HamiltonianSpec(kind="LandauCartesian", b_field=2.0, boson_trunc=4),
                   "polar": HamiltonianSpec(kind="LandauPolar", b_field=2.0, angular_m=1),
                   "monopole": HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, boson_trunc=2,
                                               variant="HermitianPart")}[case])
    return h, random_state(rng, as_operator(h).shape[0])


@pytest.mark.parametrize("case", [1, 3, 5, "oscillator", "polar", "monopole"])
def test_trotter_step_is_ascending_mask_product(case):
    # a dense product of expm factors, one per X-mask group summed from the
    # materialized strings: independent of the per-group kernel and of pair_trotter
    h, psi = _oracle_input(case)
    terms = pauli_decompose(h)
    assert isinstance(case, str) or any("Y" in label for label, _ in terms.terms)
    t = 0.8
    for n_steps in (1, 3):
        step = np.eye(len(psi))
        for h_x in _group_matrices(terms):
            step = expm(-1j * t / n_steps * h_x) @ step
        expected = np.linalg.matrix_power(step, n_steps) @ psi
        np.testing.assert_allclose(_trotter(h, t, n_steps, psi), expected, atol=1e-12)


def test_group_counts():
    cart = HamiltonianSpec(kind="LandauCartesian", b_field=2.0)
    monopole = HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart")
    for built, count in ((build(cart), 17),
                         (build_landau_cartesian_position(cart), 31),
                         (build(monopole), 28)):
        assert len(_groups(built.matrix)) == count


def test_group_blocks_are_exactly_conjugate():
    # the position grid is Hermitian only to about 1e-15 bitwise; the groups
    # read its Hermitian part, so every pair block is conjugate bit for bit
    from gaugesim.hamiltonians import build_landau_cartesian_position

    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    assert not np.array_equal(built.matrix, built.matrix.conj().T)
    for x, src, d in _groups(built.matrix):
        assert np.array_equal(src, np.arange(256) ^ x)
        assert np.array_equal(d[src], d.conj())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_steps", [1, 3, 7])
def test_trotter_matches_pair_oracle(n, n_steps):
    rng = np.random.default_rng(300 + n)
    h = random_hermitian(rng, 2 ** n)
    assert any("Y" in label for label, _ in pauli_decompose(h).terms)
    psi = random_state(rng, 2 ** n)
    ts = [0.0, -0.45, 0.3, 1.7]
    groups = _groups(h)
    np.testing.assert_allclose(_apply_trotter(groups, ts, n_steps, psi),
                               pair_trotter(groups, ts, n_steps, psi), atol=1e-13)


def _grid(n, b_field):
    return build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=b_field,
                                                           boson_trunc=n))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("b_field", [0.0, 1.0, 2.0, 3.0, -2.5])
def test_grid_halves_sum_to_the_build_and_are_diagonal_in_the_dft(n, b_field):
    # the dense halves from the build's Kronecker terms sum to its matrix,
    # and the y half's block at each x index is F diag(e[ix]) F*
    built = _grid(n, b_field)
    h_a, h_b = dense_grid_halves(built.spec)
    scale = np.abs(built.matrix).max()
    assert np.abs(h_a + h_b - built.matrix).max() <= 1e-13 * scale
    dft, e = _grid_halves(built)
    blocks = h_b.reshape(n, n, n, n)
    for ix in range(n):
        assert np.abs(blocks[ix, :, ix, :] - (dft * e[ix]) @ dft.conj()).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("b_field", [-2.5, 0.0, 1.0, 1.37, 2.0, 2.9, 3.0, 7.5])
def test_grid_trotter_is_the_split_product_of_its_halves(n, b_field):
    # the grid build steps [exp(-i dt H_A) exp(-i dt H_B)]**steps, held to
    # the dense halves' expm product (no code shared with the DFT path)
    built = _grid(n, b_field)
    psi = random_state(np.random.default_rng(n), n * n)
    ts = [0.0, -0.45, 0.3, 1.7]
    for steps in (1, 7, 10, 100):
        got = transition_series(built, psi, "all", ts, method="trotter", trotter_steps=steps).amplitudes
        np.testing.assert_allclose(got, split_trotter(built.spec, psi, ts, steps), rtol=0, atol=1e-13)


def test_broken_correspondence_takes_the_general_path():
    # one x-register entry (and its conjugate) off its y-register partner,
    # or one entry on a mask that spans both registers: no longer a grid
    # build (it breaks the quarter-turn), and a plain matrix has no registers.
    # A copy with other entries that still commute with the quarter-turn
    # (twice H, H plus the potential x^2 + y^2, or H with 7936 entries one
    # ulp up) is a build but not the grid of its spec: it is stepped by its
    # own entries' groups
    built = _grid(16, 2.0)
    psi = random_state(np.random.default_rng(7), 256)
    ts = [0.0, 0.4, -0.9]
    a = 5 * 16 + 3
    for mask in (16, 17):
        matrix = built.matrix.copy()
        matrix[a, a ^ mask] += 1e-6
        matrix[a ^ mask, a] = matrix[a, a ^ mask].conjugate()
        with pytest.raises(GaugesimError, match="commute"):
            dataclasses.replace(built, entries=matrix[None])  # a dense build is its one block
    g = pos_grid(16)
    potential = np.diag(np.add.outer(g ** 2, g ** 2).ravel())
    ulp_up = dataclasses.replace(built, entries=built.entries * (1 + 2 ** -52))
    assert np.count_nonzero(ulp_up.entries != built.entries) == 7936
    for h in (built.matrix, dataclasses.replace(built, entries=2 * built.entries),
              dataclasses.replace(built, entries=(built.matrix + potential)[None]), ulp_up):
        assert _grid_halves(h) is None
        groups = _groups(h)
        series = transition_series(h, psi, "all", ts, method="trotter", trotter_steps=5)
        assert np.array_equal(series.amplitudes, _apply_trotter(groups, ts, 5, psi))
        np.testing.assert_allclose(series.amplitudes, pair_trotter(groups, ts, 5, psi), rtol=0, atol=1e-13)
    # a copy with the same entries is still the grid
    assert _grid_halves(dataclasses.replace(built)) is not None


def test_trotter_guards(rng):
    h = 0.3 * pauli_matrix("XI")
    with pytest.raises(DimensionMismatchError):
        _trotter(h, 0.1, 3, np.ones(8))
    with pytest.raises(ValueError):
        _trotter(h, 0.1, 0, np.ones(4))


@pytest.mark.parametrize("steps", [2.7, 0.5, True, False, np.bool_(True), -1, "3"])
def test_trotter_step_count_guards(rng, steps):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    with pytest.raises(ValueError, match=repr(steps)):
        transition_series(h, psi, "all", [0.5], method="trotter", trotter_steps=steps)
    with pytest.raises(ValueError, match=repr(steps)):
        scattering_process(h, 0.1, 0.2, 0.5, psi, method="trotter", trotter_steps=steps)


def test_trotter_steps_are_capped(rng):
    # a huge count used to run its steps for ever
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    # the message prints the value as given, not a 301-digit int
    with pytest.raises(ValueError, match=r"trotter_steps: must be <= 100000, got 1e\+300$"):
        transition_series(h, psi, "all", [0.5], method="trotter", trotter_steps=1e300)
    with pytest.raises(ValueError, match="trotter_steps: must be <= 100000"):
        scattering_process(h, 0.1, 0.2, 0.5, psi, method="trotter", trotter_steps=100001)


def test_trotter_integral_step_counts_accepted(rng):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    expected = _trotter(h, 1.0, 3, psi)
    for steps in (3.0, np.int64(3), np.float64(3.0)):
        assert np.array_equal(_trotter(h, 1.0, steps, psi), expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_times_refused(rng, bad):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    for method in ("exact", "trotter"):
        with pytest.raises(InvalidTimesError):
            transition_series(h, psi, "all", [0.0, bad], method=method)
    with pytest.raises(InvalidTimesError):
        scattering_process(h, 0.1, 0.0, bad, psi)


@pytest.mark.parametrize("bad", [True, False, np.True_, "0.5", 0.5j])
def test_bool_and_string_times_refused(rng, bad):
    # a float conversion would read these as t = 1, 0 or 0.5
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    named = re.escape(repr(bad))
    for method in ("exact", "trotter"):
        with pytest.raises(InvalidTimesError, match=named):
            transition_series(h, psi, "all", [0.0, bad], method=method)
    for tau, total_t in ((bad, 1.0), (0.0, bad)):
        with pytest.raises(InvalidTimesError, match=named):
            scattering_process(h, 0.1, tau, total_t, psi)


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", np.nan, np.inf, 0.5j])
def test_bool_string_and_nonfinite_momenta_refused(rng, bad):
    # a float conversion would read these as p2 = 1 or 0.5
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    named = re.escape(repr(bad))
    with pytest.raises(ValueError, match=named):
        vertex_amplitude(3, bad, 9, 16)
    with pytest.raises(ValueError, match=named):
        scattering_process(h, bad, 0.2, 1.0, psi)
    with pytest.raises(ValueError, match=f"p2 values: entry 1 is not a finite number, got {named}"):
        vertex_scan(3, 9, 16, [0.2, bad])
    if isinstance(bad, float):  # a float array takes the finiteness pass alone
        with pytest.raises(ValueError, match="p2 values"):
            vertex_scan(3, 9, 16, np.array([0.2, bad]))


def test_a_momentum_whose_phase_overflows_is_refused(rng):
    # one phase rule, |p2| max|x| <= MAX_PHASE, for every entry point that inserts
    # exp(i p2 X); at 1e308 the product overflows to inf, refused all the same
    n = 16
    edge = MAX_PHASE / np.abs(pos_grid(n)).max()
    h, psi = random_hermitian(rng, n), random_state(rng, n)
    for p2 in (0.999 * edge, -0.999 * edge, 0.0):
        assert np.isfinite(vertex_amplitude(1, p2, 2, n))
        assert np.isfinite(vertex_scan(1, 2, n, [0.0, p2])).all()
        assert np.isfinite(scattering_process(h, p2, 0.2, 1.0, psi)).all()
    for p2 in (1.001 * edge, -1.001 * edge, 1e300, 1e308):
        with pytest.raises(GaugesimError, match="vertex_amplitude: phase"):
            vertex_amplitude(1, p2, 2, n)
        with pytest.raises(GaugesimError, match="vertex_scan: phase"):
            vertex_scan(1, 2, n, [0.0, p2])
        with pytest.raises(GaugesimError, match="scattering_process: phase"):
            scattering_process(h, p2, 0.2, 1.0, psi)
    for bad in (np.nan, "1", None):
        with pytest.raises(ValueError, match=f"p2: expected a finite number, got {re.escape(repr(bad))}"):
            wrap_momentum(bad, 16)


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_an_evolution_phase_above_the_bound_is_refused(rng, method):
    # max|lambda| max|t| (exact) or max dt |d| (trotter) above MAX_PHASE: float64 cannot resolve it
    h = np.diag([1.0, -2.0, 0.5, 0.0]).astype(complex)
    psi = random_state(rng, 4)
    ok = transition_series(h, psi, "all", [0.0, 0.999 * MAX_PHASE / 2.0], method=method, trotter_steps=1)
    assert np.isfinite(ok.amplitudes).all()
    for t in (1.001 * MAX_PHASE / 2.0, 1e300):
        with pytest.raises(GaugesimError, match=f"{method} evolution: phase"):
            transition_series(h, psi, "all", [0.0, t], method=method, trotter_steps=1)
        with pytest.raises(GaugesimError, match=f"{method} evolution: phase"):
            scattering_process(h, 0.1, 0.0, t, psi, method=method, trotter_steps=1)


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_a_scalar_time_is_one_time(rng, method):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    one = transition_series(h, psi, "all", 0.7, method=method)
    assert one.ts.shape == (1,) and one.amplitudes.shape == (1, 4)
    assert np.array_equal(one.amplitudes, transition_series(h, psi, "all", [0.7], method=method).amplitudes)


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_time_grids_of_two_or_more_axes_refused(rng, method):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    for ts in ([[0.1, 0.2]], np.zeros((2, 1, 1))):
        with pytest.raises(InvalidTimesError, match="1-D"):
            transition_series(h, psi, "all", ts, method=method)


@pytest.mark.parametrize("method", ["exact", "trotter"])
@pytest.mark.parametrize("entry", ["psi_i", "psi_fs", "psi0"])
def test_a_state_not_of_shape_dim_refused(entry, method):
    # a matrix, a column, a scalar or a longer vector is refused by its shape,
    # never broadcast into extra axes of the amplitudes
    h = np.diag([1.0, 2.0])
    good = np.array([1.0, 0.0])
    calls = {"psi_i": lambda psi: transition_series(h, psi, "all", [0.0, 0.5], method=method),
             "psi_fs": lambda psi: transition_series(h, good, [good, psi], [0.0, 0.5], method=method),
             "psi0": lambda psi: scattering_process(h, 0.5, 0.2, 0.5, psi, method=method)}
    for psi in (np.eye(2), [[1.0], [0.0]], 1.0, np.ones(4)):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"shape {np.shape(psi)}")):
            calls[entry](psi)


@pytest.mark.parametrize("entry", ["psi_i", "psi_fs", "psi0"])
@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_a_state_entry_not_a_finite_number_refused(entry, method):
    # None and NaN used to read as NaN amplitudes, a string as numpy's bare
    # "malformed string", an int too large for a float as a bare
    # OverflowError; each is now a ValueError naming the state
    what = {"psi_i": "initial state", "psi_fs": "final state 1", "psi0": "initial state"}[entry]
    h = np.diag([1.0, 2.0])
    good = np.array([1.0, 0.0])
    calls = {"psi_i": lambda psi: transition_series(h, psi, "all", [0.0, 0.5], method=method),
             "psi_fs": lambda psi: transition_series(h, good, [good, psi], [0.0, 0.5], method=method),
             "psi0": lambda psi: scattering_process(h, 0.5, 0.2, 0.5, psi, method=method)}
    for psi in ([None, 1], [np.nan, 1], [np.inf, 0], [0, -np.inf], [1, complex(0, np.nan)],
                np.array([1.0, np.nan]), ["a", 1], ["1", 0], [True, 0], [10 ** 400, 0], [0, -10 ** 400]):
        with pytest.raises(ValueError, match=f"^{what}: entry "):
            calls[entry](psi)
    calls[entry]([1, 0j])  # ints and complex numbers are numbers


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_the_callers_state_is_left_unchanged(rng, method):
    # a complex state is read without a copy, so nothing may write into it
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    kept = psi.copy()
    transition_series(h, psi, [psi], [0.0, 0.5], method=method, trotter_steps=3)
    transition_series(h, psi, "all", [0.0, 0.5], method=method, trotter_steps=3)
    scattering_process(h, 0.7, 0.0, 0.5, psi, method=method, trotter_steps=3)
    scattering_process(h, 0.7, 0.2, 0.5, psi, method=method, trotter_steps=3)
    assert psi.tobytes() == kept.tobytes()


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_final_states_neither_all_nor_a_list_refused(rng, method):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    for bad in ("none", "All", 5, None):
        with pytest.raises(DimensionMismatchError, match="psi_fs must be 'all' or a list of states"):
            transition_series(h, psi, bad, [0.5], method=method)


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_an_empty_list_of_final_states_refused(rng, method):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    with pytest.raises(DimensionMismatchError, match="no final states"):
        transition_series(h, psi, [], [0.5], method=method)


def test_bool_time_arrays_refused(rng):
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    with pytest.raises(InvalidTimesError, match="evolution times: entry 0 is not a finite number, got False"):
        transition_series(h, psi, "all", [False, True, "0.5"])
    with pytest.raises(InvalidTimesError, match="evolution times: entry 0 is not a finite number, got False"):
        transition_series(h, psi, "all", np.array([False, True]))


# ------------------------------------------------------------- transitions


def test_transition_at_t0_is_overlap(rng):
    h = random_hermitian(rng, 8)
    psi_i = random_state(rng, 8)
    finals = [random_state(rng, 8) for _ in range(3)]
    series = transition_series(h, psi_i, finals, [0.0])
    for k, f in enumerate(finals):
        assert abs(series.amplitudes[0, k] - np.vdot(f, psi_i)) < 1e-12


@pytest.mark.parametrize("b_field", [1.0, 2.0, 3.0])
def test_exact_rows_at_t0_are_the_initial_state_bit_for_bit(b_field):
    # V exp(-i lambda 0) V^dag psi would leave rounding in the row (760
    # nonzero cells at B = 2 on the 16x16 grid, a centre probability of
    # 0.9999999999999996 at B = 1); both methods return psi itself there
    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=b_field))
    psi_i = np.zeros(256, dtype=complex)
    psi_i[8 * 16 + 8] = 1.0
    for method in ("exact", "trotter"):
        series = transition_series(built, psi_i, "all", [0.0, 0.5], method=method)
        assert series.amplitudes[0].tobytes() == psi_i.tobytes(), method
        assert np.count_nonzero(series.amplitudes[1]) > 1, method
    out = _propagate(hermitian_eig(built), psi_i, [0.0])
    assert not np.shares_memory(out, psi_i)


def test_transition_stationary_state(rng):
    h = random_hermitian(rng, 8)
    ground = hermitian_eig(h).vectors[:, 0]
    series = transition_series(h, ground, [ground], np.linspace(0, 2, 7))
    np.testing.assert_allclose(np.abs(series.amplitudes[:, 0]), 1.0, atol=1e-10)


def test_transition_probabilities_sum_to_one(rng):
    h = random_hermitian(rng, 16)
    psi_i = random_state(rng, 16)
    series = transition_series(h, psi_i, "all", np.linspace(0, 1, 5))
    sums = series.probabilities().sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-10)


def test_transition_trotter_agrees_with_exact_position_basis():
    # measured first-order magnitude of the X-mask grouped product at 100
    # steps on the 16x16 grid (B=2) is 1.2e-3 in probability; assert the
    # oracle-measured envelope
    from gaugesim.hamiltonians import build_landau_cartesian_position

    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    n = 16
    psi_i = np.zeros(256, dtype=complex)
    psi_i[(n // 2) * n + n // 2] = 1.0
    ts = np.linspace(0.0, 1.0, 6)
    exact = transition_series(built, psi_i, "all", ts, method="exact")
    trot = transition_series(built, psi_i, "all", ts, method="trotter", trotter_steps=100)
    dev = np.max(np.abs(exact.probabilities() - trot.probabilities()))
    assert dev < 5e-3
    # and it is first order: doubling the steps roughly halves the deviation
    trot2 = transition_series(built, psi_i, "all", ts, method="trotter", trotter_steps=200)
    dev2 = np.max(np.abs(exact.probabilities() - trot2.probabilities()))
    assert 1.6 <= dev / dev2 <= 2.4


def test_per_string_oracle_is_the_dense_string_product():
    # the per-string oracle against a dense product of one expm per
    # materialized string, in label order
    rng = np.random.default_rng(203)
    h, psi = random_hermitian(rng, 8), random_state(rng, 8)
    t = 0.8
    for n_steps in (1, 3):
        step = np.eye(8)
        for label, c in pauli_decompose(h).terms:
            step = expm(-1j * t / n_steps * c * pauli_matrix(label)) @ step
        expected = np.linalg.matrix_power(step, n_steps) @ psi
        np.testing.assert_allclose(per_string_trotter(h, psi, [t], n_steps)[0], expected, atol=1e-12)


@pytest.mark.parametrize("b, split, grouped, per_string", [
    (1.0, (2.501e-4, 0.0247), (1.203e-3, 0.042), (2.015e-3, 0.078)),
    (2.0, (2.434e-4, 0.0254), (1.141e-3, 0.065), (3.303e-3, 0.175)),
    (3.0, (3.247e-4, 0.0150), (2.382e-3, 0.087), (9.418e-3, 0.335))])
def test_grouped_product_against_the_per_string_circuit(b, split, grouped, per_string):
    # the README eoh config (16x16 grid, centre start, 11 times to t = 1, 100
    # steps): (max probability deviation, state error at t = 1) from the exact
    # propagator, for the split of the two register halves the CLI runs on
    # the build, for the grouped product of the same matrix as an array, and
    # for the paper's one exponential per Pauli string (281 strings)
    n = 16
    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=b, boson_trunc=n))
    psi0 = np.zeros(n * n, dtype=complex)
    psi0[(n // 2) * n + n // 2] = 1.0
    ts = np.linspace(0.0, 1.0, 11)
    exact = transition_series(built, psi0, "all", ts).amplitudes
    for states, pinned in ((transition_series(built, psi0, "all", ts, method="trotter").amplitudes, split),
                           (transition_series(built.matrix, psi0, "all", ts, method="trotter").amplitudes,
                            grouped),
                           (per_string_trotter(built, psi0, ts, 100), per_string)):
        dev = np.max(np.abs(np.abs(states) ** 2 - np.abs(exact) ** 2))
        error = np.linalg.norm(states[-1] - exact[-1])
        np.testing.assert_allclose([dev, error], pinned, rtol=0.05)


@pytest.mark.parametrize("t", [0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.5])
def test_grid_evolution_of_a_packet_matches_the_polar_kernel(t):
    # a real packet of width (B/2)^(-1/2) at (0.6, -0.3), B = 2, evolved
    # exactly on the 16x16 grid, against the quadrature
    # sum_i K(r_f, r_i; t) psi0(r_i) (ds/4)^2 of the analytic packet (with
    # the grid state's norm) on the lattice of step ds/4 through the grid
    # points, over the plane where it is above 1e-6 of its peak, at the 4
    # largest final amplitudes (up to 0.35): they agree to 5.8e-7 / 6.1e-7 /
    # 4.8e-7 / 1.2e-6 / 2.2e-6 / 2.5e-6 / 2.7e-6 at t = 0.3 / 0.4 / 0.5 /
    # 0.7 / 1 / 1.5 / 2.5.  Summed on the grid's own points the quadrature
    # misses by 3.0e-2 / 2.1e-3 / 5.5e-5 at t = 0.3 / 0.4 / 0.5: the kernel
    # oscillates faster than ds resolves at short times.  The 8x8 grid
    # misses the fine quadrature by 2.7e-4 at t = 0.3, and the kernel turned
    # the other way (phi_f - phi_i - B t / 2) by 0.075 to 0.23
    n, b = 16, 2.0
    grid = pos_grid(n)
    x, y = np.repeat(grid, n), np.tile(grid, n)  # index ix * n + iy
    packet = lambda x, y: np.exp(-(b / 4) * ((x - 0.6) ** 2 + (y + 0.3) ** 2))
    psi0 = packet(x, y)
    norm = np.linalg.norm(psi0)
    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=b, boson_trunc=n))
    final = transition_series(built, psi0 / norm, "all", [t]).amplitudes[0]
    step = (grid[1] - grid[0]) / 4
    fine = grid[0] + step * np.arange(-8, 4 * n + 5)  # two grid steps past either end
    fx, fy = np.repeat(fine, len(fine)), np.tile(fine, len(fine))
    weights = packet(fx, fy)
    keep = weights > 1e-6 * weights.max()
    sources = list(zip(np.hypot(fx, fy)[keep], np.arctan2(fy, fx)[keep], step ** 2 * weights[keep] / norm))
    for f in np.argsort(-np.abs(final))[:4]:
        rho_f, phi_f = np.hypot(x[f], y[f]), np.arctan2(y[f], x[f])
        quadrature = sum(kernel_polar(rho, phi, rho_f, phi_f, t, b) * w for rho, phi, w in sources)
        assert abs(quadrature - final[f]) < 1e-4, f


#: The momenta k of the one-vertex check, |k| <= 1.5.
VERTEX_MOMENTA = [(0.5, 0.0), (1.0, 0.0), (0.7, 0.7), (0.0, 1.5)]


def _one_vertex_miss(n, b_field, green_field, total_t=1.0):
    """max |R - oracle| over ``VERTEX_MOMENTA`` and tau in {T/4, T/2, 3T/4} for
    R = <c| e^{-(T - tau) H} V_k e^{-tau H} |c> / <c| e^{-T H} |c>, with H the
    n x n grid build at ``b_field``, V_k = exp(i k.x) diagonal on the grid and
    c the grid index (n/2) n + n/2; the oracle's Green's function is taken at
    ``green_field``."""
    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=b_field, boson_trunc=n))
    es = hermitian_eig(built)
    grid = pos_grid(n)
    x, y = np.repeat(grid, n), np.tile(grid, n)  # index ix * n + iy
    c = (n // 2) * n + n // 2
    ket = es.vectors.conj()[c]  # <m|c>
    ret = (es.vectors[c] * np.exp(-total_t * es.values)) @ ket  # <c| e^{-T H} |c>
    miss = 0.0
    for tau in (total_t / 4, total_t / 2, 3 * total_t / 4):
        after = (es.vectors[c] * np.exp(-(total_t - tau) * es.values)) @ es.vectors.conj().T  # <c| e^{-(T-tau)H}
        before = es.vectors @ (np.exp(-tau * es.values) * ket)  # e^{-tau H} |c>
        for k in VERTEX_MOMENTA:
            ratio = after @ (np.exp(1j * (k[0] * x + k[1] * y)) * before) / ret
            oracle = one_vertex_worldline(k, (x[c], y[c]), green_field, tau, total_t)
            miss = max(miss, abs(ratio - oracle))
    return miss


@pytest.mark.parametrize("b_field", [0.0, 1.0, 2.0, 3.0])
def test_one_vertex_in_the_field_matches_the_worldline_green_function(b_field):
    # a vertex exp(i k.x) inserted at proper time tau into the Euclidean
    # evolution of the 16x16 grid, between fixed endpoints c: the constant-
    # field worldline path integral is Gaussian, so the ratio is
    # exp(i k.c) exp(-|k|^2 g_B(tau) / 2) (``bridge_green``).  Measured
    # misses 5.4e-5 / 8.3e-5 / 1.8e-4 / 5.1e-4 at B = 0 / 1 / 2 / 3.  The
    # field-blind g_0 misses by 4.4e-3 / 1.6e-2 / 3.4e-2 at B = 1 / 2 / 3,
    # and the coarser 8x8 grid by 8.6e-3 to 1.7e-2.
    assert _one_vertex_miss(16, b_field, b_field) <= 1e-3
    if b_field:
        assert _one_vertex_miss(16, b_field, 0.0) > 1e-3
    assert _one_vertex_miss(8, b_field, b_field) > 1e-3


#: The momentum pairs (k1, k2) of the two-vertex check, |k| <= 1, at angles
#: to each other, where the field's antisymmetric part of G_B shows.
VERTEX_PAIRS = [((0.5, 0.0), (0.0, 0.5)), ((1.0, 0.0), (0.0, -1.0)),
                ((0.7, 0.7), (-0.7, 0.7)), ((0.6, -0.8), (0.8, 0.6))]


def _two_vertex_miss(n, b_field, oracle_field, total_t=1.0):
    """max |R - oracle| over ``VERTEX_PAIRS`` and (tau1, tau2) in
    {(0.25, 0.75), (0.3, 0.5)} T for
    R = <c| e^{-(T-tau2)H} V_k2 e^{-(tau2-tau1)H} V_k1 e^{-tau1 H} |c> / <c| e^{-TH} |c>,
    with H the n x n grid build at ``b_field``, V_k = exp(i k.x) and c the grid
    index (n/2) n + n/2; the oracle is ``two_vertex_worldline`` at ``oracle_field``."""
    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=b_field, boson_trunc=n))
    es = hermitian_eig(built)
    grid = pos_grid(n)
    x, y = np.repeat(grid, n), np.tile(grid, n)  # index ix * n + iy
    c = (n // 2) * n + n // 2

    def euclidean(d):
        return (es.vectors * np.exp(-d * es.values)) @ es.vectors.conj().T

    ret = euclidean(total_t)[c, c]
    miss = 0.0
    for tau1, tau2 in ((0.25 * total_t, 0.75 * total_t), (0.3 * total_t, 0.5 * total_t)):
        first, middle, last = euclidean(tau1)[:, c], euclidean(tau2 - tau1), euclidean(total_t - tau2)[c]
        for k1, k2 in VERTEX_PAIRS:
            v1, v2 = (np.exp(1j * (k[0] * x + k[1] * y)) for k in (k1, k2))
            ratio = last @ (v2 * (middle @ (v1 * first))) / ret
            oracle = two_vertex_worldline(k1, k2, (x[c], y[c]), oracle_field, tau1, tau2, total_t)
            miss = max(miss, abs(ratio - oracle))
    return miss


@pytest.mark.parametrize("b_field", [0.0, 1.0, 2.0, 3.0])
def test_two_vertices_in_the_field_match_the_mehler_kernel_gaussian(b_field):
    # two vertices exp(i k1.x) and exp(i k2.x) inserted at proper times
    # tau1 < tau2 into the Euclidean evolution of the 16x16 grid between
    # fixed endpoints c, against the Gaussian integral of the Euclidean
    # Mehler kernel over the two vertex points (``two_vertex_worldline``).
    # Unlike one vertex this reads the antisymmetric, field-odd part of the
    # worldline Green's function, so it fixes the build's orientation.
    # Measured misses 2.7e-5 / 4.1e-5 / 1.0e-4 / 2.8e-4 at B = 0 / 1 / 2 / 3;
    # the oracle at -B (the field turned the other way) misses by
    # 2.5e-2 / 4.7e-2 / 6.4e-2 at B = 1 / 2 / 3, and the 8x8 grid by
    # 5.3e-3 to 8.6e-3.
    assert _two_vertex_miss(16, b_field, b_field) <= 1e-3
    if b_field:
        assert _two_vertex_miss(16, b_field, -b_field) > 1e-3
    assert _two_vertex_miss(8, b_field, b_field) > 1e-3


def test_transition_series_batched_matches_single_calls(rng):
    h = random_hermitian(rng, 8)
    psi_i = random_state(rng, 8)
    ts = [0.0, 0.3, 0.9]
    # for "all" the amplitudes are the evolved states themselves, bit for bit
    series = transition_series(h, psi_i, "all", ts, method="trotter", trotter_steps=20)
    for j, t in enumerate(ts):
        assert np.array_equal(series.amplitudes[j], _trotter(h, t, 20, psi_i))
    exact = transition_series(h, psi_i, "all", ts, method="exact")
    assert np.array_equal(exact.amplitudes, _propagate(hermitian_eig(h), psi_i, ts))


def test_exact_series_sizes_a_build_without_its_matrix():
    # a build is sized by its dim: the exact path solves the HermitianPart
    # monopole's sector blocks, so its 512x512 matrix is never assembled
    # (the traced numpy peak of this call fell from 12.3 to 8.3 MiB)
    spec = HamiltonianSpec(kind="MonopoleSU2", variant="HermitianPart", boson_trunc=4)
    built = dataclasses.replace(build(spec))
    series = transition_series(built, np.eye(built.dim)[0], "all", np.linspace(0.0, 1.0, 11), method="exact")
    assert series.amplitudes.shape == (11, 512)
    assert "matrix" not in vars(built)


def test_transition_csv(tmp_path, rng):
    h = random_hermitian(rng, 4)
    psi_i = random_state(rng, 4)
    series = transition_series(h, psi_i, "all", [0.0, 0.5])
    path = tmp_path / "series.csv"
    write_transition_csv(series, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t," + ",".join(f"re_{k},im_{k},prob_{k}" for k in range(4))
    assert len(lines) == 3

    # the prob cells are probabilities(), the scalar abs(a) ** 2 bit for bit
    amps = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    wide = TransitionSeries(ts=np.arange(64.0), amplitudes=amps, labels=list(range(64)))
    probs = wide.probabilities()
    assert all(p == abs(a) ** 2 for p, a in zip(probs.ravel(), amps.ravel()))
    write_transition_csv(wide, path)
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=1)[:, 3::3], probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_csv_writer_refuses_non_finite_cells(tmp_path, bad):
    # write_rows refuses before it opens the file, so no writer leaves one
    table = np.array([[0.0, 1.0], [2.0, bad]])
    series = TransitionSeries(ts=np.array([0.0, 0.5]), amplitudes=np.array([[1.0], [bad]]), labels=[0])
    trace = VqeResult(energy=-1.0, params=np.zeros(1), trace=[(0, 0.5), (1, bad)],
                      trace_evaluations=[1, 2], evaluations=2, converged=False)
    writers = [lambda path: write_rows(path, "a,b", table),
               lambda path: write_transition_csv(series, path),
               lambda path: write_trace_csv(trace, path)]
    for k, write in enumerate(writers):
        path = tmp_path / f"out{k}.csv"
        with pytest.raises(GaugesimError, match="nothing written"):
            write(path)
        assert not path.exists()


def test_row_writer_matches_str_format_bytes(tmp_path):
    # -0.0, the smallest subnormal, a huge value, an integral float and
    # ordinary ones: %-formatting writes the bytes str.format wrote
    table = np.array([[-0.0, 5e-324, 1e308, 3.0],
                      [0.1, -2.5e-17, np.pi, 1.0 / 3.0],
                      [123456789.0, -1e-300, 2.0 ** 0.5, 0.0]])
    path = tmp_path / "rows.csv"
    write_rows(path, "a,b,c,d", table)
    row = ",".join(["{:.17g}"] * 4) + "\n"
    expected = "a,b,c,d\n" + "".join(row.format(*cells) for cells in table.tolist())
    assert path.read_bytes() == expected.encode("utf-8")


# ------------------------------------------------------- momentum / vertex


@pytest.mark.parametrize("n", [4, 16, 256])
def test_vertex_insertion_is_a_product_of_single_z_phases(n):
    # the paper's claim: on the grid X = -s sum_b 2**b Z_b exactly, so
    # exp(i p2 X) is log2 n single-qubit Z-rotation phases and needs no CNOT
    s = np.sqrt(2.0 * np.pi / (4.0 * n))
    q = n.bit_length() - 1
    labels = ["I" * (q - 1 - b) + "Z" + "I" * b for b in range(q)]  # bit b is label character q-1-b
    coeffs = dict(pauli_decompose(pos_q(n)).terms)
    assert sorted(coeffs) == sorted(labels)
    c = np.array([coeffs[label] for label in labels])
    assert np.max(np.abs(c + s * 2.0 ** np.arange(q))) <= 1e-12 * s
    j = np.arange(n)
    z = 1 - 2 * ((j[:, None] >> np.arange(q)) & 1)  # [j, b]: the Z_b eigenvalue of basis state j
    for p2 in (-3.7, 0.25, 1.0, 11.5):
        phases = np.prod(np.exp(1j * p2 * c * z), axis=1)
        assert np.max(np.abs(phases - np.exp(1j * p2 * pos_grid(n)))) <= 1e-12


@pytest.mark.parametrize("q", range(1, 10))
def test_vertex_is_a_global_phase_times_one_phase_gate_per_bit(q):
    # x_a = s (2a - (n - 1)), so exp(i p X) = exp(-i p s (n - 1)) times the
    # phase gates P(2**(b+1) p s) on bit b: on the grid points, and between
    # momentum states, where it is vertex_amplitude (measured within
    # 2.2e-14 and 1.0e-14 up to 9 qubits)
    n = 2 ** q
    s = np.sqrt(2.0 * np.pi / (4.0 * n))
    for p in (-3.7, 0.25, 1.0, 2.9):
        gates = [("p", b, 2 ** (b + 1) * p * s) for b in range(q)]
        phase = np.exp(-1j * p * s * (n - 1))
        diagonal = phase * apply_gates(gates, q, np.ones(n))[:, 0]
        assert np.abs(diagonal - np.exp(1j * p * pos_grid(n))).max() <= 1e-13
        for k1, k3 in ((0, n - 1), (n // 2, n // 4), (n - 1, n - 1)):
            amp = phase * np.vdot(momentum_state(k1, n), apply_gates(gates, q, momentum_state(k3, n))[:, 0])
            assert abs(amp - vertex_amplitude(k1, p, k3, n)) <= 1e-13, (k1, k3)


def test_momentum_states_orthonormal_eigenvectors():
    n = 16
    grid = pos_grid(n)
    p = pos_p(n)
    for k in (0, 3, 8, 15):
        state = momentum_state(k, n)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        np.testing.assert_allclose(p @ state, grid[k] * state, atol=1e-10)
    overlap = np.vdot(momentum_state(2, n), momentum_state(7, n))
    assert abs(overlap) < 1e-12
    with pytest.raises(IndexOutOfRangeError):
        momentum_state(16, 16)


@pytest.mark.parametrize("n", [2, 4, 16, 256, 512])
def test_momentum_state_is_the_conjugate_sylvester_column_bit_for_bit(n):
    columns = np.conj(sylvester_f(n))
    for k in range(n):
        assert np.array_equal(momentum_state(k, n), columns[:, k]), k
    # the size is refused before the index is compared with it
    with pytest.raises(InvalidSizeError, match="basis size"):
        momentum_state(n, 1)


def test_vertex_amplitude_identity_at_zero_momentum():
    n = 16
    assert abs(vertex_amplitude(5, 0.0, 5, n) - 1.0) < 1e-12
    assert abs(vertex_amplitude(4, 0.0, 9, n)) < 1e-12


def test_vertex_amplitude_exact_shift():
    n = 16
    grid = pos_grid(n)
    for k1, k3 in ((0, 5), (3, 3), (12, 2), (15, 0)):
        p2 = grid[k3] - grid[k1]
        assert abs(abs(vertex_amplitude(k1, p2, k3, n)) - 1.0) < 1e-10
        for k1bad in ((k1 + 1) % n, (k1 + 7) % n):
            assert abs(vertex_amplitude(k1bad, p2, k3, n)) < 1e-10


def test_vertex_scan_peak_and_wrapping():
    n = 16
    grid = pos_grid(n)
    period = dual_lattice_period(n)
    p2s = np.linspace(-period / 2, period / 2, 16 * n, endpoint=False)
    for k1, k3 in ((2, 9), (9, 2), (0, 15)):
        amps = vertex_scan(k1, k3, n, p2s)
        predicted = wrap_momentum(grid[k3] - grid[k1], n)
        assert abs(p2s[int(np.argmax(amps))] - predicted) < 1e-9
        assert abs(np.max(amps) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [16, 256])
def test_vertex_scan_matches_outer_product_oracle(n):
    period = dual_lattice_period(n)
    p2s = np.linspace(-period / 2, period / 2, 4 * n)
    for k1, k3 in ((3, 9), (0, n - 1), (5, 5)):
        amps = vertex_scan(k1, k3, n, p2s)
        np.testing.assert_allclose(amps, outer_vertex_scan(k1, k3, n, p2s), rtol=0, atol=1e-12)


def _direct_vertex_sum(k1: int, k3: int, n: int, p2: float) -> complex:
    """(1/n) sum_j exp(i (s^2 o_j (o_k1 - o_k3) + p2 s o_j)), o_j = 2j + 1 - n, term by term at 40 digits."""
    with mpmath.workdps(40):
        s = mpmath.sqrt(2 * mpmath.pi / (4 * n))
        o = [2 * j + 1 - n for j in range(n)]
        total = mpmath.fsum(mpmath.expj(s * s * oj * (o[k1] - o[k3]) + mpmath.mpf(p2) * s * oj) for oj in o)
        return complex(total / n)


VERTEX_KERNEL_TOL = 2e-14


@pytest.mark.parametrize("n", [2, 3, 5, 12, 16, 100, 255, 256])
def test_vertex_kernel_matches_the_direct_sum_at_40_digits(n):
    # random p2 over +-3 periods, the aliased peaks x_k3 - x_k1 + m pi/s and one ulp either
    # side of them: sin(n phi) / (n sin phi) without its reduction of phi by m pi misses by
    # up to 0.84 at those peaks; the closed form misses by at most 7.1e-15 on these points
    rng = np.random.default_rng(n)
    grid, period = pos_grid(n), dual_lattice_period(n)
    for k1, k3 in ((0, n - 1), (n - 1, 0), (n // 3, n // 2)):
        peaks = grid[k3] - grid[k1] + np.arange(-2, 3) * period
        p2s = np.concatenate([rng.uniform(-3 * period, 3 * period, 16), peaks,
                              np.nextafter(peaks, np.inf), np.nextafter(peaks, -np.inf)])
        direct = np.array([_direct_vertex_sum(k1, k3, n, p2) for p2 in p2s])
        signed = np.array([vertex_amplitude(k1, p2, k3, n) for p2 in p2s])
        assert not signed.imag.any()  # the amplitude is real
        assert np.max(np.abs(signed - direct)) <= VERTEX_KERNEL_TOL, (k1, k3)
        assert np.max(np.abs(vertex_scan(k1, k3, n, p2s) - np.abs(direct))) <= VERTEX_KERNEL_TOL, (k1, k3)


def test_vertex_scan_takes_any_p2_list(rng):
    # unsorted, unevenly spaced, repeated and far outside one period
    p2s = np.concatenate([rng.uniform(-40.0, 40.0, 50), [0.0, 0.0, 1e-9, -7.25]])
    np.testing.assert_allclose(vertex_scan(2, 11, 16, p2s), outer_vertex_scan(2, 11, 16, p2s),
                               rtol=0, atol=1e-12)
    assert vertex_scan(2, 11, 16, [0.37]).shape == vertex_scan(2, 11, 16, 0.37).shape == (1,)
    assert abs(vertex_scan(2, 11, 16, [0.37])[0] - abs(vertex_amplitude(2, 0.37, 11, 16))) < 1e-12


def test_vertex_amplitude_unitarity():
    n = 16
    for p2 in (0.0, 0.37, 2.2):
        total = sum(abs(vertex_amplitude(k1, p2, 3, n)) ** 2 for k1 in range(n))
        assert abs(total - 1.0) < 1e-10


def test_vertex_amplitude_periodicity():
    n = 8
    period = dual_lattice_period(n)
    a = vertex_amplitude(1, 0.7, 5, n)
    b = vertex_amplitude(1, 0.7 + period, 5, n)
    assert abs(abs(a) - abs(b)) < 1e-12


# -------------------------------------------------------------- scattering


def _free_position_h(n):
    p = pos_p(n)
    return 0.5 * (p @ p)


def test_scattering_zero_momentum_is_plain_evolution(rng):
    h = _free_position_h(16)
    psi0 = random_state(rng, 16)
    out = scattering_process(h, 0.0, 0.4, 1.0, psi0)
    exact = exact_unitary(h, 1.0) @ psi0
    np.testing.assert_allclose(out, exact, atol=1e-10)


def test_scattering_endpoint_limits(rng):
    h = _free_position_h(16)
    psi0 = random_state(rng, 16)
    phase = np.exp(1j * 0.8 * pos_grid(16))
    early = scattering_process(h, 0.8, 0.0, 1.0, psi0)
    np.testing.assert_allclose(early, exact_unitary(h, 1.0) @ (phase * psi0), atol=1e-10)
    late = scattering_process(h, 0.8, 1.0, 1.0, psi0)
    np.testing.assert_allclose(late, phase * (exact_unitary(h, 1.0) @ psi0), atol=1e-10)


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_scattering_zero_time_leg_is_the_state_itself(rng, method):
    # a leg of zero time returns its state bit for bit, so at tau = 0 and at
    # tau = T the process is one evolution and the vertex, byte for byte
    h = _free_position_h(16)
    psi0 = random_state(rng, 16)
    phase = np.exp(1j * 0.8 * pos_grid(16))
    evolve = _evolver(h, method, 7)
    cases = {(0.0, 1.0): evolve(phase * psi0, [1.0])[0],
             (1.0, 1.0): phase * evolve(psi0, [1.0])[0],
             (0.0, 0.0): phase * psi0}
    for (tau, total_t), expected in cases.items():
        out = scattering_process(h, 0.8, tau, total_t, psi0, method=method, trotter_steps=7)
        assert out.tobytes() == expected.tobytes(), (tau, total_t)


def test_scattering_unitary(rng):
    h = _free_position_h(16)
    psi0 = random_state(rng, 16)
    out = scattering_process(h, 1.3, 0.6, 1.0, psi0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_scattering_trotter_mode_close_to_exact(rng):
    h = _free_position_h(16)
    psi0 = random_state(rng, 16)
    exact = scattering_process(h, 0.9, 0.5, 1.0, psi0)
    trot = scattering_process(h, 0.9, 0.5, 1.0, psi0, method="trotter", trotter_steps=400)
    assert np.linalg.norm(exact - trot) < 5e-2


@pytest.mark.parametrize("k1, k3, p2", [(3, 9, 0.7), (0, 15, -1.3), (5, 5, 2.1)])
def test_scattering_between_momentum_states_at_every_tau(k1, k3, p2):
    # on H = P^2 / 2 the momentum states are eigenstates, E_k = x_k^2 / 2, so
    # <p3| U(T - tau) e^{i p2 X} U(tau) |p1> = e^{-i E1 tau} e^{-i E3 (T - tau)} <p3| e^{i p2 X} |p1>
    # (measured to 7.3e-16); with the legs swapped, (3, 9) misses by 0.045, while
    # (0, 15) and (5, 5) have E1 == E3 and cannot tell the legs apart
    n, total_t = 16, 1.0
    energy = 0.5 * pos_grid(n) ** 2
    for tau in (0.0, 0.2, 0.5, 0.9, 1.0):
        out = scattering_process(_free_position_h(n), p2, tau, total_t, momentum_state(k1, n))
        expected = (np.exp(-1j * energy[k1] * tau) * np.exp(-1j * energy[k3] * (total_t - tau))
                    * vertex_amplitude(k3, p2, k1, n))
        assert abs(np.vdot(momentum_state(k3, n), out) - expected) < 1e-12, tau


_ONE_DECOMPOSITION = {
    "scattering": lambda h, psi, method: scattering_process(h, 0.9, 0.4, 1.0, psi, method=method,
                                                            trotter_steps=50),
    "transition_series": lambda h, psi, method: transition_series(
        h, psi, "all", [0.0, 0.4], method=method, trotter_steps=50).amplitudes[1],
}


@pytest.mark.parametrize("call, method, counted", [
    pytest.param("scattering", "exact", "hermitian_eig", id="exact-hermitian_eig"),
    pytest.param("scattering", "trotter", "pauli_decompose", id="trotter-pauli_decompose"),
    pytest.param("transition_series", "trotter", "pauli_decompose",
                 id="transition_series-pauli_decompose"),
])
def test_scattering_decomposes_once(rng, monkeypatch, call, method, counted):
    # one decomposition per call, each leg and time included
    import gaugesim.evolution as evolution

    original = getattr(evolution, counted)
    calls = []
    monkeypatch.setattr(evolution, counted, lambda *a, **k: calls.append(1) or original(*a, **k))
    h = _free_position_h(16)
    psi0 = random_state(rng, 16)
    out = _ONE_DECOMPOSITION[call](h, psi0, method)
    assert len(calls) == 1
    # reference: each leg evolved on its own, by expm or from a fresh decomposition
    phase = np.exp(1j * 0.9 * pos_grid(16))
    groups = _groups(h)
    if call != "scattering":
        expected = pair_trotter(groups, [0.4], 50, psi0)[0]
    elif method == "exact":
        expected = exact_unitary(h, 0.6) @ (phase * (exact_unitary(h, 0.4) @ psi0))
    else:
        expected = pair_trotter(groups, [0.6], 50, phase * pair_trotter(groups, [0.4], 50, psi0)[0])[0]
    np.testing.assert_allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("method", ["exact", "trotter"])
@pytest.mark.parametrize("position", [True, False], ids=["grid", "oscillator"])
def test_scattering_refuses_a_build(method, position):
    # the vertex is exp(i p2 pos_grid(dim)), the 1-D grid of dim points, on
    # which no build lives: at the 16x16 grid's centre (index 136) it used to
    # phase by exp(0.5i pos_grid(256)[136]), where the grid's x is 0.3133, and
    # the oscillator's |0,0> by -0.8459+0.5334i; a fresh build is refused
    # before its matrix is assembled
    spec = HamiltonianSpec(kind="LandauCartesian", b_field=2.0)
    built = dataclasses.replace(build_landau_cartesian_position(spec) if position else build(spec))
    psi = np.eye(built.dim)[136 if position else 0]
    with pytest.raises(GaugesimError, match="scattering_process: the LandauCartesian build is not on the 1-D "
                                            "position grid"):
        scattering_process(built, 0.5, 0.0, 1.0, psi, method=method, trotter_steps=4)
    assert "matrix" not in vars(built)


def test_scattering_time_guard(rng):
    h = _free_position_h(4)
    with pytest.raises(InvalidTimesError):
        scattering_process(h, 0.1, 1.5, 1.0, random_state(rng, 4))


# ------------------------------------------------------- Hermiticity intake


def _whole_matrix_checks(monkeypatch, dim):
    """Record every ``operators.herm_defect`` call on a dim x dim matrix."""
    import gaugesim.operators as operators

    original = operators.herm_defect
    calls = []

    def counted(a):
        if np.shape(a)[-2:] == (dim, dim):
            calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(operators, "herm_defect", counted)
    return calls


_EVOLUTIONS = {
    "exact": lambda h, psi: transition_series(h, psi, "all", [0.0, 0.5]).amplitudes,
    "trotter": lambda h, psi: transition_series(h, psi, "all", [0.0, 0.5], method="trotter",
                                                trotter_steps=10).amplitudes,
    "scattering-exact": lambda h, psi: scattering_process(h, 0.9, 0.2, 0.5, psi),
    "scattering-trotter": lambda h, psi: scattering_process(h, 0.9, 0.2, 0.5, psi, method="trotter",
                                                            trotter_steps=10),
}


@pytest.mark.parametrize("call", _EVOLUTIONS)
def test_a_build_is_not_checked_again_and_an_array_once(monkeypatch, call):
    # the README eoh build: its builder set ``hermitian``, so no entry point
    # checks its 256x256 matrix again; the same matrix as an array is checked once
    from gaugesim.hamiltonians import build_landau_cartesian_position

    # scattering_process refuses a build (no build lives on its vertex's 1-D
    # grid) before any check; the same matrix as an array it cannot tell apart
    built = build_landau_cartesian_position(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    psi = np.zeros(256, dtype=complex)
    psi[8 * 16 + 8] = 1.0
    calls = _whole_matrix_checks(monkeypatch, 256)
    results = []
    if call.startswith("scattering"):
        with pytest.raises(GaugesimError, match="build is not on the 1-D position grid"):
            _EVOLUTIONS[call](built, psi)
    else:
        results.append(_EVOLUTIONS[call](built, psi))
    assert calls == []
    results.append(_EVOLUTIONS[call](built.matrix, psi))
    assert len(calls) == 1
    if "trotter" in call:
        # the build steps the split of its two register halves, held to the
        # dense split oracle; the array the grouped product, held to the pair oracle
        groups, vertex = _groups(built), np.exp(1j * 0.9 * pos_grid(256))
        expected = (pair_trotter(groups, [0.3], 10, vertex * pair_trotter(groups, [0.2], 10, psi)[0])[0]
                    if call.startswith("scattering") else pair_trotter(groups, [0.0, 0.5], 10, psi))
        np.testing.assert_allclose(results.pop(), expected, rtol=0, atol=1e-13)
        for result in results:
            np.testing.assert_allclose(result, split_trotter(built.spec, psi, [0.0, 0.5], 10), rtol=0, atol=1e-13)
        return
    # exact: the build solves its four quarter-turn sectors, the array goes
    # to one dense eigh, so each is held to the expm oracle instead
    phase = np.exp(1j * 0.9 * pos_grid(256))  # the vertex as scattering_process inserts it
    expected = (exact_unitary(built.matrix, 0.3) @ (phase * (exact_unitary(built.matrix, 0.2) @ psi))
                if call.startswith("scattering") else
                np.stack([psi, exact_unitary(built.matrix, 0.5) @ psi]))
    for result in results:
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)


def test_a_build_flagged_non_hermitian_is_refused_by_its_flag():
    from gaugesim.circuits import AnsatzConfig
    from gaugesim.vqe import minimize

    literal = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0))
    assert not literal.hermitian
    for call in (pauli_decompose, hermitian_eig, lambda b: minimize(b, AnsatzConfig(9, depth=1))):
        with pytest.raises(NotHermitianError):
            call(literal)
