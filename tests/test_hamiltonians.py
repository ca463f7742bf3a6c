import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from gaugesim.basis import osc_p, osc_p2, osc_q, osc_q2, place, pos_grid, pos_q
from gaugesim.errors import GaugesimError, InvalidConfigError, NotHermitianError
from gaugesim.hamiltonians import (
    KINDS,
    POLAR_BASIS_SCALE,
    BuiltHamiltonian,
    HamiltonianSpec,
    VARIANTS,
    build,
    build_landau_cartesian_position,
)
from gaugesim.operators import hermitian_eig, is_hermitian

from conftest import (
    MONOPOLE_REFERENCE,
    dense_monopole,
    empty_monopole_terms,
    kron_landau_cartesian_matrix,
    monopole_variant_table,
    two_scan_finish,
    whole_build,
    worst_reference_deviation,
)


def cart_spec(**kw):
    return HamiltonianSpec(kind="LandauCartesian", b_field=kw.pop("b_field", 2.0), **kw)


# ---------------------------------------------------------------- spec type


def test_spec_defaults_and_qubits():
    assert cart_spec().qubits == 8
    assert HamiltonianSpec(kind="LandauPolar").qubits == 4
    assert HamiltonianSpec(kind="MonopoleSU2").qubits == 9
    assert cart_spec().boson_trunc == 16
    assert HamiltonianSpec(kind="MonopoleSU2").boson_trunc == 4


def _json_form(kw):
    """The spec JSON object for constructor arguments ``kw``; None when
    there is none (an r_ref without the ScalarB variant)."""
    obj = {k: v for k, v in kw.items() if k != "r_ref"}
    if "r_ref" in kw:
        if kw.get("variant") != "ScalarB":
            return None
        obj["variant"] = {"ScalarB": kw["r_ref"]}
    return obj


_BAD_SPECS = [  # constructor arguments, and a fragment of the error message
    ({"kind": "Nope"}, "hamiltonian.kind: expected one of"),
    ({"kind": "LandauPolar", "boson_trunc": 12}, "power of two"),
    ({"kind": "LandauCartesian", "boson_trunc": 32}, "at most 9"),
    ({"kind": "MonopoleSU2", "variant": "ScalarB"}, "positive r_ref"),
    ({"kind": "MonopoleSU2", "variant": "ScalarB", "r_ref": -1.0}, "positive r_ref"),
    ({"kind": "MonopoleSU2", "variant": "Literal", "r_ref": 1.0}, "only valid with the ScalarB"),
    ({"kind": "MonopoleSU2", "variant": "Weird"}, "hamiltonian.variant: expected one of"),
    ({"kind": "LandauCartesian", "variant": "HermitianPart", "angular_m": 7}, "angular_m"),
    ({"kind": "LandauCartesian", "variant": "ScalarB", "r_ref": 2.0}, "variant is only valid"),
    ({"kind": "LandauPolar", "variant": "HermitianPart"}, "variant is only valid"),
    ({"kind": "MonopoleSU2", "angular_m": -3}, "angular_m"),
    ({"kind": "LandauPolar", "boson_trunc": "16"}, "finite number"),
    ({"kind": "LandauPolar", "boson_trunc": 16.5}, "integer"),
    ({"kind": "LandauPolar", "b_field": float("nan")}, "finite number"),
    ({"kind": "LandauPolar", "b_field": True}, "finite number"),
    ({"kind": "LandauPolar", "angular_m": 1.5}, "integer"),
    ({"kind": "MonopoleSU2", "variant": "ScalarB", "r_ref": "1"}, "finite number"),
    ({"kind": "LandauPolar", "angular_m": np.True_}, "finite number"),
]


def test_spec_validation_errors():
    # a spec is checked once, when it is made: by the constructor, by
    # dataclasses.replace and by from_json alike
    for kw, message in _BAD_SPECS:
        with pytest.raises(InvalidConfigError, match=message):
            HamiltonianSpec(**kw)
        valid = HamiltonianSpec(kind=kw["kind"] if kw["kind"] in KINDS else "LandauPolar")
        with pytest.raises(InvalidConfigError, match=message):
            replace(valid, **kw)
        obj = _json_form(kw)
        if obj is not None:
            with pytest.raises(InvalidConfigError, match=message):
                HamiltonianSpec.from_json(obj)


def test_spec_reads_its_numbers():
    # the constructor reads numbers as from_json does: 16.0 is the int 16
    spec = HamiltonianSpec(kind="LandauPolar", b_field=2, boson_trunc=16.0)
    assert spec == HamiltonianSpec.from_json({"kind": "LandauPolar", "b_field": 2, "boson_trunc": 16.0})
    assert type(spec.boson_trunc) is int and type(spec.b_field) is float
    assert spec.qubits == 4 and build(spec).dim == 16


def test_spec_from_json_reads_the_scalar_b_object():
    # r_ref travels as {"ScalarB": r_ref} under variant
    obj = {"kind": "MonopoleSU2", "b_field": 0.2, "boson_trunc": 4, "angular_m": 0, "variant": {"ScalarB": 1.5}}
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=0.2, variant="ScalarB", r_ref=1.5)
    assert HamiltonianSpec.from_json(obj) == spec


def test_spec_json_rejects_unknown_keys():
    with pytest.raises(InvalidConfigError):
        HamiltonianSpec.from_json({"kind": "LandauPolar", "extra": 1})
    with pytest.raises(InvalidConfigError):
        HamiltonianSpec.from_json({"b_field": 2.0})  # kind missing
    with pytest.raises(InvalidConfigError):
        HamiltonianSpec.from_json({"kind": "MonopoleSU2", "variant": {"ScalarB": 1.0, "x": 2}})


# ------------------------------------------------------------- cartesian


def test_cartesian_ground_energy_projected():
    built = build(cart_spec())
    assert built.hermitian and built.qubits == 8 and built.dim == 256
    vals = hermitian_eig(built.matrix).values
    assert abs(vals[0] - 1.0) < 1e-9
    assert np.sum(np.abs(vals - 1.0) < 1e-9) >= 8  # lowest-level degeneracy survives


def test_cartesian_literal_squares_expose_edge_states(monkeypatch):
    # why the build takes osc_q2/osc_p2: with plain matrix squares instead,
    # the corner commutator defect lets edge states sink below the physical
    # ground energy, to a measured floor of 0.8699
    import gaugesim.basis as basis_module

    monkeypatch.setattr(basis_module, "osc_q2", lambda n: osc_q(n) @ osc_q(n))
    monkeypatch.setattr(basis_module, "osc_p2", lambda n: osc_p(n) @ osc_p(n))
    vals = hermitian_eig(build(cart_spec()).matrix).values
    assert vals[0] < 1.0 - 0.1
    assert abs(vals[0] - 0.8699129530737727) < 1e-9
    assert np.sum(np.abs(vals - 1.0) < 1e-9) >= 8


def test_cartesian_expanded_form_identity():
    # assemble the expanded form independently and compare entrywise
    n, b = 16, 2.0
    dims = [n, n]
    x, y = place(osc_q(n), 0, dims), place(osc_q(n), 1, dims)
    px, py = place(osc_p(n), 0, dims), place(osc_p(n), 1, dims)
    hb = b / 2.0
    expanded = (
        0.5 * (place(osc_p2(n), 0, dims) + place(osc_p2(n), 1, dims))
        + 0.5 * hb ** 2 * (place(osc_q2(n), 0, dims) + place(osc_q2(n), 1, dims))
        - hb * (x @ py - y @ px)
    )
    built = build(cart_spec())
    scale = np.max(np.abs(built.matrix))
    assert np.max(np.abs(built.matrix - expanded)) <= 1e-10 * scale


def test_cartesian_literal_equals_completed_square_products():
    # the printed completed squares, plus on each slot the corner terms by
    # which the truncated squares osc_p2, osc_q2 differ from p @ p, q @ q
    n, b = 16, 2.0
    dims = [n, n]
    q, p = osc_q(n), osc_p(n)
    x, y = place(q, 0, dims), place(q, 1, dims)
    px, py = place(p, 0, dims), place(p, 1, dims)
    a1 = px + (b / 2) * y
    a2 = py - (b / 2) * x
    corner = (osc_p2(n) - p @ p) + (b / 2) ** 2 * (osc_q2(n) - q @ q)
    direct = 0.5 * (a1 @ a1 + a2 @ a2) + 0.5 * (place(corner, 0, dims) + place(corner, 1, dims))
    built = build(cart_spec())
    np.testing.assert_allclose(built.matrix, direct, atol=1e-12)


def test_cartesian_levels_match_closed_form():
    from gaugesim.analytic import landau_energy

    vals = hermitian_eig(build(cart_spec()).matrix).values
    # lowest distinct cluster sits at the n=0 level; the n=1 level survives
    # truncation as an exact eigenvalue (interleaved truncation states keep
    # it from being the second *distinct* cluster)
    assert abs(vals[0] - landau_energy(2.0, 0)) < 1e-4
    assert np.min(np.abs(vals - landau_energy(2.0, 1))) < 1e-4


def test_cartesian_b0_free_particle():
    built = build(cart_spec(b_field=0.0))
    vals = hermitian_eig(built.matrix).values
    assert vals[0] >= -1e-12


def test_cartesian_hermitian_across_fields():
    for b in (-3.0, 0.5, 2.0):
        assert build(cart_spec(b_field=b)).hermitian


def test_cartesian_position_basis():
    built = build_landau_cartesian_position(cart_spec())
    assert built.hermitian and built.dim == 256
    # positive kinetic + potential at B=0
    free = build_landau_cartesian_position(cart_spec(b_field=0.0))
    assert hermitian_eig(free.matrix).values[0] >= -1e-12


def test_cartesian_assembly_matches_the_kron_oracle_byte_for_byte():
    # the oscillator build assembles the same bytes as six np.kron products,
    # signed zeros included: its parity blocks are the oracle gathered at its
    # filled sectors, and its matrix the whole oracle.  Fields with long
    # mantissas (1.37, 2.9) are where a sum taken in another order rounds
    # differently.  (The grid build is held to the Kronecker form by
    # test_grid_halves_sum_to_the_build_and_are_diagonal_in_the_dft.)
    for n in (2, 4, 8, 16):
        for b in (-2.5, -1.5, 0.0, 1e-9, 1.0, 1.37, 2.0, 2.9, 7.5):
            spec = cart_spec(b_field=b, boson_trunc=n)
            built = build(spec)
            oracle = kron_landau_cartesian_matrix(spec, n, osc_q(n), osc_p(n), osc_q2(n), osc_p2(n))
            idx = built.filled
            assert built.entries.tobytes() == oracle[idx[:, :, None], idx[:, None, :]].tobytes()
            assert built.matrix.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("grid", [False, True], ids=["oscillator", "grid"])
def test_cartesian_builds_start_a_packet_along_the_printed_field(grid):
    # Ehrenfest: d<r>/dt = <i[H, r]> = <p> + (B/2)(y, -x), and a real packet
    # has <p> = 0, so at B = 2 one of width 1 at (0.6, -0.3) starts with
    # velocity (-0.3, -0.6); the mirror-image field gives (+0.3, +0.6)
    n, centre = 16, np.array([[0.6], [-0.3]])
    if grid:
        built, q = build_landau_cartesian_position(cart_spec()), pos_q(n)
        factors = np.exp(-(pos_grid(n) - centre) ** 2 / 2)
    else:  # a real coherent state
        built, q, alpha = build(cart_spec()), osc_q(n), centre / np.sqrt(2)
        factorials = np.concatenate([[1.0], np.cumprod(np.arange(1.0, n))])
        factors = alpha ** np.arange(n) / np.sqrt(factorials) * np.exp(-alpha ** 2 / 2)
    psi = np.kron(*factors)
    psi /= np.linalg.norm(psi)
    h, one = built.matrix, np.eye(n)
    for r, velocity in ((np.kron(q, one), -0.3), (np.kron(one, q), -0.6)):
        assert abs(psi @ (1j * (h @ r - r @ h)) @ psi - velocity) < 1e-8


def _return_kernels(n, b_field, times):
    """K(c, c; T) = <c| exp(-T H) |c> = sum_k |v_k[c]|^2 exp(-T lambda_k) on
    the n x n grid, for c the grid point nearest the origin."""
    es = build_landau_cartesian_position(cart_spec(b_field=b_field, boson_trunc=n)).eigensystem()
    grid = pos_grid(n)
    c = np.argmin((grid[:, None] ** 2 + grid ** 2).ravel())
    return np.exp(-np.outer(times, es.values)) @ np.abs(es.vectors[c]) ** 2


def _schwinger_error(n):
    """max |K_B / K_0 - (BT/2) / sinh(BT/2)| over B in {0.5, 1, 2, 3}, T in [0.5, 2]."""
    times = np.linspace(0.5, 2.0, 16)
    free = _return_kernels(n, 0.0, times)
    return max(np.abs(_return_kernels(n, b, times) / free - (b * times / 2) / np.sinh(b * times / 2)).max()
               for b in (0.5, 1.0, 2.0, 3.0))


def test_grid_proper_time_kernel_carries_the_schwinger_factor():
    # the worldline proper-time kernel of a constant field (Schwinger 1951;
    # Schubert 2001): the Euclidean return kernel is the free one times
    # (BT/2) / sinh(BT/2).  Measured 4.0e-4 on 16x16; a field off by 1%
    # moves the ratio by 2.6e-3.  The coarser 8x8 grid misses by more.
    fine = _schwinger_error(16)
    assert fine <= 1e-3
    assert _schwinger_error(8) > fine


def test_builder_kind_guards():
    # the position grid is a second basis of LandauCartesian alone
    with pytest.raises(InvalidConfigError, match="got kind 'LandauPolar'"):
        build_landau_cartesian_position(HamiltonianSpec(kind="LandauPolar"))


# ----------------------------------------------------------------- polar


def test_polar_ground_energy_calibrated():
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    assert built.hermitian and built.qubits == 4
    lam = hermitian_eig(built.matrix).values[0]
    # calibrated basis: within 1e-3 of the continuum value 1.0 (measured
    # 1.0000850); reference table value 0.9980452 sits 2.04e-3 away
    assert abs(lam - 1.0) < 1e-3
    assert abs(lam - 0.9980452) < 5e-3


def test_polar_uncalibrated_basis_value(monkeypatch):
    import gaugesim.hamiltonians as hamiltonians

    monkeypatch.setattr(hamiltonians, "POLAR_BASIS_SCALE", 1.0)
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    lam = hermitian_eig(built.matrix).values[0]
    # unit-scale basis underestimates the ground energy by ~3% (documented)
    assert abs(lam - 0.9698777) < 1e-6


def test_polar_angular_terms_enter_only_for_nonzero_m():
    b0 = build(HamiltonianSpec(kind="LandauPolar", angular_m=0))
    b1 = build(HamiltonianSpec(kind="LandauPolar", angular_m=1))
    assert np.max(np.abs(b0.matrix - b1.matrix)) > 0.1
    # m enters through m^2/rho^2 and -(B/2)m only; at m=0 both vanish
    assert b0.hermitian and b1.hermitian


def test_polar_continuum_reference():
    from gaugesim.analytic import polar_energy

    assert polar_energy(2.0, 0, 0) == 1.0


@pytest.mark.parametrize("m", [1, -1])
def test_polar_even_oscillator_sector_meets_the_m_sector_ground(m):
    # the build does not couple even and odd oscillator indices (largest
    # entry between them measured 6.3e-14, for m in 0, +-1, 2); the
    # even-sector ground is polar_energy(2, |m|, m), 1 at m = 1 and 3 at
    # m = -1, measured 5.0e-3 above it. Flipping -(B/2) m moves it by 2,
    # dropping m^2 / (2 rho^2) by about 1. (At m = 2 it is 0.126 off, so
    # m = 2 is not checked.)
    from gaugesim.analytic import polar_energy

    h = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0, angular_m=m)).matrix
    even, odd = np.arange(0, h.shape[0], 2), np.arange(1, h.shape[0], 2)
    assert np.max(np.abs(h[np.ix_(even, odd)])) < 1e-12
    ground = np.linalg.eigvalsh(h[np.ix_(even, even)])[0]
    assert abs(ground - polar_energy(2.0, abs(m), m)) < 1e-2


def test_inverse_powers_see_no_zero_eigenvalue():
    # rho^-1/2, rho^-2 and (r^2)^-1 are spectral inverses: every
    # power-of-two truncation keeps them finite, because its Q (a Hermite
    # root set of even order) has no zero eigenvalue.
    for k in range(1, 10):
        q = osc_q(2 ** k) / np.sqrt(POLAR_BASIS_SCALE)
        assert np.min(np.abs(np.linalg.eigvalsh(q))) > 1e-2
    for n in (2, 4):
        dims = [n, n, n]
        r2 = sum(place(osc_q(n) @ osc_q(n), s, dims) for s in range(3))
        assert np.min(np.linalg.eigvalsh(r2)) > 1e-2


# -------------------------------------------------------------- monopole


def test_monopole_shapes_and_hermiticity_flags():
    lit = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0))
    assert lit.dim == 512 and lit.qubits == 9
    assert not lit.hermitian  # raising-operator bilinears are non-Hermitian
    hp = build(
        HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart")
    )
    assert hp.hermitian
    mj = build(
        HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="MajoranaFermions")
    )
    assert mj.hermitian


@pytest.mark.parametrize("boson_trunc", [2, 4])
@pytest.mark.parametrize("g_m", [0.0, 0.2, 2.0, 2.9])
@pytest.mark.parametrize("variant", VARIANTS)
def test_monopole_matches_dense_oracle(variant, g_m, boson_trunc):
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=g_m, boson_trunc=boson_trunc,
                           variant=variant, r_ref=1.3 if variant == "ScalarB" else None)
    built = build(spec)
    assert built.dim == 8 * boson_trunc ** 3
    np.testing.assert_allclose(built.matrix, dense_monopole(spec), rtol=0, atol=1e-13)


class _Watched(np.ndarray):
    """An array that logs (dtype, shapes) of every matrix product it enters."""

    products: list = []

    @staticmethod
    def _plain(a):
        return a.view(np.ndarray) if isinstance(a, _Watched) else a

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products.append((np.result_type(*inputs), [np.shape(a) for a in inputs]))
        if "out" in kwargs:
            kwargs["out"] = tuple(map(self._plain, kwargs["out"]))
        out = getattr(ufunc, method)(*map(self._plain, inputs), **kwargs)
        return out.view(_Watched) if isinstance(out, np.ndarray) else out

    def __array_function__(self, func, types, args, kwargs):
        if func in (np.dot, np.einsum, np.tensordot, np.inner, np.vdot):
            operands = [a for a in args if isinstance(a, np.ndarray)]
            self.products.append((np.result_type(*operands), [a.shape for a in operands]))
        return super().__array_function__(func, types, args, kwargs)


def test_monopole_build_stays_on_the_factors(monkeypatch):
    # structural guard for the factored build: no operator is placed on the
    # full 512-dim register, the only eigendecomposition is the 4x4 q^2 of
    # one register, every product of 64x64 boson factors is real (a
    # complex 64^3 product or a larger eigensolve wakes OpenBLAS threads),
    # and no Hermiticity check sees more than one diagonal block; each
    # variant's build starts cold, so its cached terms are assembled in view
    import gaugesim.basis as basis_module
    import gaugesim.hamiltonians as hamiltonians_module
    import gaugesim.operators as operators_module

    eig_dims, place_dims, check_dims = [], [], []
    place_op = basis_module.place
    for module, name in ((hamiltonians_module, "is_hermitian"), (operators_module, "is_hermitian"),
                         (operators_module, "herm_defect")):
        monkeypatch.setattr(module, name, lambda a, _f=getattr(module, name):
                            check_dims.append(np.shape(a)[-1]) or _f(a))

    def counted_place(*a, **k):
        out = place_op(*a, **k)
        place_dims.append(out.shape[0])
        return out.view(_Watched)

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _f=solver, **k:
                            eig_dims.append(np.shape(a)[-1]) or _f(a, *r, **k))
    monkeypatch.setattr(basis_module, "place", counted_place)
    for variant in VARIANTS:
        empty_monopole_terms()
        eig_dims.clear()
        place_dims.clear()
        check_dims.clear()
        _Watched.products.clear()
        spec = HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant=variant,
                               r_ref=1.0 if variant == "ScalarB" else None)
        built = build(spec)
        assert built.dim == 512
        assert check_dims and max(check_dims) <= max(map(len, built.blocks)), (variant, check_dims)
        assert all(d <= 4 for d in eig_dims), (variant, eig_dims)
        assert place_dims and max(place_dims) <= 64, (variant, place_dims)
        boson = [(t, shapes) for t, shapes in _Watched.products if max(map(max, shapes)) >= 64]
        assert boson, variant  # the boson products are seen
        assert not [t for t, _ in boson if np.issubdtype(t, np.complexfloating)], (variant, boson)


@pytest.mark.parametrize("variant", VARIANTS)
def test_monopole_build_does_not_depend_on_cache_history(variant):
    # a build combines cached coupling-free terms with its coupling: the
    # same spec gives the same bytes whether its terms were assembled for
    # it or for an earlier build at another coupling
    import gaugesim.hamiltonians as hamiltonians_module

    def spec(g_m):
        return HamiltonianSpec(kind="MonopoleSU2", b_field=g_m, variant=variant,
                               r_ref=1.3 if variant == "ScalarB" else None)

    empty_monopole_terms()
    cold = build(spec(1.37))
    build(spec(2.9))
    hamiltonians_module._SLOT.clear()
    warm = build(spec(1.37))
    assert warm is not cold
    assert warm.entries.tobytes() == cold.entries.tobytes()
    assert warm.spectrum().tobytes() == cold.spectrum().tobytes()
    for built in (cold, warm):
        np.testing.assert_allclose(built.matrix, dense_monopole(built.spec), rtol=0, atol=1e-13)


def test_monopole_zero_coupling_is_free():
    built = build(HamiltonianSpec(kind="MonopoleSU2", b_field=0.0))
    n = 4
    dims = [n, n, n, 2, 2, 2]
    p = osc_p(n)
    free = 0.5 * sum(place(p, s, dims) @ place(p, s, dims) for s in range(3))
    np.testing.assert_allclose(built.matrix, free, atol=1e-12)
    assert np.linalg.eigvalsh(0.5 * (built.matrix + built.matrix.conj().T))[0] >= -1e-12


def test_monopole_literal_spectrum_is_coupling_independent():
    # the literal bilinears only lower the fermion occupation, so the matrix
    # is block-triangular in that grading and its spectrum equals the free
    # spectrum for every coupling
    free = build(HamiltonianSpec(kind="MonopoleSU2", b_field=0.0))
    free_vals = np.sort(np.linalg.eigvalsh(free.matrix))
    lit = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0))
    lit_vals = np.sort(np.linalg.eigvals(lit.matrix).real)
    np.testing.assert_allclose(lit_vals, free_vals, atol=1e-6)


def test_monopole_variants_agree_at_zero_coupling():
    mats = []
    for variant, r_ref in (("Literal", None), ("MajoranaFermions", None),
                           ("HermitianPart", None), ("ScalarB", 1.0)):
        spec = HamiltonianSpec(kind="MonopoleSU2", b_field=0.0, variant=variant, r_ref=r_ref)
        mats.append(build(spec).matrix)
    for m in mats[1:]:
        np.testing.assert_allclose(m, mats[0], atol=1e-12)


def test_monopole_variant_table():
    values, hermitian = monopole_variant_table()
    assert set(values) == {"Literal", "MajoranaFermions", "HermitianPart", "ScalarB"}
    # no spec variant reproduces the reference pair (documented analysis);
    # the closest is the Hermitian part, which is also Hermitian
    worst = {v: worst_reference_deviation(per_gm) for v, per_gm in values.items()}
    assert [v for v in VARIANTS if worst[v] <= 1e-3] == []
    assert min(VARIANTS, key=worst.get) == "HermitianPart"
    assert min((v for v in VARIANTS if hermitian[v]), key=worst.get) == "HermitianPart"
    assert hermitian["HermitianPart"] and hermitian["MajoranaFermions"]
    assert not hermitian["Literal"]
    # HermitianPart variant always yields a real spectrum
    hp = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart"))
    assert is_hermitian(hp.matrix)
    # the committed table (regenerated by demos/04_monopole_variants.py) is
    # current: every row, and this file's copy of the reference pair
    doc = (pathlib.Path(__file__).resolve().parents[1] / "docs" / "monopole_variants.md").read_text(encoding="utf-8")
    rows = {v: (per_gm.values(), "yes" if hermitian[v] else "no") for v, per_gm in values.items()}
    rows["reference"] = MONOPOLE_REFERENCE.values(), ""
    for name, (cells, herm) in rows.items():
        assert f"| {name} | " + " | ".join(f"{x:.8f}" for x in cells) + f" | {herm} |" in doc, name


def _c3(h, n):
    """H with the boson registers and fermion slots cycled together,
    (x, y, z, f1, f2, f3) -> (z, x, y, f3, f1, f2), on rows and columns."""
    cycle = (2, 0, 1, 5, 3, 4)
    return h.reshape([n, n, n, 2, 2, 2] * 2).transpose(cycle + tuple(6 + a for a in cycle)).reshape(h.shape)


@pytest.mark.parametrize("g_m", [0.2, 2.0])
@pytest.mark.parametrize("boson_trunc", [2, 4])
@pytest.mark.parametrize("variant", VARIANTS)
def test_monopole_is_invariant_under_the_axis_and_colour_cycle(variant, boson_trunc, g_m):
    # t_x -> t_y -> t_z -> t_x under x -> y -> z and f1 -> f2 -> f3 together,
    # so every variant's H commutes with the cycle; a symmetry, not a
    # restatement of the builder's formula (measured defect <= 1.2e-16)
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=g_m, boson_trunc=boson_trunc, variant=variant,
                           r_ref=1.0 if variant == "ScalarB" else None)
    h = build(spec).matrix
    assert np.abs(_c3(h, boson_trunc) - h).max() <= 1e-14 * np.abs(h).max()


def test_build_dispatcher():
    for kind in ("LandauCartesian", "LandauPolar", "MonopoleSU2"):
        built = build(HamiltonianSpec(kind=kind, b_field=1.0))
        assert isinstance(built, BuiltHamiltonian)
        assert built.dim == 2 ** built.qubits


# ---------------------------------------------------------------- blocks


def _groups(labels):
    """The index sets of equal labels, as a set of tuples."""
    labels = np.asarray(labels)
    return {tuple(np.flatnonzero(labels == v)) for v in np.unique(labels)}


def assert_exact_blocks(built):
    # the invariant a build checks, with an exact 0.0: nothing below the
    # diagonal blocks (nothing off them at all when H is Hermitian), and
    # every diagonal block Hermitian
    block_of = np.full(built.dim, -1)
    for k, b in enumerate(built.blocks):
        block_of[b] = k
    assert sorted(np.concatenate(built.blocks)) == list(range(built.dim))
    below = block_of[:, None] > block_of[None, :]
    assert np.all(built.matrix[below] == 0.0)
    if built.hermitian:
        assert np.all(built.matrix[below.T] == 0.0)
    for b in built.blocks:
        assert is_hermitian(built.matrix[np.ix_(b, b)])


def _monopole_spec(variant, g_m, n):
    return HamiltonianSpec(kind="MonopoleSU2", b_field=g_m, boson_trunc=n,
                           variant=variant, r_ref=1.3 if variant == "ScalarB" else None)


def _free_monopole_values(n):
    """1/2 (px^2 + py^2 + pz^2) on three n-level factors, times 8 fermion states."""
    a = np.linalg.eigvalsh(osc_p(n) @ osc_p(n))
    sums = 0.5 * (a[:, None, None] + a[None, :, None] + a[None, None, :])
    return np.sort(np.repeat(sums.ravel(), 8))


@pytest.mark.parametrize("boson_trunc", [2, 4])
@pytest.mark.parametrize("g_m", [0.0, 0.2, 2.0, 2.9])
@pytest.mark.parametrize("variant", VARIANTS)
def test_monopole_blocks_are_exact(variant, g_m, boson_trunc):
    built = build(_monopole_spec(variant, g_m, boson_trunc))
    assert_exact_blocks(built)
    # the labels, from the register layout [n, n, n, 2, 2, 2]
    n = boson_trunc
    bx, by, bz, f1, f2, f3 = np.unravel_index(np.arange(built.dim), (n, n, n, 2, 2, 2))
    occupation = f1 + f2 + f3
    # Q_i = (-1)^(n_i) pi_i pairs fermion slot i with the parity of register i
    charges = (f1 + bx) % 2 * 4 + (f2 + by) % 2 * 2 + (f3 + bz) % 2
    if variant in ("Literal", "ScalarB"):
        assert len(built.blocks) == 64
        pattern = f1 * 4 + f2 * 2 + f3
        register_parities = bx % 2 * 4 + by % 2 * 2 + bz % 2
        assert _groups(pattern * 8 + register_parities) == set(map(tuple, built.blocks))
        # block order: fermion occupation never falls
        occ = [occupation[b[0]] for b in built.blocks]
        assert occ == sorted(occ)
        np.testing.assert_allclose(built.spectrum(), _free_monopole_values(n), rtol=0, atol=1e-12)
    else:
        assert len(built.blocks) == 16
        assert _groups(occupation % 2 * 8 + charges) == set(map(tuple, built.blocks))
        np.testing.assert_allclose(built.spectrum(), np.linalg.eigvalsh(built.matrix), rtol=0, atol=1e-12)


@pytest.mark.parametrize("boson_trunc", [2, 4, 8, 16])
def test_cartesian_blocks_are_exact(boson_trunc):
    n = boson_trunc
    built = build(cart_spec(boson_trunc=n))
    assert_exact_blocks(built)
    nx, ny = np.unravel_index(np.arange(built.dim), (n, n))
    assert _groups((nx + ny) % 2) == set(map(tuple, built.blocks))
    np.testing.assert_allclose(built.spectrum(), np.linalg.eigvalsh(built.matrix), rtol=0, atol=1e-12)


def test_polar_and_position_builds_have_one_block():
    # the position grid shares kind LandauCartesian but has no Z-parity
    # structure: blocks come from the builder, not from the kind
    for built in (build(HamiltonianSpec(kind="LandauPolar", angular_m=1)),
                  build_landau_cartesian_position(cart_spec()),
                  build_landau_cartesian_position(cart_spec(boson_trunc=4))):
        assert len(built.blocks) == 1
        assert_exact_blocks(built)
        np.testing.assert_allclose(built.spectrum(), np.linalg.eigvalsh(built.matrix), rtol=0, atol=1e-12)


def _quarter_turn(n):
    """rot[(ix, iy)] = (n - 1 - iy, ix) on the n x n grid, index ix * n + iy."""
    ix, iy = np.unravel_index(np.arange(n * n), (n, n))
    return (n - 1 - iy) * n + ix


_FIELDS = [-1.5, 0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("b_field", _FIELDS)
@pytest.mark.parametrize("boson_trunc", [2, 4, 8, 16])
def test_position_grid_commutes_with_the_quarter_turn_bit_for_bit(boson_trunc, b_field):
    n = boson_trunc
    built = build_landau_cartesian_position(cart_spec(b_field=b_field, boson_trunc=n))
    rot = _quarter_turn(n)
    assert np.array_equal(built.matrix[rot][:, rot], built.matrix)
    # the orbits s, R s, R^2 s, R^3 s partition the grid
    assert built.orbits.shape == (n * n // 4, 4)
    assert np.array_equal(np.sort(built.orbits, axis=None), np.arange(n * n))
    assert all(np.array_equal(rot[built.orbits[:, j]], built.orbits[:, j + 1]) for j in range(3))


def test_finish_refuses_a_grid_entry_one_ulp_off_the_quarter_turn():
    built = build_landau_cartesian_position(cart_spec())
    rot = _quarter_turn(16)
    assert whole_build(built.matrix, built.spec, 0, rotation=rot).hermitian
    with pytest.raises(GaugesimError, match="quarter-turn"):  # the half-turn has orbits of two
        whole_build(built.matrix, built.spec, 0, rotation=rot[rot])
    for entry in ((0, 0), (17, 18), (40, 200)):
        nudged = built.matrix.copy()
        nudged[entry] = complex(np.nextafter(nudged[entry].real, np.inf), nudged[entry].imag)
        # one ulp is far inside HERM_TOL: only the commutation refuses it,
        # whether the matrix comes whole or as the grid build's replaced entries
        assert is_hermitian(nudged)
        with pytest.raises(GaugesimError, match="commute"):
            whole_build(nudged, built.spec, 0, rotation=rot)
        with pytest.raises(GaugesimError, match="LandauCartesian: does not commute"):
            replace(built, entries=nudged[None])


@pytest.mark.parametrize("b_field", _FIELDS)
@pytest.mark.parametrize("boson_trunc", [2, 4, 8, 16])
def test_position_grid_sectors_give_the_whole_eigensystem(boson_trunc, b_field):
    built = build_landau_cartesian_position(cart_spec(b_field=b_field, boson_trunc=boson_trunc))
    es = hermitian_eig(built)
    whole = np.linalg.eigvalsh(built.matrix)
    np.testing.assert_allclose(es.values, whole, rtol=0, atol=1e-12)
    np.testing.assert_allclose(built.spectrum(), whole, rtol=0, atol=1e-12)
    assert np.all(np.diff(es.values) >= 0.0)
    v = es.vectors
    np.testing.assert_allclose((v * es.values) @ v.conj().T, built.matrix, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(built.dim), rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", [cart_spec(), HamiltonianSpec(kind="LandauPolar", angular_m=1),
                                  _monopole_spec("HermitianPart", 2.0, 4),
                                  _monopole_spec("MajoranaFermions", 0.2, 2)],
                         ids=["cartesian", "polar-m1", "monopole-hermitian-part", "monopole-majorana"])
def test_label_sector_builds_give_the_whole_eigensystem(spec):
    # hermitian_eig of a build solves its label blocks and places each
    # block's eigenvectors on the block's indices
    built = build(spec)
    es = hermitian_eig(built)
    np.testing.assert_allclose(es.values, np.linalg.eigvalsh(built.matrix), rtol=0, atol=1e-12)
    v = es.vectors
    np.testing.assert_allclose((v * es.values) @ v.conj().T, built.matrix, rtol=0, atol=1e-12)


def _labels_of(built):
    """The builder's sector labels up to their order: block k gets label k."""
    labels = np.empty(built.dim, dtype=int)
    for k, b in enumerate(built.blocks):
        labels[b] = k
    return labels


def _parity_labels(n):
    """(-1)^(n_x + n_y) on the n x n oscillator basis, as 0 or 1."""
    nx, ny = np.unravel_index(np.arange(n * n), (n, n))
    return (nx + ny) % 2


def _monopole_labels(variant, n):
    """The monopole sector labels, from the register layout [n, n, n, 2, 2, 2]."""
    bx, by, bz, f1, f2, f3 = np.unravel_index(np.arange(8 * n ** 3), (n, n, n, 2, 2, 2))
    if variant in ("Literal", "ScalarB"):
        pattern = f1 * 4 + f2 * 2 + f3
        return ((f1 + f2 + f3) * 8 + pattern) * 8 + bx % 2 * 4 + by % 2 * 2 + bz % 2
    return (f1 + f2 + f3) % 2 * 8 + (f1 + bx) % 2 * 4 + (f2 + by) % 2 * 2 + (f3 + bz) % 2


@pytest.mark.parametrize("boson_trunc", [2, 4])
@pytest.mark.parametrize("g", [0.0, 1e-12, 0.2, 2.0, 2.9])
def test_hermitian_flag_and_blocks_equal_the_whole_matrix_checks(g, boson_trunc):
    # hermitian is read from the blocks and the entries above them, and must
    # equal is_hermitian of the whole matrix; the blocks are the sectors in
    # ascending label order.  At g_m = 1e-12 the Literal and ScalarB
    # couplings above the blocks are inside HERM_TOL of max|H|.
    n = boson_trunc
    cart = cart_spec(b_field=g, boson_trunc=n)
    builds = [(build(cart), _parity_labels(n)),
              (build_landau_cartesian_position(cart), np.zeros(n * n)),
              (build(HamiltonianSpec(kind="LandauPolar", b_field=g, boson_trunc=n,
                                                  angular_m=1)), np.zeros(n))]
    builds += [(build(_monopole_spec(v, g, n)), _monopole_labels(v, n)) for v in VARIANTS]
    for built, labels in builds:
        assert built.hermitian == is_hermitian(built.matrix), built.spec
        expected = [np.flatnonzero(labels == v) for v in np.unique(labels)]
        assert len(built.blocks) == len(expected), built.spec
        assert all(np.array_equal(a, b) for a, b in zip(built.blocks, expected)), built.spec
        if built.spec.variant in ("Literal", "ScalarB") and built.spec.kind == "MonopoleSU2":
            assert built.hermitian == (g <= 1e-12), built.spec


def test_finish_refuses_a_matrix_that_breaks_its_blocks(tmp_path, monkeypatch, capsys):
    import gaugesim.basis as basis_module
    from gaugesim.cli import main

    lit = build(_monopole_spec("Literal", 2.0, 2))
    blocks = lit.blocks
    below = lit.matrix.copy()
    below[blocks[-1][0], blocks[0][0]] = 1e-300
    with pytest.raises(GaugesimError, match="below its diagonal blocks"):
        whole_build(below, lit.spec, _labels_of(lit))
    # at N = 2 the Literal blocks are 1x1: skew a block of the Hermitian part
    hp = build(_monopole_spec("HermitianPart", 2.0, 2))
    pair = next(b for b in hp.blocks if len(b) >= 2)
    skew = hp.matrix.copy()
    skew[pair[0], pair[1]] += 1.0
    with pytest.raises(GaugesimError, match="not Hermitian"):
        whole_build(skew, hp.spec, _labels_of(hp))
    # the Hermitian variants' sixteen blocks hold the Literal couplings inside
    with pytest.raises(GaugesimError, match="not Hermitian"):
        whole_build(lit.matrix, lit.spec, _labels_of(hp))
    # the position grid has no (-1)^(n_x + n_y) symmetry
    pos = build_landau_cartesian_position(cart_spec(boson_trunc=4))
    with pytest.raises(GaugesimError):
        whole_build(pos.matrix, pos.spec, _parity_labels(4))
    # a builder bug ends in exit 3, not in a spectrum: a non-Hermitian P
    # makes the polar Hamiltonian's one block non-Hermitian
    osc_p = basis_module.osc_p
    monkeypatch.setattr(basis_module, "osc_p", lambda n: np.triu(osc_p(n)))
    cfg = tmp_path / "polar.json"
    cfg.write_text(json.dumps({"hamiltonian": {"kind": "LandauPolar"}, "output": str(tmp_path / "out.csv")}))
    assert main(["spectrum", "--config", str(cfg)]) == 3
    assert "not Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("position", [True, False])
def test_finish_refuses_a_nan_in_any_diagonal_block(position):
    # one block (position grid) or two (oscillator basis), with the
    # builder's own labels: a NaN inside a block is never Hermitian
    spec = cart_spec(boson_trunc=4)
    if position:
        built, labels = build_landau_cartesian_position(spec), 0
    else:
        built, labels = build(spec), _parity_labels(4)
    assert len(built.blocks) == (1 if position else 2)
    for b in built.blocks:
        for entry in ((b[0], b[0]), (b[-1], b[0])):
            bad = built.matrix.copy()
            bad[entry] = np.nan
            with pytest.raises(GaugesimError, match="not Hermitian"):
                whole_build(bad, spec, labels)
    if not position:
        # above the blocks a NaN is no block's entry: the build is kept and
        # is not Hermitian, as is_hermitian of the whole matrix says
        above = built.matrix.copy()
        above[built.blocks[0][0], built.blocks[1][0]] = np.nan
        assert not whole_build(above, spec, labels).hermitian
        assert not is_hermitian(above)


def _build_outcome(make, *args, **kwargs):
    """(hermitian, blocks as lists) of the build ``make`` returns, or its refusal's message."""
    try:
        built = make(*args, **kwargs)
    except GaugesimError as exc:
        return str(exc)
    return built.hermitian, [b.tolist() for b in built.blocks]


def _finish_input(case):
    """(matrix, spec, labels, rotation) of a build, with the builder's own labels."""
    kind, *args = case
    if kind == "monopole":
        variant, g_m, n = args
        built = build(_monopole_spec(variant, g_m, n))
        return built.matrix, built.spec, _monopole_labels(variant, n), None
    if kind == "cartesian":
        return build(cart_spec()).matrix, cart_spec(), _parity_labels(16), None
    if kind == "grid":
        return build_landau_cartesian_position(cart_spec()).matrix, cart_spec(), 0, _quarter_turn(16)
    spec = HamiltonianSpec(kind="LandauPolar", b_field=2.0, angular_m=args[0])
    return build(spec).matrix, spec, 0, None


_FINISH_CASES = ([("monopole", v, g, n) for v in VARIANTS for g in (1e-12, 2.0) for n in (2, 4)]
                 + [("cartesian",), ("grid",)] + [("polar", m) for m in (0, 1, 2)])


@pytest.mark.parametrize("case", _FINISH_CASES, ids=lambda c: "-".join(map(str, c)))
def test_finish_count_path_agrees_with_the_two_scans(case):
    # a build masks the filled blocks only, and with one block nothing;
    # every builder's outcome stays the one of the whole-matrix masks
    matrix, spec, labels, rotation = _finish_input(case)
    outcome = _build_outcome(whole_build, matrix, spec, labels, rotation)
    assert outcome == two_scan_finish(matrix, spec, labels, rotation)
    assert not isinstance(outcome, str)


@pytest.mark.parametrize("case", [("monopole", "HermitianPart", 2.0, 2), ("cartesian",)],
                         ids=["monopole", "cartesian"])
@pytest.mark.parametrize("edit", ["tiny above", "minus zero above", "nan above", "nan inside", "below"])
def test_finish_count_path_agrees_with_the_two_scans_on_edited_matrices(case, edit):
    # an entry off the blocks (-0.0 too) is seen by the masks of the filled
    # block as by those of the whole matrix; a NaN inside a block is refused
    # by the block check
    import gaugesim.hamiltonians as hamiltonians

    matrix, spec, labels, _ = _finish_input(case)
    first, second = (b[0] for b in hamiltonians._blocks_by(labels)[:2])
    entry, value, expected = {"tiny above": ((first, second), 1e-300, True),
                              "minus zero above": ((first, second), -0.0, True),
                              "nan above": ((first, second), np.nan, False),
                              "nan inside": ((first, first), np.nan, "not Hermitian"),
                              "below": ((second, first), 1.0, "below")}[edit]
    matrix = matrix.copy()
    matrix[entry] = value
    outcome = _build_outcome(whole_build, matrix, spec, labels)
    assert outcome == two_scan_finish(matrix, spec, labels)
    if isinstance(expected, str):
        assert expected in outcome
    else:
        assert outcome[0] is expected


_ONE_SIZE_CASES = ([("oscillator", n, 2, n * n // 2) for n in (2, 4, 8, 16)]
                   + [("grid", n, 1, n * n) for n in (2, 4, 8, 16)]
                   + [("polar", 2 ** k, m, 1, 2 ** k) for k in range(1, 10) for m in (0, 1, 2)]
                   + [(v, n, 16, n ** 3 // 2) for v in ("HermitianPart", "MajoranaFermions")
                      for n in (2, 4)]
                   + [(v, n, 64, n ** 3 // 8) for v in ("Literal", "ScalarB") for n in (2, 4)])


@pytest.mark.parametrize("case", _ONE_SIZE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_every_build_has_one_stack_of_equal_sectors(case):
    # every builder, at every truncation it accepts, labels sectors of one
    # size: blocks is one read-only (count, size) array, and a Hermitian
    # build's real form is indexed by it
    kind, n, *rest, count, size = case
    if kind == "oscillator":
        built = build(cart_spec(boson_trunc=n))
    elif kind == "grid":
        built = build_landau_cartesian_position(cart_spec(boson_trunc=n))
    elif kind == "polar":
        built = build(HamiltonianSpec(kind="LandauPolar", boson_trunc=n, angular_m=rest[0]))
    else:
        built = build(_monopole_spec(kind, 2.0, n))
    blocks = built.blocks
    assert isinstance(blocks, np.ndarray) and blocks.shape == (count, size) and not blocks.flags.writeable
    assert np.array_equal(np.sort(blocks.ravel()), np.arange(built.dim))
    if built.hermitian:
        assert np.array_equal(built.real_form[0], blocks)
    else:
        assert kind in ("Literal", "ScalarB")


def test_sectors_of_unequal_sizes_are_refused():
    import gaugesim.hamiltonians as hamiltonians

    with pytest.raises(GaugesimError, match="unequal sizes"):
        hamiltonians._blocks_by([0, 0, 1])
    with pytest.raises(GaugesimError, match="unequal sizes"):
        whole_build(np.eye(3), HamiltonianSpec(kind="LandauPolar"), [0, 0, 1])


def _stacked_outcomes(entries, filled, spec, labels):
    """``_build_outcome`` of a build given sector stacks, and the two-scan
    oracle's given the matrix they fill (zeros elsewhere)."""
    import gaugesim.hamiltonians as hamiltonians

    dense = np.zeros((filled.size,) * 2, dtype=entries.dtype)
    for idx, sub in zip(filled, entries):
        dense[np.ix_(idx, idx)] = sub
    stacked = _build_outcome(BuiltHamiltonian, entries=entries, filled=filled, spec=spec,
                             blocks=hamiltonians._blocks_by(labels))
    return stacked, two_scan_finish(dense, spec, labels)


@pytest.mark.parametrize("variant, edit", [("Literal", None), ("ScalarB", None), ("HermitianPart", None),
                                           ("Literal", "below"), ("ScalarB", "below"),
                                           ("Literal", "inside"), ("HermitianPart", "inside")])
def test_finish_on_sector_stacks_agrees_with_the_two_scans(variant, edit):
    # the monopole builds from its 16 sector stacks; an entry below a
    # literal block inside a sector, or one that skews a block, is refused
    # with the two-scan oracle's message
    built = build(_monopole_spec(variant, 2.0, 4))
    labels = _monopole_labels(variant, 4)
    entries = np.array(built.entries)
    inner = labels[built.filled[3]]
    if edit == "below":
        i, j = np.argwhere(inner[:, None] > inner[None, :])[0]
        entries[3, i, j] = 1e-300
    elif edit == "inside":
        i, j = next((i, j) for i, j in np.argwhere(inner[:, None] == inner[None, :]) if i != j)
        entries[3, i, j] += 1.0
    stacked, dense = _stacked_outcomes(entries, built.filled, built.spec, labels)
    assert stacked == dense
    expected = {None: variant == "HermitianPart", "below": "below its diagonal blocks", "inside": "not Hermitian"}
    if edit:
        assert expected[edit] in stacked
    else:
        assert stacked[0] is expected[None]


@pytest.mark.parametrize("variant", ["Literal", "ScalarB"])
def test_finish_on_sector_stacks_reads_the_largest_entry_above_the_blocks(variant, monkeypatch):
    # hermitian is False for Literal and ScalarB because of the couplings
    # above their blocks: the flag turns over at the ratio of the whole
    # matrix's largest entry above the blocks to its largest entry
    import gaugesim.hamiltonians as hamiltonians

    built = build(_monopole_spec(variant, 2.0, 4))
    labels = _monopole_labels(variant, 4)
    m = built.matrix
    ratio = np.abs(m[labels[:, None] < labels[None, :]]).max() / np.abs(m).max()
    assert ratio > 0.0
    for tol, flag in ((ratio * (1 - 1e-12), False), (ratio * (1 + 1e-12), True)):
        monkeypatch.setattr(hamiltonians, "HERM_TOL", tol)
        assert replace(built).hermitian is flag


@pytest.mark.parametrize("boson_trunc", [2, 4])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_monopole_build_keeps_its_sectors_and_assembles_the_matrix_on_read(variant, boson_trunc):
    # the 16 sector stacks are the build; each label block lies inside one
    # sector, and the matrix is the stacks scattered into zeros, made once
    built = build(_monopole_spec(variant, 1.37, boson_trunc))
    size = boson_trunc ** 3 // 2
    assert built.entries.shape == (16, size, size) and built.filled.shape == (16, size)
    assert sorted(built.filled.ravel().tolist()) == list(range(built.dim))
    sector_of = np.empty(built.dim, dtype=int)
    sector_of[built.filled] = np.arange(16)[:, None]
    assert all(len(set(sector_of[b].tolist())) == 1 for b in built.blocks)
    assert "matrix" not in vars(built)
    m = built.matrix
    assert built.matrix is m and m.dtype == np.complex128 and not m.flags.writeable
    scattered = np.zeros((built.dim,) * 2, dtype=np.complex128)
    for idx, sub in zip(built.filled, built.entries):
        scattered[np.ix_(idx, idx)] = sub
    assert m.tobytes() == scattered.tobytes()


@pytest.mark.parametrize("make", [lambda: build_landau_cartesian_position(cart_spec()),
                                  lambda: build(HamiltonianSpec(kind="LandauPolar", angular_m=1))],
                         ids=["grid", "polar"])
def test_a_dense_build_is_its_one_filled_block(make):
    # a dense builder hands its matrix whole: the build's matrix is a view of it
    built = make()
    assert built.filled.tolist() == [list(range(built.dim))]
    assert built.matrix.shape == (built.dim,) * 2 and np.shares_memory(built.matrix, built.entries)


@pytest.mark.parametrize("boson_trunc", [2, 4, 16])
def test_the_oscillator_build_keeps_its_parity_sectors_and_assembles_the_matrix_on_read(boson_trunc):
    # the two (-1)^(n_x + n_y) stacks are the build, and the matrix is the
    # stacks scattered into zeros, made once
    built = build(cart_spec(b_field=1.37, boson_trunc=boson_trunc))
    size = boson_trunc ** 2 // 2
    assert built.entries.shape == (2, size, size)
    i = np.arange(built.dim)
    parity = (i // boson_trunc + i % boson_trunc) % 2
    assert built.filled.tolist() == [i[parity == 0].tolist(), i[parity == 1].tolist()]
    assert "matrix" not in vars(built)
    m = built.matrix
    assert built.matrix is m and m.dtype == np.complex128 and not m.flags.writeable
    scattered = np.zeros((built.dim,) * 2, dtype=np.complex128)
    for idx, sub in zip(built.filled, built.entries):
        scattered[np.ix_(idx, idx)] = sub
    assert m.tobytes() == scattered.tobytes()


# ---------------------------------------------------------------- construction


def test_hermitian_is_worked_out_never_passed_in():
    built = build(HamiltonianSpec(kind="LandauPolar"))
    with pytest.raises(TypeError, match="hermitian"):
        BuiltHamiltonian(entries=built.entries, filled=built.filled, spec=built.spec, hermitian=True,
                         blocks=built.blocks)
    with pytest.raises(ValueError, match="hermitian"):
        replace(built, hermitian=False)


def test_an_edited_build_is_checked_again():
    # replace runs a builder's checks: an edited matrix or edited blocks do
    # not keep the flag and the spectrum of the build they came from
    polar = build(HamiltonianSpec(kind="LandauPolar"))
    h = np.array(polar.matrix)
    h[0, 1] += 5.0
    with pytest.raises(GaugesimError, match="LandauPolar: a diagonal block of size 16 is not Hermitian"):
        replace(polar, entries=h[None])
    part = build(_monopole_spec("HermitianPart", 2.0, 2))
    blocks = np.array(part.blocks)
    blocks[1] = blocks[0]  # a repeated row: index 0 twice, and the second sector's indices never
    with pytest.raises(GaugesimError, match=r"MonopoleSU2: blocks is not a partition of 0\.\.63 into rows"):
        replace(part, blocks=blocks)


def _swapped(a, i, j):
    """A copy of ``a`` with its flat entries i and j exchanged."""
    a = np.array(a)
    a.flat[[i, j]] = a.flat[[j, i]]
    return a


#: An edit of the 4 x 4 oscillator build (two filled blocks of 8, the same
#: two blocks) or of the 4 x 4 grid (one whole block, orbits of four) that
#: is not a build, and what it is refused for.
_NOT_A_BUILD = {
    "filled 1-D": ("oscillator", lambda b: {"filled": np.arange(16)}, "filled is not a partition"),
    "filled repeats an index": ("oscillator", lambda b: {"filled": np.where(b.filled == 1, 0, b.filled)},
                                "filled is not a partition"),
    "filled of floats": ("oscillator", lambda b: {"filled": b.filled.astype(float)}, "filled is not a partition"),
    "entries of the wrong size": ("oscillator", lambda b: {"entries": b.entries[:, :4, :4]},
                                  "filled is not a partition .* with one block of entries per row"),
    "blocks repeat an index": ("oscillator", lambda b: {"blocks": np.where(b.blocks == 1, 0, b.blocks)},
                               "blocks is not a partition"),
    "blocks 1-D": ("grid", lambda b: {"blocks": np.arange(16)}, "blocks is not a partition"),
    "a block across two filled blocks": ("oscillator", lambda b: {"blocks": _swapped(b.blocks, 0, 8)},
                                         "a block does not lie inside one filled block"),
    "orbits of two": ("grid", lambda b: {"orbits": b.orbits.reshape(8, 2)}, "orbits is not a partition"),
    "orbits repeat an index": ("grid", lambda b: {"orbits": np.where(b.orbits == 1, 0, b.orbits)},
                               "orbits is not a partition"),
    "orbits on two filled blocks": ("oscillator", lambda b: {"orbits": np.arange(16).reshape(4, 4)},
                                    "orbits is not a partition"),
}


@pytest.mark.parametrize("case", list(_NOT_A_BUILD))
def test_the_constructor_refuses_what_is_not_a_build(case):
    which, edit, message = _NOT_A_BUILD[case]
    spec = cart_spec(boson_trunc=4)
    built = build(spec) if which == "oscillator" else build_landau_cartesian_position(spec)
    with pytest.raises(GaugesimError, match=f"LandauCartesian: {message}"):
        replace(built, **edit(built))


# ---------------------------------------------------------------- build slot


def test_a_repeated_build_is_the_held_one_without_a_second_finish(monkeypatch):
    # each build is constructed, and so checked, once: a held one never again
    finished = []
    post_init = BuiltHamiltonian.__post_init__
    monkeypatch.setattr(BuiltHamiltonian, "__post_init__", lambda self: finished.append(self.spec) or post_init(self))
    polar = HamiltonianSpec(kind="LandauPolar", b_field=2.0, angular_m=1)
    held = build(polar)
    # an equal spec, passed by position or by name
    for again in (build(polar), build(spec=replace(polar))):
        assert again is held
    monopole = HamiltonianSpec(kind="MonopoleSU2", variant="HermitianPart")
    held = build(monopole)
    assert build(monopole) is held
    held = build_landau_cartesian_position(cart_spec())
    assert build_landau_cartesian_position(cart_spec(b_field=2)) is held
    assert finished == [polar, monopole, cart_spec()]
    # the spectrum is solved once per build, and every reader shares it
    assert held.spectrum() is held.spectrum()
    assert held.lowest_eigenvalue() == held.spectrum()[0]


def test_builds_of_one_spec_with_other_builders_or_arguments_never_alias():
    cart = cart_spec(boson_trunc=4)
    builds = [build(cart), build_landau_cartesian_position(cart), build(cart)]
    assert builds[2] is not builds[0]  # another build came between
    assert len({id(b) for b in builds}) == 3
    assert not np.array_equal(builds[0].matrix, builds[1].matrix)
    assert builds[2].matrix.tobytes() == builds[0].matrix.tobytes()


def test_a_new_spec_drops_the_held_build():
    import weakref

    built = build(HamiltonianSpec(kind="MonopoleSU2", variant="HermitianPart"))
    built.spectrum()
    ref = weakref.ref(built)
    del built
    assert ref() is not None  # held
    build(HamiltonianSpec(kind="MonopoleSU2", variant="HermitianPart", b_field=0.2))
    assert ref() is None
    # a refused call drops it too, before it builds
    ref = weakref.ref(build(cart_spec()))
    with pytest.raises(InvalidConfigError):
        build_landau_cartesian_position(HamiltonianSpec(kind="LandauPolar"))
    assert ref() is None


@pytest.mark.parametrize("make", [lambda: build(cart_spec()), lambda: build_landau_cartesian_position(cart_spec()),
                                  lambda: build(HamiltonianSpec(kind="LandauPolar")),
                                  lambda: build(HamiltonianSpec(kind="MonopoleSU2", variant="HermitianPart"))],
                         ids=["oscillator", "grid", "polar", "monopole"])
def test_a_build_is_read_only(make):
    built = make()
    with pytest.raises(ValueError, match="read-only"):
        built.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        built.spectrum()[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        built.blocks[0][0] = 1
    with pytest.raises(ValueError, match="read-only"):
        built.entries[0, 0, 0] = 1.0
    # the blocks of a replace are its own, and so are its views and its matrix
    entries = 2.0 * np.asarray(built.entries)
    doubled = replace(built, entries=entries)
    assert "matrix" not in vars(doubled)
    assert entries.flags.writeable and not doubled.entries.flags.writeable and not doubled.matrix.flags.writeable
    m = 2.0 * np.asarray(built.matrix)
    assert doubled.matrix.tobytes() == m.tobytes()
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(m[np.ix_(b, b)]) for b in built.blocks]))
    np.testing.assert_allclose(doubled.spectrum(), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(doubled.spectrum(), 2.0 * built.spectrum(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(doubled.eigensystem().values, expected, rtol=0, atol=1e-12)


def test_builds_compare_by_identity():
    # numpy fields compared entrywise made == raise on two builds of other shapes
    polar = build(HamiltonianSpec(kind="LandauPolar"))
    monopole = build(HamiltonianSpec(kind="MonopoleSU2", variant="HermitianPart"))
    assert (polar == monopole) is False and (monopole == polar) is False
    assert (monopole == replace(monopole)) is False and monopole != replace(monopole)
    assert (monopole == monopole) is True
    assert len({polar, monopole, replace(monopole)}) == 3


def test_qubits_follow_the_matrix():
    # qubits is read from dim, so a replaced matrix cannot keep a stale count
    from dataclasses import fields

    built = build(HamiltonianSpec(kind="LandauPolar"))
    assert "qubits" not in {f.name for f in fields(BuiltHamiltonian)}
    assert built.qubits == 4 and built.dim == 2 ** built.qubits
    small = replace(built, entries=built.entries[:, :4, :4], filled=np.arange(4)[None], blocks=np.arange(4)[None])
    assert small.qubits == 2 and small.matrix.shape == (4, 4)


@pytest.mark.parametrize("make", [lambda: build(cart_spec()), lambda: build_landau_cartesian_position(cart_spec()),
                                  lambda: build(HamiltonianSpec(kind="LandauPolar")),
                                  lambda: build(HamiltonianSpec(kind="MonopoleSU2", variant="MajoranaFermions"))],
                         ids=["oscillator", "grid", "polar", "monopole"])
def test_real_form_is_gathered_on_first_read_and_kept(make):
    built = make()
    assert "real_form" not in vars(built)  # not by the build
    built.spectrum()
    assert "real_form" not in vars(built)  # nor by the spectrum
    form = built.real_form
    assert built.real_form is form and vars(built)["real_form"] is form
    assert make() is built and make().real_form is form  # the held build keeps it
    m = np.asarray(built.matrix)
    dense = 0.5 * (m.real + m.real.T)
    idx, sub = form
    assert idx.shape == built.blocks.shape
    assert sub.tobytes() == dense[idx[:, :, None], idx[:, None, :]].tobytes()
    # replace carries it over no more than the spectrum
    doubled = replace(built, entries=2.0 * built.entries)
    assert "real_form" not in vars(doubled)
    assert np.array_equal(doubled.real_form[1], 2.0 * sub)


@pytest.mark.parametrize("variant", ["Literal", "ScalarB"])
def test_a_non_hermitian_build_has_no_real_form(variant):
    spec = HamiltonianSpec(kind="MonopoleSU2", variant=variant, r_ref=1.0 if variant == "ScalarB" else None)
    built = build(spec)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        built.real_form
    assert "real_form" not in vars(built)


def test_signed_zero_fields_build_byte_equal_matrices_and_spectra():
    # b_field 0.0 and -0.0 are one spec to the slot: both builds are the same bytes
    import gaugesim.hamiltonians as hamiltonians

    makes = [(build, HamiltonianSpec(kind=kind, b_field=b, **extra))
             for kind, extra in (("LandauCartesian", {}), ("LandauPolar", {"angular_m": 1}),
                                 ("MonopoleSU2", {"variant": "HermitianPart"}), ("MonopoleSU2", {}))
             for b in (0.0, -0.0)]
    makes += [(build_landau_cartesian_position, cart_spec(b_field=b)) for b in (0.0, -0.0)]
    for (builder, plus), (_, minus) in zip(makes[::2], makes[1::2]):
        assert plus == minus and np.signbit(minus.b_field)
        hamiltonians._SLOT.clear()
        a = builder(plus)
        hamiltonians._SLOT.clear()
        b = builder(minus)
        assert a is not b
        assert a.matrix.tobytes() == b.matrix.tobytes(), plus
        assert a.spectrum().tobytes() == b.spectrum().tobytes(), plus
