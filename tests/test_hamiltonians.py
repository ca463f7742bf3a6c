import json
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

from gaugesim.basis import osc_p, osc_p2, osc_q, osc_q2, place
from gaugesim.errors import GaugesimError, InvalidSpecError
from gaugesim.hamiltonians import (
    KINDS,
    POLAR_BASIS_SCALE,
    BuiltHamiltonian,
    HamiltonianSpec,
    VARIANTS,
    build,
    build_landau_cartesian,
    build_landau_cartesian_position,
    build_landau_polar,
    build_monopole_su2,
    variant_selection_report,
)
from gaugesim.operators import hermitian_eig, is_hermitian

from conftest import dense_monopole


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
    ({"kind": "Nope"}, "unknown kind"),
    ({"kind": "LandauPolar", "boson_trunc": 12}, "power of two"),
    ({"kind": "LandauCartesian", "boson_trunc": 32}, "at most 9"),
    ({"kind": "MonopoleSU2", "variant": "ScalarB"}, "positive r_ref"),
    ({"kind": "MonopoleSU2", "variant": "ScalarB", "r_ref": -1.0}, "positive r_ref"),
    ({"kind": "MonopoleSU2", "variant": "Literal", "r_ref": 1.0}, "only valid with the ScalarB"),
    ({"kind": "MonopoleSU2", "variant": "Weird"}, "unknown variant"),
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
        with pytest.raises(InvalidSpecError, match=message):
            HamiltonianSpec(**kw)
        valid = HamiltonianSpec(kind=kw["kind"] if kw["kind"] in KINDS else "LandauPolar")
        with pytest.raises(InvalidSpecError, match=message):
            replace(valid, **kw)
        obj = _json_form(kw)
        if obj is not None:
            with pytest.raises(InvalidSpecError, match=message):
                HamiltonianSpec.from_json(obj)


def test_spec_reads_its_numbers():
    # the constructor reads numbers as from_json does: 16.0 is the int 16
    spec = HamiltonianSpec(kind="LandauPolar", b_field=2, boson_trunc=16.0)
    assert spec == HamiltonianSpec.from_json({"kind": "LandauPolar", "b_field": 2, "boson_trunc": 16.0})
    assert type(spec.boson_trunc) is int and type(spec.b_field) is float
    assert spec.qubits == 4 and build(spec).dim == 16


def test_spec_json_round_trip():
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=0.2, variant="ScalarB", r_ref=1.5)
    blob = spec.to_json()
    assert set(blob) == {"kind", "b_field", "boson_trunc", "angular_m", "variant"}
    assert blob["variant"] == {"ScalarB": 1.5}
    back = HamiltonianSpec.from_json(blob)
    assert back == spec


def test_spec_json_rejects_unknown_keys():
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec.from_json({"kind": "LandauPolar", "extra": 1})
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec.from_json({"b_field": 2.0})  # kind missing
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec.from_json({"kind": "MonopoleSU2", "variant": {"ScalarB": 1.0, "x": 2}})


# ------------------------------------------------------------- cartesian


def test_cartesian_ground_energy_projected():
    built = build_landau_cartesian(cart_spec())
    assert built.hermitian and built.qubits == 8 and built.dim == 256
    vals = hermitian_eig(built.matrix).values
    assert abs(vals[0] - 1.0) < 1e-9
    assert np.sum(np.abs(vals - 1.0) < 1e-9) >= 8  # lowest-level degeneracy survives


def test_cartesian_literal_squares_expose_edge_states():
    built = build_landau_cartesian(cart_spec(), squares="literal")
    vals = hermitian_eig(built.matrix).values
    # the corner commutator defect lets edge states sink below the physical
    # ground energy; measured floor ~0.8699
    assert vals[0] < 1.0 - 0.1
    assert np.sum(np.abs(vals - 1.0) < 1e-9) >= 8


def test_cartesian_expanded_form_identity():
    # assemble the expanded form independently and compare entrywise, for
    # both squares conventions
    n, b = 16, 2.0
    dims = [n, n]
    q, p = osc_q(n), osc_p(n)
    x, y = place(q, 0, dims), place(q, 1, dims)
    px, py = place(p, 0, dims), place(p, 1, dims)
    hb = b / 2.0

    for squares in ("projected", "literal"):
        if squares == "projected":
            x2, p2 = osc_q2(n), osc_p2(n)
        else:
            x2, p2 = q @ q, p @ p
        expanded = (
            0.5 * (place(p2, 0, dims) + place(p2, 1, dims))
            + 0.5 * hb ** 2 * (place(x2, 0, dims) + place(x2, 1, dims))
            - hb * (x @ py - y @ px)
        )
        built = build_landau_cartesian(cart_spec(), squares=squares)
        scale = np.max(np.abs(built.matrix))
        assert np.max(np.abs(built.matrix - expanded)) <= 1e-10 * scale


def test_cartesian_literal_equals_completed_square_products():
    # for the literal convention the completed-square assembly is exact
    n, b = 16, 2.0
    dims = [n, n]
    q, p = osc_q(n), osc_p(n)
    x, y = place(q, 0, dims), place(q, 1, dims)
    px, py = place(p, 0, dims), place(p, 1, dims)
    a1 = px + (b / 2) * y
    a2 = py - (b / 2) * x
    direct = 0.5 * (a1 @ a1 + a2 @ a2)
    built = build_landau_cartesian(cart_spec(), squares="literal")
    np.testing.assert_allclose(built.matrix, direct, atol=1e-12)


def test_cartesian_levels_match_closed_form():
    from gaugesim.analytic import landau_energy

    vals = hermitian_eig(build_landau_cartesian(cart_spec()).matrix).values
    # lowest distinct cluster sits at the n=0 level; the n=1 level survives
    # truncation as an exact eigenvalue (interleaved truncation states keep
    # it from being the second *distinct* cluster)
    assert abs(vals[0] - landau_energy(2.0, 0)) < 1e-4
    assert np.min(np.abs(vals - landau_energy(2.0, 1))) < 1e-4


def test_cartesian_b0_free_particle():
    built = build_landau_cartesian(cart_spec(b_field=0.0))
    vals = hermitian_eig(built.matrix).values
    assert vals[0] >= -1e-12


def test_cartesian_hermitian_across_fields():
    for b in (-3.0, 0.5, 2.0):
        assert build_landau_cartesian(cart_spec(b_field=b)).hermitian


def test_cartesian_position_basis():
    built = build_landau_cartesian_position(cart_spec())
    assert built.hermitian and built.dim == 256
    # positive kinetic + potential at B=0
    free = build_landau_cartesian_position(cart_spec(b_field=0.0))
    assert hermitian_eig(free.matrix).values[0] >= -1e-12


def test_builder_kind_guards():
    with pytest.raises(InvalidSpecError):
        build_landau_cartesian(HamiltonianSpec(kind="LandauPolar"))
    with pytest.raises(InvalidSpecError):
        build_landau_polar(cart_spec())
    with pytest.raises(InvalidSpecError):
        build_monopole_su2(cart_spec())
    with pytest.raises(InvalidSpecError):
        build_landau_cartesian(cart_spec(), squares="bogus")


# ----------------------------------------------------------------- polar


def test_polar_ground_energy_calibrated():
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    assert built.hermitian and built.qubits == 4
    lam = hermitian_eig(built.matrix).values[0]
    # calibrated basis: within 1e-3 of the continuum value 1.0 (measured
    # 1.0000850); reference table value 0.9980452 sits 2.04e-3 away
    assert abs(lam - 1.0) < 1e-3
    assert abs(lam - 0.9980452) < 5e-3


def test_polar_uncalibrated_basis_value():
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0), basis_scale=1.0)
    lam = hermitian_eig(built.matrix).values[0]
    # unit-scale basis underestimates the ground energy by ~3% (documented)
    assert abs(lam - 0.9698777) < 1e-6


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), True, "5", 0.0, -1.0])
def test_polar_basis_scale_must_be_finite_and_positive(scale):
    spec = HamiltonianSpec(kind="LandauPolar")
    with pytest.raises(InvalidSpecError, match=re.escape(repr(scale))):
        build_landau_polar(spec, basis_scale=scale)


def test_polar_angular_terms_enter_only_for_nonzero_m():
    b0 = build_landau_polar(HamiltonianSpec(kind="LandauPolar", angular_m=0))
    b1 = build_landau_polar(HamiltonianSpec(kind="LandauPolar", angular_m=1))
    assert np.max(np.abs(b0.matrix - b1.matrix)) > 0.1
    # m enters through m^2/rho^2 and -(B/2)m only; at m=0 both vanish
    assert b0.hermitian and b1.hermitian


def test_polar_continuum_reference():
    from gaugesim.analytic import polar_energy

    assert polar_energy(2.0, 0, 0) == 1.0


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
    lit = build_monopole_su2(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0))
    assert lit.dim == 512 and lit.qubits == 9
    assert not lit.hermitian  # raising-operator bilinears are non-Hermitian
    hp = build_monopole_su2(
        HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart")
    )
    assert hp.hermitian
    mj = build_monopole_su2(
        HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="MajoranaFermions")
    )
    assert mj.hermitian


@pytest.mark.parametrize("boson_trunc", [2, 4])
@pytest.mark.parametrize("g_m", [0.0, 0.2, 2.0, 2.9])
@pytest.mark.parametrize("variant", VARIANTS)
def test_monopole_matches_dense_oracle(variant, g_m, boson_trunc):
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=g_m, boson_trunc=boson_trunc,
                           variant=variant, r_ref=1.3 if variant == "ScalarB" else None)
    built = build_monopole_su2(spec)
    assert built.dim == 8 * boson_trunc ** 3
    np.testing.assert_allclose(built.matrix, dense_monopole(spec), rtol=0, atol=1e-13)


def test_monopole_build_stays_on_the_factors(monkeypatch):
    # structural guard for the factored build: the only eigendecomposition
    # is the boson-space r^2 (64x64 at N = 4), and no operator is placed on
    # the full 512-dim register
    import gaugesim.basis as basis_module
    import gaugesim.operators as operators

    eig_dims, place_dims = [], []
    hermitian_eig, place_op = operators.hermitian_eig, basis_module.place

    def counted_place(*a, **k):
        out = place_op(*a, **k)
        place_dims.append(out.shape[0])
        return out

    monkeypatch.setattr(operators, "hermitian_eig",
                        lambda a: eig_dims.append(np.shape(a)[0]) or hermitian_eig(a))
    monkeypatch.setattr(basis_module, "place", counted_place)
    for variant in VARIANTS:
        eig_dims.clear()
        place_dims.clear()
        spec = HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant=variant,
                               r_ref=1.0 if variant == "ScalarB" else None)
        assert build_monopole_su2(spec).dim == 512
        assert len(eig_dims) <= 1 and all(d <= 64 for d in eig_dims), (variant, eig_dims)
        assert place_dims and max(place_dims) <= 64, (variant, place_dims)


def test_monopole_zero_coupling_is_free():
    built = build_monopole_su2(HamiltonianSpec(kind="MonopoleSU2", b_field=0.0))
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
    free = build_monopole_su2(HamiltonianSpec(kind="MonopoleSU2", b_field=0.0))
    free_vals = np.sort(np.linalg.eigvalsh(free.matrix))
    lit = build_monopole_su2(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0))
    lit_vals = np.sort(np.linalg.eigvals(lit.matrix).real)
    np.testing.assert_allclose(lit_vals, free_vals, atol=1e-6)


def test_monopole_variants_agree_at_zero_coupling():
    mats = []
    for variant, r_ref in (("Literal", None), ("MajoranaFermions", None),
                           ("HermitianPart", None), ("ScalarB", 1.0)):
        spec = HamiltonianSpec(kind="MonopoleSU2", b_field=0.0, variant=variant, r_ref=r_ref)
        mats.append(build_monopole_su2(spec).matrix)
    for m in mats[1:]:
        np.testing.assert_allclose(m, mats[0], atol=1e-12)


def test_variant_selection_report():
    rep = variant_selection_report()
    assert set(rep.values) == {"Literal", "MajoranaFermions", "HermitianPart", "ScalarB"}
    # no spec variant reproduces the reference pair (documented analysis);
    # the closest is the Hermitian part, which is also Hermitian
    assert rep.matches == []
    assert rep.closest == "HermitianPart"
    assert rep.closest_hermitian == "HermitianPart"
    assert rep.hermitian["HermitianPart"] and rep.hermitian["MajoranaFermions"]
    assert not rep.hermitian["Literal"]
    # HermitianPart variant always yields a real spectrum
    hp = build_monopole_su2(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart"))
    assert is_hermitian(hp.matrix)
    md = rep.to_markdown()
    assert "HermitianPart" in md and "reference" in md
    # the committed table (regenerated by demos/04_monopole_variants.py) is current
    doc = pathlib.Path(__file__).resolve().parents[1] / "docs" / "monopole_variants.md"
    assert md in doc.read_text(encoding="utf-8")


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
    # the invariant _finish checks, with an exact 0.0: nothing below the
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
    built = build_monopole_su2(_monopole_spec(variant, g_m, boson_trunc))
    assert_exact_blocks(built)
    # the labels, from the register layout [n, n, n, 2, 2, 2]
    n = boson_trunc
    bx, by, bz, f1, f2, f3 = np.unravel_index(np.arange(built.dim), (n, n, n, 2, 2, 2))
    occupation, boson_parity = f1 + f2 + f3, (bx + by + bz) % 2
    if variant in ("Literal", "ScalarB"):
        assert len(built.blocks) == 16
        assert _groups(f1 * 8 + f2 * 4 + f3 * 2 + boson_parity) == set(map(tuple, built.blocks))
        # block order: fermion occupation never falls
        occ = [occupation[b[0]] for b in built.blocks]
        assert occ == sorted(occ)
        np.testing.assert_allclose(built.spectrum(), _free_monopole_values(n), rtol=0, atol=1e-12)
    else:
        assert len(built.blocks) == 4
        assert _groups(occupation % 2 * 2 + boson_parity) == set(map(tuple, built.blocks))
        np.testing.assert_allclose(built.spectrum(), np.linalg.eigvalsh(built.matrix), rtol=0, atol=1e-12)


@pytest.mark.parametrize("boson_trunc", [2, 4, 8, 16])
def test_cartesian_blocks_are_exact(boson_trunc):
    n = boson_trunc
    for squares in ("projected", "literal"):
        built = build_landau_cartesian(cart_spec(boson_trunc=n), squares=squares)
        assert_exact_blocks(built)
        nx, ny = np.unravel_index(np.arange(built.dim), (n, n))
        assert _groups((nx + ny) % 2) == set(map(tuple, built.blocks))
        np.testing.assert_allclose(built.spectrum(), np.linalg.eigvalsh(built.matrix), rtol=0, atol=1e-12)


def test_polar_and_position_builds_have_one_block():
    # the position grid shares kind LandauCartesian but has no Z-parity
    # structure: blocks come from the builder, not from the kind
    for built in (build_landau_polar(HamiltonianSpec(kind="LandauPolar", angular_m=1)),
                  build_landau_cartesian_position(cart_spec()),
                  build_landau_cartesian_position(cart_spec(boson_trunc=4))):
        assert len(built.blocks) == 1
        assert_exact_blocks(built)
        np.testing.assert_allclose(built.spectrum(), np.linalg.eigvalsh(built.matrix), rtol=0, atol=1e-12)


def test_finish_refuses_a_matrix_that_breaks_its_blocks(tmp_path, monkeypatch, capsys):
    import gaugesim.hamiltonians as hamiltonians
    from gaugesim.cli import main

    lit = build_monopole_su2(_monopole_spec("Literal", 2.0, 2))
    blocks = lit.blocks
    below = lit.matrix.copy()
    below[blocks[-1][0], blocks[0][0]] = 1e-300
    with pytest.raises(GaugesimError, match="below its diagonal blocks"):
        hamiltonians._finish(below, lit.spec, blocks)
    skew = lit.matrix.copy()
    skew[blocks[0][0], blocks[0][1]] += 1.0
    with pytest.raises(GaugesimError, match="not Hermitian"):
        hamiltonians._finish(skew, lit.spec, blocks)
    with pytest.raises(GaugesimError, match="partition"):
        hamiltonians._finish(lit.matrix, lit.spec, blocks[:-1])
    # the Hermitian variants' four blocks hold the Literal couplings inside
    hp = build_monopole_su2(_monopole_spec("HermitianPart", 2.0, 2))
    with pytest.raises(GaugesimError, match="not Hermitian"):
        hamiltonians._finish(lit.matrix, lit.spec, hp.blocks)
    # the position grid has no (-1)^(n_x + n_y) symmetry
    osc = build_landau_cartesian(cart_spec(boson_trunc=4))
    pos = build_landau_cartesian_position(cart_spec(boson_trunc=4))
    with pytest.raises(GaugesimError):
        hamiltonians._finish(pos.matrix, pos.spec, osc.blocks)
    # a builder bug ends in exit 3, not in a spectrum
    monkeypatch.setattr(hamiltonians, "_one_block", lambda dim: (np.arange(dim - 1),))
    cfg = tmp_path / "polar.json"
    cfg.write_text(json.dumps({"hamiltonian": {"kind": "LandauPolar"}, "output": str(tmp_path / "out.csv")}))
    assert main(["spectrum", "--config", str(cfg)]) == 3
    assert "partition" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
