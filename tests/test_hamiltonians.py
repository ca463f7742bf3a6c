import pathlib

import numpy as np
import pytest

from gaugesim.basis import osc_p, osc_p2, osc_q, osc_q2, place
from gaugesim.errors import InvalidSpecError
from gaugesim.hamiltonians import (
    BuiltHamiltonian,
    HamiltonianSpec,
    build,
    build_landau_cartesian,
    build_landau_cartesian_position,
    build_landau_polar,
    build_monopole_su2,
    variant_selection_report,
)
from gaugesim.operators import hermitian_eig, is_hermitian


def cart_spec(**kw):
    return HamiltonianSpec(kind="LandauCartesian", b_field=kw.pop("b_field", 2.0), **kw)


# ---------------------------------------------------------------- spec type


def test_spec_defaults_and_qubits():
    assert cart_spec().qubits == 8
    assert HamiltonianSpec(kind="LandauPolar").qubits == 4
    assert HamiltonianSpec(kind="MonopoleSU2").qubits == 9
    assert cart_spec().resolved().boson_trunc == 16
    assert HamiltonianSpec(kind="MonopoleSU2").resolved().boson_trunc == 4


def test_spec_validation_errors():
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec(kind="Nope").resolved()
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec(kind="LandauPolar", boson_trunc=12).resolved()
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec(kind="MonopoleSU2", variant="ScalarB").resolved()  # no r_ref
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec(kind="MonopoleSU2", variant="Literal", r_ref=1.0).resolved()
    with pytest.raises(InvalidSpecError):
        HamiltonianSpec(kind="MonopoleSU2", variant="Weird").resolved()


def test_spec_json_round_trip():
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=0.2, variant="ScalarB", r_ref=1.5)
    blob = spec.to_json()
    assert set(blob) == {"kind", "b_field", "boson_trunc", "angular_m", "variant", "floor"}
    assert blob["variant"] == {"ScalarB": 1.5}
    back = HamiltonianSpec.from_json(blob)
    assert back == spec.resolved()


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


def test_polar_angular_terms_enter_only_for_nonzero_m():
    b0 = build_landau_polar(HamiltonianSpec(kind="LandauPolar", angular_m=0))
    b1 = build_landau_polar(HamiltonianSpec(kind="LandauPolar", angular_m=1))
    assert np.max(np.abs(b0.matrix - b1.matrix)) > 0.1
    # m enters through m^2/rho^2 and -(B/2)m only; at m=0 both vanish
    assert b0.hermitian and b1.hermitian


def test_polar_continuum_reference():
    from gaugesim.analytic import polar_energy

    assert polar_energy(2.0, 0, 0) == 1.0


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
