"""Resolve the SU(2) monopole construction ambiguity empirically.

The raising-operator fermion bilinears make the literal Hamiltonian
non-Hermitian, and in fact block-triangular in the fermion occupation, so
its spectrum cannot depend on the coupling at all.  This script tabulates
the lowest eigenvalue of every construction variant at g_m = 2 and 0.2
against the reference ground energies, marks any match, and refreshes
docs/monopole_variants.md.
"""

import pathlib

import numpy as np

from gaugesim import HamiltonianSpec, build, variant_selection_report

report = variant_selection_report()

print("lowest eigenvalue per variant:\n")
print(report.to_markdown())
print()
if report.matches:
    print("matching variant(s) within 1e-3:", ", ".join(report.matches))
else:
    print("no variant reproduces both reference values;")
    print(f"closest overall: {report.closest}; closest Hermitian: {report.closest_hermitian}")

# the literal spectrum is exactly the free spectrum, for every coupling
free = build(HamiltonianSpec(kind="MonopoleSU2", b_field=0.0))
lam_free = np.linalg.eigvalsh(free.matrix)[0]
print(f"\nfree ground energy (g_m = 0): {lam_free:.8f}")
print("note how the Literal column equals it at every coupling: the bilinears")
print("only lower the fermion occupation, so the matrix is block-triangular")
print("and its eigenvalues are coupling-independent.")

doc = pathlib.Path(__file__).resolve().parents[1] / "docs" / "monopole_variants.md"
doc.write_text(
    "# Monopole construction variants\n\n"
    "Lowest eigenvalue per construction variant of the SU(2) monopole\n"
    "Hamiltonian (512x512, 9 qubits, N = 4 per bosonic factor), from its\n"
    "exact symmetry blocks, against the reference ground energies.\n"
    "Generated by demos/04_monopole_variants.py.\n\n"
    + report.to_markdown()
    + "\n\n"
    "No variant reproduces both reference values within 1e-3.  The literal\n"
    "construction is block-triangular in the fermion occupation (the printed\n"
    "bilinears only lower it), so its spectrum equals the free spectrum for\n"
    "every coupling; the closest Hermitian construction is the Hermitian\n"
    f"part, `{report.closest_hermitian}`, which is the documented default for\n"
    "variational runs.\n"
)
print(f"\nwrote {doc}")
