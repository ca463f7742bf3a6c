"""Transition amplitudes under exact versus Trotterized evolution.

A particle starts at the grid point nearest the origin of the 16x16
position-basis register (B = 2).  The exact spectral propagator is
compared over t in [0, 1] with two first-order products: the split of
the build's two register halves, each exact and diagonal in the grid DFT
(what ``transition_series`` runs on the build), and the product of one
exponential per X-mask group of Pauli strings (what it runs on the same
matrix passed as a plain array).  Both deviations shrink like 1/n_steps.
"""

import numpy as np

from gaugesim import HamiltonianSpec, build_landau_cartesian_position, pauli_decompose, transition_series

spec = HamiltonianSpec(kind="LandauCartesian", b_field=2.0)
built = build_landau_cartesian_position(spec)
n = 16

terms = pauli_decompose(built.matrix)
print(f"position-basis Hamiltonian: {built.dim}x{built.dim}, "
      f"{len(terms.terms)} Pauli terms after pruning")

centre = (n // 2) * n + (n // 2)
psi_i = np.zeros(built.dim, dtype=complex)
psi_i[centre] = 1.0
ts = np.linspace(0.0, 1.0, 11)

exact = transition_series(built, psi_i, "all", ts, method="exact")

print("\nmax transition-probability deviation from the exact propagator:")
print("  n_steps   split (build)   grouped (array)")
for steps in (25, 50, 100, 200, 400):
    devs = []
    for h in (built, built.matrix):
        trot = transition_series(h, psi_i, "all", ts, method="trotter", trotter_steps=steps)
        devs.append(np.max(np.abs(exact.probabilities() - trot.probabilities())))
    print(f"  {steps:7d}   {devs[0]:13.3e}   {devs[1]:15.3e}")

print("\nreturn probability |<initial| U(t) |initial>|^2 (exact):")
p_return = exact.probabilities()[:, centre]
for t, p in zip(ts, p_return):
    print(f"  t={t:4.1f}: {p:.6f}")
