"""Vertex-operator insertions on the momentum grid.

The three-point amplitude <p1| exp(i p2 X) |p3> on a 16-state (4-qubit)
grid is an exact discrete delta: |A| = 1 when p2 equals the momentum
transfer x_{p3} - x_{p1} (modulo the dual-lattice period) and the scan
peaks exactly there.  A full scattering sandwich U(T - tau) V U(tau) is
evolved at the end.
"""

import numpy as np

from gaugesim import pos_grid, pos_p, scattering_process, vertex_amplitude, vertex_scan
from gaugesim.evolution import dual_lattice_period, momentum_state, wrap_momentum

n = 16
grid = pos_grid(n)
period = dual_lattice_period(n)
print(f"momentum grid: {n} states, spacing {grid[1] - grid[0]:.6f}, "
      f"dual-lattice period {period:.6f}\n")

print("amplitude at the kinematic momentum transfer (a few pairs):")
for k1, k3 in ((3, 9), (0, 15), (8, 2)):
    p2 = grid[k3] - grid[k1]
    amp = vertex_amplitude(k1, p2, k3, n)
    print(f"  k1={k1:2d}, k3={k3:2d}: p2 = {p2:+.6f}, |A| = {abs(amp):.12f}")

print("\nscan over one period for (k1, k3) = (3, 9):")
p2s = np.linspace(-period / 2, period / 2, 16 * n, endpoint=False)
amps = vertex_scan(3, 9, n, p2s)
peak = p2s[int(np.argmax(amps))]
pred = wrap_momentum(grid[9] - grid[3], n)
print(f"  argmax p2 = {peak:+.6f}, wrapped prediction = {pred:+.6f}")
# largest |A| first, rounded to 12 digits, ties by p2: the two side lobes are
# equal up to rounding, so p2 orders them, not the last bit of each amplitude
top = np.lexsort((p2s, -np.round(amps, 12)))[:3]
for idx in top:
    print(f"  p2 = {p2s[idx]:+.6f}: |A| = {amps[idx]:.6f}")

print("\nscattering sandwich on a free particle (T = 1, vertex at tau = 0.4):")
h_free = 0.5 * (pos_p(n) @ pos_p(n))
psi0 = momentum_state(5, n)
p2 = grid[9] - grid[5]
out = scattering_process(h_free, p2, 0.4, 1.0, psi0)
weights = np.abs([np.vdot(momentum_state(k, n), out) for k in range(n)]) ** 2
print(f"  initial momentum index 5, inserted p2 = {p2:+.6f}")
print(f"  outgoing momentum distribution peaks at index {int(np.argmax(weights))} "
      f"with weight {np.max(weights):.6f}")
print(f"  norm of outgoing state: {np.linalg.norm(out):.12f}")
