"""Classical oracles: the radial Wu-Yang equation and propagation kernels.

Integrates g'' = g (g^2 - 1)/r^2 from small-r series data, demonstrates
fourth-order convergence of the integrator, evaluates the constant-field
polar propagation kernel in closed form (its free-particle limit and its
value near a singular time), and reads the worldline proper-time kernel off
the position grid: its return kernel in a constant field is the free one
times Schwinger's factor (BT/2) / sinh(BT/2).
"""

import numpy as np

from gaugesim import (
    HamiltonianSpec,
    build_landau_cartesian_position,
    kernel_polar,
    pos_grid,
    wu_yang_series_large,
    wu_yang_series_small,
    wu_yang_solve,
)
from gaugesim.analytic import wu_yang_series_small_prime

print("=== radial Wu-Yang equation ===")
r0 = 0.05
g0, gp0 = wu_yang_series_small(r0), wu_yang_series_small_prime(r0)
traj = wu_yang_solve(r0, 4.0, 800, g0, gp0)
print("r, g(r), small-r series, large-r series:")
for r_target in (0.1, 0.5, 1.0, 2.0, 4.0):
    k = int(np.argmin(np.abs(traj[:, 0] - r_target)))
    r, g = traj[k, 0], traj[k, 1]
    print(f"  r={r:4.2f}: g={g:+.6f}   small={wu_yang_series_small(r):+.6f}   "
          f"large={wu_yang_series_large(r):+.6f}")

fine = wu_yang_solve(r0, 1.0, 12800, g0, gp0)[-1, 1]
print("\nintegrator convergence (error at r = 1 vs a 12800-step reference):")
prev = None
for steps in (50, 100, 200, 400):
    err = abs(wu_yang_solve(r0, 1.0, steps, g0, gp0)[-1, 1] - fine)
    note = f"  (ratio {prev / err:.1f})" if prev else ""
    print(f"  steps={steps:4d}: error {err:.3e}{note}")
    prev = err

print("\n=== polar propagation kernel ===")
val = kernel_polar(0.0, 0.0, 0.5, 0.0, 0.3, 2.0)
print(f"K(rho=0 -> rho=0.5, phi=0; T=0.3, B=2): {val:.6f}")
rho_i, phi_i, rho_f, phi_f, t = 0.5, 0.0, 0.7, 0.4, 0.3
dist2 = rho_f ** 2 + rho_i ** 2 - 2.0 * rho_f * rho_i * np.cos(phi_f - phi_i)
free = np.exp(1j * dist2 / (2.0 * t)) / (2j * np.pi * t)
small_b = kernel_polar(rho_i, phi_i, rho_f, phi_f, t, 1e-6)
print(f"B = 1e-6 vs the free propagator e^(i |dr|^2 / 2T) / (2 pi i T): "
      f"relative difference {abs(small_b - free) / abs(free):.2e}")
near = kernel_polar(0.7, 0.0, 0.7, 0.4, 3.13, 2.0)
print(f"near the singular time B T / 2 = pi (T=3.13, B=2): {near:.15g}")

print("\n=== proper-time kernel on the position grid ===")


def return_kernels(n, b_field, times):
    """K(c, c; T) = <c| exp(-T H) |c> on the n x n grid, c the point nearest the origin."""
    es = build_landau_cartesian_position(
        HamiltonianSpec(kind="LandauCartesian", b_field=b_field, boson_trunc=n)).eigensystem()
    grid = pos_grid(n)
    c = np.argmin((grid[:, None] ** 2 + grid ** 2).ravel())
    return np.exp(-np.outer(times, es.values)) @ np.abs(es.vectors[c]) ** 2


times = np.linspace(0.5, 2.0, 16)
print("max |K_B / K_0 - (BT/2)/sinh(BT/2)| over T in [0.5, 2]:")
print("  grid    B=0.5      B=1        B=2        B=3")
for n in (16, 8):
    free = return_kernels(n, 0.0, times)
    errs = [np.abs(return_kernels(n, b, times) / free - (b * times / 2) / np.sinh(b * times / 2)).max()
            for b in (0.5, 1.0, 2.0, 3.0)]
    print(f"  {n:2d}x{n:<2d}  " + "  ".join(f"{e:.2e}" for e in errs))
one = np.array([1.0])
ratio = return_kernels(16, 2.0, one)[0] / return_kernels(16, 0.0, one)[0]
print(f"16x16, B = 2, T = 1: K_B / K_0 = {ratio:.5f}, (BT/2)/sinh(BT/2) = {1.0 / np.sinh(1.0):.5f}")
