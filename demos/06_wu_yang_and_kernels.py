"""Classical oracles: the radial Wu-Yang equation and propagation kernels.

Integrates g'' = g (g^2 - 1)/r^2 from small-r series data, demonstrates
fourth-order convergence of the integrator, evaluates the constant-field
polar propagation kernel in closed form (its free-particle limit and its
value near a singular time), and reads the worldline proper-time kernel off
the position grid: its return kernel in a constant field is the free one
times Schwinger's factor (BT/2) / sinh(BT/2), and two vertices inserted in
proper time match the Gaussian integral of the Euclidean Mehler kernel.
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

print("\n=== two vertices in the field: the Gaussian integral of the Mehler kernel ===")


def two_vertex_worldline(k1, k2, c, b_field, tau1, tau2, total_t):
    """<exp(i k1.x(tau1)) exp(i k2.x(tau2))> over the worldlines from c back to c
    in proper time T: the Euclidean Mehler kernel exp(-a(d) |x - x'|^2
    + i (B/2) (x'_1 x_2 - x'_2 x_1)), a(d) = (B/4) coth(B d/2), chains
    c -> x1 -> x2 -> c, a Gaussian in z = (x1, x2) with a 4x4 complex
    symmetric M, so the vertices give exp(i k.M^-1 v - k.M^-1 k / 2)."""
    durations = np.diff([0.0, tau1, tau2, total_t])
    a = 1.0 / (2.0 * durations) if b_field == 0.0 else b_field / 4.0 / np.tanh(b_field * durations / 2.0)
    one, turn = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = np.zeros((4, 2, 4, 2), dtype=np.complex128)  # exponent -X.P X / 2 over X = (c, x1, x2, c)
    for j in range(3):
        p[j, :, j] += 2 * a[j] * one
        p[j + 1, :, j + 1] += 2 * a[j] * one
        p[j, :, j + 1] += -2 * a[j] * one - 0.5j * b_field * turn
        p[j + 1, :, j] += -2 * a[j] * one + 0.5j * b_field * turn
    p = p.reshape(8, 8)
    ends = np.concatenate([c, c])
    v = -(p[2:6, :2] @ ends[:2] + p[2:6, 6:] @ ends[2:])
    k = np.concatenate([k1, k2])
    w, mk = np.linalg.solve(p[2:6, 2:6], np.stack([v, k], axis=1)).T
    return complex(np.exp(1j * (k @ w) - (k @ mk) / 2))


pairs = [((0.5, 0.0), (0.0, 0.5)), ((1.0, 0.0), (0.0, -1.0)), ((0.7, 0.7), (-0.7, 0.7)), ((0.6, -0.8), (0.8, 0.6))]
print("R = <c| e^-(T-tau2)H V_k2 e^-(tau2-tau1)H V_k1 e^-tau1 H |c> / <c| e^-TH |c> on 16x16, T = 1,")
print("max |R - oracle| over 4 pairs (k1, k2), |k| <= 1, and (tau1, tau2) in {(0.25, 0.75), (0.3, 0.5)}")
print("(test bound 1e-3):")
grid = pos_grid(16)
x, y = np.repeat(grid, 16), np.tile(grid, 16)  # index ix * 16 + iy
c = 8 * 16 + 8
for b in (0.0, 1.0, 2.0, 3.0):
    es = build_landau_cartesian_position(
        HamiltonianSpec(kind="LandauCartesian", b_field=b, boson_trunc=16)).eigensystem()

    def euclidean(d):
        return (es.vectors * np.exp(-d * es.values)) @ es.vectors.conj().T

    ret, miss = euclidean(1.0)[c, c], 0.0
    for tau1, tau2 in ((0.25, 0.75), (0.3, 0.5)):
        first, middle, last = euclidean(tau1)[:, c], euclidean(tau2 - tau1), euclidean(1.0 - tau2)[c]
        for k1, k2 in pairs:
            v1, v2 = (np.exp(1j * (k[0] * x + k[1] * y)) for k in (k1, k2))
            ratio = last @ (v2 * (middle @ (v1 * first))) / ret
            miss = max(miss, abs(ratio - two_vertex_worldline(k1, k2, (x[c], y[c]), b, tau1, tau2, 1.0)))
    print(f"  B={b:g}: {miss:.1e}")
