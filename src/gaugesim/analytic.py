"""Closed-form and ODE-based classical references.

Landau spectra, the Cartesian and polar propagation kernels of a charged
particle in a constant magnetic field, and the radial Wu-Yang equation
g'' = g(g^2 - 1)/r^2 with its small- and large-r expansions.

The kernel formulas are transcribed as printed in the source expressions,
typos and all; quantitative use is confined to limits that are insensitive
to the suspect groupings (the B -> 0 limit, convergence in the angular
sum).  Both kernels are singular where sin(B T / 2) vanishes and refuse
evaluation there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularTimeError, StepUnderflowError, read_number

__all__ = [
    "landau_energy",
    "polar_energy",
    "kernel_cartesian",
    "kernel_cartesian_free_limit",
    "kernel_polar",
    "bessel_i",
    "wu_yang_solve",
    "wu_yang_series_small",
    "wu_yang_series_small_prime",
    "wu_yang_series_large",
]

#: Evaluation is refused when |sin(B T / 2)| falls below this.
SINGULAR_TOL = 1e-9


def landau_energy(b_field: float, n: int) -> float:
    """Landau level energy |B| (n + 1/2)."""
    n = read_number(n, "level index", int, 0, error=ValueError)
    return abs(b_field) * (n + 0.5)


def polar_energy(b_field: float, n: int, m: int) -> float:
    """Radial-sector energy (n + 1 - m) B / 2, where n = 2 n_r + |m| with n_r >= 0."""
    n = read_number(n, "n", int, error=ValueError)
    m = read_number(m, "m", int, error=ValueError)
    if n < abs(m) or (n - m) % 2:
        raise ValueError(f"n must be 2 n_r + |m| with n_r >= 0, got n={n}, m={m}")
    return (n + 1 - m) * b_field / 2.0


def _half_angle(b_field: float, t: float) -> float:
    s = b_field * t / 2.0
    if abs(np.sin(s)) <= SINGULAR_TOL:
        raise SingularTimeError(
            f"kernel singular: |sin(B t / 2)| = {abs(np.sin(s)):.3e} at B={b_field}, t={t}"
        )
    return s


def kernel_cartesian(x_i, y_i, x_f, y_f, t, b_field, z_i=0.0, z_f=0.0) -> complex:
    """Cartesian propagation kernel for a constant magnetic field.

    K = (1/(2 pi T))^(3/2) * (BT/2)/sin(BT/2) * e^{i (z_f-z_i)^2 / (2T)}
        * exp[ i (BT/2)/tan(BT/2) *
               ( (x_f-x_i)^2 + (y_f-y_i)^2 + B (y_f x_i - x_f y_i) ) ]

    With z_f = z_i (the default) the free z factor is 1 and the value is
    the planar restriction used against the two-dimensional matrix model.
    """
    s = _half_angle(b_field, t)
    pref = (1.0 / (2.0 * np.pi * t)) ** 1.5 * (s / np.sin(s))
    zphase = np.exp(1j * (z_f - z_i) ** 2 / (2.0 * t))
    bracket = (x_f - x_i) ** 2 + (y_f - y_i) ** 2 + b_field * (y_f * x_i - x_f * y_i)
    return complex(pref * zphase * np.exp(1j * (s / np.tan(s)) * bracket))


def kernel_cartesian_free_limit(x_i, y_i, x_f, y_f, t, z_i=0.0, z_f=0.0) -> complex:
    """B -> 0 limit of kernel_cartesian as printed.

    The trigonometric prefactors tend to 1 and the cross term vanishes,
    leaving (1/(2 pi T))^(3/2) e^{i dz^2/(2T)} e^{i (dx^2 + dy^2)}.
    """
    pref = (1.0 / (2.0 * np.pi * t)) ** 1.5
    zphase = np.exp(1j * (z_f - z_i) ** 2 / (2.0 * t))
    return complex(pref * zphase * np.exp(1j * ((x_f - x_i) ** 2 + (y_f - y_i) ** 2)))


def bessel_i(nu: int, z: complex) -> complex:
    """Modified Bessel function I_nu for integer nu >= 0 and complex z.

    Plain power series sum_k (z/2)^(nu + 2k) / (k! (nu + k)!), stopped
    when a term falls below 1e-16 of the running sum.  Accurate at the
    moderate arguments used here (|z| < 20); large arguments would need
    the scaled asymptotic form instead.
    """
    nu = read_number(nu, "order", int, 0, error=ValueError)
    z = complex(z)
    if z == 0.0:
        return 1.0 + 0.0j if nu == 0 else 0.0 + 0.0j
    half = z / 2.0
    term = half ** nu / float(math.factorial(nu))  # k = 0 term
    total = term
    k = 0
    while True:
        k += 1
        term = term * half * half / (k * (nu + k))
        total += term
        if abs(term) <= 1e-16 * max(abs(total), 1e-300):
            return complex(total)
        if k > 10000:
            raise RuntimeError(f"bessel_i series did not converge: nu={nu}, z={z}")


def kernel_polar(rho_i, phi_i, rho_f, phi_f, t, b_field, m_max: int = 20) -> complex:
    """Polar propagation kernel, angular sum truncated at |m| <= m_max.

    K = (1/(2 pi i)) (B/2)/sin(BT/2) e^{-(B/4)(rho_f^2 + rho_i^2)}
        * e^{ i (B/4)(rho_f^2 + rho_i^2) e^{-iBT/2} / sin(BT/2) }
        * sum_m e^{ i m (phi_f - phi_i + BT/2) }
                I_|m|( -i (B/2) rho_f rho_i / sin(BT/2) )

    The Bessel argument decays the terms rapidly, so modest m_max already
    converges to full precision for desk-scale arguments.
    """
    m_max = read_number(m_max, "m_max", int, 1, error=ValueError)
    s = _half_angle(b_field, t)
    sin_s = np.sin(s)
    rr = rho_f ** 2 + rho_i ** 2
    pref = (1.0 / (2.0j * np.pi)) * (b_field / 2.0) / sin_s
    pref *= np.exp(-(b_field / 4.0) * rr)
    pref *= np.exp(1j * (b_field / 4.0) * rr * np.exp(-1j * s) / sin_s)
    arg = -1j * (b_field / 2.0) * rho_f * rho_i / sin_s
    dphi = phi_f - phi_i + s
    total = 0.0 + 0.0j
    for m in range(-m_max, m_max + 1):
        total += np.exp(1j * m * dphi) * bessel_i(abs(m), arg)
    return complex(pref * total)


def wu_yang_solve(r_start, r_end, steps, g_start, gprime_start) -> np.ndarray:
    """Integrate the radial Wu-Yang equation g'' = g (g^2 - 1) / r^2 with fixed-step RK4.

    Returns an array of shape (steps + 1, 3) with rows (r, g, g').  The
    grid must be non-degenerate and stay clear of r = 0, where the
    equation is singular; the initial values must be finite.
    """
    steps = read_number(steps, "steps", int, 10, error=StepUnderflowError)
    r_start = read_number(r_start, "r_start", float, error=StepUnderflowError)
    r_end = read_number(r_end, "r_end", float, error=StepUnderflowError)
    g = read_number(g_start, "g_start", float, error=ValueError)
    gp = read_number(gprime_start, "gprime_start", float, error=ValueError)
    if r_start <= 0.0 or r_end <= 0.0:
        raise StepUnderflowError("radial grid must stay at r > 0")
    h = (r_end - r_start) / steps
    if h == 0.0:
        raise StepUnderflowError("degenerate radial grid (r_start == r_end)")
    r, half, sixth = r_start, h / 2, h / 6.0
    rows = [r, g, gp]
    for k in range(1, steps + 1):
        rm = r + half
        k1g, k1p = gp, g * (g * g - 1.0) / (r * r)
        g2, k2g = g + half * k1g, gp + half * k1p
        k2p = g2 * (g2 * g2 - 1.0) / (rm * rm)
        g3, k3g = g + half * k2g, gp + half * k2p
        k3p = g3 * (g3 * g3 - 1.0) / (rm * rm)
        g4, k4g, r4 = g + h * k3g, gp + h * k3p, r + h
        k4p = g4 * (g4 * g4 - 1.0) / (r4 * r4)
        g += sixth * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        gp += sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        r = r_start + k * h
        rows += (r, g, gp)
    return np.array(rows).reshape(steps + 1, 3)


def wu_yang_series_small(r: float) -> float:
    """Small-r expansion 1 - r^2 + (3/10) r^4."""
    return 1.0 - r * r + 0.3 * r ** 4


def wu_yang_series_small_prime(r: float) -> float:
    """Derivative of the small-r expansion, for seeding the integrator."""
    return -2.0 * r + 1.2 * r ** 3


def wu_yang_series_large(r: float) -> float:
    """Large-r expansion 1 - 1/r + (3/4)/r^2."""
    return 1.0 - 1.0 / r + 0.75 / r ** 2
