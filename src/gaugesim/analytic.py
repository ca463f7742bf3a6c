"""Closed-form and ODE-based classical references.

Landau spectra, the polar propagation kernel of a charged particle in a
constant magnetic field, and the radial Wu-Yang equation
g'' = g(g^2 - 1)/r^2 with its small- and large-r expansions.

The kernel is the symmetric-gauge constant-field propagator (Feynman and
Hibbs) in closed form; its B -> 0 limit is the free planar propagator
exp(i |r_f - r_i|^2 / (2T)) / (2 pi i T).  It is singular where
sin(B T / 2) vanishes and refuses evaluation there.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import GaugesimError, SingularTimeError, StepUnderflowError, read_number

__all__ = [
    "landau_energy",
    "polar_energy",
    "kernel_polar",
    "wu_yang_solve",
    "wu_yang_series_small",
    "wu_yang_series_small_prime",
    "wu_yang_series_large",
]

#: Evaluation is refused when |sin(B T / 2)| falls below this.
SINGULAR_TOL = 1e-9


def _finite(fn):
    """``fn`` raising GaugesimError where its formula overflows at finite
    arguments (an ArithmeticError, or a NaN or infinite result)."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise GaugesimError(f"{fn.__name__}: {exc} at {args + tuple(kwargs.values())}") from None
        read_number(value, f"{fn.__name__} result", complex, error=GaugesimError)
        return value

    return checked


@_finite
def landau_energy(b_field: float, n: int) -> float:
    """Landau level energy |B| (n + 1/2)."""
    b_field = read_number(b_field, "b_field", float, error=ValueError)
    n = read_number(n, "level index", int, 0, error=ValueError)
    return abs(b_field) * (n + 0.5)


@_finite
def polar_energy(b_field: float, n: int, m: int) -> float:
    """Radial-sector energy (n + 1 - m) B / 2, where n = 2 n_r + |m| with n_r >= 0."""
    b_field = read_number(b_field, "b_field", float, error=ValueError)
    n = read_number(n, "n", int, error=ValueError)
    m = read_number(m, "m", int, error=ValueError)
    if n < abs(m) or (n - m) % 2:
        raise ValueError(f"n must be 2 n_r + |m| with n_r >= 0, got n={n}, m={m}")
    return (n + 1 - m) * b_field / 2.0


@_finite
def kernel_polar(rho_i, phi_i, rho_f, phi_f, t, b_field) -> complex:
    """Polar propagation kernel in closed form.

    K = (1/(2 pi i)) (B/2)/sin(BT/2) e^{-(B/4)(rho_f^2 + rho_i^2)}
        * e^{ i (B/4)(rho_f^2 + rho_i^2) e^{-iBT/2} / sin(BT/2) }
        * e^{ z cos(phi_f - phi_i + BT/2) },  z = -i (B/2) rho_f rho_i / sin(BT/2)

    The last factor is the angular-momentum sum sum_m e^{i m dphi} I_|m|(z)
    in closed form (Abramowitz and Stegun 9.6.34).
    """
    rho_i, phi_i, rho_f, phi_f, t, b_field = (
        read_number(v, name, float, error=ValueError) for v, name in
        zip((rho_i, phi_i, rho_f, phi_f, t, b_field), ("rho_i", "phi_i", "rho_f", "phi_f", "t", "b_field")))
    s = b_field * t / 2.0
    sin_s = np.sin(s)
    if abs(sin_s) <= SINGULAR_TOL:
        raise SingularTimeError(f"kernel singular: |sin(B t / 2)| = {abs(sin_s):.3e} at B={b_field}, t={t}")
    rr = rho_f ** 2 + rho_i ** 2
    pref = (1.0 / (2.0j * np.pi)) * (b_field / 2.0) / sin_s
    pref *= np.exp(-(b_field / 4.0) * rr)
    pref *= np.exp(1j * (b_field / 4.0) * rr * np.exp(-1j * s) / sin_s)
    arg = -1j * (b_field / 2.0) * rho_f * rho_i / sin_s
    return complex(pref * np.exp(arg * np.cos(phi_f - phi_i + s)))


def wu_yang_solve(r_start, r_end, steps, g_start, gprime_start) -> np.ndarray:
    """Integrate the radial Wu-Yang equation g'' = g (g^2 - 1) / r^2 with fixed-step RK4.

    Returns an array of shape (steps + 1, 3) with rows (r, g, g').  The
    grid must be non-degenerate and stay clear of r = 0, where the
    equation is singular; the initial values must be finite.  A solution
    that blows up is refused: GaugesimError names the r of its first
    non-finite row (an overflow carries on through every later RK4 stage).
    """
    steps = read_number(steps, "steps", int, 10, 10 ** 7, error=StepUnderflowError)
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
    try:  # r * r is 0 where the grid reaches r = 0 in floating point
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
    except ZeroDivisionError:
        raise StepUnderflowError(f"radial grid reaches r = 0 between r_start={r_start} and r_end={r_end}") from None
    traj = np.array(rows).reshape(steps + 1, 3)
    blown = ~np.isfinite(traj).all(axis=1)
    if blown.any():
        raise GaugesimError(f"Wu-Yang solution blows up: non-finite from r={float(traj[blown.argmax(), 0])!r}")
    return traj


@_finite
def wu_yang_series_small(r: float) -> float:
    """Small-r expansion 1 - r^2 + (3/10) r^4."""
    r = read_number(r, "r", float, error=ValueError)
    return 1.0 - r * r + 0.3 * r ** 4


@_finite
def wu_yang_series_small_prime(r: float) -> float:
    """Derivative of the small-r expansion, for seeding the integrator."""
    r = read_number(r, "r", float, error=ValueError)
    return -2.0 * r + 1.2 * r ** 3


@_finite
def wu_yang_series_large(r: float) -> float:
    """Large-r expansion 1 - 1/r + (3/4)/r^2."""
    r = read_number(r, "r", float, error=ValueError)
    return 1.0 - 1.0 / r + 0.75 / r ** 2
