import re

import mpmath
import numpy as np
import pytest

from gaugesim.analytic import (
    kernel_polar,
    landau_energy,
    polar_energy,
    wu_yang_series_large,
    wu_yang_series_small,
    wu_yang_series_small_prime,
    wu_yang_solve,
)
from gaugesim.errors import GaugesimError, SingularTimeError, StepUnderflowError

from conftest import free_planar_kernel, stepwise_wu_yang


def test_scalar_arguments_follow_the_number_rule():
    # NaN used to come back as NaN; a string in a bare TypeError
    calls = {
        "b_field": [lambda v: landau_energy(v, 1), lambda v: polar_energy(v, 0, 0),
                    lambda v: kernel_polar(0.5, 0.1, 0.7, 0.4, 0.3, v)],
        "r": [wu_yang_series_small, wu_yang_series_small_prime, wu_yang_series_large],
        "rho_f": [lambda v: kernel_polar(0.5, 0.1, v, 0.4, 0.3, 2.0)],
        "t": [lambda v: kernel_polar(0.5, 0.1, 0.7, 0.4, v, 2.0)],
    }
    for name, fns in calls.items():
        for fn in fns:
            for bad in (np.nan, np.inf, "2", None, True):
                with pytest.raises(ValueError, match=f"{name}: expected a finite number, got {bad!r}"):
                    fn(bad)


def test_a_formula_that_overflows_is_refused_by_name():
    # each used to return inf or NaN, or end in a bare ArithmeticError
    for call in (lambda: landau_energy(1e308, 3), lambda: polar_energy(-1e308, 2, 0),
                 lambda: wu_yang_series_small(1e100), lambda: wu_yang_series_large(0.0),
                 lambda: kernel_polar(1e200, 0.1, 0.7, 0.4, 0.3, 2.0)):
        with pytest.raises(GaugesimError, match="^(landau_energy|polar_energy|wu_yang_series|kernel_polar)"):
            with np.errstate(all="ignore"):
                call()
    with pytest.raises(StepUnderflowError, match="reaches r = 0"):
        wu_yang_solve(1e300, 0.5, 20, 1.0, 0.0)


def test_landau_energy_values():
    assert landau_energy(2.0, 0) == 1.0
    assert landau_energy(0.0, 7) == 0.0
    assert landau_energy(-2.0, 1) == 3.0
    with pytest.raises(ValueError):
        landau_energy(2.0, -1)


def test_polar_energy_values():
    assert polar_energy(2.0, 0, 0) == 1.0
    assert polar_energy(2.0, 1, 1) == 1.0
    assert polar_energy(2.0, 2, 0) == 3.0
    assert polar_energy(2.0, 3, -1) == 5.0


@pytest.mark.parametrize("n, m", [(0, 1), (2, 3), (-1, 0), (1, 0), (2, 1), (3, -2)])
def test_polar_energy_refuses_n_outside_2nr_plus_abs_m(n, m):
    # n = 2 n_r + |m| needs n >= |m| and n - |m| even
    with pytest.raises(ValueError, match="2 n_r"):
        polar_energy(2.0, n, m)


def test_polar_energy_refuses_non_integral_quantum_numbers():
    # 2.5 - 0.5 is even as a float, so the parity check alone would accept it
    with pytest.raises(ValueError, match="n: expected an integer, got 2.5"):
        polar_energy(2.0, 2.5, 0.5)


def test_kernel_polar_free_limit():
    # B -> 0 from either side gives the free planar propagator (criterion 9
    # checks one pair of endpoints at B = +1e-6)
    for args in ((0.5, 0.0, 0.7, 0.4, 0.3), (1.2, -2.0, 0.4, 1.1, 0.8)):
        free = free_planar_kernel(*args)
        for b_field in (1e-6, -1e-6):
            assert abs(kernel_polar(*args, b_field) - free) / abs(free) < 1e-4, (args, b_field)


def test_kernel_singular_time_raises():
    with pytest.raises(SingularTimeError):  # B t / 2 = pi
        kernel_polar(0.5, 0.0, 0.5, 0.0, np.pi, 2.0)


def test_kernel_polar_rho_zero_single_term():
    # at rho_i = 0 only the m = 0 term of the angular sum is left: the
    # angular factor is exactly e^0, whatever the angles
    ref = kernel_polar(0.0, 0.0, 0.6, 0.3, 0.4, 2.0)
    for phi_i, phi_f in ((1.3, 0.3), (0.0, -2.1), (-0.7, 3.0)):
        assert kernel_polar(0.0, phi_i, 0.6, phi_f, 0.4, 2.0) == ref


def test_kernel_polar_angle_periodicity():
    a = kernel_polar(0.5, 0.1, 0.7, 0.4, 0.3, 2.0)
    b = kernel_polar(0.5, 0.1, 0.7, 0.4 + 2 * np.pi, 0.3, 2.0)
    assert abs(a - b) < 1e-12


def _kernel_by_angular_sum(rho_i, phi_i, rho_f, phi_f, t, b_field, m_max=100):
    """The kernel as its angular-momentum sum
    sum_{|m| <= m_max} e^{i m dphi} I_|m|(z), at 50 digits."""
    with mpmath.workdps(50):
        rho_i, phi_i, rho_f, phi_f, t, b = (mpmath.mpf(v) for v in (rho_i, phi_i, rho_f, phi_f, t, b_field))
        s = b * t / 2
        rr = rho_f ** 2 + rho_i ** 2
        pref = (b / 2) / (2j * mpmath.pi * mpmath.sin(s)) * mpmath.exp(-(b / 4) * rr)
        pref *= mpmath.exp(1j * (b / 4) * rr * mpmath.exp(-1j * s) / mpmath.sin(s))
        z = -1j * (b / 2) * rho_f * rho_i / mpmath.sin(s)
        dphi = phi_f - phi_i + s
        total = mpmath.besseli(0, z) + 2 * sum(mpmath.cos(m * dphi) * mpmath.besseli(m, z)
                                               for m in range(1, m_max + 1))
        return complex(pref * total)


@pytest.mark.parametrize("args", [
    (0.5, 0.1, 0.7, 0.4, 0.3, 2.0),
    (0.5, 0.1, 0.7, 0.4 + 2 * np.pi, 0.3, 2.0),
    (0.0, 0.0, 0.6, 0.3, 0.4, 2.0),
    (0.5, 0.0, 0.7, 0.4, 0.3, 2.0),
    (0.3, 0.1, 0.5, 0.7, 0.4, 1.5),
    (0.5, 0.0, 0.7, 0.4, 0.3, 1e-6),
    (1.2, -2.0, 0.4, 1.1, 0.8, -1e-6),
    # near the singular time B t / 2 = pi, where z is about -42i
    (0.7, 0.0, 0.7, 0.4, 3.13, 2.0),
])
def test_kernel_polar_matches_the_angular_momentum_sum(args):
    # e^{z cos dphi} = sum_m e^{i m dphi} I_|m|(z) (Abramowitz and Stegun
    # 9.6.34); measured agreement on these sets is at most 4.2e-16 relative
    ref = _kernel_by_angular_sum(*args)
    assert abs(kernel_polar(*args) - ref) <= 1e-12 * abs(ref)


def test_wu_yang_fixed_points():
    for g0 in (1.0, -1.0):
        traj = wu_yang_solve(0.1, 2.0, 200, g0, 0.0)
        assert np.max(np.abs(traj[:, 1] - g0)) < 1e-12
        assert np.max(np.abs(traj[:, 2])) < 1e-12


def test_wu_yang_trajectory_equals_the_stepwise_loop_bit_for_bit():
    # the inlined stages are the same float operations in the same order
    for args in ((0.05, 1.0, 200, 0.9975, -0.1), (0.05, 1.0, 3200, 0.9975, -0.1), (0.1, 2.0, 10, -1.0, 0.0)):
        assert wu_yang_solve(*args).tobytes() == stepwise_wu_yang(*args).tobytes(), args
    # a solution that blows up is refused at the r of its first non-finite row (68 and 11)
    for args, row in (((2.0, 0.3, 77, 0.5, 3.0), 68), ((0.01, 5.0, 1000, 1.3, 0.2), 11)):
        with np.errstate(all="ignore"):
            oracle = stepwise_wu_yang(*args)
        assert np.isfinite(oracle[row - 1]).all() and not np.isfinite(oracle[row]).all()
        with pytest.raises(GaugesimError, match=f"blows up: non-finite from r={re.escape(repr(float(oracle[row, 0])))}$"):
            wu_yang_solve(*args)


def test_wu_yang_series_values():
    assert wu_yang_series_small(0.0) == 1.0
    assert abs(wu_yang_series_small(0.1) - 0.99003) < 1e-10
    assert abs(wu_yang_series_large(1e9) - 1.0) < 1e-8
    assert abs(wu_yang_series_small_prime(0.1) - (-0.2 + 0.0012)) < 1e-12


def test_wu_yang_series_large_solves_the_equation_to_its_order():
    # g = 1 - 1/r + (3/4)/r^2 leaves a residual g'' - g (g^2 - 1) / r^2 of
    # O(r^-5): r^4 times it reads 0.51, 0.27 and 0.14 (central differences,
    # h = 1e-2), where +0.75/r^2 -> -0.75/r^2 reads about -6.2
    h = 1e-2
    for r in (10.0, 20.0, 40.0):
        g = wu_yang_series_large(r)
        gpp = (wu_yang_series_large(r + h) - 2.0 * g + wu_yang_series_large(r - h)) / h ** 2
        assert abs(r ** 4 * (gpp - g * (g * g - 1.0) / r ** 2)) < 1.0, r


def test_wu_yang_series_vs_integration():
    r0, r1 = 0.05, 0.1
    traj = wu_yang_solve(r0, r1, 50, wu_yang_series_small(r0), wu_yang_series_small_prime(r0))
    assert abs(traj[-1, 1] - wu_yang_series_small(r1)) < 1e-6


def test_wu_yang_rk4_order():
    r0, r1 = 0.05, 1.0
    g0, gp0 = wu_yang_series_small(r0), wu_yang_series_small_prime(r0)
    fine = wu_yang_solve(r0, r1, 12800, g0, gp0)[-1, 1]
    errs = [abs(wu_yang_solve(r0, r1, steps, g0, gp0)[-1, 1] - fine) for steps in (50, 100, 200)]
    for e1, e2 in zip(errs, errs[1:]):
        assert 12.0 <= e1 / e2 <= 20.0


def test_wu_yang_grid_errors():
    with pytest.raises(StepUnderflowError):
        wu_yang_solve(0.1, 1.0, 5, 1.0, 0.0)
    with pytest.raises(StepUnderflowError):
        wu_yang_solve(0.1, 0.1, 100, 1.0, 0.0)
    with pytest.raises(StepUnderflowError):
        wu_yang_solve(-0.1, 1.0, 100, 1.0, 0.0)
    # a non-integral or non-finite step count, or a non-finite radius, is
    # refused by name instead of truncated or integrated into NaN rows
    for steps in (16.9, float("nan"), float("inf")):
        with pytest.raises(StepUnderflowError, match=str(steps)):
            wu_yang_solve(0.1, 1.0, steps, 1.0, 0.0)
    for r_start, r_end in ((0.1, float("nan")), (float("nan"), 1.0), (0.1, float("inf"))):
        with pytest.raises(StepUnderflowError, match="r_(start|end): expected a finite number"):
            wu_yang_solve(r_start, r_end, 100, 1.0, 0.0)
    # radii and initial values follow the one number rule: bools and
    # strings are not numbers, and a NaN start is refused, not integrated
    for r_start, r_end in (("0.05", 1.0), (True, 1.0), (0.1, "1.0"), (0.1, None)):
        with pytest.raises(StepUnderflowError, match="r_(start|end): expected a finite number"):
            wu_yang_solve(r_start, r_end, 100, 1.0, 0.0)
    for g_start, gprime_start in ((float("nan"), 0.0), (1.0, "0.5"), (True, 0.0), (1.0, float("-inf"))):
        with pytest.raises(ValueError, match="g(prime)?_start: expected a finite number"):
            wu_yang_solve(0.1, 1.0, 100, g_start, gprime_start)
