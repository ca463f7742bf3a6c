import re

import mpmath
import numpy as np
import pytest
import scipy.special

from gaugesim.analytic import (
    bessel_i,
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
    # NaN used to come back as NaN, or run 10000 Bessel terms and end in
    # RuntimeError; a string in a bare TypeError
    calls = {
        "b_field": [lambda v: landau_energy(v, 1), lambda v: polar_energy(v, 0, 0),
                    lambda v: kernel_polar(0.5, 0.1, 0.7, 0.4, 0.3, v)],
        "r": [wu_yang_series_small, wu_yang_series_small_prime, wu_yang_series_large],
        "rho_f": [lambda v: kernel_polar(0.5, 0.1, v, 0.4, 0.3, 2.0)],
        "t": [lambda v: kernel_polar(0.5, 0.1, 0.7, 0.4, v, 2.0)],
        "z": [lambda v: bessel_i(2, v)],
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
    with pytest.raises(ValueError, match=r"z: \|z\| must be <= 128"):
        bessel_i(0, 200.0j)
    # near the imaginary axis the series cancels: I_0(40j) came out -0.219
    # for 0.0074, the kernel near a singular time 118.9-127.9j for 1.72+10.29j
    for call in (lambda: bessel_i(0, 40j), lambda: bessel_i(0, 60j),
                 lambda: kernel_polar(0.7, 0.0, 0.7, 0.4, 3.13, 2.0)):
        with pytest.raises(ValueError, match=r"^z: the series for I_\d+\(.*j\) cancels"):
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


def test_bessel_against_scipy_real():
    for nu in (0, 1, 4):
        for x in (0.1, 1.0, 7.5, 15.0, 100.0):  # a real series never cancels
            assert abs(bessel_i(nu, x) - scipy.special.iv(nu, x)) < 1e-12 * max(
                1.0, scipy.special.iv(nu, x)
            )


def test_bessel_against_mpmath_complex():
    for nu, z in ((0, 0.7 + 0.3j), (2, -1.5j), (5, 3.0 - 4.0j), (1, 11.0 - 2.0j)):
        ref = complex(mpmath.besseli(nu, z))
        assert abs(bessel_i(nu, z) - ref) <= 1e-11 * max(1.0, abs(ref))


def test_bessel_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(3, 0.0) == 0.0


def test_kernel_polar_rho_zero_single_term():
    # I_m(0) = 0 for m != 0, so truncation depth is irrelevant at rho_i = 0
    a = kernel_polar(0.0, 0.0, 0.6, 0.3, 0.4, 2.0, m_max=1)
    b = kernel_polar(0.0, 0.0, 0.6, 0.3, 0.4, 2.0, m_max=9)
    assert abs(a - b) < 1e-15


def test_kernel_polar_truncation_convergence():
    args = dict(rho_i=0.5, phi_i=0.0, rho_f=0.7, phi_f=0.4, t=0.3, b_field=2.0)
    ref = kernel_polar(**args, m_max=40)
    # doubling m_max=12 changes the value below 1e-10
    assert abs(kernel_polar(**args, m_max=12) - kernel_polar(**args, m_max=24)) < 1e-10
    # truncation error decreases monotonically
    errs = [abs(kernel_polar(**args, m_max=m) - ref) for m in (1, 2, 3, 4, 5, 6, 7, 8)]
    assert all(e1 >= e2 - 1e-18 for e1, e2 in zip(errs, errs[1:]))


def test_kernel_polar_angle_periodicity():
    a = kernel_polar(0.5, 0.1, 0.7, 0.4, 0.3, 2.0, m_max=15)
    b = kernel_polar(0.5, 0.1, 0.7, 0.4 + 2 * np.pi, 0.3, 2.0, m_max=15)
    assert abs(a - b) < 1e-12


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
