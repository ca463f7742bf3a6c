import cmath

import mpmath
import numpy as np
import pytest
import scipy.special

from gaugesim.analytic import (
    bessel_i,
    kernel_cartesian,
    kernel_cartesian_free_limit,
    kernel_polar,
    landau_energy,
    polar_energy,
    wu_yang_series_large,
    wu_yang_series_small,
    wu_yang_series_small_prime,
    wu_yang_solve,
)
from gaugesim.errors import SingularTimeError, StepUnderflowError

from conftest import stepwise_wu_yang


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


def _kernel_cartesian_reference(x_i, y_i, x_f, y_f, t, b, z_i=0.0, z_f=0.0):
    """Independent transcription of the same printed formula (cmath, stepwise)."""
    s = b * t / 2.0
    amp = (1.0 / (2.0 * cmath.pi * t)) ** 1.5
    amp *= s / cmath.sin(s)
    amp *= cmath.exp(1j * (z_f - z_i) ** 2 / (2.0 * t))
    quad = (x_f - x_i) ** 2 + (y_f - y_i) ** 2
    cross = b * (y_f * x_i - x_f * y_i)
    return amp * cmath.exp(1j * (s / cmath.tan(s)) * (quad + cross))


def test_kernel_cartesian_against_dual_implementation():
    val = kernel_cartesian(0.0, 0.0, 0.5, 0.0, 0.3, 2.0)
    ref = _kernel_cartesian_reference(0.0, 0.0, 0.5, 0.0, 0.3, 2.0)
    assert abs(val - ref) < 1e-14 * abs(ref)
    val2 = kernel_cartesian(0.2, -0.4, 0.5, 0.9, 0.7, 1.3, z_i=0.1, z_f=0.6)
    ref2 = _kernel_cartesian_reference(0.2, -0.4, 0.5, 0.9, 0.7, 1.3, z_i=0.1, z_f=0.6)
    assert abs(val2 - ref2) < 1e-13 * abs(ref2)


def test_kernel_cartesian_free_limit():
    val = kernel_cartesian(0.1, 0.2, 0.5, -0.3, 0.3, 1e-6)
    free = kernel_cartesian_free_limit(0.1, 0.2, 0.5, -0.3, 0.3)
    assert abs(val - free) / abs(free) < 1e-4


def test_kernel_cartesian_coincident_endpoints():
    # difference terms vanish; only the cross term survives in the bracket
    b, t, x, y = 2.0, 0.4, 0.7, -0.2
    val = kernel_cartesian(x, y, x, y, t, b)
    s = b * t / 2.0
    pref = (1.0 / (2.0 * np.pi * t)) ** 1.5 * s / np.sin(s)
    cross = b * (y * x - x * y)  # = 0 at coincident points
    expected = pref * np.exp(1j * (s / np.tan(s)) * cross)
    assert abs(val - expected) < 1e-14


def test_kernel_singular_time_raises():
    with pytest.raises(SingularTimeError):
        kernel_cartesian(0, 0, 1, 0, np.pi, 2.0)  # B t / 2 = pi
    with pytest.raises(SingularTimeError):
        kernel_polar(0.5, 0.0, 0.5, 0.0, np.pi, 2.0)


def test_bessel_against_scipy_real():
    for nu in (0, 1, 4):
        for x in (0.1, 1.0, 7.5, 15.0):
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
    for args in ((0.05, 1.0, 200, 0.9975, -0.1), (0.05, 1.0, 3200, 0.9975, -0.1),
                 (2.0, 0.3, 77, 0.5, 3.0), (0.01, 5.0, 1000, 1.3, 0.2), (0.1, 2.0, 10, -1.0, 0.0)):
        assert wu_yang_solve(*args).tobytes() == stepwise_wu_yang(*args).tobytes(), args


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
