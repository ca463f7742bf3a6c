import numpy as np
import pytest

from gaugesim import circuits, vqe
from gaugesim.errors import DimensionMismatchError, NotHermitianError
from gaugesim.hamiltonians import (
    HamiltonianSpec,
    build_landau_cartesian,
    build_landau_polar,
    build_monopole_su2,
)
from gaugesim.operators import hermitian_eig
from gaugesim.vqe import (
    OptimizerSettings,
    energy_gradient,
    energy_of,
    minimize,
    sweep,
    template,
    write_trace_csv,
)

from conftest import PAULI, random_hermitian


def test_single_qubit_z_reaches_minus_one():
    res = minimize(PAULI["Z"], template(1, depth=0), OptimizerSettings(seed=3))
    assert res.energy < -1.0 + 1e-6
    assert res.converged


def test_polar_run_matches_exact_ground():
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    lam = hermitian_eig(built.matrix).values[0]
    res = minimize(built, template(4, depth=3))
    assert res.energy - lam >= -1e-9
    assert res.energy - lam <= 2e-3
    assert len(res.trace) - 2 <= 600


def test_trace_contract(rng):
    h = random_hermitian(rng, 8)
    lam = hermitian_eig(h).values[0]
    res = minimize(h, template(3, depth=1), OptimizerSettings(seed=5, max_iter=80))
    energies = np.array([e for _, e in res.trace])
    assert np.all(energies >= lam - 1e-9)
    assert abs(res.energy - energies.min()) <= 1e-12
    assert abs(energy_of(h, template(3, depth=1), res.params) - res.energy) < 1e-10
    best = res.best_so_far()
    assert np.all(np.diff(best) <= 1e-15)
    assert res.trace_evaluations == sorted(res.trace_evaluations)


def shift_gradient(h, ans, x):
    """Parameter-shift oracle: g_k = (E(x + pi/2 e_k) - E(x - pi/2 e_k)) / 2."""
    shifts = (np.pi / 2) * np.eye(len(x))
    return np.array([0.5 * (energy_of(h, ans, x + e) - energy_of(h, ans, x - e)) for e in shifts])


def central_difference_gradient(h, ans, x, step=1e-6):
    """Central-difference oracle with the given step."""
    shifts = step * np.eye(len(x))
    return np.array([(energy_of(h, ans, x + e) - energy_of(h, ans, x - e)) / (2 * step)
                     for e in shifts])


@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_adjoint_gradient_matches_parameter_shift_oracle(rng, entangler):
    # complex Hermitian H: the adjoint sweep runs against Re(H) only
    for n in range(1, 5):
        for depth in range(4):
            h = random_hermitian(rng, 2 ** n)
            assert np.any(h.imag != 0)
            ans = template(n, depth=depth, entangler=entangler)
            x = rng.uniform(-np.pi, np.pi, ans.n_params)
            g = energy_gradient(h, ans, x)
            assert np.max(np.abs(g - shift_gradient(h, ans, x))) <= 1e-12, (n, depth)


def test_gradient_matches_central_difference_oracle(rng):
    h = random_hermitian(rng, 8)
    ans = template(3, depth=2)
    for _ in range(10):
        x = rng.uniform(-np.pi, np.pi, ans.n_params)
        g = energy_gradient(h, ans, x)
        oracle = central_difference_gradient(h, ans, x)
        assert np.linalg.norm(g - oracle) <= 1e-4 * max(np.linalg.norm(oracle), 1e-9)


def test_gradient_guards():
    with pytest.raises(NotHermitianError):
        energy_gradient(np.array([[0.0, 1.0], [0.0, 0.0]]), template(1, depth=0), [0.3])
    with pytest.raises(DimensionMismatchError):
        energy_gradient(PAULI["Z"], template(2, depth=0), [0.3, 0.1])


def test_evaluations_count_circuit_runs(monkeypatch):
    # the energy and the gradient at one point, and the trace rows at
    # points already evaluated, share one circuit run
    runs = []

    def counted(cfg):
        runs.append(cfg.params.copy())
        return circuits.ansatz_state(cfg)

    monkeypatch.setattr(vqe, "ansatz_state", counted)
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    res = minimize(built, template(4, depth=2), OptimizerSettings(seed=3, max_iter=30))
    assert res.evaluations == len(runs)
    assert res.trace_evaluations[-1] == res.evaluations
    assert all(not np.array_equal(a, b) for a, b in zip(runs, runs[1:]))


def test_minimize_guards():
    built = build_monopole_su2(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0))
    with pytest.raises(NotHermitianError, match="HermitianPart"):
        minimize(built, template(9, depth=1))
    with pytest.raises(DimensionMismatchError):
        minimize(PAULI["Z"], template(2, depth=0))


def test_budget_exhaustion_returns_best_so_far():
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    res = minimize(built, template(4, depth=3), OptimizerSettings(seed=11, max_iter=3))
    assert np.isfinite(res.energy)
    assert not res.converged


def test_determinism_and_restarts():
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    opt = OptimizerSettings(seed=7, max_iter=60)
    r1 = minimize(built, template(4, depth=2), opt)
    r2 = minimize(built, template(4, depth=2), opt)
    assert r1.trace == r2.trace
    np.testing.assert_array_equal(r1.params, r2.params)
    multi = minimize(built, template(4, depth=2),
                     OptimizerSettings(seed=7, max_iter=60, restarts=3))
    assert multi.energy <= r1.energy + 1e-12
    assert multi.evaluations > r1.evaluations


def test_sweep_single_cell_equals_minimize():
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    opt = OptimizerSettings(seed=9, max_iter=60)
    cells = sweep(lambda _: built, [None], template(4, depth=2), opt)
    assert len(cells) == 1 and cells[0].error is None
    direct = minimize(built, template(4, depth=2), opt)
    assert cells[0].result.trace == direct.trace


def test_sweep_monopole_reaches_real_state_floor():
    # Ry/CZ circuits produce real amplitudes, so the reachable optimum is
    # lambda_min of Re(H); for the Hermitian-part monopole that floor is the
    # free ground energy (the coupling's real part vanishes identically).
    def build_cell(gm):
        return build_monopole_su2(
            HamiltonianSpec(kind="MonopoleSU2", b_field=gm, variant="HermitianPart")
        )

    cells = sweep(build_cell, [0.2], template(9, depth=3),
                  OptimizerSettings(seed=11, max_iter=300))
    res = cells[0].result
    h = build_cell(0.2).matrix
    floor = np.linalg.eigvalsh(0.5 * (h.real + h.real.T))[0]
    lam = np.linalg.eigvalsh(h)[0]
    assert res.energy >= lam - 1e-9
    assert abs(res.energy - floor) <= 2e-2


def test_sweep_captures_cell_errors():
    def build_cell(gm):
        if gm < 0:
            raise ValueError("negative coupling not supported here")
        return build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))

    cells = sweep(build_cell, [2.0, -1.0], template(4, depth=1),
                  OptimizerSettings(seed=2, max_iter=20))
    assert cells[0].error is None and cells[0].result is not None
    assert isinstance(cells[1].error, ValueError) and cells[1].result is None


def test_trace_csv_format(tmp_path):
    built = build_landau_polar(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    res = minimize(built, template(4, depth=1), OptimizerSettings(seed=1, max_iter=25))
    path = tmp_path / "trace.csv"
    write_trace_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,evaluations"
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == res.trace[0][1]
