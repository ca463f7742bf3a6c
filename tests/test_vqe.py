import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from gaugesim import circuits, vqe
from gaugesim.circuits import AnsatzConfig
from gaugesim.errors import DimensionMismatchError, GaugesimError, InvalidConfigError, NotHermitianError
from gaugesim.hamiltonians import (
    HamiltonianSpec,
    build,
)
from gaugesim.operators import hermitian_eig
from gaugesim.vqe import (
    OptimizerSettings,
    energy_gradient,
    minimize,
    write_trace_csv,
)

from conftest import PAULI, random_hermitian


def test_single_qubit_z_reaches_minus_one():
    res = minimize(PAULI["Z"], AnsatzConfig(1, depth=0), OptimizerSettings(seed=3))
    assert res.energy < -1.0 + 1e-6
    assert res.converged


def test_polar_run_matches_exact_ground():
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    lam = hermitian_eig(built.matrix).values[0]
    res = minimize(built, AnsatzConfig(4, depth=3))
    assert res.energy - lam >= -1e-9
    assert res.energy - lam <= 2e-3
    assert len(res.trace) - 2 <= 600


def test_trace_contract(rng):
    h = random_hermitian(rng, 8)
    lam = hermitian_eig(h).values[0]
    res = minimize(h, AnsatzConfig(3, depth=1), OptimizerSettings(seed=5, max_iter=80))
    energies = np.array([e for _, e in res.trace])
    assert np.all(energies >= lam - 1e-9)
    assert abs(res.energy - energies.min()) <= 1e-12
    assert abs(energy(h, AnsatzConfig(3, depth=1), res.params) - res.energy) < 1e-10
    best = res.best_so_far()
    assert np.all(np.diff(best) <= 1e-15)
    assert res.trace_evaluations == sorted(res.trace_evaluations)


def energy(h, ans, x):
    """Oracle energy E(x) = Re <psi(x)| H |psi(x)> on the complex H."""
    psi = circuits.ansatz_state(ans, x)
    return np.vdot(psi, h @ psi).real


def adjoint(h, ans, x):
    """The adjoint sweep against Re(H), as minimize runs it."""
    psi = circuits.ansatz_state(ans, x)
    return circuits.adjoint_gradient(ans, x, psi, h.real @ psi)


def shift_gradient(h, ans, x):
    """Parameter-shift oracle: g_k = (E(x + pi/2 e_k) - E(x - pi/2 e_k)) / 2."""
    shifts = (np.pi / 2) * np.eye(len(x))
    return np.array([0.5 * (energy(h, ans, x + e) - energy(h, ans, x - e)) for e in shifts])


def central_difference_gradient(h, ans, x, step=1e-6):
    """Central-difference oracle with the given step."""
    shifts = step * np.eye(len(x))
    return np.array([(energy(h, ans, x + e) - energy(h, ans, x - e)) / (2 * step)
                     for e in shifts])


@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_adjoint_gradient_matches_parameter_shift_oracle(rng, entangler):
    # complex Hermitian H: the adjoint sweep runs against Re(H) only
    for n in range(1, 5):
        for depth in range(4):
            h = random_hermitian(rng, 2 ** n)
            assert np.any(h.imag != 0)
            ans = AnsatzConfig(n, depth=depth, entangler=entangler)
            x = rng.uniform(-np.pi, np.pi, ans.n_params)
            g = adjoint(h, ans, x)
            assert np.max(np.abs(g - shift_gradient(h, ans, x))) <= 1e-12, (n, depth)


def test_gradient_matches_central_difference_oracle(rng):
    h = random_hermitian(rng, 8)
    ans = AnsatzConfig(3, depth=2)
    for _ in range(10):
        x = rng.uniform(-np.pi, np.pi, ans.n_params)
        g = adjoint(h, ans, x)
        oracle = central_difference_gradient(h, ans, x)
        assert np.linalg.norm(g - oracle) <= 1e-4 * max(np.linalg.norm(oracle), 1e-9)


def test_gradient_guards():
    with pytest.raises(NotHermitianError):
        energy_gradient(np.array([[0.0, 1.0], [0.0, 0.0]]), AnsatzConfig(1, depth=0), [0.3])
    with pytest.raises(DimensionMismatchError):
        energy_gradient(PAULI["Z"], AnsatzConfig(2, depth=0), [0.3, 0.1])


def test_evaluations_count_circuit_runs(monkeypatch):
    # the energy and the gradient at one point, and the trace rows at
    # points already evaluated, share one circuit run
    runs = []

    def counted(n, entangler, lefts, rights):
        runs.append(np.concatenate([lefts.ravel(), rights.ravel()]))
        return forward(n, entangler, lefts, rights)

    forward = circuits._forward
    monkeypatch.setattr(vqe, "_forward", counted)
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    res = minimize(built, AnsatzConfig(4, depth=2), OptimizerSettings(seed=3, max_iter=30))
    assert res.evaluations == len(runs)
    assert res.trace_evaluations[-1] == res.evaluations
    assert all(not np.array_equal(a, b) for a, b in zip(runs, runs[1:]))


@pytest.mark.parametrize("depth", [0, 1, 5])
def test_one_point_builds_the_layer_factors_twice(monkeypatch, depth):
    # the energy and gradient at one point: one table pass for the forward
    # layers, one for the backward sweep's, whatever the depth
    passes = []

    def counted(layers):
        passes.append(len(layers))
        return factors(layers)

    factors = circuits._factors
    monkeypatch.setattr(circuits, "_factors", counted)
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    energy_gradient(built, AnsatzConfig(4, depth=depth), np.linspace(-1.0, 1.0, 4 * (depth + 1)))
    assert passes == [depth + 1, depth]


@pytest.mark.parametrize("depth", [0, 1, 5])
def test_one_objective_point_builds_the_layer_factors_once(monkeypatch, depth):
    # the optimizer's energy and gradient at one point share one table pass:
    # the gradient's sweep reuses the forward factors, transposed
    passes = []

    def counted(layers):
        passes.append(len(layers))
        return factors(layers)

    factors = circuits._factors
    monkeypatch.setattr(circuits, "_factors", counted)
    monkeypatch.setattr(vqe, "_factors", counted)
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    ans = AnsatzConfig(4, depth=depth)
    objective = vqe._RealObjective(vqe._real_form(built, ans), ans)
    x = np.linspace(-1.0, 1.0, ans.n_params)
    objective.energy(x)
    objective.gradient(x)
    assert passes == [depth + 1]
    assert objective.runs == 1


@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_objective_equals_the_public_sweeps_bit_for_bit(rng, entangler):
    # the objective runs the private kernels on one table pass per point;
    # its energy and gradient are the public ansatz_state and
    # adjoint_gradient (with the same real-form product) to the last bit;
    # the angles include 0, -0, +-pi and random values
    for n in range(1, 10):
        h = random_hermitian(rng, 2 ** n)
        for depth in range(5):
            ans = AnsatzConfig(n, depth, entangler)
            form = vqe._real_form(h, ans)
            objective = vqe._RealObjective(form, ans)
            x = rng.uniform(-np.pi, np.pi, ans.n_params)
            x[::2] = rng.choice([0.0, -0.0, np.pi, -np.pi], len(x[::2]))
            psi = circuits.ansatz_state(ans, x)
            h_psi = vqe._apply_real(form, psi, np.empty_like(psi))
            grad = circuits.adjoint_gradient(ans, x, psi, h_psi)
            assert objective.energy(x) == float(psi @ h_psi), (n, depth)
            assert objective.gradient(x).tobytes() == grad.tobytes(), (n, depth)


def test_minimize_guards():
    built = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0))
    with pytest.raises(NotHermitianError, match="HermitianPart"):
        minimize(built, AnsatzConfig(9, depth=1))
    with pytest.raises(DimensionMismatchError):
        minimize(PAULI["Z"], AnsatzConfig(2, depth=0))
    # an infinite entry is not Hermitian, and an energy that overflows at
    # the start used to come back as energy=inf
    with pytest.raises(NotHermitianError), np.errstate(invalid="ignore"):
        minimize([[1.0, np.inf], [np.inf, 1.0]], AnsatzConfig(1, depth=0))
    with pytest.raises(GaugesimError, match="energy at the start: expected a finite number, got (inf|nan)"):
        with np.errstate(all="ignore"):
            minimize([[1e308, 1e308], [1e308, 1e308]], AnsatzConfig(1, depth=0), OptimizerSettings(max_iter=2))


def test_budget_exhaustion_returns_best_so_far():
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    res = minimize(built, AnsatzConfig(4, depth=3), OptimizerSettings(seed=11, max_iter=3))
    assert np.isfinite(res.energy)
    assert not res.converged
    assert len(res.trace) == 3 + 2  # the start, max_iter iterates, the returned point
    assert res.trace_evaluations[-1] == res.evaluations


@pytest.mark.parametrize("b_field", [1e100, 1e154])
def test_a_descent_that_overflows_ends_the_run_unconverged(b_field):
    # at these fields |g|^2 overflows, so g.d is -inf: the run ends at its
    # start, unconverged, with finite rows, and never steps to NaN angles
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=b_field))
    with np.errstate(over="ignore"):
        res = minimize(built, AnsatzConfig(4, depth=3))
    assert not res.converged
    assert len(res.trace) == 2 and res.evaluations == 1  # the start and the returned point
    assert np.all(np.isfinite([e for _, e in res.trace])) and np.all(np.isfinite(res.params))
    assert res.energy == res.trace[0][1]


def test_optimizer_settings_validate_themselves():
    for bad in ({"max_iter": 0}, {"tolerance": -1e-9}, {"tolerance": float("nan")}, {"seed": -1},
                {"seed": 1.5}, {"max_iter": True}, {"max_iter": 2.5}):
        with pytest.raises(InvalidConfigError):
            OptimizerSettings(**bad)
    with pytest.raises(TypeError, match="restarts"):
        OptimizerSettings(restarts=2)  # one run per call: the best of several seeds is one run each


def test_determinism():
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    opt = OptimizerSettings(seed=7, max_iter=60)
    r1 = minimize(built, AnsatzConfig(4, depth=2), opt)
    r2 = minimize(built, AnsatzConfig(4, depth=2), opt)
    assert r1.trace == r2.trace
    np.testing.assert_array_equal(r1.params, r2.params)


def test_sweep_monopole_reaches_real_state_floor():
    # Ry/CZ circuits produce real amplitudes, so the reachable optimum is
    # lambda_min of Re(H); for the Hermitian-part monopole that floor is the
    # free ground energy (the coupling's real part vanishes identically).
    built = build(
        HamiltonianSpec(kind="MonopoleSU2", b_field=0.2, variant="HermitianPart")
    )
    res = minimize(built, AnsatzConfig(9, depth=3), OptimizerSettings(seed=11, max_iter=300))
    h = built.matrix
    floor = np.linalg.eigvalsh(0.5 * (h.real + h.real.T))[0]
    lam = np.linalg.eigvalsh(h)[0]
    assert res.energy >= lam - 1e-9
    assert abs(res.energy - floor) <= 2e-2


def _objective_problem(problem, rng):
    """(H, its qubits, the expected (count, size) of its block stack)."""
    if problem == "random":
        return random_hermitian(rng, 16), 4, (1, 16)
    if problem == "cartesian":
        return build(HamiltonianSpec(kind="LandauCartesian", b_field=2.0)), 8, (2, 128)
    if problem == "polar":
        return build(HamiltonianSpec(kind="LandauPolar", b_field=2.0)), 4, (1, 16)
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant=problem)
    return build(spec), 9, (16, 32)


@pytest.mark.parametrize("problem", ["HermitianPart", "MajoranaFermions", "cartesian", "polar", "random"])
def test_stacked_objective_equals_the_dense_real_part(problem, rng):
    # the objective's blocks are the dense 0.5 (Re H + Re H^T) gathered on
    # each block, bit for bit, and together they give its energies and
    # adjoint gradients to rounding
    h, n, shape = _objective_problem(problem, rng)
    m = np.asarray(getattr(h, "matrix", h))
    dense = 0.5 * (m.real + m.real.T)
    ans = AnsatzConfig(n, depth=2, entangler="cx")
    form = vqe._real_form(h, ans)  # a build's real_form, a matrix as one block
    assert form is getattr(h, "real_form", form)
    idx, sub = form
    assert idx.shape == shape
    assert np.array_equal(np.sort(idx.ravel()), np.arange(len(m)))
    assert np.array_equal(sub, dense[idx[:, :, None], idx[:, None, :]])
    objective = vqe._RealObjective(form, ans)
    for _ in range(3):
        x = rng.uniform(-np.pi, np.pi, ans.n_params)
        psi = circuits.ansatz_state(ans, x)
        h_psi = dense @ psi
        scale = 1e-13 * np.linalg.norm(h_psi)  # bounds |energy| and every |gradient entry| / 2
        assert abs(objective.energy(x) - psi @ h_psi) <= scale
        np.testing.assert_allclose(objective.gradient(x), circuits.adjoint_gradient(ans, x, psi, h_psi),
                                   rtol=0, atol=scale)


def test_monopole_minimize_never_forms_a_dense_real_part():
    # a dense float64 Re H at 9 qubits alone is 2 MiB of numpy memory
    built = build(HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart"))
    tracemalloc.start()
    try:
        minimize(built, AnsatzConfig(9, depth=3), OptimizerSettings(seed=11, max_iter=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("spec, bound", [
    *((HamiltonianSpec(kind="MonopoleSU2", b_field=1.37, variant=variant,
                       r_ref=1.0 if variant == "ScalarB" else None), 3 * 2 ** 20)
      for variant in ("Literal", "MajoranaFermions", "HermitianPart", "ScalarB")),
    (HamiltonianSpec(kind="LandauCartesian", b_field=1.37), 2.5 * 2 ** 20),
], ids=["Literal", "MajoranaFermions", "HermitianPart", "ScalarB", "cartesian"])
def test_a_sector_build_spectrum_never_forms_the_dense_matrix(spec, bound):
    # a 512x512 (256x256) complex matrix alone is 4 MiB (1 MiB) of numpy
    # memory; the monopole build keeps its 16 sector blocks, the Cartesian
    # oscillator build its two parity blocks, and the spectrum is solved
    # from them
    build(HamiltonianSpec(kind="LandauPolar"))  # so the build is made afresh
    tracemalloc.start()
    try:
        built = build(spec)
        built.spectrum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
    assert "matrix" not in vars(built)


def test_minimize_reads_the_held_builds_real_form(monkeypatch):
    # two runs on the held build share one read of its blocks, which are
    # its kept sector stacks themselves
    from gaugesim import hamiltonians

    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart", boson_trunc=2)
    built = build(spec)
    calls, forms = [], []
    gather = hamiltonians._diagonal_blocks
    monkeypatch.setattr(hamiltonians, "_diagonal_blocks", lambda *a: calls.append(a) or gather(*a))
    objective = vqe._RealObjective
    monkeypatch.setattr(vqe, "_RealObjective", lambda h_real, ans: forms.append(h_real) or objective(h_real, ans))
    for seed in (1, 2):
        minimize(build(spec), AnsatzConfig(6, depth=1), OptimizerSettings(seed=seed, max_iter=3))
    assert build(spec) is built
    assert [len(a) for a in calls] == [3] and len(forms) == 2  # one read, without orbits
    sub, _, _ = gather(*calls[0])
    assert sub is built.entries  # and no gather
    assert forms[0] is forms[1] is built.real_form


def test_trace_csv_format(tmp_path):
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0))
    res = minimize(built, AnsatzConfig(4, depth=1), OptimizerSettings(seed=1, max_iter=25))
    path = tmp_path / "trace.csv"
    write_trace_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,evaluations"
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == res.trace[0][1]


class Quadratic:
    """f(x) = (x - c)^T A (x - c) / 2, with the objective interface of
    ``vqe._slsqp``; ``nan_inside`` makes f NaN within that distance of c,
    and ``steep`` scales the gradient."""

    def __init__(self, a, c, nan_inside=0.0, steep=1.0):
        self.a, self.c, self.runs = np.asarray(a, float), np.asarray(c, float), 0
        self.nan_inside, self.steep = nan_inside, steep

    def energy(self, x):
        self.runs += 1
        r = x - self.c
        return np.nan if np.linalg.norm(r) < self.nan_inside else 0.5 * float(r @ self.a @ r)

    def gradient(self, x):
        return self.steep * (self.a @ (x - self.c))


ILL_CONDITIONED = np.diag([1.0, 10.0, 100.0, 1000.0])


def test_slsqp_core_solves_a_convex_quadratic():
    q = Quadratic(ILL_CONDITIONED + 0.3, [1.0, -2.0, 0.5, 3.0])
    rows, success = vqe._slsqp(q, np.zeros(4), 100, 1e-12)
    assert success
    np.testing.assert_allclose(rows[-1][0], q.c, atol=1e-6)
    assert rows[-1][1] < 1e-12
    assert len(rows) < 100
    assert [r for _, _, r in rows] == sorted(r for _, _, r in rows)
    assert rows[-1][2] == q.runs


def test_slsqp_core_budget_gives_max_iter_iterates():
    q = Quadratic(ILL_CONDITIONED, [1.0, -2.0, 0.5, 3.0])
    for max_iter in (1, 2, 3):
        rows, success = vqe._slsqp(q, np.zeros(4), max_iter, 1e-12)
        assert not success
        assert len(rows) == max_iter + 2  # the start, max_iter iterates, the returned point


def test_slsqp_core_stops_on_a_non_finite_energy():
    # the first step lands inside the NaN ball around c: the run ends there
    q = Quadratic(np.eye(2), [0.0, 0.0], nan_inside=0.5)
    rows, success = vqe._slsqp(q, np.array([2.0, 1.0]), 1000, 1e-9)
    assert not success
    assert q.runs == 2
    assert len(rows) == 2 and all(np.isfinite(e) for _, e, _ in rows)
    # a non-finite start ends the run before any step
    q = Quadratic(np.eye(2), [0.0, 0.0], nan_inside=5.0)
    rows, success = vqe._slsqp(q, np.array([2.0, 1.0]), 1000, 1e-9)
    assert not success and q.runs == 1 and len(rows) == 2


def test_slsqp_core_line_search_matches_scipy_when_no_trial_passes():
    # a gradient 1000x too steep: no trial passes Armijo's test, and the line
    # search takes its 11th trial, as scipy's does
    q, ref = Quadratic(np.eye(1), [0.0], steep=1000.0), Quadratic(np.eye(1), [0.0], steep=1000.0)
    rows, _ = vqe._slsqp(q, np.array([1.0]), 1, 1e-9)
    res = scipy.optimize.minimize(ref.energy, np.array([1.0]), jac=ref.gradient, method="SLSQP",
                                  options={"maxiter": 1, "ftol": 1e-9})
    assert q.runs == ref.runs == 1 + 11
    np.testing.assert_allclose(rows[-1][0], res.x, rtol=1e-14)


def scipy_slsqp(h, ans, opt):
    """Reference: scipy's SLSQP on the same objective from the same start.
    Returns its result and the circuit runs it took."""
    f = vqe._RealObjective(vqe._real_form(h, ans), ans)
    x0 = np.random.default_rng(opt.seed).uniform(-np.pi, np.pi, ans.n_params)
    res = scipy.optimize.minimize(f.energy, x0, jac=f.gradient, method="SLSQP",
                                  options={"maxiter": opt.max_iter, "ftol": opt.tolerance})
    return res, f.runs


@pytest.mark.parametrize("problem, depth, entangler",
                         [("polar", 3, "cz"), ("polar", 3, "cx"), ("random", 2, "cz"), ("random", 2, "cx")])
def test_matches_scipy_slsqp(problem, depth, entangler, rng):
    # At the default tolerance 1e-9 both stop on |f - f0| < tol, and on the
    # polar's flat valleys a path that parts from scipy's at rounding level
    # can stop 2e-8 to 1e-7 away (seed 7 at depth 2 and 3); at 1e-12 both
    # reach the minimum they head for.
    if problem == "polar":
        h, n = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0)).matrix, 4
    else:
        h, n = random_hermitian(rng, 8), 3
    ans = AnsatzConfig(n, depth=depth, entangler=entangler)
    both = 0
    for seed in range(1, 5):
        opt = OptimizerSettings(seed=seed, max_iter=600, tolerance=1e-12)
        res = minimize(h, ans, opt)
        reference, runs = scipy_slsqp(h, ans, opt)
        if res.converged and reference.success:
            both += 1
            assert abs(res.energy - reference.fun) <= 1e-8, seed
        if problem == "random":
            # these paths do not part: the same iterations and circuit runs
            assert (len(res.trace) - 2, res.evaluations) == (reference.nit, runs), seed
    assert both >= 3
