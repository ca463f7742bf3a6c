"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see every line.
"""

import json
import time

import numpy as np
import pytest

from gaugesim.analytic import (
    kernel_polar,
    wu_yang_series_small,
    wu_yang_series_small_prime,
    wu_yang_solve,
)
from gaugesim.basis import pos_grid
from gaugesim.circuits import AnsatzConfig
from gaugesim.cli import main as cli_main
from gaugesim.evolution import (
    dual_lattice_period,
    pauli_decompose,
    transition_series,
    vertex_amplitude,
    vertex_scan,
    wrap_momentum,
)
from gaugesim.hamiltonians import (
    HamiltonianSpec,
    MONOPOLE_REFERENCE_ENERGIES,
    build,
    variant_selection_report,
)
from gaugesim.operators import herm_defect, hermitian_eig
from gaugesim.vqe import OptimizerSettings, minimize

from conftest import exact_unitary, free_planar_kernel, pauli_reconstruct, random_hermitian, random_state

POLAR_REFERENCE = 0.9980452


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def cartesian():
    built = build(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    return built, hermitian_eig(built.matrix).values


def test_criterion_1_cartesian_exact_spectrum(cartesian):
    t0 = time.time()
    built = build(HamiltonianSpec(kind="LandauCartesian", b_field=2.0))
    values = hermitian_eig(built.matrix).values
    elapsed = time.time() - t0
    lam = values[0]
    ok = abs(lam - 1.0) <= 1e-9 and elapsed < 5.0
    report(1, ok, f"lambda_min={lam:.12f} (target 1.0 +- 1e-9), diagonalization {elapsed:.2f}s < 5s")


def test_criterion_2_cartesian_vqe(cartesian):
    built, values = cartesian
    res = minimize(built, AnsatzConfig(8, depth=3), OptimizerSettings(max_iter=600, seed=11))
    iters = len(res.trace) - 2
    ok = res.energy <= 1.005 and res.energy >= 1.0 - 1e-9 and iters <= 600
    report(2, ok, f"8-qubit depth-3 VQE energy={res.energy:.9f} in {iters} iterations "
                  f"(<= 1.005, >= 1 - 1e-9, <= 600 iters)")


def test_criterion_3_polar_exact_spectrum():
    built = build(HamiltonianSpec(kind="LandauPolar", b_field=2.0, angular_m=0))
    lam = hermitian_eig(built.matrix).values[0]
    primary = abs(lam - POLAR_REFERENCE) <= 5e-3
    if primary:
        report(3, True, f"lambda_min={lam:.7f}, |dev| from {POLAR_REFERENCE} = "
                        f"{abs(lam - POLAR_REFERENCE):.2e} <= 5e-3")
        return
    # degraded branch: record the deviation, then demand the band plus
    # VQE-vs-exact self-consistency
    res = minimize(built, AnsatzConfig(4, depth=3), OptimizerSettings(max_iter=600, seed=11))
    gap = abs(res.energy - lam)
    ok = 0.99 <= lam <= 1.0 and gap <= 2e-3
    report(3, ok, f"primary band missed (lambda_min={lam:.7f}); degraded: "
                  f"band [0.99, 1.0] and VQE gap {gap:.2e} <= 2e-3")


def test_criterion_4_monopole_variants():
    rep = variant_selection_report()
    lines = "; ".join(
        f"{v}: " + ", ".join(f"g={g:g} -> {rep.values[v][g]:+.8f}" for g in sorted(rep.reference))
        for v in rep.values
    )
    if rep.matches:
        chosen = rep.matches[0]
        devs = [abs(rep.values[chosen][g] - rep.reference[g]) for g in rep.reference]
        report(4, max(devs) <= 1e-3, f"variant {chosen} matches both references within 1e-3 ({lines})")
        return
    # fallback property suite on the closest Hermitian variant
    chosen = rep.closest_hermitian
    spec = HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant=chosen)
    built = build(spec)
    defect = herm_defect(built.matrix) / np.max(np.abs(built.matrix))
    lam = hermitian_eig(built.matrix).values[0]
    res = minimize(built, AnsatzConfig(9, depth=3), OptimizerSettings(max_iter=600, seed=11))
    ok = defect <= 1e-10 and res.energy >= lam - 1e-9 and res.energy - lam <= 0.7
    report(4, ok, f"no variant matches the references ({lines}); fallback on {chosen}: "
                  f"herm defect {defect:.1e} <= 1e-10, VQE {res.energy:.6f} vs "
                  f"lambda_min {lam:.6f}, gap {res.energy - lam:.3f} <= 0.7")


def test_criterion_5_pauli_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in range(1, 6):
        h = random_hermitian(rng, 2 ** n)
        err = np.linalg.norm(pauli_reconstruct(pauli_decompose(h)) - h) / np.linalg.norm(h)
        worst = max(worst, err)
    built = build(
        HamiltonianSpec(kind="MonopoleSU2", b_field=2.0, variant="HermitianPart")
    )
    t0 = time.time()
    terms = pauli_decompose(built.matrix)
    elapsed = time.time() - t0
    err9 = np.linalg.norm(pauli_reconstruct(terms) - built.matrix) / np.linalg.norm(built.matrix)
    worst = max(worst, err9)
    ok = worst < 1e-12 and elapsed < 30.0
    report(5, ok, f"round-trip rel error {worst:.2e} < 1e-12 (1-5 qubits + 9-qubit "
                  f"monopole), 9-qubit decomposition {elapsed:.2f}s < 30s")


def test_criterion_6_trotter_convergence(cartesian):
    built, _ = cartesian
    rng = np.random.default_rng(5)
    psi = random_state(rng, 256)
    exact = exact_unitary(built.matrix, 0.5) @ psi
    errs = {n: np.linalg.norm(transition_series(built, psi, "all", [0.5], method="trotter",
                                                trotter_steps=n).amplitudes[0] - exact)
            for n in (25, 50, 100, 200)}
    ratios = [errs[25] / errs[50], errs[50] / errs[100], errs[100] / errs[200]]
    ratios_ok = all(1.6 <= r <= 2.4 for r in ratios)

    # transition probabilities from the ground (origin) state of the
    # oscillator-basis register over t in [0, 1]
    psi0 = np.zeros(256, dtype=complex)
    psi0[0] = 1.0
    ts = np.linspace(0.0, 1.0, 11)
    se = transition_series(built, psi0, "all", ts, method="exact")
    st = transition_series(built, psi0, "all", ts, method="trotter", trotter_steps=100)
    dev = float(np.max(np.abs(se.probabilities() - st.probabilities())))

    # |0,0> is an eigenstate that the grouped product keeps to ~1e-14, so
    # the same series from a random normalised state is the stricter check
    psi_r = random_state(np.random.default_rng(5), 256)
    se = transition_series(built, psi_r, "all", ts, method="exact")
    st = transition_series(built, psi_r, "all", ts, method="trotter", trotter_steps=100)
    dev_r = float(np.max(np.abs(se.probabilities() - st.probabilities())))
    ok = ratios_ok and dev < 1e-3 and dev_r < 2e-3
    report(6, ok, f"doubling ratios {[f'{r:.2f}' for r in ratios]} in [1.6, 2.4]; "
                  f"max probability deviation {dev:.2e} < 1e-3 from |0,0> and "
                  f"{dev_r:.2e} < 2e-3 from a random state at 100 steps")


def test_criterion_7_vertex_delta():
    n = 16
    grid = pos_grid(n)
    period = dual_lattice_period(n)
    p2s = np.linspace(-period / 2, period / 2, 16 * n, endpoint=False)
    worst_amp = 1.0
    worst_arg = 0.0
    for k1 in range(n):
        for k3 in range(n):
            p2 = grid[k3] - grid[k1]
            worst_amp = min(worst_amp, abs(vertex_amplitude(k1, p2, k3, n)))
            amps = vertex_scan(k1, k3, n, p2s)
            argmax = p2s[int(np.argmax(amps))]
            worst_arg = max(worst_arg, abs(argmax - wrap_momentum(p2, n)))
    ok = (1.0 - worst_amp) <= 1e-10 and worst_arg <= 1e-9
    report(7, ok, f"all {n * n} (k1,k3) pairs: |A| >= {worst_amp:.12f} at the predicted "
                  f"momentum transfer, scan argmax within {worst_arg:.1e} of the "
                  f"(period-wrapped) prediction")


def test_criterion_8_wu_yang():
    r0, r1 = 0.05, 0.1
    g0, gp0 = wu_yang_series_small(r0), wu_yang_series_small_prime(r0)
    traj = wu_yang_solve(r0, r1, 50, g0, gp0)
    series_err = abs(traj[-1, 1] - wu_yang_series_small(r1))

    fine = wu_yang_solve(r0, 1.0, 12800, g0, gp0)[-1, 1]
    e_coarse = abs(wu_yang_solve(r0, 1.0, 100, g0, gp0)[-1, 1] - fine)
    e_half = abs(wu_yang_solve(r0, 1.0, 200, g0, gp0)[-1, 1] - fine)
    ratio = e_coarse / e_half
    ok = series_err < 1e-6 and 12.0 <= ratio <= 20.0
    report(8, ok, f"series agreement at r=0.1: {series_err:.2e} < 1e-6; "
                  f"step-halving error ratio {ratio:.1f} in [12, 20]")


def test_criterion_9_kernel_oracles():
    # the B -> 0 limit is the free planar propagator; endpoints (0.1, 0.2)
    # and (0.5, -0.3) in Cartesian coordinates
    ends = (np.hypot(0.1, 0.2), np.arctan2(0.2, 0.1), np.hypot(0.5, -0.3), np.arctan2(-0.3, 0.5), 0.3)
    free = free_planar_kernel(*ends)
    rel = abs(kernel_polar(*ends, 1e-6) - free) / abs(free)
    report(9, rel < 1e-4, f"B->0 limit vs free propagator rel error {rel:.2e} < 1e-4")


def test_criterion_10_cli_determinism(tmp_path):
    runs = {
        "spectrum": {"hamiltonian": {"kind": "LandauPolar", "b_field": 2.0},
                     "output": str(tmp_path / "spec.csv")},
        "vqe": {"hamiltonian": {"kind": "LandauPolar", "b_field": 2.0},
                "ansatz": {"depth": 2},
                "optimizer": {"max_iter": 120, "seed": 11},
                "output": str(tmp_path / "trace.csv")},
        "eoh": {"hamiltonian": {"kind": "LandauCartesian", "b_field": 2.0, "boson_trunc": 4},
                "evolution": {"t_max": 0.5, "t_points": 3, "trotter_steps": 25},
                "output": str(tmp_path / "eoh.csv")},
        "scatter": {"scatter": {"qubits": 4, "p1": 3, "p3": 9},
                    "output": str(tmp_path / "scan.csv")},
        "wuyang": {"wuyang": {"r_start": 0.05, "r_end": 1.0, "steps": 100,
                              "seed_series": True},
                   "output": str(tmp_path / "wy.csv")},
    }
    produced = {
        "spectrum": ["spec.csv"],
        "vqe": ["trace.csv"],
        "eoh": ["eoh_exact.csv", "eoh_trotter.csv"],
        "scatter": ["scan.csv"],
        "wuyang": ["wy.csv"],
    }
    identical = True
    for command, cfg in runs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main([command, "--config", str(cfg_path), "--quiet"]) == 0
        first = {name: (tmp_path / name).read_bytes() for name in produced[command]}
        assert cli_main([command, "--config", str(cfg_path), "--quiet"]) == 0
        for name in produced[command]:
            identical = identical and (tmp_path / name).read_bytes() == first[name]
    report(10, identical, "all five commands rerun with fixed seeds produce "
                          "byte-identical CSV output")
