"""Variational ground-state estimates with the layered Ry circuit.

Runs the depth-3, fully entangled Ry form against the Cartesian (8 qubits)
and polar (4 qubits) Landau Hamiltonians at B = 2, prints the convergence
traces, and writes them as CSV files next to this script.
"""

import pathlib

from gaugesim import AnsatzConfig, HamiltonianSpec, build, hermitian_eig
from gaugesim.vqe import OptimizerSettings, minimize, write_trace_csv

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

RUNS = [
    ("cartesian", build(HamiltonianSpec(kind="LandauCartesian", b_field=2.0)), 8),
    ("polar", build(HamiltonianSpec(kind="LandauPolar", b_field=2.0)), 4),
]

for name, built, qubits in RUNS:
    lam = hermitian_eig(built.matrix).values[0]
    result = minimize(built, AnsatzConfig(qubits, depth=3), OptimizerSettings(max_iter=600, seed=11))
    path = OUT / f"vqe_trace_{name}.csv"
    write_trace_csv(result, path)
    print(f"--- {name}: {qubits} qubits, depth 3, seed 11")
    print(f"    exact lambda_min  = {lam:.9f}")
    print(f"    VQE energy        = {result.energy:.9f}   (gap {result.energy - lam:.2e})")
    print(f"    iterations        = {len(result.trace) - 2}, circuit runs = {result.evaluations}")
    print(f"    converged         = {result.converged}")
    print(f"    trace written to  {path}")
    running = result.best_so_far()
    marks = [0, len(running) // 4, len(running) // 2, len(running) - 1]
    print("    best-so-far trace:", ", ".join(f"it {m}: {running[m]:.6f}" for m in marks))
    print()
