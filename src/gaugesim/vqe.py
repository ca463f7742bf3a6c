"""Classical outer loop minimizing the ansatz energy.

The objective theta -> <psi(theta)| H |psi(theta)> is smooth, so any local
smooth minimizer is adequate; it is SLSQP, fed with the exact
gradient of the Ry form by adjoint differentiation: one forward and one
backward sweep through the circuit, equal to the parameter-shift gradient
(which would take 2P circuit runs for P parameters).  The Ry form prepares
real states, and for a real psi and a Hermitian H, <psi|H|psi> =
psi^T Re(H) psi exactly (Im H is antisymmetric), so the objective and its
gradient run on float64 states against Re(H).  Runs are deterministic for
a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .circuits import AnsatzConfig, adjoint_gradient, ansatz_state
from .errors import DimensionMismatchError, NotHermitianError, read_fields, read_number
from .hamiltonians import BuiltHamiltonian, matrix_of
from .operators import is_hermitian

__all__ = [
    "OptimizerSettings",
    "VqeResult",
    "template",
    "energy_gradient",
    "minimize",
    "write_trace_csv",
]

DEFAULT_SEED = 11


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for one minimize run.

    ``restarts`` > 1 runs independent seeds seed, seed+1, ... and keeps
    the best result.  Each run starts from parameters drawn uniformly in
    [-pi, pi] with its seed; the all-zeros start is a stationary point of
    some objectives.

    ``FIELDS`` is each field's ``read_number`` rule, caps included; the
    constructor applies it, so the CLI passes its ``optimizer`` keys as given.
    """

    max_iter: int = 600
    tolerance: float = 1e-9
    seed: int = DEFAULT_SEED
    restarts: int = 1

    FIELDS = {"max_iter": (int, 1, 100000), "tolerance": (float, 0.0), "seed": (int, 0),
              "restarts": (int, 1, 100)}

    def __post_init__(self):
        for name, rule in self.FIELDS.items():
            object.__setattr__(self, name, read_number(getattr(self, name), f"optimizer.{name}", *rule))


@dataclass(frozen=True)
class VqeResult:
    """Outcome of a run: best energy, its parameters, and the trace.

    ``trace`` holds (iteration, energy) pairs, one per accepted optimizer
    iterate (plus the initial point and the returned optimum);
    ``trace_evaluations`` gives the cumulative count of circuit runs (points
    at which the state was prepared; the energy and the gradient at one
    point share a run) when each row was recorded, and ``evaluations`` the
    total.  ``energy`` equals min(trace energies).
    """

    energy: float
    params: np.ndarray
    trace: list
    trace_evaluations: list
    evaluations: int
    converged: bool

    def best_so_far(self) -> np.ndarray:
        return np.minimum.accumulate([e for _, e in self.trace])


def template(n_qubits: int, depth: int = 3, entangler: str = "cz") -> AnsatzConfig:
    """Ansatz template with zeroed parameters (shape carrier for minimize)."""
    shape = read_fields({"n_qubits": n_qubits, "depth": depth, "entangler": entangler},
                        "ansatz", AnsatzConfig.FIELDS)
    return AnsatzConfig(params=np.zeros(shape["n_qubits"] * (shape["depth"] + 1)), **shape)


def _check_inputs(h, ansatz: AnsatzConfig) -> np.ndarray:
    m = matrix_of(h)
    if m.shape[0] != 2 ** ansatz.n_qubits:
        raise DimensionMismatchError(
            f"H dim {m.shape[0]} vs ansatz register of {ansatz.n_qubits} qubits"
        )
    hermitian = h.hermitian if isinstance(h, BuiltHamiltonian) else is_hermitian(m)
    if not hermitian:
        variant = h.spec.variant if isinstance(h, BuiltHamiltonian) else "?"
        raise NotHermitianError(
            f"refusing VQE on a non-Hermitian Hamiltonian (variant {variant!r}); "
            "rebuild with variant='HermitianPart' (or another Hermitian variant) "
            "so the variational quotient is real"
        )
    return m


def _real_part(m) -> np.ndarray:
    """The symmetric real part of H as one contiguous float64 matrix.

    For an exactly Hermitian H this is Re(H) itself, bit for bit.
    """
    return np.ascontiguousarray(0.5 * (m.real + m.real.T))


class _RealObjective:
    """Energy and adjoint gradient against a real symmetric matrix.

    Both share the forward state of the last point, so the energy and the
    gradient at one point cost one circuit run; ``runs`` counts them.
    """

    def __init__(self, h_real: np.ndarray, ansatz: AnsatzConfig):
        self.h_real = h_real
        self.ansatz = ansatz
        self.runs = 0
        self._x = None

    def _run(self, x):
        x = np.asarray(x, dtype=float)
        if self._x is None or not np.array_equal(x, self._x):
            self._cfg = self.ansatz.with_params(x)
            self._psi = ansatz_state(self._cfg)
            self._h_psi = self.h_real @ self._psi
            self._energy = float(self._psi @ self._h_psi)
            self._x = x.copy()
            self.runs += 1

    def energy(self, x) -> float:
        self._run(x)
        return self._energy

    def gradient(self, x) -> np.ndarray:
        self._run(x)
        return adjoint_gradient(self._cfg, self._psi, self._h_psi)


def energy_gradient(h, ansatz: AnsatzConfig, params) -> np.ndarray:
    """Exact gradient of the ansatz energy by adjoint differentiation.

    One forward and one backward sweep; equal to the parameter-shift rule
    g_k = (E(+pi/2 e_k) - E(-pi/2 e_k))/2 up to rounding.  Raises like
    ``minimize`` for a non-Hermitian H or a register mismatch.
    """
    objective = _RealObjective(_real_part(_check_inputs(h, ansatz)), ansatz)
    return objective.gradient(params)


def _single_run(h_real, ansatz, opt: OptimizerSettings, seed: int):
    x0 = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.n_params)

    f = _RealObjective(h_real, ansatz)
    trace = [(0, f.energy(x0))]
    trace_x = [x0.copy()]
    trace_evals = [f.runs]

    def callback(xk, *unused):
        trace.append((len(trace), f.energy(xk)))
        trace_x.append(np.array(xk, dtype=float))
        trace_evals.append(f.runs)

    res = scipy.optimize.minimize(
        f.energy,
        x0,
        jac=f.gradient,
        method="SLSQP",
        callback=callback,
        options={"maxiter": opt.max_iter, "ftol": opt.tolerance},
    )
    trace.append((len(trace), f.energy(res.x)))
    trace_x.append(np.array(res.x, dtype=float))
    trace_evals.append(f.runs)

    energies = np.array([e for _, e in trace])
    k_best = int(np.argmin(energies))
    tail = energies[-6:]
    settled = len(tail) >= 6 and np.all(np.abs(np.diff(tail)) < opt.tolerance)
    return VqeResult(
        energy=float(energies[k_best]),
        params=trace_x[k_best],
        trace=trace,
        trace_evaluations=trace_evals,
        evaluations=f.runs,
        converged=bool(res.success or settled),
    )


def minimize(h, ansatz: AnsatzConfig, opt: OptimizerSettings | None = None) -> VqeResult:
    """Minimize the ansatz energy of a Hermitian Hamiltonian.

    Returns the best of ``opt.restarts`` independent runs (seeds seed,
    seed+1, ...).  The reported energy is the minimum over the returned
    trace; if the iteration budget runs out first, the best-so-far result
    comes back with converged=False.
    """
    opt = opt or OptimizerSettings()
    h_real = _real_part(_check_inputs(h, ansatz))
    best = None
    total_evals = 0
    for r in range(opt.restarts):
        run = _single_run(h_real, ansatz, opt, opt.seed + r)
        total_evals += run.evaluations
        if best is None or run.energy < best.energy:
            best = run
    return replace(best, evaluations=total_evals)


def write_trace_csv(result: VqeResult, path):
    """Trace CSV: header iteration,energy,evaluations, one row per accepted iterate."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,energy,evaluations\n")
        for (it, energy), ev in zip(result.trace, result.trace_evaluations):
            fh.write(f"{it},{energy:.17g},{ev}\n")
