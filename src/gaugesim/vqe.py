"""Classical outer loop minimizing the ansatz energy.

The objective theta -> <psi(theta)| H |psi(theta)> is smooth, so any local
smooth minimizer is adequate.  It is a port of SLSQP's unconstrained core
(``_slsqp``: Powell-damped BFGS with a quadratic-interpolation Armijo line
search), fed with the exact gradient of the Ry form by adjoint
differentiation: one forward and one backward sweep through the circuit,
equal to the parameter-shift gradient (which would take 2P circuit runs for
P parameters).  The Ry form prepares real states, and for a real psi and a
Hermitian H, <psi|H|psi> = psi^T Re(H) psi exactly (Im H is antisymmetric),
so the objective and its gradient run on float64 states against Re(H),
held as a build's ``real_form`` (the real parts of its diagonal blocks,
stacked; a plain matrix is one block): H psi is one batched product,
never a dense Re(H).  The optimizer's objective runs the circuit kernels
(``circuits._forward`` and ``circuits._backward``, which undoes the
layers from their forward factors) itself, on one table pass of layer
factors per point, and does not check its own points again;
``energy_gradient`` is the checked one-shot through the public
``ansatz_state`` and ``adjoint_gradient``.
Up to 99 parameters (9 qubits up to depth 10) every step stays on the
calling thread, so a fixed seed gives the same trace bytes whatever the
BLAS thread count; above that OpenBLAS threads the optimizer's solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import AnsatzConfig, _backward, _factors, _forward, adjoint_gradient, ansatz_state
from .errors import DimensionMismatchError, GaugesimError, read_number, read_own_fields, write_rows
from .operators import _dim, _require_hermitian, as_operator

__all__ = [
    "OptimizerSettings",
    "VqeResult",
    "energy_gradient",
    "minimize",
    "write_trace_csv",
]

DEFAULT_SEED = 11


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for one minimize run.

    The run starts from parameters drawn uniformly in [-pi, pi] with
    ``seed``; the all-zeros start is a stationary point of some objectives.
    The best of several seeds is one run per seed.

    ``FIELDS`` is each field's ``read_fields`` rule, caps included; the
    constructor applies it, so the CLI passes its ``optimizer`` keys as given.
    """

    max_iter: int = 600
    tolerance: float = 1e-9
    seed: int = DEFAULT_SEED

    FIELDS = {"max_iter": (int, 1, 100000), "tolerance": (float, 0.0), "seed": (int, 0)}

    def __post_init__(self):
        read_own_fields(self, "optimizer")


@dataclass(frozen=True)
class VqeResult:
    """Outcome of one run: its best energy, the parameters there, and the trace.

    ``trace`` holds (iteration, energy) pairs: the start, one per optimizer
    iteration and the returned point, so a run whose budget runs out has
    ``max_iter`` + 2 rows;
    ``trace_evaluations`` gives the cumulative count of circuit runs (points
    at which the state was prepared; the energy and the gradient at one
    point share a run) when each row was recorded, and ``evaluations`` the
    run's total, its last entry.  ``energy`` equals min(trace energies).
    """

    energy: float
    params: np.ndarray
    trace: list
    trace_evaluations: list
    evaluations: int
    converged: bool

    def best_so_far(self) -> np.ndarray:
        return np.minimum.accumulate([e for _, e in self.trace])


def _real_form(h, ansatz: AnsatzConfig) -> tuple:
    """Re H as one (idx, sub) block stack (see ``BuiltHamiltonian.real_form``;
    a matrix is one block), after refusing ``h`` (a matrix or a build)
    unless it fits the register and is Hermitian (``_require_hermitian``;
    a build's flag), so that the variational quotient is real."""
    dim = _dim(h)
    if dim != 2 ** ansatz.n_qubits:
        raise DimensionMismatchError(f"H dim {dim} vs ansatz register of {ansatz.n_qubits} qubits")
    _require_hermitian(h, "vqe")
    if hasattr(h, "hermitian"):
        return h.real_form
    m = as_operator(h)
    return np.arange(dim)[None], (0.5 * (m.real + m.real.T))[None]


def _apply_real(h_real, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Re H psi into ``out``, Re H the (idx, sub) block stack of a
    ``real_form``: a gather, one batched product and a scatter."""
    idx, sub = h_real
    out[idx] = (sub @ psi[idx][..., None])[..., 0]
    return out


class _RealObjective:
    """Energy and adjoint gradient against a real symmetric matrix, given
    as the (idx, sub) block stack of a ``real_form``.

    Both share the last point's run: one table pass for its layer factors,
    the forward sweep, and the state with Re H times it in one (2, dim)
    buffer.  The gradient's sweep (``_backward``) takes the factors of
    layers 1 and up from that pass and undoes them itself.  So the energy
    and the gradient at one point cost one circuit run; ``runs`` counts
    them.  The points come from ``_slsqp``, finite by its rules, so the
    public entry checks of ``ansatz_state`` and ``adjoint_gradient`` are
    not run again.
    """

    def __init__(self, h_real, ansatz: AnsatzConfig):
        self.h_real = h_real
        self.ansatz = ansatz
        self.runs = 0
        self._x = None

    def _run(self, x):
        if self._x is None or not np.array_equal(x, self._x):
            n, entangler = self.ansatz.n_qubits, self.ansatz.entangler
            self._x = np.array(x, dtype=float)
            self._factors = _factors(self._x.reshape(self.ansatz.depth + 1, n))
            self._pair = np.empty((2, 2 ** n))
            self._pair[0] = _forward(n, entangler, *self._factors)
            _apply_real(self.h_real, self._pair[0], self._pair[1])
            self._energy = float(self._pair[0] @ self._pair[1])
            self.runs += 1

    def energy(self, x) -> float:
        self._run(x)
        return self._energy

    def gradient(self, x) -> np.ndarray:
        self._run(x)
        return _backward(self.ansatz.n_qubits, self.ansatz.entangler, *(f[1:] for f in self._factors), self._pair)


def energy_gradient(h, ansatz: AnsatzConfig, params) -> np.ndarray:
    """Exact gradient of the ansatz energy by adjoint differentiation.

    One forward and one backward sweep (``ansatz_state`` and
    ``adjoint_gradient``, each with its entry checks and its own table
    pass); equal to the parameter-shift rule g_k = (E(+pi/2 e_k) -
    E(-pi/2 e_k))/2 up to rounding.  Raises like ``minimize`` for a
    non-Hermitian H or a register mismatch.
    """
    h_real = _real_form(h, ansatz)
    psi = ansatz_state(ansatz, params)
    return adjoint_gradient(ansatz, params, psi, _apply_real(h_real, psi, np.empty_like(psi)))


def _slsqp(f, x0: np.ndarray, max_iter: int, tol: float):
    """SLSQP without constraints (Kraft, DFVLR-FB 88-28, 1988).

    The QP step is then the quasi-Newton direction d = -B^-1 g, with B = I
    at the start and after a direction that does not descend (at most five
    times in all; then the run stops).  The line search tries s = d, takes
    a trial once f - f0 <= g.s / 10 or at the 11th, and otherwise scales s
    by max(g.s / (2 (g.s - (f - f0))), 0.1), the minimum of the quadratic
    through f0, g.s and f.  B then takes Powell's damped BFGS update: where
    s.y < 0.2 s.Bs, y is blended towards Bs until s.y = 0.2 s.Bs.  The run
    succeeds once |g.d| < tol or, after a line search, |f - f0| < tol or
    |s| < tol.

    ``f`` gives ``energy(x)``, ``gradient(x)`` at the point of the last
    energy, and ``runs``.  Returns the rows (x, energy, runs): the start,
    one per iteration (the point its line search took, or where the
    gradient test stopped it) and the returned point; and the success flag.
    A non-finite energy ends the run, unconverged, at the last finite row,
    and so does a g.d that is not then finite and negative (|g|^2 overflows
    at a huge field), along which the line search would step to NaN angles.
    """
    x, fx = x0, f.energy(x0)
    rows = [(x, fx, f.runs)]
    success = False
    if np.isfinite(fx):
        g = f.gradient(x)
        b = np.eye(len(x))
        resets = 1
        for _ in range(max_iter):
            d = -np.linalg.solve(b, g)
            gd = float(g @ d)
            if gd >= tol and resets < 5:  # neither descent nor converged
                b, resets = np.eye(len(x)), resets + 1
                d, gd = -g, -float(g @ g)
            if abs(gd) < tol:
                rows.append((x, fx, f.runs))
                success = True
                break
            if not -np.inf < gd < 0.0:  # no finite descent
                break
            x_start, f_start, s, gs, alpha = x, fx, d, gd, 1.0
            for trial in range(1, 12):
                gs *= alpha
                s = alpha * s
                x = x_start + s
                fx = f.energy(x)
                if not np.isfinite(fx) or fx - f_start <= gs / 10 or trial == 11:
                    break
                alpha = max(gs / (2.0 * (gs - (fx - f_start))), 0.1)
            if not np.isfinite(fx):
                break
            rows.append((x, fx, f.runs))
            if abs(fx - f_start) < tol or np.linalg.norm(s) < tol:
                success = True
                break
            g_new = f.gradient(x)
            y, g = g_new - g, g_new
            b_s = b @ s
            sy, s_b_s = float(s @ y), float(s @ b_s)
            if sy < 0.2 * s_b_s:
                theta = 0.8 * s_b_s / (s_b_s - sy)
                y = theta * y + (1.0 - theta) * b_s
                sy = 0.2 * s_b_s
            b = b + y[:, None] * y / sy - b_s[:, None] * b_s / s_b_s
    rows.append((*rows[-1][:2], f.runs))
    return rows, success


def minimize(h, ansatz: AnsatzConfig, opt: OptimizerSettings | None = None) -> VqeResult:
    """Minimize the ansatz energy of a Hermitian Hamiltonian: one run from
    parameters drawn with ``opt.seed``.

    The reported energy is the minimum over the returned trace; if the
    iteration budget runs out first, the best-so-far result comes back
    with converged=False.  A start whose energy is not finite raises
    GaugesimError.
    """
    opt = opt or OptimizerSettings()
    f = _RealObjective(_real_form(h, ansatz), ansatz)
    x0 = np.random.default_rng(opt.seed).uniform(-np.pi, np.pi, ansatz.n_params)
    rows, success = _slsqp(f, x0, opt.max_iter, opt.tolerance)

    energies = np.array([e for _, e, _ in rows])
    k_best = int(np.argmin(energies))
    energy = read_number(float(energies[k_best]), "minimize: the energy at the start", float,
                         error=GaugesimError)
    return VqeResult(
        energy=energy,
        params=rows[k_best][0],
        trace=list(enumerate(energies.tolist())),
        trace_evaluations=[runs for _, _, runs in rows],
        evaluations=f.runs,
        converged=success,
    )


def write_trace_csv(result: VqeResult, path):
    """Trace CSV: header iteration,energy,evaluations, one row per accepted iterate."""
    rows = [(it, energy, ev) for (it, energy), ev in zip(result.trace, result.trace_evaluations)]
    write_rows(path, "iteration,energy,evaluations", np.array(rows, dtype=float).reshape(-1, 3))
