"""Property test of the library's intakes: one bad argument never ends in a
bare error or a non-finite result.

Every exported function that takes numbers or arrays is called with small
valid arguments, one of which is drawn again: from its other valid values,
from the CLI property test's ``BAD_VALUES``, or, for an array given as a
nested list, as that list with one entry replaced by a bad value.  Each call
must raise a ``GaugesimError`` or a ``ValueError``, or return a result free
of NaN and infinities, except where a non-finite result is the answer (see
``NON_FINITE_ALLOWED``).  The valid arguments are small and every count
drawn from ``BAD_VALUES`` is small or refused by its cap, so no draw asks
for a large run.  A second test holds the table to every function the
library modules export, less those with nothing to draw (``NO_INTAKE``).
"""

import copy
import dataclasses
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugesim import analytic, basis, circuits, evolution, operators, vqe
from gaugesim.circuits import AnsatzConfig, adjoint_gradient, ansatz_state, expectation
from gaugesim.errors import GaugesimError
from gaugesim.evolution import (
    dual_lattice_period,
    momentum_state,
    pauli_decompose,
    scattering_process,
    transition_series,
    vertex_amplitude,
    vertex_scan,
    wrap_momentum,
)
from gaugesim.operators import as_operator, herm_defect, hermitian_eig, is_hermitian, matrix_function, qubits_of_dim
from gaugesim.vqe import OptimizerSettings, energy_gradient, minimize

from test_cli_properties import BAD_VALUES

#: ``herm_defect`` measures its input, so a NaN entry gives a NaN defect;
#: ``as_operator`` passes NaN on to the Hermiticity check, which refuses it.
NON_FINITE_ALLOWED = {"as_operator", "herm_defect"}

#: Exported functions with no numeric intake to draw, by reason.
NO_INTAKE = {
    "no arguments": {"fermion_factor"},
    "a result and a path": {"write_transition_csv", "write_trace_csv"},
}

H = [[1.0, 0.5], [0.5, -1.0]]
H4 = [[1.0, 0.0, 0.0, 0.2], [0.0, -1.0, 0.3, 0.0], [0.0, 0.3, 0.5, 0.0], [0.2, 0.0, 0.0, 0.0]]
PSI = [0.6, 0.8]
EVOLVE = {"method": ("exact", "trotter"), "trotter_steps": (4, 1)}
CFG = AnsatzConfig(2, depth=1)
ANGLES = [0.1, -0.4, 0.7, 1.2]


def _minimize(h, n_qubits, depth, entangler, max_iter, tolerance, seed):
    return minimize(h, AnsatzConfig(n_qubits, depth, entangler),
                    OptimizerSettings(max_iter=max_iter, tolerance=tolerance, seed=seed))


def _gradient(params, state, h_state):
    return adjoint_gradient(CFG, params, state, h_state)


_STATE = ansatz_state(CFG, ANGLES).tolist()

#: name -> (function, {argument: (valid values, the first the default)})
CASES = {
    "transition_series": (transition_series, {
        "h": (H,), "psi_i": (PSI,), "psi_fs": ("all", [PSI, [0.0, 1.0]]), "ts": ([0.0, 0.5], 0.3),
        **EVOLVE}),
    "scattering_process": (scattering_process, {
        "h_free": (H,), "p2": (0.4,), "tau": (0.2, 0.0), "total_t": (0.5,), "psi0": (PSI,), **EVOLVE}),
    "pauli_decompose": (pauli_decompose, {"h": (H, [[2.0]])}),
    "as_operator": (as_operator, {"a": (H, [[2.0]])}),
    "qubits_of_dim": (qubits_of_dim, {"dim": (4, 1)}),
    "hermitian_eig": (hermitian_eig, {"a": (H,)}),
    "matrix_function": (lambda a: matrix_function(a, np.abs), {"a": (H,)}),
    "is_hermitian": (is_hermitian, {"a": (H,)}),
    "herm_defect": (herm_defect, {"a": (H, [[[1.0]], [[2.0]]])}),
    "place": (basis.place, {"op": (H,), "slot": (1, 0), "dims": ([3, 2, 2], [2])}),
    "ansatz_state": (lambda params: ansatz_state(CFG, params), {"params": (ANGLES,)}),
    "adjoint_gradient": (_gradient, {"params": (ANGLES,), "state": (_STATE,), "h_state": (_STATE,)}),
    "expectation": (expectation, {"state": (PSI,), "h": (H,)}),
    "energy_gradient": (lambda h, params: energy_gradient(h, CFG, params), {"h": (H4,), "params": (ANGLES,)}),
    "minimize": (_minimize, {
        "h": (H, H4),
        "n_qubits": (1, 2), "depth": (1, 0), "entangler": ("cz", "cx"), "max_iter": (5, 1),
        "tolerance": (1e-9,), "seed": (3,)}),
    "vertex_amplitude": (vertex_amplitude, {"k1": (1,), "p2": (0.4,), "k3": (2,), "n": (4,)}),
    "vertex_scan": (vertex_scan, {"k1": (1,), "k3": (2,), "n": (4,), "p2_values": ([-1.0, 0.5, 2.0], 0.5)}),
    "momentum_state": (momentum_state, {"k": (1,), "n": (4,)}),
    "dual_lattice_period": (dual_lattice_period, {"n": (4,)}),
    "wrap_momentum": (wrap_momentum, {"p2": (2.5,), "n": (4,)}),
    **{name: (getattr(basis, name), {"n": (4, 2)}) for name in
       ("osc_q", "osc_p", "osc_q2", "osc_p2", "pos_q", "pos_grid", "sylvester_f", "pos_p")},
    "landau_energy": (analytic.landau_energy, {"b_field": (2.0, -1.0), "n": (1,)}),
    "polar_energy": (analytic.polar_energy, {"b_field": (2.0,), "n": (2,), "m": (0, 2)}),
    "kernel_polar": (analytic.kernel_polar, {
        "rho_i": (0.3,), "phi_i": (0.1,), "rho_f": (0.5,), "phi_f": (0.7,), "t": (0.4,),
        "b_field": (1.5,)}),
    "wu_yang_solve": (analytic.wu_yang_solve, {
        "r_start": (0.05,), "r_end": (0.5,), "steps": (20,), "g_start": (1.0,), "gprime_start": (0.0,)}),
    **{name: (getattr(analytic, name), {"r": (0.3, 2.0)}) for name in
       ("wu_yang_series_small", "wu_yang_series_small_prime", "wu_yang_series_large")},
}


def _entries(value, path=()):
    """Paths of the numbers in a nested list."""
    for i, item in enumerate(value):
        if isinstance(item, list):
            yield from _entries(item, path + (i,))
        else:
            yield path + (i,)


@st.composite
def redrawn(draw, args):
    """The default arguments with one of them drawn again."""
    kwargs = {name: copy.deepcopy(valid[0]) for name, valid in args.items()}
    name = draw(st.sampled_from(sorted(args)))
    value = copy.deepcopy(draw(st.one_of(st.sampled_from(args[name]), BAD_VALUES)))
    if isinstance(kwargs[name], list) and kwargs[name] and draw(st.booleans()):
        *inner, last = draw(st.sampled_from(list(_entries(kwargs[name]))))
        target = kwargs[name]
        for i in inner:
            target = target[i]
        target[last] = value
    else:
        kwargs[name] = value
    return kwargs


def _arrays(result):
    """Every number in a result, as arrays (labels, flags and strings skipped)."""
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _arrays(getattr(result, field.name))
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from _arrays(item)
    elif not isinstance(result, (str, bool, np.bool_)):
        yield np.asarray(result)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_bad_argument_ends_in_a_named_error_or_a_finite_result(name):
    fn, args = CASES[name]

    @settings(max_examples=60)
    @given(redrawn(args))
    def check(kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                result = fn(**kwargs)
            except (GaugesimError, ValueError):
                return
        if name not in NON_FINITE_ALLOWED:
            assert all(np.all(np.isfinite(a)) for a in _arrays(result)), result

    check()


def test_every_exported_function_is_drawn_or_exempt_by_reason():
    exempt = set().union(*NO_INTAKE.values())
    for module in (analytic, basis, circuits, evolution, operators, vqe):
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)):
                assert name in CASES or name in exempt, f"{module.__name__}.{name}"
