"""gaugesim: desk-scale quantum simulation of particles in background gauge fields.

Dense-matrix Hamiltonians for a charged particle in constant magnetic and
SU(2) monopole fields, a small statevector circuit engine with a
variational ground-state solver, Trotterized time evolution with
vertex-operator insertions, and closed-form oracles to check it all
against.
"""

from .operators import (
    EigenSystem,
    herm_defect,
    hermitian_eig,
    is_hermitian,
    matrix_function,
)
from .basis import (
    fermion_factor,
    osc_p,
    osc_p2,
    osc_q,
    osc_q2,
    place,
    pos_grid,
    pos_p,
    pos_q,
    sylvester_f,
)
from .hamiltonians import (
    BuiltHamiltonian,
    HamiltonianSpec,
    build,
    build_landau_cartesian_position,
)
from .analytic import (
    kernel_polar,
    landau_energy,
    polar_energy,
    wu_yang_series_large,
    wu_yang_series_small,
    wu_yang_solve,
)
from .circuits import AnsatzConfig, ansatz_state, expectation
from .vqe import OptimizerSettings, VqeResult, minimize
from .evolution import (
    PauliTermList,
    TransitionSeries,
    momentum_state,
    pauli_decompose,
    scattering_process,
    transition_series,
    vertex_amplitude,
    vertex_scan,
)

__version__ = "0.1.0"
