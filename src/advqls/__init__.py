"""Classical toolkit for variational linear-solver runs on the
advection-diffusion equation: finite-difference block systems, Pauli
decomposition, a small statevector simulator, the local-cost variational
solver driven by SPSA, and forecast-scale qubit-resource estimates."""

from .problem import (
    BlockSystem,
    ProblemSpec,
    analytic_solution,
    build_block_system,
    build_m,
    classical_solve,
    fit_phi_degrees,
    initial_condition,
    relative_error,
    rmse,
)
from .pauli import PauliDecomposition, PauliTerm, decompose, pauli_product, reconstruct
from .sim import Circuit, expectation, sample_expectation
from .spsa import SpsaConfig, SpsaResult
from .vqls import (
    AnsatzConfig,
    CostBreakdown,
    CostEvaluator,
    DegenerateStateError,
    SolveRecord,
    ansatz_state,
    circuit_count,
    run_ensemble,
    solve,
)
from .resources import ForecastConfig, cfl_timestep, qubit_count, sweep, vector_dimension

__version__ = "0.1.0"
