"""Properties of the exact and shot pipelines over the valid problem specs.

Each case draws one of the specs (n, n_t) whose reduced dimension
(n_t - 1) * n is a power of two, with nu in [0, 0.2] and dt inside the
forward-Euler stability limit nu * dt / dx^2 <= 1/2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from advqls import pauli, problem, sim, vqls

SHAPES = [(4, 3), (8, 2), (4, 5), (8, 3), (16, 2)]


@st.composite
def specs(draw) -> problem.ProblemSpec:
    n, n_t = draw(st.sampled_from(SHAPES))
    nu = draw(st.floats(0.0, 0.2))
    dx2 = (1.0 / (n - 1)) ** 2
    dt_max = 0.5 if nu == 0.0 else min(0.5, 0.5 * dx2 / nu)
    dt = draw(st.floats(0.05, 0.99)) * dt_max
    spec = problem.ProblemSpec(n=n, nu=nu, dt=dt, n_t=n_t)
    assert spec.nu * spec.dt / spec.dx**2 <= 0.5
    return spec


class ExpectedCounts:
    """Generator stand-in whose binomial returns the expected counts."""

    def binomial(self, n, p):
        return n * np.asarray(p)


@settings(max_examples=30, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_exact_pipeline_properties(spec, seed):
    system = problem.build_block_system(spec)
    decomposition = pauli.decompose(system.a_reduced)
    assert np.abs(pauli.reconstruct(decomposition) - system.a_reduced).max() <= 1e-12

    # the two-angle template covers four nonzero amplitudes, so n >= 8
    # takes the Householder reflection
    b_prep = vqls._b_preparation(system)
    assert isinstance(b_prep, sim.Circuit if spec.n == 4 else np.ndarray)
    cfg = vqls.ansatz_for(spec)
    evaluator = vqls.CostEvaluator(decomposition, cfg, b_prep)

    rng = np.random.default_rng(seed)
    for _ in range(3):
        theta = rng.uniform(0.0, 2.0 * np.pi, cfg.n_params)
        dense = evaluator.dense_cost(vqls.ansatz_amplitudes(cfg, theta))
        assert -1e-12 <= dense <= 1.0 + 1e-12
        assert abs(evaluator.local_cost(theta).value - dense) <= 1e-10

    classical = problem.classical_solve(system)
    x = classical / np.linalg.norm(classical)
    assert abs(evaluator.dense_cost(x)) <= 1e-12
    term_sum = evaluator.local_cost_of_state(x).value
    assert abs(term_sum) <= 1e-12
    fields = vqls.rescale_solution(x, system)
    assert np.abs(fields - classical.reshape(spec.n_t - 1, spec.n)).max() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_shot_expected_counts_match_dense_cost(spec, seed):
    # with each circuit's expected count in place of a draw, the shot
    # estimate is the exact cost
    system = problem.build_block_system(spec)
    cfg = vqls.ansatz_for(spec)
    evaluator = vqls.CostEvaluator(
        pauli.decompose(system.a_reduced), cfg, vqls._b_preparation(system)
    )
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = vqls.ansatz_amplitudes(cfg, rng.uniform(0.0, 2.0 * np.pi, cfg.n_params))
        sampled = evaluator.local_cost_of_state(x, 8192, ExpectedCounts()).value
        assert abs(sampled - evaluator.dense_cost(x)) <= 1e-12
