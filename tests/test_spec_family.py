"""Properties of the exact and shot pipelines over the valid problem specs.

Each case draws one of the specs (n, n_t) whose reduced dimension
(n_t - 1) * n is a power of two, with nu in [0, 0.2] and dt inside the
forward-Euler stability limit nu * dt / dx^2 <= 1/2.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advqls import pauli, problem, spsa, vqls
from oracles import label_matrix, prepare_b_circuit

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
    """Generator stand-in whose binomial returns the expected counts, with
    `shift` added to the count of circuit `index` if one is given; it keeps
    the last probabilities it was passed."""

    def __init__(self, index=None, shift=0.0):
        self.index, self.shift = index, shift

    def binomial(self, n, p):
        self.p = np.asarray(p)
        counts = n * self.p
        if self.index is not None:
            counts[self.index] += self.shift
        return counts


@settings(max_examples=30, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
# every nu dt / dx^2 coefficient, 5.6e-13, falls under the default prune:
# four terms, 2.25e-12 in all, are dropped and the reconstruction misses
# by 1.125e-12
@example(spec=problem.ProblemSpec(n=4, nu=1e-12, dt=0.125, n_t=3), seed=0)
def test_exact_pipeline_properties(spec, seed):
    system = problem.build_block_system(spec)
    # without pruning the reconstruction is exact to rounding; the default
    # prune may add up to the summed magnitude of the dropped coefficients
    unpruned = pauli.decompose(system.a_reduced, prune_eps=0.0)
    assert np.abs(pauli.reconstruct(unpruned) - system.a_reduced).max() <= 1e-12
    decomposition = pauli.decompose(system.a_reduced)
    kept = set(decomposition.labels)
    dropped = sum(abs(t.coefficient) for t in unpruned.terms if t.label not in kept)
    error = np.abs(pauli.reconstruct(decomposition) - system.a_reduced).max()
    assert error <= 1e-12 + dropped

    cfg = vqls.ansatz_for(spec)
    evaluator = vqls.CostEvaluator(decomposition, cfg, vqls._b_preparation(system))

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
@given(spec=specs())
def test_b_preparation_is_template_or_householder(spec):
    # the two-angle template covers four nonzero amplitudes, so n >= 8
    # takes the Householder reflection. The template is the oracle
    # circuit's unitary byte for byte (its imaginary part is +0.0)
    system = problem.build_block_system(spec)
    b = system.b_state
    circuit = prepare_b_circuit(problem.fit_phi_degrees(b), b.size.bit_length() - 1)
    b_prep = vqls._b_preparation(system)
    assert b_prep.dtype == np.float64
    if spec.n == 4:
        assert np.abs(circuit.run() - b).max() <= 1e-10
        assert b_prep.astype(complex).tobytes() == circuit.unitary().tobytes()
    else:
        assert np.abs(circuit.run() - b).max() > 1e-10
        v = np.eye(b.size)[0] - b
        assert np.abs(b_prep - (np.eye(b.size) - np.outer(v, v) * (2.0 / (v @ v)))).max() <= 1e-12
        assert np.abs(b_prep[:, 0] - b).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_batched_costs_match_single_states(spec, seed):
    # every row of a (2, 3) stack of states costs bit for bit as the state
    # alone: exact, and sampled with one generator per column (member)
    system = problem.build_block_system(spec)
    cfg = vqls.ansatz_for(spec)
    evaluator = vqls.CostEvaluator(
        pauli.decompose(system.a_reduced), cfg, vqls._b_preparation(system)
    )
    rng = np.random.default_rng(seed)
    x = vqls.ansatz_amplitudes(cfg, rng.uniform(0.0, 2.0 * np.pi, (2, 3, cfg.n_params)))
    dense = evaluator.dense_cost(x)
    exact = evaluator.local_cost_of_state(x)
    sampled = evaluator.local_cost_of_state(x, 8192, [np.random.default_rng([seed, j]) for j in range(3)])
    assert dense.shape == exact.value.shape == sampled.value.shape == (2, 3)
    for j in range(3):
        member_rng = np.random.default_rng([seed, j])
        for i in range(2):
            assert dense[i, j].tobytes() == np.float64(evaluator.dense_cost(x[i, j])).tobytes()
            for batched, single in (
                (exact, evaluator.local_cost_of_state(x[i, j])),
                (sampled, evaluator.local_cost_of_state(x[i, j], 8192, member_rng)),
            ):
                assert batched.value[i, j].tobytes() == np.float64(single.value).tobytes()
                assert batched.readouts[i, j].tobytes() == single.readouts.tobytes()


def complex_product_readouts(evaluator, amplitudes):
    """Independent oracle of the full_sym readouts, from dense complex
    products: with V = [P_l x]_l and W = U^dag V, beta = V^dag V and
    delta_q = W^dag diag(z_q) W hold every constituent, and circuit c
    (beta for l < l', then delta_q for l <= l') reads
    Re(e^{i phi} constituent) with e^{i phi} = c_l* c_l' / |c_l c_l'|."""
    nq, n_terms, c = evaluator.num_qubits, evaluator.term_count, evaluator.coefficients
    paulis = np.stack([label_matrix(l) for l in evaluator.labels])
    u_dag = evaluator.u.conj().T
    idx = np.arange(2**nq)
    z = np.array([1.0 - 2.0 * ((idx >> (nq - 1 - q)) & 1) for q in range(nq)])
    ones = np.ones((n_terms, n_terms), dtype=bool)
    circuits = np.flatnonzero(np.stack([np.triu(ones, 1)] + [np.triu(ones)] * nq))
    phase = np.exp(1j * np.angle(np.outer(c.conj(), c)))
    phases = np.broadcast_to(phase, (1 + nq, *ones.shape)).take(circuits)

    v = (paulis @ np.asarray(amplitudes)[..., None, :, None])[..., 0].swapaxes(-1, -2)
    w = u_dag @ v
    beta = v.conj().swapaxes(-1, -2) @ v
    delta = (w.conj().swapaxes(-1, -2)[..., None, :, :] * z[:, None, :]) @ w[..., None, :, :]
    constituents = np.concatenate((beta[..., None, :, :], delta), -3)
    flat = constituents.reshape(constituents.shape[:-3] + (-1,))
    return np.real(phases * flat.take(circuits, -1))


def random_unitary(dim, rng):
    """A random real orthogonal matrix: the b-prep must be real."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


@settings(max_examples=30, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_real_readouts_match_complex_products(spec, seed):
    # the real signed-permutation form against the dense complex products,
    # with the spec's b-prep and with a random real orthogonal one
    system = problem.build_block_system(spec)
    cfg = vqls.ansatz_for(spec)
    decomposition = pauli.decompose(system.a_reduced)
    rng = np.random.default_rng(seed)
    x = vqls.ansatz_amplitudes(cfg, rng.uniform(0.0, 2.0 * np.pi, (2, 3, cfg.n_params)))
    for b_prep in (vqls._b_preparation(system), random_unitary(x.shape[-1], rng)):
        evaluator = vqls.CostEvaluator(decomposition, cfg, b_prep)
        readouts = evaluator.local_cost_of_state(x).readouts
        assert np.abs(readouts - complex_product_readouts(evaluator, x)).max() <= 1e-14


@pytest.mark.parametrize("num_qubits", range(1, 5))
def test_real_readouts_match_complex_products_for_complex_operators(num_qubits):
    # complex coefficients of every phase exercise both parts of the
    # phases that make up every factor f_c
    dim = 2**num_qubits
    rng = np.random.default_rng(num_qubits)
    decomposition = pauli.decompose(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    cfg = vqls.AnsatzConfig(num_qubits=num_qubits, units=2)
    evaluator = vqls.CostEvaluator(decomposition, cfg, random_unitary(dim, rng))
    x = vqls.ansatz_amplitudes(cfg, rng.uniform(0.0, 2.0 * np.pi, (4, cfg.n_params)))
    readouts = evaluator.local_cost_of_state(x).readouts
    assert np.abs(readouts - complex_product_readouts(evaluator, x)).max() <= 1e-14


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
        expected = ExpectedCounts()
        sampled = evaluator.local_cost_of_state(x, 8192, expected).value
        assert expected.p.size == vqls.circuit_count(cfg.num_qubits, evaluator.term_count, "full_sym")
        assert abs(sampled - evaluator.dense_cost(x)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_shot_mean_within_binomial_error(spec, seed):
    # the mean of seeded 8192-shot evaluations at one theta is within 4
    # standard errors of the exact cost. The error is the delta method on
    # the binomial variances shots * p (1 - p), with the gradient of the
    # estimate in each circuit's count taken by a central difference of
    # one count about the expected counts.
    shots, evaluations = 8192, 32
    system = problem.build_block_system(spec)
    cfg = vqls.ansatz_for(spec)
    evaluator = vqls.CostEvaluator(
        pauli.decompose(system.a_reduced), cfg, vqls._b_preparation(system)
    )
    x = vqls.ansatz_amplitudes(
        cfg, np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, cfg.n_params)
    )
    expected = ExpectedCounts()
    evaluator.local_cost_of_state(x, shots, expected)
    p = expected.p

    def shifted(index, shift):
        return evaluator.local_cost_of_state(x, shots, ExpectedCounts(index, shift)).value

    gradient = np.array([(shifted(i, 1.0) - shifted(i, -1.0)) / 2.0 for i in range(p.size)])
    standard_error = np.sqrt((gradient**2 * shots * p * (1.0 - p)).sum() / evaluations)
    values = [
        evaluator.local_cost_of_state(x, shots, np.random.default_rng([seed, i])).value
        for i in range(evaluations)
    ]
    assert abs(np.mean(values) - evaluator.dense_cost(x)) <= 4.0 * standard_error


@settings(max_examples=15, deadline=None)
@given(spec=specs(), shots=st.sampled_from([None, 8192]))
@example(spec=problem.ProblemSpec(n=16, n_t=3), shots=None)
def test_record_errors_match_the_problem_helpers(spec, shots):
    # every member's rmse_per_time is `problem.rmse` and
    # `problem.relative_error` of its final fields, bit for bit
    cfg = spsa.SpsaConfig(max_iter=2, stop_rule="none")
    try:
        records = vqls.run_ensemble(spec, spsa_cfg=cfg, shots=shots, base_seed=5, ensemble_size=3)
    except vqls.DegenerateStateError:
        return
    classical = problem.classical_solve(problem.build_block_system(spec)).reshape(spec.n_t - 1, spec.n)
    for record in records:
        assert record.rmse_per_time == [
            {
                "t": (k + 1) * spec.dt,
                "rmse": problem.rmse(record.u_fields[k], classical[k]),
                "relative": problem.relative_error(record.u_fields[k], classical[k]),
            }
            for k in range(spec.n_t - 1)
        ]
