import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from advqls import pauli, problem, sim, spsa, vqls
from advqls.vqls import (
    AnsatzConfig,
    CostEvaluator,
    DegenerateStateError,
    ansatz_amplitudes,
    ansatz_circuit,
    ansatz_state,
    circuit_count,
    extract_solution,
    rescale_solution,
    run_ensemble,
    solve,
)

SPEC = problem.ProblemSpec()
SYSTEM = problem.build_block_system(SPEC)
DECOMP = pauli.decompose(SYSTEM.a_reduced)
ANSATZ = AnsatzConfig(num_qubits=3, units=4)
B_CIRCUIT = sim.prepare_b_circuit(problem.fit_phi_degrees(SYSTEM.b_state))


@pytest.fixture(scope="module")
def evaluator():
    return CostEvaluator(DECOMP, ANSATZ, B_CIRCUIT)


def dense_projector_cost(theta: np.ndarray) -> float:
    """Independent oracle: build H = A^dag U (I - (1/Q) sum_q |0_q><0_q| ox I) U^dag A
    densely, using |0_q><0_q| = (I + Z_q)/2, and evaluate <x|H|x>/<Ax|Ax>."""
    num_qubits = 3
    dim = 8
    a = pauli.reconstruct(DECOMP)
    u = B_CIRCUIT.unitary()
    projector_sum = np.zeros((dim, dim), dtype=complex)
    for q in range(num_qubits):
        z_label = "I" * q + "Z" + "I" * (num_qubits - 1 - q)
        projector_sum += (np.eye(dim) + pauli.label_matrix(z_label)) / 2.0
    h = a.conj().T @ u @ (np.eye(dim) - projector_sum / num_qubits) @ u.conj().T @ a
    x = ansatz_state(ANSATZ, theta)
    psi = a @ x
    return float(np.real(x.conj() @ h @ x) / np.real(psi.conj() @ psi))


class TestAnsatz:
    def test_all_zero_angles_real(self):
        state = ansatz_state(AnsatzConfig(num_qubits=3, units=1), np.zeros(3))
        assert np.abs(state.imag).max() <= 1e-12

    def test_amplitudes_real_over_random_angles(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            state = ansatz_state(ANSATZ, rng.uniform(0, 2 * np.pi, 12))
            worst = max(worst, np.abs(state.imag).max())
        assert worst <= 1e-12

    def test_ry_gate_count(self):
        circuit = ansatz_circuit(ANSATZ, np.arange(12.0))
        names = [g.name for g in circuit.gates]
        assert names.count("ry") == 12
        assert names.count("h") == 12
        assert names.count("cz") == 8

    def test_unit_structure(self):
        circuit = ansatz_circuit(AnsatzConfig(num_qubits=3, units=1), np.zeros(3))
        assert [g.name for g in circuit.gates] == ["h"] * 3 + ["cz"] * 2 + ["ry"] * 3

    def test_angle_count_checked(self):
        with pytest.raises(ValueError, match="angles"):
            ansatz_state(ANSATZ, np.zeros(7))
        with pytest.raises(ValueError, match="angles"):
            ansatz_amplitudes(ANSATZ, np.zeros(7))

    @pytest.mark.parametrize("num_qubits", range(1, 6))
    @pytest.mark.parametrize("units", range(1, 5))
    def test_real_amplitudes_match_circuit(self, num_qubits, units):
        # and each row of a batch is byte-equal to its single-theta call
        cfg = AnsatzConfig(num_qubits=num_qubits, units=units)
        rng = np.random.default_rng(100 * num_qubits + units)
        thetas = rng.uniform(0, 2 * np.pi, (201, cfg.n_params))
        single = np.array([ansatz_amplitudes(cfg, theta) for theta in thetas])
        assert single.dtype == np.float64
        for theta, x in zip(thetas, single):
            assert np.abs(x - ansatz_circuit(cfg, theta).run()).max() <= 1e-12
        for batch in (1, 2, 24, 201):
            batched = ansatz_amplitudes(cfg, thetas[:batch])
            assert batched.shape == (batch, 2**num_qubits)
            assert batched.tobytes() == single[:batch].tobytes()
        grid = ansatz_amplitudes(cfg, thetas[:24].reshape(4, 6, cfg.n_params))
        assert grid.shape == (4, 6, 2**num_qubits)
        assert grid.tobytes() == single[:24].tobytes()


class TestBetaTerm:
    def test_diagonal_is_one(self, evaluator):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, 2 * np.pi, 12)
        beta = evaluator.local_cost(theta).beta
        assert np.abs(np.diag(beta) - 1.0).max() <= 1e-12

    def test_conjugate_symmetry(self, evaluator):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi, 12)
            l, lp = rng.integers(DECOMP.term_count, size=2)
            beta = evaluator.local_cost(theta).beta
            assert beta[lp, l] == pytest.approx(np.conj(beta[l, lp]), abs=1e-12)

    def test_identity_times_pauli_is_expectation(self, evaluator):
        # III is term 0; pairing it with term j reduces to <x|P_j|x>
        theta = np.random.default_rng(9).uniform(0, 2 * np.pi, 12)
        state = ansatz_state(ANSATZ, theta)
        beta = evaluator.local_cost(theta).beta
        for j, label in enumerate(DECOMP.labels):
            expected = sim.expectation(state, label)
            assert beta[0, j] == pytest.approx(expected, abs=1e-12)


class TestDeltaTerm:
    def test_identity_preparation_reduces_to_z_expectation(self):
        identity_prep = np.eye(8, dtype=complex)
        ev = CostEvaluator(DECOMP, ANSATZ, identity_prep)
        theta = np.random.default_rng(11).uniform(0, 2 * np.pi, 12)
        state = ansatz_state(ANSATZ, theta)
        delta = ev.local_cost(theta).delta
        for q in range(3):
            z_label = "I" * q + "Z" + "I" * (2 - q)
            expected = sim.expectation(state, z_label)
            assert delta[q, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_conjugate_symmetry(self, evaluator):
        rng = np.random.default_rng(13)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi, 12)
            q = int(rng.integers(3))
            l, lp = (int(v) for v in rng.integers(DECOMP.term_count, size=2))
            delta = evaluator.local_cost(theta).delta
            assert delta[q, lp, l] == pytest.approx(np.conj(delta[q, l, lp]), abs=1e-12)


def _spec_evaluator(n, n_t):
    system = problem.build_block_system(problem.ProblemSpec(n=n, n_t=n_t))
    cfg = AnsatzConfig(num_qubits=system.b_state.size.bit_length() - 1, units=4)
    return CostEvaluator(pauli.decompose(system.a_reduced), cfg, vqls._b_preparation(system)), cfg


class ExpectedCounts:
    """Generator stand-in whose binomial returns the expected counts."""

    def binomial(self, n, p):
        return n * np.asarray(p)


class RecordingGenerator:
    """A real Generator that keeps every binomial draw it makes."""

    # bound here so that a test may patch np.random.default_rng to make these
    def __init__(self, seed, default_rng=np.random.default_rng):
        self.rng = default_rng(seed)
        self.draws = []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def binomial(self, n, p):
        counts = self.rng.binomial(n, p)
        self.draws.append((n, np.array(p), counts))
        return counts


class StateAtDraws:
    """A real Generator that notes its state before every `integers` draw."""

    def __init__(self, seed, seen, default_rng=np.random.default_rng):
        self.rng = default_rng(seed)
        self.seen = seen

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def integers(self, *args, **kwargs):
        self.seen.append(json.dumps(self.rng.bit_generator.state, sort_keys=True))
        return self.rng.integers(*args, **kwargs)


def hadamard_test_p0(x, phase, p_l, p_lp, u=None, z=None):
    """P(ancilla = 0) of a dense (Q+1)-qubit Hadamard test, ancilla first.

    Ancilla H, phase diag(1, e^{i phi}), controlled P_l', then for a delta
    circuit U^dag, controlled Z_q and U, then controlled P_l and ancilla H.
    """
    eye = np.eye(x.size)
    hadamard = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), eye)

    def controlled(m):
        return np.kron(np.diag([1.0, 0.0]), eye) + np.kron(np.diag([0.0, 1.0]), m)

    ops = [hadamard, np.kron(np.diag([1.0, phase]), eye), controlled(p_lp)]
    if z is not None:
        ops += [np.kron(np.eye(2), u.conj().T), controlled(z), np.kron(np.eye(2), u)]
    ops += [controlled(p_l), hadamard]
    psi = np.kron([1.0, 0.0], x)
    for op in ops:
        psi = op @ psi
    return float(np.sum(np.abs(psi[: x.size]) ** 2))


class TestSampledStrings:
    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5), (8, 2), (16, 3)])
    def test_exact_sampler_gives_exact_constituents(self, n, n_t):
        # With expected counts in place of draws, the circuits' phases,
        # indices and mirroring must rebuild the closed-form cost, which
        # shares no code with them, and the measured part of every pair.
        ev, cfg = _spec_evaluator(n, n_t)
        c = ev.coefficients
        phase = np.outer(c.conj(), c) / np.abs(np.outer(c, c))
        rng = np.random.default_rng(n + 10 * n_t)
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi, cfg.n_params)
            dense = ev.dense_cost(ansatz_amplitudes(cfg, theta))
            exact = ev.local_cost(theta)
            sampled = ev.local_cost(theta, shots=1, rng=ExpectedCounts())
            assert abs(sampled.value - dense) <= 1e-12
            assert np.abs(np.real(phase * (sampled.beta - exact.beta))).max() <= 1e-12
            assert np.abs(np.real(phase * (sampled.delta - exact.delta))).max() <= 1e-12

    @pytest.mark.parametrize("n, n_t, circuits", [(4, 3, 105), (16, 3, 1925)])
    def test_one_binomial_draw_per_circuit(self, monkeypatch, n, n_t, circuits):
        spec = problem.ProblemSpec(n=n, n_t=n_t)
        generators = []

        def recording(seed=None):
            generators.append(RecordingGenerator(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        record = solve(spec, spsa_cfg=spsa.SpsaConfig(max_iter=2, stop_rule="none"), shots=8192)
        draws = [draw for g in generators for draw in g.draws]
        assert record.circuits_per_evaluation == circuits
        assert len(draws) == record.cost_evaluations == 5
        for shots, p, counts in draws:
            assert shots == 8192
            assert p.shape == counts.shape == (circuits,)

    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5)])
    def test_circuits_match_dense_hadamard_tests(self, n, n_t):
        system = problem.build_block_system(problem.ProblemSpec(n=n, n_t=n_t))
        prep = vqls._b_preparation(system)
        u = prep.unitary() if isinstance(prep, sim.Circuit) else prep
        ev, cfg = _spec_evaluator(n, n_t)
        nq, c = cfg.num_qubits, ev.coefficients
        paulis = [pauli.label_matrix(label) for label in ev.labels]
        z_labels = ["I" * q + "Z" + "I" * (nq - 1 - q) for q in range(nq)]
        theta = np.random.default_rng(n * n_t).uniform(0, 2 * np.pi, cfg.n_params)
        x = ansatz_state(cfg, theta)
        rng = RecordingGenerator(0)
        ev.local_cost(theta, 8192, rng)
        (_, p, _), = rng.draws
        # draw order: beta for l < l', then delta_q for l <= l' (q = None for beta)
        n_terms = len(c)
        circuits = [(None, l, lp) for l in range(n_terms) for lp in range(l + 1, n_terms)]
        circuits += [(q, l, lp) for q in range(nq) for l in range(n_terms) for lp in range(l, n_terms)]
        assert p.size == len(circuits)
        for (q, l, lp), p_evaluator in zip(circuits, p):
            phase = np.conj(c[l]) * c[lp] / abs(c[l] * c[lp])
            z = None if q is None else pauli.label_matrix(z_labels[q])
            p0 = hadamard_test_p0(x, phase, paulis[l], paulis[lp], u, z)
            assert abs(p0 - p_evaluator) <= 1e-12
            if q is not None and l == lp:
                rotated = u.conj().T @ paulis[l] @ x
                assert abs(p_evaluator - (1 + sim.expectation(rotated, z_labels[q])) / 2) <= 1e-12

    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5), (16, 3)])
    def test_sampled_constituents_match_hermitian_fill(self, n, n_t):
        # reference: the estimates on the upper triangle, then the dense
        # fill T + triu(T, 1)^H + I on beta, compared bit for bit (signed
        # zeros included)
        ev, cfg = _spec_evaluator(n, n_t)
        nq, n_terms = cfg.num_qubits, ev.term_count
        x = ansatz_amplitudes(cfg, np.random.default_rng(7).uniform(0, 2 * np.pi, cfg.n_params))
        for seed in range(100):
            rng = RecordingGenerator(seed)
            sampled = ev.local_cost_of_state(x, 8192, rng)
            (shots, _, counts), = rng.draws
            terms = np.zeros((1 + nq, n_terms, n_terms), dtype=complex)
            np.put(terms, ev._circuits, ev._phases.conj() * (2.0 * counts / shots - 1.0))
            terms += np.triu(terms, 1).conj().swapaxes(1, 2)
            terms[0] += np.eye(n_terms)
            assert sampled.beta.tobytes() == terms[0].tobytes()
            assert sampled.delta.tobytes() == terms[1:].tobytes()

    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5), (8, 3), (16, 3)])
    def test_near_solution_probabilities_clipped(self, n, n_t):
        # rounding puts some (1 + r) / 2 a few ulps outside [0, 1] here,
        # which Generator.binomial rejects
        ev, _ = _spec_evaluator(n, n_t)
        system = problem.build_block_system(problem.ProblemSpec(n=n, n_t=n_t))
        classical = problem.classical_solve(system)
        noise = np.random.default_rng(n + n_t)
        rng = RecordingGenerator(0)
        degenerate = 0
        for k in range(20):
            x = classical + (1e-9 * noise.normal(size=classical.size) if k else 0.0)
            try:
                assert np.isfinite(ev.local_cost_of_state(x / np.linalg.norm(x), 8192, rng).value)
            except DegenerateStateError:
                degenerate += 1
        assert len(rng.draws) == 20
        # on (16, 3) |A x|^2 is 0.03 at the solution against a shot spread
        # of about 0.28, so the sampled denominator can fall to zero or below
        assert degenerate == 0 or (n, n_t) == (16, 3)

    @pytest.mark.parametrize(
        "n, n_t, seed", [(4, 3, 51), (4, 3, 52), (4, 3, 53), (4, 5, 54)]
    )
    def test_shot_estimate_is_unbiased(self, n, n_t, seed):
        ev, cfg = _spec_evaluator(n, n_t)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0, 2 * np.pi, cfg.n_params)
        exact = ev.local_cost(theta).value
        values = np.array([ev.local_cost(theta, 8192, rng).value for _ in range(400)])
        standard_error = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - exact) <= 4.0 * standard_error

    @pytest.mark.parametrize("shots", [0, -1, 2.5, True])
    def test_invalid_shots_rejected_before_drawing(self, evaluator, shots):
        rng = RecordingGenerator(0)
        with pytest.raises(ValueError, match="shots"):
            evaluator.local_cost(np.zeros(12), shots, rng)
        assert rng.draws == []
        with pytest.raises(ValueError, match="shots"):
            solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=1, stop_rule="none"), shots=shots)


class TestLocalCost:
    def test_zero_at_exact_solution_state(self, evaluator):
        x_star = np.linalg.solve(SYSTEM.a_reduced, SYSTEM.b_raw)
        breakdown = evaluator.local_cost_of_state(x_star / np.linalg.norm(x_star))
        assert breakdown.value <= 1e-10

    def test_matches_dense_oracle(self, evaluator):
        rng = np.random.default_rng(17)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi, 12)
            assert abs(evaluator.local_cost(theta).value - dense_projector_cost(theta)) <= 1e-10

    def test_value_in_unit_interval(self, evaluator):
        rng = np.random.default_rng(19)
        for _ in range(50):
            value = evaluator.local_cost(rng.uniform(0, 2 * np.pi, 12)).value
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_breakdown_structure(self, evaluator):
        theta = np.random.default_rng(23).uniform(0, 2 * np.pi, 12)
        breakdown = evaluator.local_cost(theta)
        n_terms = DECOMP.term_count
        assert breakdown.beta.shape == (n_terms, n_terms)
        assert breakdown.delta.shape == (3, n_terms, n_terms)
        assert_allclose(np.diag(breakdown.beta), np.ones(n_terms))
        assert np.abs(breakdown.beta - breakdown.beta.conj().T).max() <= 1e-12
        for q in range(3):
            d = breakdown.delta[q]
            assert np.abs(d - d.conj().T).max() <= 1e-12

    def test_sign_flip_invariance(self, evaluator):
        theta = np.random.default_rng(29).uniform(0, 2 * np.pi, 12)
        state = ansatz_state(ANSATZ, theta)
        a = evaluator.local_cost_of_state(state).value
        b = evaluator.local_cost_of_state(-state).value
        assert a == pytest.approx(b, abs=1e-12)

    def test_shot_mode_statistics(self, evaluator):
        rng = np.random.default_rng(31)
        theta = rng.uniform(0, 2 * np.pi, 12)
        exact = evaluator.local_cost(theta).value
        sampled = evaluator.local_cost(theta, shots=8192, rng=np.random.default_rng(7)).value
        assert abs(sampled - exact) <= 0.02

    def test_shot_mode_deterministic_per_seed(self, evaluator):
        theta = np.random.default_rng(37).uniform(0, 2 * np.pi, 12)
        a = evaluator.local_cost(theta, shots=256, rng=np.random.default_rng(5)).value
        b = evaluator.local_cost(theta, shots=256, rng=np.random.default_rng(5)).value
        assert a == b

    def test_degenerate_state_error(self):
        # A = |0><0| on one qubit annihilates |1>
        projector = np.array([[1.0, 0.0], [0.0, 0.0]])
        decomp = pauli.decompose(projector)
        ev = CostEvaluator(decomp, AnsatzConfig(num_qubits=1, units=1), np.eye(2, dtype=complex))
        state = np.array([0.0, 1.0])
        with pytest.raises(DegenerateStateError):
            ev.local_cost_of_state(state)
        with pytest.raises(DegenerateStateError):
            ev.dense_cost(state)

    def test_empty_decomposition_rejected(self):
        empty = pauli.PauliDecomposition(num_qubits=3, terms=())
        with pytest.raises(ValueError, match="no terms"):
            CostEvaluator(empty, ANSATZ, B_CIRCUIT)


class TestDenseCost:
    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5), (16, 3)])
    def test_matches_term_sum(self, n, n_t):
        # (16, 3) has no two-angle template, so b-prep is the Householder reflection
        system = problem.build_block_system(problem.ProblemSpec(n=n, n_t=n_t))
        cfg = AnsatzConfig(num_qubits=system.b_state.size.bit_length() - 1, units=4)
        ev = CostEvaluator(pauli.decompose(system.a_reduced), cfg, vqls._b_preparation(system))
        rng = np.random.default_rng(n + n_t)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi, cfg.n_params)
            dense = ev.dense_cost(ansatz_amplitudes(cfg, theta))
            assert abs(dense - ev.local_cost(theta).value) <= 1e-10


class TestCircuitCount:
    def test_reference_baseline(self):
        assert circuit_count(3, 7, "baseline") == 196

    def test_minimal_case(self):
        assert circuit_count(3, 1, "baseline") == 4
        for mode in ("baseline", "beta_sym", "full_sym"):
            assert circuit_count(3, 1, mode) >= 3

    def test_ordering_and_ratio(self):
        for n_terms in range(1, 61):
            baseline = circuit_count(3, n_terms, "baseline")
            beta_sym = circuit_count(3, n_terms, "beta_sym")
            full_sym = circuit_count(3, n_terms, "full_sym")
            assert full_sym <= beta_sym <= baseline
            if n_terms >= 20:
                assert 0.45 <= full_sym / baseline <= 0.55

    def test_submission_limit_flag(self):
        assert vqls.is_submittable(900)
        assert not vqls.is_submittable(901)
        # the reference system is submittable only with symmetry savings
        assert vqls.is_submittable(circuit_count(3, 7, "baseline"))
        assert vqls.is_submittable(circuit_count(3, 15, "baseline"))  # 900 on the nose
        assert not vqls.is_submittable(circuit_count(3, 16, "baseline"))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            circuit_count(0, 5)
        with pytest.raises(ValueError):
            circuit_count(3, 5, "bogus")


class TestSolutionExtraction:
    def test_exact_solution_recovers_classical(self):
        x_star = np.linalg.solve(SYSTEM.a_reduced, SYSTEM.b_raw)
        fields = rescale_solution(x_star / np.linalg.norm(x_star), SYSTEM)
        classical = problem.classical_solve(SYSTEM).reshape(2, 4)
        assert np.abs(fields - classical).max() <= 1e-10

    def test_sign_flip_gives_identical_output(self):
        x_star = np.linalg.solve(SYSTEM.a_reduced, SYSTEM.b_raw)
        x_unit = x_star / np.linalg.norm(x_star)
        assert_allclose(
            rescale_solution(-x_unit, SYSTEM), rescale_solution(x_unit, SYSTEM), atol=1e-12
        )

    def test_zero_vector_flagged(self):
        with pytest.raises(DegenerateStateError):
            rescale_solution(np.zeros(8), SYSTEM)
        # one degenerate row fails a whole batch
        x = ansatz_amplitudes(ANSATZ, np.random.default_rng(44).uniform(0, 2 * np.pi, (24, 12)))
        x[5] = 0.0
        with pytest.raises(DegenerateStateError):
            rescale_solution(x, SYSTEM)

    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5), (16, 3)])
    def test_batched_rows_match_single_calls(self, n, n_t):
        system = problem.build_block_system(problem.ProblemSpec(n=n, n_t=n_t))
        cfg = vqls.ansatz_for(system.spec)
        thetas = np.random.default_rng(n + n_t).uniform(0, 2 * np.pi, (201, cfg.n_params))
        x = ansatz_amplitudes(cfg, thetas)
        single = np.array([rescale_solution(row, system) for row in x])
        for batch in (1, 2, 24, 201):
            batched = rescale_solution(x[:batch], system)
            assert batched.shape == (batch, n_t - 1, n)
            assert batched.tobytes() == single[:batch].tobytes()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="amplitudes"):
            rescale_solution(np.zeros(7), SYSTEM)

    def test_extract_from_theta(self):
        theta = np.random.default_rng(41).uniform(0, 2 * np.pi, 12)
        fields = extract_solution(theta, SYSTEM, ANSATZ)
        assert fields.shape == (2, 4)


class TestSolve:
    def test_record_shape_and_determinism(self):
        cfg = spsa.SpsaConfig(max_iter=15, stop_rule="none")
        rec1 = solve(SPEC, spsa_cfg=cfg, seed=3)
        rec2 = solve(SPEC, spsa_cfg=cfg, seed=3)
        assert rec1.cost_trace == rec2.cost_trace
        assert np.array_equal(rec1.theta_final, rec2.theta_final)
        assert rec1.iterations == 15
        assert not rec1.converged
        assert rec1.solution_trace.shape == (16, 2, 4)
        assert rec1.u_fields.shape == (2, 4)
        assert len(rec1.rmse_per_time) == 2
        assert rec1.cost_evaluations == 31
        assert rec1.circuits_per_evaluation == circuit_count(3, 7, "full_sym")

    def test_shots_mode_runs_and_differs(self):
        cfg = spsa.SpsaConfig(max_iter=5, stop_rule="none")
        exact = solve(SPEC, spsa_cfg=cfg, seed=1)
        sampled = solve(SPEC, spsa_cfg=cfg, shots=512, seed=1)
        assert sampled.shots == 512
        assert sampled.cost_trace != exact.cost_trace

    def test_exact_solve_decomposes_only_the_operator(self, monkeypatch):
        calls = []
        decompose = pauli.decompose

        def counting(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return decompose(matrix, *args, **kwargs)

        monkeypatch.setattr(pauli, "decompose", counting)
        solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=2, stop_rule="none"), seed=0)
        assert calls == [SYSTEM.a_reduced.shape]

    def test_trace_built_in_one_batched_call(self, monkeypatch):
        # one state for theta_0, one (2, P) batch per SPSA iteration and one
        # batch for the whole trace; two calls per iteration would make 12
        shapes = []
        amplitudes = vqls.ansatz_amplitudes

        def counting(cfg, theta):
            shapes.append(np.shape(theta))
            return amplitudes(cfg, theta)

        monkeypatch.setattr(vqls, "ansatz_amplitudes", counting)
        rec = solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=5, stop_rule="none"), seed=0)
        monkeypatch.undo()
        assert shapes == [(12,)] + [(2, 12)] * rec.iterations + [(rec.iterations + 1, 12)]
        assert len(shapes) == 7
        assert rec.u_fields.tobytes() == extract_solution(rec.theta_final, SYSTEM, ANSATZ).tobytes()

    @pytest.mark.parametrize("n, n_t", [(4, 3), (16, 3)])
    @pytest.mark.parametrize("shots", [None, 8192])
    def test_matches_loop_of_scalar_steps(self, n, n_t, shots):
        # oracle: the public one-step update on scalar cost functions, one
        # kernel call per point; 70 iterations cross a Delta block border
        spec = problem.ProblemSpec(n=n, n_t=n_t)
        cfg = spsa.SpsaConfig(max_iter=70, stop_rule="none")
        ev, ansatz = _spec_evaluator(n, n_t)
        seed = 5
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, ansatz.n_params)
        if shots is None:
            def cost(t):
                return ev.dense_cost(ansatz_amplitudes(ansatz, t))
        else:
            shot_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

            def cost(t):
                return ev.local_cost_of_state(ansatz_amplitudes(ansatz, t), shots, shot_rng).value

        trace = [cost(theta)]
        for k in range(cfg.max_iter):
            theta, estimate = spsa.step(theta, cost, k, cfg, rng)
            trace.append(float(estimate))
        rec = solve(spec, spsa_cfg=cfg, shots=shots, seed=seed)
        assert rec.theta_final.tobytes() == theta.tobytes()
        assert np.array(rec.cost_trace).tobytes() == np.array(trace).tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            solve(SPEC, ansatz=AnsatzConfig(num_qubits=2, units=4))

    def test_default_ansatz_follows_spec(self):
        spec = problem.ProblemSpec(n=4, n_t=5)
        cfg = spsa.SpsaConfig(max_iter=3, stop_rule="none")
        derived = solve(spec, spsa_cfg=cfg, seed=1)
        explicit = solve(spec, ansatz=AnsatzConfig(4, 4), spsa_cfg=cfg, seed=1)
        assert json.dumps(derived.to_dict(), sort_keys=True) == json.dumps(
            explicit.to_dict(), sort_keys=True
        )
        assert vqls.ansatz_for(spec) == AnsatzConfig(4, 4)
        member = run_ensemble(spec, spsa_cfg=cfg, base_seed=1, ensemble_size=1)[0]
        assert member.cost_trace == explicit.cost_trace

    def test_record_roundtrip(self):
        rec = solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=4, stop_rule="none"), seed=2)
        back = vqls.SolveRecord.from_dict(rec.to_dict())
        assert back.cost_trace == rec.cost_trace
        assert np.array_equal(back.u_fields, rec.u_fields)
        assert back.shots is None

    def test_run_ensemble_seeds(self):
        cfg = spsa.SpsaConfig(max_iter=3, stop_rule="none")
        records = run_ensemble(SPEC, spsa_cfg=cfg, base_seed=10, ensemble_size=3)
        assert [r.seed for r in records] == [10, 11, 12]
        solo = solve(SPEC, spsa_cfg=cfg, seed=11)
        assert records[1].cost_trace == solo.cost_trace

    def test_cost_profile_flattens_quickly(self):
        # most of the descent happens in the first ~40 iterations; after
        # that the (perturbed-point) estimates wobble near the 1e-2 scale
        cfg = spsa.SpsaConfig(max_iter=80, stop_rule="none")
        for seed in (0, 1, 2):
            trace = solve(SPEC, spsa_cfg=cfg, seed=seed).cost_trace
            assert min(trace[:41]) <= 0.2          # rapid initial descent
            assert np.median(trace[40:]) <= 0.12   # flat-ish tail
            assert trace[-1] <= 0.1

    def test_shot_noise_does_not_shift_spsa_stream(self, monkeypatch):
        # theta_init and the SPSA perturbations share one stream, shot noise
        # has its own, so the stream SPSA sees is the same with or without
        # shots: the generator state at every block draw of Delta and the
        # Delta row of every iteration
        advance = spsa._advance

        def run(shots):
            seen = []

            def recording_advance(theta, pair_cost, k, cfg, delta):
                seen.append(delta.tobytes())
                return advance(theta, pair_cost, k, cfg, delta)

            def recording_rng(seed=None):
                return StateAtDraws(seed, seen)

            monkeypatch.setattr(spsa, "_advance", recording_advance)
            monkeypatch.setattr(np.random, "default_rng", recording_rng)
            solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=5, stop_rule="none"), shots=shots, seed=4)
            monkeypatch.undo()
            return seen

        exact = run(None)
        assert len(exact) == 1 + 5
        assert run(8192) == exact

    def test_run_ensemble_parallel_matches_serial(self):
        cfg = spsa.SpsaConfig(max_iter=3, stop_rule="none")

        def record_bytes(workers, shots):
            records = run_ensemble(
                SPEC, spsa_cfg=cfg, shots=shots, base_seed=0, ensemble_size=2, workers=workers
            )
            return [json.dumps(r.to_dict(), sort_keys=True) for r in records]

        for shots in (None, 8192):
            serial = record_bytes(1, shots)
            assert record_bytes(1, shots) == serial
            assert record_bytes(2, shots) == serial

    def test_records_do_not_depend_on_blas_threads(self):
        # OpenBLAS reads its thread count at load, so each count needs its
        # own interpreter; one digest per (shots, seed) record
        script = textwrap.dedent(
            """
            import hashlib, json
            from advqls import problem, spsa, vqls
            cfg = spsa.SpsaConfig(max_iter=20, stop_rule="none")
            for shots in (None, 8192):
                for seed in (0, 1):
                    record = vqls.solve(problem.ProblemSpec(), spsa_cfg=cfg, shots=shots, seed=seed)
                    text = json.dumps(record.to_dict(), sort_keys=True)
                    print(hashlib.sha256(text.encode()).hexdigest())
            """
        )
        src = str(Path(vqls.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 4
        assert digests[1] == digests[0]


class TestBPreparation:
    def test_template_used_for_reference_system(self):
        prep = vqls._b_preparation(SYSTEM)
        assert isinstance(prep, sim.Circuit)
        assert np.abs(prep.run() - SYSTEM.b_state).max() <= 1e-10

    def test_householder_fallback(self):
        # a right-hand side that breaks the two-angle template
        rng = np.random.default_rng(43)
        b = rng.normal(size=8)
        b /= np.linalg.norm(b)
        fake = problem.BlockSystem(
            spec=SPEC,
            a_full=SYSTEM.a_full,
            a_reduced=SYSTEM.a_reduced,
            b_raw=b,
            b_state=b,
            b_norm=1.0,
            u0=SYSTEM.u0,
        )
        prep = vqls._b_preparation(fake)
        assert isinstance(prep, np.ndarray)
        assert np.abs(prep.conj().T @ prep - np.eye(8)).max() <= 1e-10
        assert np.abs(prep[:, 0] - b).max() <= 1e-10
