import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import advqls
from advqls import cli, pauli, problem, sim, spsa, vqls
from advqls.vqls import (
    AnsatzConfig,
    CostEvaluator,
    DegenerateStateError,
    ansatz_amplitudes,
    ansatz_circuit,
    ansatz_state,
    circuit_count,
    rescale_solution,
    run_ensemble,
    solve,
)
from oracles import label_matrix

SPEC = problem.ProblemSpec()
SYSTEM = problem.build_block_system(SPEC)
DECOMP = pauli.decompose(SYSTEM.a_reduced)
ANSATZ = AnsatzConfig(num_qubits=3, units=4)
B_CIRCUIT = sim.prepare_b_circuit(problem.fit_phi_degrees(SYSTEM.b_state))
# the one line of every degenerate cost
DEGENERATE = "norm of A|x(theta)> is numerically zero or not finite; cost undefined"


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
        projector_sum += (np.eye(dim) + label_matrix(z_label)) / 2.0
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

    @pytest.mark.parametrize("num_qubits", range(1, 7))
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

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_unit_tables_cached_and_read_only(self, num_qubits):
        tables = vqls._unit_tables(num_qubits)
        assert vqls._unit_tables(num_qubits) is tables
        pick, table = tables
        assert pick.shape == (num_qubits, 2**num_qubits)
        assert table.shape == (2**num_qubits, 4**num_qubits)
        assert table.nbytes == 8 * 8**num_qubits
        for array in tables:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1


def full_sym_circuits(num_qubits, n_terms):
    """(q, l, l') of every full_sym circuit in draw order: beta for l < l'
    (q = None), then delta_q for l <= l'."""
    circuits = [(None, l, lp) for l in range(n_terms) for lp in range(l + 1, n_terms)]
    circuits += [
        (q, l, lp) for q in range(num_qubits) for l in range(n_terms) for lp in range(l, n_terms)
    ]
    return circuits


def hermitian_fill_cost(readouts, coefficients, num_qubits):
    """Independent oracle of the term sum: the constituents e^{-i phi} r
    on the upper triangle, filled to T + triu(T, 1)^H + I on beta, then
    contracted as 1/2 - sum_q c^dag delta_q c / (2Q c^dag beta c)."""
    c = np.asarray(coefficients)
    terms = np.zeros((1 + num_qubits, c.size, c.size), dtype=complex)
    for (q, l, lp), r in zip(full_sym_circuits(num_qubits, c.size), readouts, strict=True):
        phase = np.conj(c[l]) * c[lp] / abs(c[l] * c[lp])
        terms[0 if q is None else 1 + q, l, lp] = np.conj(phase) * r
    terms += np.triu(terms, 1).conj().swapaxes(1, 2)
    terms[0] += np.eye(c.size)
    beta, delta = terms[0], terms[1:]
    numerator = sum(np.real(c.conj() @ delta[q] @ c) for q in range(num_qubits))
    return 0.5 - numerator / (2.0 * num_qubits * np.real(c.conj() @ beta @ c))


class TestBetaTerm:
    def test_identity_times_pauli_is_expectation(self, evaluator):
        # III is term 0; circuit (0, j) reads Re(e^{i phi} <x|P_j|x>)
        theta = np.random.default_rng(9).uniform(0, 2 * np.pi, 12)
        state = ansatz_state(ANSATZ, theta)
        readouts = evaluator.local_cost(theta).readouts
        c = DECOMP.coefficients
        circuits = full_sym_circuits(3, DECOMP.term_count)
        assert DECOMP.labels[0] == "III"
        for j, label in enumerate(DECOMP.labels[1:], start=1):
            phase = np.conj(c[0]) * c[j] / abs(c[0] * c[j])
            expected = np.real(phase * sim.expectation(state, label))
            assert readouts[circuits.index((None, 0, j))] == pytest.approx(expected, abs=1e-12)


class TestDeltaTerm:
    def test_identity_preparation_reduces_to_z_expectation(self):
        identity_prep = np.eye(8, dtype=complex)
        ev = CostEvaluator(DECOMP, ANSATZ, identity_prep)
        theta = np.random.default_rng(11).uniform(0, 2 * np.pi, 12)
        state = ansatz_state(ANSATZ, theta)
        readouts = ev.local_cost(theta).readouts
        circuits = full_sym_circuits(3, DECOMP.term_count)
        for q in range(3):
            z_label = "I" * q + "Z" + "I" * (2 - q)
            expected = sim.expectation(state, z_label)
            assert readouts[circuits.index((q, 0, 0))] == pytest.approx(expected, abs=1e-12)


def _spec_evaluator(n, n_t):
    system = problem.build_block_system(problem.ProblemSpec(n=n, n_t=n_t))
    cfg = AnsatzConfig(num_qubits=system.b_state.size.bit_length() - 1, units=4)
    return CostEvaluator(pauli.decompose(system.a_reduced), cfg, vqls._b_preparation(system)), cfg


@pytest.mark.parametrize(
    "n, n_t, pinned", [(4, 3, 10), (4, 5, 187), (16, 3, 128), (8, 3, 28), (8, 2, 0)]
)
def test_antisymmetric_circuits_read_exactly_zero(n, n_t, pinned):
    # oracle: circuit c reads x^T C x with C = P_l K P_l' built from dense
    # Pauli matrices (K = I for beta, U Z_q U^T for delta_q), which is 0 for
    # every real x exactly when C + C^T vanishes; those circuits must read
    # 0.0, every other circuit something else on some of 200 random states
    ev, cfg = _spec_evaluator(n, n_t)
    nq, u = cfg.num_qubits, ev.u.real
    stack = [np.eye(2**nq)] + [
        u @ label_matrix("I" * q + "Z" + "I" * (nq - 1 - q)).real @ u.T for q in range(nq)
    ]
    dense = [label_matrix(label) for label in ev.labels]
    zero = []
    for q, l, lp in full_sym_circuits(nq, ev.term_count):
        c = dense[l] @ stack[0 if q is None else 1 + q] @ dense[lp]
        zero.append(np.abs(c + c.T).max() < 1e-12)
    zero = np.array(zero)
    assert zero.sum() == pinned
    x = np.random.default_rng(n).standard_normal((200, 2**nq))
    readouts = ev.local_cost_of_state(x / np.linalg.norm(x, axis=1, keepdims=True)).readouts
    assert (readouts[:, zero] == 0.0).all()
    assert (readouts[:, ~zero] != 0.0).any(0).all()


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
    """A real Generator that notes its state before every `integers` draw,
    and the draw."""

    def __init__(self, seed, seen, default_rng=np.random.default_rng):
        self.rng = default_rng(seed)
        self.seen = seen

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def integers(self, *args, **kwargs):
        self.seen.append(json.dumps(self.rng.bit_generator.state, sort_keys=True))
        self.seen.append(self.rng.integers(*args, **kwargs))
        return self.seen[-1]


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
        # indices and weights must rebuild the closed-form cost, which
        # shares no code with them, and every exact readout.
        ev, cfg = _spec_evaluator(n, n_t)
        rng = np.random.default_rng(n + 10 * n_t)
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi, cfg.n_params)
            dense = ev.dense_cost(ansatz_amplitudes(cfg, theta))
            exact = ev.local_cost(theta)
            sampled = ev.local_cost(theta, shots=1, rng=ExpectedCounts())
            assert abs(sampled.value - dense) <= 1e-12
            assert sampled.readouts.shape == exact.readouts.shape
            assert np.abs(sampled.readouts - exact.readouts).max() <= 1e-12

    @pytest.mark.parametrize("n, n_t, circuits", [(4, 3, 105), (16, 3, 1925)])
    def test_one_binomial_draw_per_circuit(self, monkeypatch, n, n_t, circuits):
        # one draw per circuit and evaluation, made as one binomial call per
        # cost call: theta_0 over iteration 0's two points, then each later
        # iteration's two points at once
        spec = problem.ProblemSpec(n=n, n_t=n_t)
        generators = []

        def recording(seed=None):
            generators.append(RecordingGenerator(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        record = solve(spec, spsa_cfg=spsa.SpsaConfig(max_iter=2, stop_rule="none"), shots=8192)
        draws = [draw for g in generators for draw in g.draws]
        assert record.circuits_per_evaluation == circuits
        assert record.cost_evaluations == 5
        assert [p.shape for _, p, _ in draws] == [(3, circuits), (2, circuits)]
        for shots, p, counts in draws:
            assert shots == 8192
            assert p.shape == counts.shape

    def test_opening_draw_replays_two_call_protocol(self, monkeypatch):
        # each member's first binomial call is one (3, C) block, theta_0's
        # readouts over iteration 0's pair, and its counts are those of a
        # (C,) draw and then a (2, C) draw on the member's shot stream
        generators = []

        def recording(seed=None):
            generators.append(RecordingGenerator(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        cfg = spsa.SpsaConfig(max_iter=3, stop_rule="none")
        run_ensemble(SPEC, spsa_cfg=cfg, shots=8192, base_seed=4, ensemble_size=3)
        monkeypatch.undo()
        shot_generators = [g for g in generators if g.draws]
        assert len(shot_generators) == 3
        for i, g in enumerate(shot_generators):
            assert [p.shape for _, p, _ in g.draws] == [(3, 105), (2, 105), (2, 105)]
            shots, p, counts = g.draws[0]
            replay = np.random.default_rng(np.random.SeedSequence(4 + i).spawn(1)[0])
            first, pair = replay.binomial(shots, p[0]), replay.binomial(shots, p[1:])
            assert counts.tobytes() == np.concatenate((first[None], pair)).tobytes()

    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5)])
    def test_circuits_match_dense_hadamard_tests(self, n, n_t):
        system = problem.build_block_system(problem.ProblemSpec(n=n, n_t=n_t))
        prep = vqls._b_preparation(system)
        u = prep.unitary() if isinstance(prep, sim.Circuit) else prep
        ev, cfg = _spec_evaluator(n, n_t)
        nq, c = cfg.num_qubits, ev.coefficients
        paulis = [label_matrix(label) for label in ev.labels]
        z_labels = ["I" * q + "Z" + "I" * (nq - 1 - q) for q in range(nq)]
        theta = np.random.default_rng(n * n_t).uniform(0, 2 * np.pi, cfg.n_params)
        x = ansatz_state(cfg, theta)
        rng = RecordingGenerator(0)
        ev.local_cost(theta, 8192, rng)
        (_, p, _), = rng.draws
        exact = ev.local_cost_of_state(x).readouts
        circuits = full_sym_circuits(nq, len(c))
        assert p.size == exact.size == len(circuits)
        for (q, l, lp), p_evaluator, r in zip(circuits, p, exact):
            phase = np.conj(c[l]) * c[lp] / abs(c[l] * c[lp])
            z = None if q is None else label_matrix(z_labels[q])
            p0 = hadamard_test_p0(x, phase, paulis[l], paulis[lp], u, z)
            assert abs(p0 - p_evaluator) <= 1e-12
            assert abs(2.0 * p0 - 1.0 - r) <= 1e-12
            if q is not None and l == lp:
                rotated = u.conj().T @ paulis[l] @ x
                assert abs(p_evaluator - (1 + sim.expectation(rotated, z_labels[q])) / 2) <= 1e-12

    @pytest.mark.parametrize("n, n_t", [(4, 3), (4, 5), (16, 3)])
    def test_sampled_constituents_match_hermitian_fill(self, n, n_t):
        # the readouts are the recorded draw's 2k / shots - 1 bit for bit,
        # and the value is the Hermitian fill's contraction of them
        ev, cfg = _spec_evaluator(n, n_t)
        x = ansatz_amplitudes(cfg, np.random.default_rng(7).uniform(0, 2 * np.pi, cfg.n_params))
        for seed in range(100):
            rng = RecordingGenerator(seed)
            sampled = ev.local_cost_of_state(x, 8192, rng)
            (shots, _, counts), = rng.draws
            assert sampled.readouts.tobytes() == (2.0 * counts / shots - 1.0).tobytes()
            oracle = hermitian_fill_cost(sampled.readouts, ev.coefficients, cfg.num_qubits)
            assert abs(sampled.value - oracle) <= 1e-12

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

    # 2**63 overflows the int64 count of Generator.binomial
    @pytest.mark.parametrize("shots", [0, -1, 2.5, True, 2**63, np.uint64(2**63)])
    def test_invalid_shots_rejected_before_drawing(self, evaluator, shots):
        rng = RecordingGenerator(0)
        with pytest.raises(ValueError, match="shots"):
            evaluator.local_cost(np.zeros(12), shots, rng)
        assert rng.draws == []
        with pytest.raises(ValueError, match="shots"):
            solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=1, stop_rule="none"), shots=shots)


class TestLocalCost:
    def test_shot_mode_needs_a_generator(self, evaluator, monkeypatch):
        x = ansatz_amplitudes(ANSATZ, np.random.default_rng(41).uniform(0, 2 * np.pi, 12))

        def unseeded(*args, **kwargs):
            raise AssertionError("shot mode made a generator of its own")

        monkeypatch.setattr(np.random, "default_rng", unseeded)
        with pytest.raises(ValueError, match="rng"):
            evaluator.local_cost_of_state(x, 8192)
        with pytest.raises(ValueError, match="rng"):
            evaluator.local_cost(np.zeros(12), shots=8192, rng=None)

    @pytest.mark.parametrize(
        "rows, make_rng",
        [
            ((), lambda: [RecordingGenerator(0)]),
            ((2,), lambda: [RecordingGenerator(j) for j in range(3)]),
            ((2,), lambda: [RecordingGenerator(0)]),
            ((2,), lambda: [RecordingGenerator(0), 5]),
            ((), lambda: 5),
            ((), lambda: (RecordingGenerator(0),)),
            ((2,), lambda: (RecordingGenerator(0), RecordingGenerator(1))),
            ((), lambda: np.random),
            ((1,), lambda: [np.random]),
        ],
        ids=["list-without-rows", "3-for-2-rows", "1-for-2-rows", "int-in-list", "int",
             "tuple", "tuple-for-2-rows", "numpy-random-module", "numpy-random-module-in-list"],
    )
    def test_malformed_rng_rejected_before_drawing(self, evaluator, rows, make_rng):
        # one ValueError naming rng, and no generator draws, NumPy's global
        # unseeded state included
        x = ansatz_amplitudes(ANSATZ, np.random.default_rng(47).uniform(0, 2 * np.pi, rows + (12,)))
        rng = make_rng()
        global_state = pickle.dumps(np.random.get_state())
        with pytest.raises(ValueError, match="rng"):
            evaluator.local_cost_of_state(x, 8192, rng)
        generators = rng if isinstance(rng, (list, tuple)) else [rng]
        assert all(g.draws == [] for g in generators if isinstance(g, RecordingGenerator))
        assert pickle.dumps(np.random.get_state()) == global_state

    def test_complex_amplitudes_must_be_real(self, evaluator):
        # a zero imaginary part, as `ansatz_state` gives, reads like the
        # real amplitudes; any other is rejected
        x = ansatz_amplitudes(ANSATZ, np.random.default_rng(43).uniform(0, 2 * np.pi, (2, 3, 12)))
        real = evaluator.local_cost_of_state(x)
        as_complex = evaluator.local_cost_of_state(x.astype(complex))
        assert as_complex.readouts.tobytes() == real.readouts.tobytes()
        assert as_complex.value.tobytes() == real.value.tobytes()
        tilted = x.astype(complex)
        tilted[1, 2, 5] += 1e-300j
        with pytest.raises(ValueError, match="real"):
            evaluator.local_cost_of_state(tilted)
        with pytest.raises(ValueError, match="real"):
            evaluator.local_cost_of_state(tilted, 8192, np.random.default_rng(0))
        # rescale_solution follows the same rule
        fields = rescale_solution(x, SYSTEM)
        assert rescale_solution(x.astype(complex), SYSTEM).tobytes() == fields.tobytes()
        for bad in (tilted, x + 1j):
            with pytest.raises(ValueError, match="amplitudes must be real"):
                rescale_solution(bad, SYSTEM)

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

    @pytest.mark.parametrize(
        "amplitudes",
        [
            np.full(8, np.nan), np.full(8, np.inf), np.where(np.arange(8) == 2, -np.inf, 0.0),
            np.where(np.arange(3)[:, None] == 1, np.nan, ansatz_amplitudes(ANSATZ, np.ones((3, 12)))),
        ],
        ids=["nan", "inf", "one-minus-inf", "one-nan-row"],
    )
    def test_non_finite_amplitudes_rejected(self, evaluator, amplitudes):
        # the degeneracy tests fail on NaN, which non-finite amplitudes give,
        # exactly; sampled, the draw names the readout means. NumPy warns
        # on the inf * 0 products of infinite amplitudes
        rows = amplitudes.reshape(-1, 1, 8)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateStateError, match="zero or not finite"):
                evaluator.dense_cost(amplitudes)
            with pytest.raises(DegenerateStateError, match="zero or not finite"):
                evaluator.local_cost_of_state(amplitudes)
            with pytest.raises(DegenerateStateError, match="zero or not finite"):
                rescale_solution(amplitudes, SYSTEM)
            for rng in (np.random.default_rng(0), [np.random.default_rng(0)]):
                with pytest.raises(ValueError, match="^means must be readout means, not NaN"):
                    evaluator.local_cost_of_state(rows, 64, rng)

    def test_empty_decomposition_rejected(self):
        empty = pauli.PauliDecomposition(num_qubits=3, terms=())
        with pytest.raises(ValueError, match="no terms"):
            CostEvaluator(empty, ANSATZ, B_CIRCUIT)

    def test_complex_b_prep_rejected(self):
        # the readouts' real form has no layers for Im(U Z_q U^dag)
        phases = np.diag(np.exp(1j * np.linspace(0.0, 1.0, 8)))
        with pytest.raises(ValueError, match="b_prep must be real"):
            CostEvaluator(DECOMP, ANSATZ, B_CIRCUIT.unitary() @ phases)


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

    @pytest.mark.parametrize("row", [None, 5], ids=["vector", "one-row-of-24"])
    def test_overflowing_norm_flagged(self, row):
        # finite amplitudes whose ||A x||^2 overflows to inf would give
        # all-zero fields; NumPy warns on the overflow
        x = np.full(8, 1e200)
        if row is not None:
            thetas = np.random.default_rng(44).uniform(0, 2 * np.pi, (24, 12))
            batch = ansatz_amplitudes(ANSATZ, thetas)
            batch[row], x = x, batch
        with np.errstate(over="ignore"):
            with pytest.raises(DegenerateStateError, match="zero or not finite"):
                rescale_solution(x, SYSTEM)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="amplitudes"):
            rescale_solution(np.zeros(7), SYSTEM)

    def test_extract_from_theta(self):
        theta = np.random.default_rng(41).uniform(0, 2 * np.pi, 12)
        fields = rescale_solution(ansatz_amplitudes(ANSATZ, theta), SYSTEM)
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

    @pytest.mark.usefixtures("cold_memo")
    def test_exact_solve_decomposes_only_the_operator(self, monkeypatch):
        calls = []
        decompose = pauli.decompose

        def counting(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return decompose(matrix, *args, **kwargs)

        monkeypatch.setattr(pauli, "decompose", counting)
        solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=2, stop_rule="none"), seed=0)
        assert calls == [SYSTEM.a_reduced.shape]

    @staticmethod
    def count_calls(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    @pytest.mark.usefixtures("cold_memo")
    def test_cli_solve_builds_the_system_once(self, monkeypatch, tmp_path):
        # the reference CSVs and the ensemble share one block system and
        # one classical solve
        calls = []
        for module, name in (
            (problem, "build_block_system"), (problem, "classical_solve"), (pauli, "decompose")
        ):
            self.count_calls(monkeypatch, module, name, calls)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"ensemble_size": 2, "spsa_overrides": {"max_iter": 2, "stop_rule": "none"}}
        ))
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert calls == ["build_block_system", "classical_solve", "decompose"]

    @pytest.mark.parametrize(
        "shots, module, builder, builds",
        [
            pytest.param(None, pauli, "reconstruct", 1, id="None-1"),
            pytest.param(512, pauli, "reconstruct", 0, id="512-0"),
            pytest.param(None, vqls, "_circuit_tables", 0, id="None-readouts-0"),
            pytest.param(512, vqls, "_circuit_tables", 1, id="512-readouts-1"),
        ],
    )
    @pytest.mark.usefixtures("cold_memo")
    def test_closed_form_built_only_for_exact_costs(self, monkeypatch, shots, module, builder, builds):
        # H and G come from the reconstructed operator on the first exact
        # cost and are kept; shot mode never needs them. The readouts' real
        # form (circuit tables, K, f_c, weights) is built on the first shot
        # cost, and exact mode never needs it; its circuit tables stand for
        # it, since `reconstruct` reads the signed permutations too. Neither
        # builder is cached, so each count is of real builds, not of cache
        # lookups
        calls = []
        self.count_calls(monkeypatch, module, builder, calls)
        solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=3, stop_rule="none"), shots=shots, seed=0)
        assert len(calls) == builds

    def test_trace_built_in_one_batched_call(self, monkeypatch):
        # one (3, m, P) batch of the starting vectors over iteration 0's
        # points, one (2, m, P) batch per later SPSA iteration and one batch
        # for every member's whole trace
        shapes = []
        amplitudes = vqls.ansatz_amplitudes

        def counting(cfg, theta):
            shapes.append(np.shape(theta))
            return amplitudes(cfg, theta)

        monkeypatch.setattr(vqls, "ansatz_amplitudes", counting)
        cfg = spsa.SpsaConfig(max_iter=5, stop_rule="none")
        rec = solve(SPEC, spsa_cfg=cfg, seed=0)
        pairs = [(2, 1, 12)] * (rec.iterations - 1)
        assert shapes == [(3, 1, 12)] + pairs + [(rec.iterations + 1, 12)]
        assert len(shapes) == 6
        shapes.clear()
        records = run_ensemble(SPEC, spsa_cfg=cfg, ensemble_size=3)
        monkeypatch.undo()
        assert shapes == [(3, 3, 12)] + [(2, 3, 12)] * 4 + [(18, 12)]
        final = rescale_solution(ansatz_amplitudes(ANSATZ, rec.theta_final), SYSTEM)
        assert rec.u_fields.tobytes() == final.tobytes()
        for member in records:
            assert member.solution_trace.shape == (6, 2, 4)
            final = rescale_solution(ansatz_amplitudes(ANSATZ, member.theta_final), SYSTEM)
            assert member.u_fields.tobytes() == final.tobytes()

    def test_trace_chunks_stay_within_the_byte_budget(self, monkeypatch):
        # at Q = 6 a 4-unit row's operator stack is 128 KB, so the 4 x 41
        # trace rows take two calls under the 16 MB budget
        spec = problem.ProblemSpec(n=32, n_t=3)
        ansatz = vqls.ansatz_for(spec)
        shapes = []
        amplitudes = vqls.ansatz_amplitudes

        def recording(cfg, theta):
            shapes.append(np.shape(theta))
            return amplitudes(cfg, theta)

        monkeypatch.setattr(vqls, "ansatz_amplitudes", recording)
        cfg = spsa.SpsaConfig(max_iter=40, stop_rule="none")
        records = run_ensemble(spec, spsa_cfg=cfg, ensemble_size=4)
        monkeypatch.undo()
        row_bytes = 8 * ansatz.units * 4**ansatz.num_qubits
        assert max(np.prod(shape[:-1]) * row_bytes for shape in shapes) <= 2**24
        assert shapes[-2:] == [(128, 24), (36, 24)]
        # rows are byte-equal in any chunk: one call for all rows gives the
        # same records
        monkeypatch.setattr(vqls, "_TRACE_BYTES", 2**40)
        whole = run_ensemble(spec, spsa_cfg=cfg, ensemble_size=4)
        assert [r.to_dict() for r in records] == [r.to_dict() for r in whole]
        system, _ = vqls._reference(spec)
        for record in records:
            final = rescale_solution(ansatz_amplitudes(ansatz, record.theta_final), system)
            assert record.u_fields.tobytes() == final.tobytes()

    @pytest.mark.parametrize("n, n_t", [(4, 3), (16, 3)])
    @pytest.mark.parametrize("shots", [None, 8192])
    def test_matches_loop_of_scalar_steps(self, n, n_t, shots):
        # oracle: the public one-step update on scalar cost functions, one
        # kernel call per point, for every member of a 4-member ensemble;
        # 70 iterations cross a Delta block border, and under the threshold
        # and diff rules members stop at different iterations
        spec = problem.ProblemSpec(n=n, n_t=n_t)
        threshold = {(4, 3): 0.1, (16, 3): 0.4}[n, n_t]
        ev, ansatz = _spec_evaluator(n, n_t)
        base_seed = 5
        for rule, tol in (("none", 2e-2), ("threshold", threshold), ("diff", 2e-2)):
            cfg = spsa.SpsaConfig(max_iter=70, stop_rule=rule, tol=tol)
            records = run_ensemble(spec, spsa_cfg=cfg, shots=shots, base_seed=base_seed, ensemble_size=4)
            for i, rec in enumerate(records):
                rng = np.random.default_rng(base_seed + i)
                theta = rng.uniform(0.0, 2.0 * np.pi, ansatz.n_params)
                if shots is None:
                    def cost(t):
                        return ev.dense_cost(ansatz_amplitudes(ansatz, t))
                else:
                    seq = np.random.SeedSequence(base_seed + i).spawn(1)[0]
                    shot_rng = np.random.default_rng(seq)

                    def cost(t):
                        return ev.local_cost_of_state(ansatz_amplitudes(ansatz, t), shots, shot_rng).value

                trace = [cost(theta)]
                streak = 0
                for k in range(cfg.max_iter):
                    theta, estimate = spsa.step(theta, cost, k, cfg, rng)
                    trace.append(float(estimate))
                    if rule == "threshold":
                        streak = streak + 1 if trace[-1] < tol else 0
                    elif rule == "diff":
                        streak = streak + 1 if abs(trace[-1] - trace[-2]) < tol else 0
                    if streak >= cfg.patience:
                        break
                assert rec.theta_final.tobytes() == theta.tobytes()
                assert np.array(rec.cost_trace).tobytes() == np.array(trace).tobytes()
                assert rec.converged == (streak >= cfg.patience)
            iterations = {rec.iterations for rec in records}
            assert iterations == {70} if rule == "none" else len(iterations) > 1

    @pytest.mark.parametrize("point", [0, 1, 2], ids=["theta_0", "plus", "minus"])
    def test_degenerate_opening_point_raises_exact(self, monkeypatch, point):
        # member 1 of 3 gets a zero state at theta_0, theta_0 + c_0 Delta_0
        # or theta_0 - c_0 Delta_0; the opening call raises the one line
        # that costing that state alone raises
        cfg = spsa.SpsaConfig(max_iter=3, stop_rule="none")
        rng = np.random.default_rng(5 + 1)
        theta = rng.uniform(0.0, 2.0 * np.pi, 12)
        perturbation = spsa.gains(0, cfg)[1] * (rng.integers(0, 2, 12) * 2 - 1)
        target = (theta, theta + perturbation, theta - perturbation)[point]
        shapes = []
        amplitudes = vqls.ansatz_amplitudes

        def zeroing(ansatz, points):
            shapes.append(np.shape(points))
            x = amplitudes(ansatz, points)
            x[(points == target).all(-1)] = 0.0
            return x

        monkeypatch.setattr(vqls, "ansatz_amplitudes", zeroing)
        with pytest.raises(DegenerateStateError) as raised:
            run_ensemble(SPEC, spsa_cfg=cfg, base_seed=5, ensemble_size=3)
        monkeypatch.undo()
        with pytest.raises(DegenerateStateError) as alone:
            vqls._cost_evaluator(SPEC, ANSATZ).dense_cost(np.zeros(8))
        assert str(raised.value) == str(alone.value) == DEGENERATE
        assert shapes == [(3, 3, 12)]

    def test_degenerate_opening_point_raises_at_16_shots(self, monkeypatch):
        # at 16 shots a sampled denominator can reach 0. Oracle: the scalar
        # protocol, theta_0's cost and then step 0 on the member's streams;
        # a seed of 0..199 raises in solve exactly when it raises there,
        # with the same line, and in the one opening call
        cfg = spsa.SpsaConfig(max_iter=1, stop_rule="none")
        ev = vqls._cost_evaluator(SPEC, ANSATZ)
        amplitudes = vqls.ansatz_amplitudes
        shapes = []

        def counting(ansatz, points):
            shapes.append(np.shape(points))
            return amplitudes(ansatz, points)

        def outcome(run):
            try:
                run()
            except DegenerateStateError as exc:
                return str(exc)
            return None

        raised = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            theta = rng.uniform(0.0, 2.0 * np.pi, 12)
            shot_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

            def cost(t):
                return ev.local_cost_of_state(amplitudes(ANSATZ, t), 16, shot_rng).value

            def protocol():
                cost(theta)
                spsa.step(theta, cost, 0, cfg, rng)

            expected = outcome(protocol)
            shapes.clear()
            monkeypatch.setattr(vqls, "ansatz_amplitudes", counting)
            got = outcome(lambda: solve(SPEC, spsa_cfg=cfg, shots=16, seed=seed))
            monkeypatch.undo()
            assert got == expected
            if got is not None:
                raised += 1
                assert got == DEGENERATE
                assert shapes == [(3, 1, 12)]
        assert raised

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
        # block it draws
        def run(shots):
            seen = []

            def recording_rng(seed=None):
                return StateAtDraws(seed, seen)

            monkeypatch.setattr(np.random, "default_rng", recording_rng)
            solve(SPEC, spsa_cfg=spsa.SpsaConfig(max_iter=5, stop_rule="none"), shots=shots, seed=4)
            monkeypatch.undo()
            return seen

        exact = run(None)
        assert len(exact) == 2 and exact[1].shape == (5, 12)
        sampled = run(8192)
        assert sampled[0] == exact[0]
        assert sampled[1].tobytes() == exact[1].tobytes()

    def test_lockstep_members_match_members_run_alone(self):
        # member i of a 24-member lockstep ensemble is byte-equal to the
        # one-member run with seed base_seed + i, under the threshold rule,
        # where members stop at different iterations
        cfg = spsa.SpsaConfig(max_iter=200, stop_rule="threshold")

        def record_bytes(records):
            return [json.dumps(r.to_dict(), sort_keys=True) for r in records]

        for shots in (None, 8192):
            records = run_ensemble(SPEC, spsa_cfg=cfg, shots=shots, base_seed=3, ensemble_size=24)
            assert len({r.iterations for r in records}) > 1
            alone = [solve(SPEC, spsa_cfg=cfg, shots=shots, seed=3 + i) for i in range(24)]
            assert record_bytes(records) == record_bytes(alone)
        with pytest.raises(ValueError, match="one process"):
            run_ensemble(SPEC, spsa_cfg=cfg, ensemble_size=2, workers=2)

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


class TestProcessMemo:
    """What belongs to the spec is built once per process and shared by
    every later `run_ensemble` call and CLI command on an equal spec."""

    BUILDERS = (
        (problem, "build_block_system"),
        (problem, "classical_solve"),
        (pauli, "decompose"),
        (pauli, "reconstruct"),
        (pauli, "signed_permutations"),
        (vqls, "_circuit_tables"),
        (vqls, "_z_signs"),
        (vqls, "_b_preparation"),
    )

    def test_only_four_caches_in_the_package(self):
        # the state kept across calls: the unit table the ansatz kernel
        # reads, the two per-spec memos and the CLI's one parser. A
        # `cached_property` keeps its value per instance, not per process,
        # so it is not counted
        found = set()
        for info in pkgutil.iter_modules(advqls.__path__):
            module = importlib.import_module(f"advqls.{info.name}")
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                for member in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                    member = getattr(member, "__func__", member)
                    if hasattr(member, "cache_info"):
                        found.add(f"{info.name}.{member.__qualname__}")
        assert found == {
            "vqls._unit_tables", "vqls._reference", "vqls._cost_evaluator", "cli.build_parser"
        }

    def test_warm_call_builds_nothing(self, cold_memo, monkeypatch, tmp_path):
        cfg = spsa.SpsaConfig(max_iter=2, stop_rule="none")
        for shots in (None, 512):
            run_ensemble(SPEC, spsa_cfg=cfg, shots=shots, ensemble_size=2)
        calls = []
        for module, name in self.BUILDERS:
            TestSolve.count_calls(monkeypatch, module, name, calls)
        TestSolve.count_calls(monkeypatch, CostEvaluator, "__init__", calls)
        for shots in (None, 512):
            # an equal spec, not the same object
            run_ensemble(problem.ProblemSpec(), spsa_cfg=cfg, shots=shots, ensemble_size=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"ensemble_size": 2, "spsa_overrides": {"max_iter": 2, "stop_rule": "none"}}
        ))
        args = ["--config", str(config), "--out", str(tmp_path / "run")]
        assert cli.main(["solve", *args]) == 0
        assert cli.main(["trace", *args, "--member", "1"]) == 0
        assert calls == []

    @pytest.mark.parametrize(
        "first, second",
        [
            pytest.param(({}, 8192), ({}, None), id="shot-then-exact"),
            pytest.param(({}, None), ({}, 8192), id="exact-then-shot"),
            # equal specs that hash alike: the warm run must not take the
            # first spec's values, e.g. a float dt into the record's "t"
            pytest.param(({"nu": -0.0}, None), ({"nu": 0.0}, None), id="nu-signed-zero"),
            pytest.param(({"dt": 1.0}, 8192), ({"dt": 1}, 8192), id="dt-float-then-int"),
        ],
    )
    def test_warm_records_equal_cold(self, cold_memo, first, second):
        cfg = spsa.SpsaConfig(max_iter=30, stop_rule="threshold", tol=0.1)

        def records(fields, shots):
            spec = problem.ProblemSpec(**fields)
            ensemble = run_ensemble(spec, spsa_cfg=cfg, shots=shots, base_seed=5, ensemble_size=3)
            return [json.dumps(r.to_dict(), sort_keys=True) for r in ensemble]

        cold = []
        for run in (first, second):
            cold_memo()
            cold.append(records(*run))
        cold_memo()
        assert problem.ProblemSpec(**first[0]) == problem.ProblemSpec(**second[0])
        assert [records(*first), records(*second)] == cold
        assert vqls._reference.cache_info().currsize == 1

    def test_int_and_float_dt_give_equal_records(self, cold_memo):
        # dt=1 and dt=1.0 are equal specs that share one memo entry; both
        # store dt as a float, so every "t" of their records matches too
        cfg = spsa.SpsaConfig(max_iter=2, stop_rule="none")
        records = []
        for dt in (1, 1.0):
            cold_memo()
            record = solve(problem.ProblemSpec(dt=dt), spsa_cfg=cfg, seed=3)
            records.append(json.dumps(record.to_dict(), sort_keys=True))
        assert records[0] == records[1]

    def test_cached_arrays_are_read_only(self, cold_memo):
        cfg = spsa.SpsaConfig(max_iter=2, stop_rule="none")
        for shots in (None, 512):
            run_ensemble(SPEC, spsa_cfg=cfg, shots=shots, ensemble_size=1)
        system, classical = vqls._reference(SPEC)
        evaluator = vqls._cost_evaluator(SPEC, ANSATZ)
        tables, f, weights, _, _ = evaluator._readout_form
        arrays = [
            system.a_full, system.a_reduced, system.b_raw, system.b_state, system.u0,
            classical, evaluator.coefficients, evaluator.u, *evaluator._closed_form,
            *tables, f, weights,
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
        assert isinstance(evaluator.labels, tuple)

    def test_memo_holds_at_most_eight_specs(self, cold_memo):
        cfg = spsa.SpsaConfig(max_iter=1, stop_rule="none")
        for k in range(10):
            run_ensemble(problem.ProblemSpec(nu=0.01 * (k + 1)), spsa_cfg=cfg, ensemble_size=1)
        for memo in (vqls._reference, vqls._cost_evaluator):
            assert memo.cache_info().maxsize == memo.cache_info().currsize == 8


class TestRegisterCap:
    def test_ansatz_config_names_num_qubits(self):
        assert AnsatzConfig(num_qubits=vqls.MAX_QUBITS).num_qubits == 8
        with pytest.raises(ValueError, match=r"^num_qubits must be an integer in \[1, 8\], got 9"):
            AnsatzConfig(num_qubits=9)

    @pytest.mark.usefixtures("cold_memo")
    def test_ansatz_for_names_the_grid(self, monkeypatch):
        assert vqls.ansatz_for(problem.ProblemSpec(n=128, n_t=3)).num_qubits == 8

        def no_work(*args, **kw):
            raise AssertionError("built a system for a register beyond the cap")

        monkeypatch.setattr(problem, "build_block_system", no_work)
        for spec in (problem.ProblemSpec(n=512), problem.ProblemSpec(n=4, n_t=129)):
            with pytest.raises(ValueError, match=rf"n={spec.n} and n_t={spec.n_t} need a"):
                vqls.ansatz_for(spec)
            with pytest.raises(ValueError, match="MAX_QUBITS=8"):
                run_ensemble(spec)


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
            u0=SYSTEM.u0,
        )
        prep = vqls._b_preparation(fake)
        assert isinstance(prep, np.ndarray)
        assert np.abs(prep.conj().T @ prep - np.eye(8)).max() <= 1e-10
        assert np.abs(prep[:, 0] - b).max() <= 1e-10
