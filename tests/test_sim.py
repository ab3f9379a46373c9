from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from advqls import problem
from advqls.pauli import label_matrix
from advqls.sim import (
    Circuit,
    Gate,
    expectation,
    measurement_basis,
    prepare_b_circuit,
    sample_expectation,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_circuit(num_qubits: int, n_gates: int, rng: np.random.Generator) -> Circuit:
    circuit = Circuit(num_qubits)
    kinds = ["h", "ry", "cz", "cry"] if num_qubits > 1 else ["h", "ry"]
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        q = int(rng.integers(num_qubits))
        if kind == "h":
            circuit.h(q)
        elif kind == "ry":
            circuit.ry(rng.uniform(0, 2 * np.pi), q)
        else:
            t = int(rng.integers(num_qubits - 1))
            t = t + 1 if t >= q else t
            if kind == "cz":
                circuit.cz(q, t)
            else:
                circuit.cry(rng.uniform(0, 2 * np.pi), q, t)
    return circuit


def ry_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


def dense_gate(gate: Gate, num_qubits: int) -> np.ndarray:
    """The gate's full matrix, built with np.kron; a controlled gate is
    P0 (x) I + P1 (x) U on its control and target."""

    def embed(factors: dict) -> np.ndarray:
        m = np.ones((1, 1))
        for q in range(num_qubits):
            m = np.kron(m, factors.get(q, np.eye(2)))
        return m

    if gate.name == "h":
        return embed({gate.qubits[0]: np.array([[1, 1], [1, -1]]) * INV_SQRT2})
    if gate.name == "ry":
        return embed({gate.qubits[0]: ry_matrix(gate.angle)})
    control, target = gate.qubits
    u = np.diag([1.0, -1.0]) if gate.name == "cz" else ry_matrix(gate.angle)
    return embed({control: np.diag([1.0, 0.0])}) + embed({control: np.diag([0.0, 1.0]), target: u})


class TestApply:
    def test_run_returns_new_zero_state(self):
        empty = Circuit(3)
        state = empty.run()
        assert state.dtype == complex
        assert_allclose(state, np.eye(8)[0])
        state[0] = 0.0
        assert empty.run()[0] == 1.0

    def test_hadamard_on_zero(self):
        state = Circuit(1).h(0).run()
        assert_allclose(state, [INV_SQRT2, INV_SQRT2], atol=1e-14)

    def test_ry_pi_flips(self):
        state = Circuit(1).ry(np.pi, 0).run()
        assert_allclose(state, [0.0, 1.0], atol=1e-14)

    def test_x_flips_most_significant_qubit(self):
        # qubit 0 is the most significant index bit; Ry(pi)|0> = |1>
        state = Circuit(3).ry(np.pi, 0).run()
        expected = np.zeros(8)
        expected[0b100] = 1.0
        assert_allclose(state, expected, atol=1e-15)

    def test_cx_and_cz(self):
        # CRy(pi) flips the target of |10> to |11>, as a CX would
        state = Circuit(2).ry(np.pi, 0).cry(np.pi, 0, 1).run()
        expected = np.zeros(4)
        expected[0b11] = 1.0
        assert_allclose(state, expected, atol=1e-15)
        state = Circuit(2).h(0).h(1).cz(0, 1).run()
        assert_allclose(state, [0.5, 0.5, 0.5, -0.5], atol=1e-14)

    def test_norm_preserved_by_random_circuit(self):
        rng = np.random.default_rng(23)
        state = random_circuit(3, 50, rng).run()
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_qubit(self):
        # a gate list passed to the constructor bypasses the builder's checks
        with pytest.raises(ValueError, match="out of range"):
            Circuit(2, [Gate("h", (2,))]).run()
        with pytest.raises(ValueError):
            Circuit(2).h(5)

    def test_circuit_unitary_matches_run(self):
        rng = np.random.default_rng(31)
        circuit = random_circuit(3, 20, rng)
        u = circuit.unitary()
        assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-12
        assert_allclose(u[:, 0], circuit.run(), atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_engine_matches_kron_product(self, num_qubits):
        rng = np.random.default_rng(50 + num_qubits)
        for _ in range(5):
            circuit = random_circuit(num_qubits, 25, rng)
            expected = np.eye(2**num_qubits)
            for gate in circuit.gates:
                expected = dense_gate(gate, num_qubits) @ expected
            assert np.abs(circuit.unitary() - expected).max() <= 1e-12
            assert np.abs(circuit.run() - expected[:, 0]).max() <= 1e-12


class TestExpectation:
    def test_all_z_on_zero_state(self):
        assert expectation(Circuit(3).run(), "ZZZ") == pytest.approx(1.0)

    def test_x_on_plus(self):
        plus = Circuit(1).h(0).run()
        assert expectation(plus, "X") == pytest.approx(1.0, abs=1e-12)

    def test_identity_label(self):
        rng = np.random.default_rng(37)
        state = random_circuit(3, 15, rng).run()
        assert expectation(state, "III") == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(41)
        labels = ["XYZ", "ZZI", "IYX", "YYY", "XIZ"]
        for label in labels:
            state = random_circuit(3, 20, rng).run()
            dense = np.real(np.vdot(state, label_matrix(label) @ state))
            assert expectation(state, label) == pytest.approx(dense, abs=1e-12)

    def test_label_size_mismatch(self):
        with pytest.raises(ValueError):
            expectation(Circuit(2).run(), "XYZ")


class TestSampleExpectation:
    def test_identity_label_exact(self):
        state = Circuit(2).h(0).run()
        assert sample_expectation(state, "II", 16, seed=0) == 1.0

    def test_deterministic_outcome(self):
        assert sample_expectation(Circuit(1).run(), "Z", 8192, seed=1) == 1.0

    def test_plus_state_is_unbiased(self):
        plus = Circuit(1).h(0).run()
        within = sum(
            abs(sample_expectation(plus, "Z", 8192, seed=s)) <= 0.04 for s in range(100)
        )
        assert within >= 99

    def test_converges_to_exact(self):
        # 5/sqrt(shots) band in at least 99 of 100 seeds
        rng = np.random.default_rng(43)
        state = random_circuit(3, 25, rng).run()
        label = "XZY"
        exact = expectation(state, label)
        shots = 4096
        within = sum(
            abs(sample_expectation(state, label, shots, seed=s) - exact)
            <= 5.0 / np.sqrt(shots)
            for s in range(100)
        )
        assert within >= 99

    def test_seed_reproducibility(self):
        state = Circuit(2).h(0).ry(0.7, 1).run()
        a = sample_expectation(state, "ZX", 512, seed=7)
        b = sample_expectation(state, "ZX", 512, seed=7)
        assert a == b

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_expectation(Circuit(1).run(), "Z", 0, seed=0)


class TestMeasurementBasis:
    def test_parity_mean_is_expectation(self):
        rng = np.random.default_rng(47)
        state = random_circuit(3, 25, rng).run()
        for chars in product("IXYZ", repeat=3):
            label = "".join(chars)
            rotation, signs = measurement_basis(label)
            assert np.abs(rotation.conj().T @ rotation - np.eye(8)).max() <= 1e-12
            probs = np.abs(rotation @ state) ** 2
            assert float(probs @ signs) == pytest.approx(expectation(state, label), abs=1e-12)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            measurement_basis("XQ")


class TestPrepareB:
    def template(self, phi_deg: float) -> np.ndarray:
        phi = np.radians(phi_deg)
        lead = np.array(
            [np.cos(phi / 2), -np.sin(phi / 2), np.sin(phi / 2), -np.cos(phi / 2)]
        )
        return np.concatenate([lead, np.zeros(4)]) / np.sqrt(2.0)

    def test_phi_zero(self):
        state = prepare_b_circuit(0.0).run()
        assert_allclose(
            state.real, [INV_SQRT2, 0, 0, -INV_SQRT2, 0, 0, 0, 0], atol=1e-12
        )

    def test_reference_angle(self):
        state = prepare_b_circuit(-160.725).run()
        assert_allclose(
            state.real, [0.1184, 0.6971, -0.6971, -0.1184, 0, 0, 0, 0], atol=5e-5
        )
        assert np.abs(state - self.template(-160.725)).max() <= 1e-10

    @pytest.mark.parametrize("phi_deg", [-160.725, 0.0, 90.0, -37.5, 311.0])
    def test_matches_template_exactly(self, phi_deg):
        state = prepare_b_circuit(phi_deg).run()
        assert np.abs(state - self.template(phi_deg)).max() <= 1e-10
        assert np.abs(state.imag).max() <= 1e-12

    def test_block_qubit_untouched(self):
        # the most significant qubit stays |0>: upper half of amplitudes is 0
        state = prepare_b_circuit(-160.725).run()
        assert_allclose(state[4:], np.zeros(4))
        assert all(0 not in g.qubits for g in prepare_b_circuit(-160.725).gates)

    def test_consistent_with_block_system(self):
        system = problem.build_block_system(problem.ProblemSpec())
        state = prepare_b_circuit(-160.725).run()
        assert np.abs(state.real - system.b_state).max() <= 1e-4

    def test_gate_set(self):
        assert {g.name for g in prepare_b_circuit(12.0).gates} <= {"h", "ry", "cz", "cry"}
