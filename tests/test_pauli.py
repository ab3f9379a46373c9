from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from advqls import problem
from advqls.pauli import (
    PauliDecomposition,
    PauliTerm,
    decompose,
    label_matrix,
    pauli_product,
    reconstruct,
)


def trace_coordinates(matrix: np.ndarray) -> dict[str, complex]:
    """Independent oracle: c_l = tr(P_l A) / 2^Q over every label."""
    num_qubits = matrix.shape[0].bit_length() - 1
    out = {}
    for chars in product("IXYZ", repeat=num_qubits):
        label = "".join(chars)
        coeff = complex(np.trace(label_matrix(label) @ matrix) / matrix.shape[0])
        if coeff != 0:
            out[label] = coeff
    return out


def recursive_coordinates(block: np.ndarray, prefix: str = "", out=None) -> dict[str, complex]:
    """Oracle for the exact bits of `decompose`: the same 2x2 block
    transform, one sub-block at a time by recursion, skipping sub-blocks
    that are all zero."""
    out = {} if out is None else out
    if block.shape[0] == 1:
        if block[0, 0] != 0:
            out[prefix] = complex(block[0, 0])
        return out
    h = block.shape[0] // 2
    a, b, c, d = block[:h, :h], block[:h, h:], block[h:, :h], block[h:, h:]
    for ch, sub in (("I", (a + d) * 0.5), ("X", (b + c) * 0.5), ("Y", (b - c) * 0.5j), ("Z", (a - d) * 0.5)):
        if np.count_nonzero(sub):
            recursive_coordinates(sub, prefix + ch, out)
    return out


def exact_bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


REFERENCE_TERMS = {
    "III": 1.0,
    "XII": -0.3875,
    "XIX": -0.05625,
    "XXX": -0.05625,
    "YII": 0.3875j,
    "YIX": 0.05625j,
    "YXX": 0.05625j,
}


class TestDecompose:
    def test_identity(self):
        d = decompose(np.eye(8))
        assert d.term_count == 1
        assert d.terms[0].label == "III"
        assert d.terms[0].coefficient == pytest.approx(1.0)

    def test_reduced_block_system_terms(self):
        system = problem.build_block_system(problem.ProblemSpec())
        d = decompose(system.a_reduced)
        assert d.labels == sorted(REFERENCE_TERMS)
        for term in d.terms:
            assert term.coefficient == pytest.approx(REFERENCE_TERMS[term.label], abs=1e-12)
        # and against the dense trace-formula oracle over all 64 labels
        oracle = trace_coordinates(system.a_reduced)
        assert set(oracle) == set(d.labels)
        for term in d.terms:
            assert term.coefficient == pytest.approx(oracle[term.label], abs=1e-12)

    def test_matches_trace_oracle_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            d = decompose(a, prune_eps=0.0)
            oracle = trace_coordinates(a)
            assert set(d.labels) == set(oracle)
            for term in d.terms:
                assert abs(term.coefficient - oracle[term.label]) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        num_qubits=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        real=st.booleans(),
        zero_frac=st.sampled_from([0.0, 0.5, 0.9]),
    )
    def test_matches_recursive_peel_bit_for_bit(self, num_qubits, seed, real, zero_frac):
        # every coefficient, signed zeros included, and the label order are
        # those of the block-by-block recursion the array passes replace
        rng = np.random.default_rng(seed)
        dim = 2**num_qubits
        a = rng.normal(size=(dim, dim)) + (0.0 if real else 1j * rng.normal(size=(dim, dim)))
        a[rng.random(a.shape) < zero_frac] = 0.0
        a[rng.random(a.shape) < 0.2] *= -0.0
        oracle = recursive_coordinates(a.astype(complex))
        d = decompose(a, prune_eps=0.0)
        assert d.labels == sorted(oracle)
        assert [exact_bits(t.coefficient) for t in d.terms] == [exact_bits(oracle[l]) for l in d.labels]

    def test_hermitian_matrix_has_real_coordinates(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a + a.conj().T
        d = decompose(a)
        assert max(abs(t.coefficient.imag) for t in d.terms) <= 1e-12

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            assert np.abs(reconstruct(decompose(a, prune_eps=0.0)) - a).max() <= 1e-12

    def test_pruning(self):
        a = np.eye(4) + 1e-9 * label_matrix("XY")
        assert decompose(a, prune_eps=1e-6).labels == ["II"]
        assert decompose(a, prune_eps=1e-12).labels == ["II", "XY"]

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-3, "1e-12", True])
    def test_invalid_prune_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="prune_eps"):
            decompose(np.eye(4), prune_eps=eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # a NaN coordinate fails every pruning comparison and an infinite
        # one serializes as invalid JSON, so neither may reach the terms
        a = np.eye(4)
        a[0, 1] = bad
        with pytest.raises(ValueError, match=r"\bmatrix\b"):
            decompose(a)

    def test_zero_matrix(self):
        assert decompose(np.zeros((4, 4)), prune_eps=0.0).term_count == 0

    @pytest.mark.parametrize("shape", [(3, 3), (5, 5), (1, 1), (4, 8)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            decompose(np.zeros(shape))

    def test_labels_sorted(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8))
        labels = decompose(a).labels
        assert labels == sorted(labels)


class TestReconstruct:
    def test_empty_terms(self):
        d = PauliDecomposition(num_qubits=3, terms=())
        assert_allclose(reconstruct(d), np.zeros((8, 8)))

    def test_single_zz_term(self):
        d = PauliDecomposition(num_qubits=2, terms=(PauliTerm(2 + 1j, "ZZ"),))
        expected = np.diag([2 + 1j, -(2 + 1j), -(2 + 1j), 2 + 1j])
        assert_allclose(reconstruct(d), expected)


class TestAccessors:
    def test_term_count_values(self):
        system = problem.build_block_system(problem.ProblemSpec())
        assert decompose(system.a_reduced).term_count == 7
        assert decompose(np.eye(8)).term_count == 1
        assert len(decompose(np.eye(8))) == 1

    def test_coefficients_array(self):
        d = decompose(np.eye(4) * 3.0)
        assert_allclose(d.coefficients, [3.0])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PauliDecomposition(num_qubits=1, terms=(PauliTerm(1, "X"), PauliTerm(2, "X")))

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            PauliDecomposition(num_qubits=2, terms=(PauliTerm(1, "X"),))


class TestAlgebraicProperties:
    def test_linearity(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        alpha, beta = 0.7 - 0.2j, -1.3 + 0.5j
        combo = {t.label: t.coefficient for t in decompose(alpha * a + beta * b, 0.0).terms}
        ca = {t.label: t.coefficient for t in decompose(a, 0.0).terms}
        cb = {t.label: t.coefficient for t in decompose(b, 0.0).terms}
        for label in set(ca) | set(cb) | set(combo):
            expected = alpha * ca.get(label, 0.0) + beta * cb.get(label, 0.0)
            assert abs(combo.get(label, 0.0) - expected) <= 1e-12

    def test_parseval_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            d = decompose(a, prune_eps=0.0)
            lhs = np.sum(np.abs(d.coefficients) ** 2) * 8
            assert lhs == pytest.approx(np.linalg.norm(a, "fro") ** 2, rel=1e-12)

    def test_real_matrix_y_parity_selects_reality(self):
        # for a real matrix, even-Y labels carry real coefficients and
        # odd-Y labels purely imaginary ones (each Y contributes a factor i)
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = decompose(rng.normal(size=(8, 8)), prune_eps=0.0)
            for term in d.terms:
                if term.label.count("Y") % 2 == 0:
                    assert abs(term.coefficient.imag) <= 1e-12
                else:
                    assert abs(term.coefficient.real) <= 1e-12

    def test_real_symmetric_matrix_has_even_y_count(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.normal(size=(8, 8))
            d = decompose(a + a.T, prune_eps=0.0)
            assert all(label.count("Y") % 2 == 0 for label in d.labels)


LABELS_2Q = ["".join(p) for p in product("IXYZ", repeat=2)]


class TestPauliProduct:
    @given(st.sampled_from(LABELS_2Q), st.sampled_from(LABELS_2Q))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_product(self, label_a, label_b):
        phase, label = pauli_product(label_a, label_b)
        assert_allclose(
            phase * label_matrix(label),
            label_matrix(label_a) @ label_matrix(label_b),
            atol=1e-14,
        )

    def test_single_qubit_table(self):
        assert pauli_product("X", "Y") == (1j, "Z")
        assert pauli_product("Y", "X") == (-1j, "Z")
        assert pauli_product("Z", "Z") == (1, "I")
        assert pauli_product("I", "Y") == (1, "Y")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_product("XY", "X")


class TestSerialization:
    def test_records_roundtrip(self):
        system = problem.build_block_system(problem.ProblemSpec())
        d = decompose(system.a_reduced)
        records = d.to_records()
        assert all(set(r) == {"label", "re", "im"} for r in records)
        back = PauliDecomposition.from_records(records)
        assert back.labels == d.labels
        assert_allclose(back.coefficients, d.coefficients)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            PauliDecomposition.from_records([])
