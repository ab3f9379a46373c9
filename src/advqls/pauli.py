"""Pauli-string decomposition of dense operators.

A 2^Q x 2^Q matrix A is expanded as A = sum_l c_l P_l, where each P_l is a
tensor product of single-qubit operators from {I, X, Y, Z} and
c_l = tr(P_l A) / 2^Q. Coordinates are extracted with a 2x2 block
transform that peels one qubit per pass, from every block of the pass
at once (four sub-blocks each), so a dense input costs O(N^2 log2 N) in
Q array passes instead of the O(4^Q N^2) of evaluating every trace
separately.

The package acts with a Pauli string in one form, P_l = i^{nY_l} S_l
with nY_l its count of Y and S_l a real signed permutation
(`signed_permutations`): `reconstruct` scatters it into a dense matrix,
and the `advqls.vqls` readouts apply S_l to the real ansatz state.

Label convention: num_qubits >= 1 characters of IXYZ; character 0 acts
on qubit 0, the most significant bit of the state index (see `advqls.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks

__all__ = [
    "PauliTerm",
    "PauliDecomposition",
    "decompose",
    "reconstruct",
    "pauli_product",
    "qubit_bits",
    "signed_permutations",
]

# i^k for k = 0..3
I_POWERS = np.array([1.0, 1j, -1.0, -1j])

# sigma_a @ sigma_b = phase * sigma_c for the non-identity, distinct pairs
_PRODUCT = {
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string: ``coefficient * P(label)``."""

    coefficient: complex
    label: str


@dataclass(frozen=True)
class PauliDecomposition:
    """An operator expressed as a pruned sum of weighted Pauli strings."""

    num_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", _check_labels(self.num_qubits, self.labels))
        seen = set()
        for term in self.terms:
            if term.label in seen:
                raise ValueError(f"duplicate label {term.label!r}")
            seen.add(term.label)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def labels(self) -> list[str]:
        return [t.label for t in self.terms]

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms], dtype=complex)

    def to_records(self) -> list[dict]:
        """JSON-friendly form: one {label, re, im} record per term."""
        return [
            {"label": t.label, "re": float(t.coefficient.real), "im": float(t.coefficient.imag)}
            for t in self.terms
        ]


def _check_labels(num_qubits, labels) -> int:
    """The one label rule: every label is a str of num_qubits >= 1
    characters of IXYZ. Returns num_qubits as a plain int."""
    num_qubits = _checks.integer("num_qubits", num_qubits, low=1)
    for label in labels:
        if not isinstance(label, str) or len(label) != num_qubits or set(label) - set("IXYZ"):
            raise ValueError(f"label {label!r} is not {num_qubits} characters of IXYZ")
    return num_qubits


def _num_qubits(matrix: np.ndarray) -> int:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return dim.bit_length() - 1


# the factor of each of the I, X, Y, Z sub-blocks below, on its axis
_HALVES = np.array([0.5, 0.5, 0.5j, 0.5])[:, None, None]


def _coordinates(matrix: np.ndarray, num_qubits: int) -> np.ndarray:
    """Every coordinate tr(P A) / 2^Q as one flat array of 4^Q entries, entry
    k for the label whose characters are the base-4 digits of k (I, X, Y,
    Z = 0..3, qubit 0 the leading digit): the labels' lexicographic order."""
    # Peel the most significant remaining qubit of every block at once:
    # with A = [[a, b], [c, d]] in half-size blocks, the I/X/Y/Z
    # coordinates on that qubit are (a+d)/2, (b+c)/2, i(b-c)/2, (a-d)/2.
    blocks = matrix[None]
    for _ in range(num_qubits):
        count, dim = blocks.shape[:2]
        h = dim // 2
        quad = blocks.reshape(count, 2, h, 2, h)
        a, b, c, d = quad[:, 0, :, 0], quad[:, 0, :, 1], quad[:, 1, :, 0], quad[:, 1, :, 1]
        blocks = np.empty((count, 4, h, h), dtype=complex)
        np.add(a, d, out=blocks[:, 0])
        np.add(b, c, out=blocks[:, 1])
        np.subtract(b, c, out=blocks[:, 2])
        np.subtract(a, d, out=blocks[:, 3])
        blocks *= _HALVES
        blocks = blocks.reshape(4 * count, h, h)
    return blocks.reshape(-1)


def decompose(matrix: np.ndarray, prune_eps: float = 1e-12) -> PauliDecomposition:
    """Expand a square power-of-two matrix into weighted Pauli strings.

    Terms with |coefficient| <= prune_eps are dropped, so the
    reconstruction misses each entry by at most their summed magnitude;
    prune_eps must be a finite real number >= 0. The remaining terms are
    ordered lexicographically by label (I < X < Y < Z).
    """
    prune_eps = _checks.real("prune_eps", prune_eps, low=0)
    matrix = np.asarray(matrix, dtype=complex)
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must have finite entries, got NaN or infinity")
    num_qubits = _num_qubits(matrix)
    coords = _coordinates(matrix, num_qubits)
    shifts = range(2 * num_qubits - 2, -1, -2)
    terms = []
    for k in np.flatnonzero(coords).tolist():
        coefficient = complex(coords[k])
        if abs(coefficient) > prune_eps:
            terms.append(PauliTerm(coefficient, "".join("IXYZ"[(k >> s) & 3] for s in shifts)))
    terms = tuple(terms)
    return PauliDecomposition(num_qubits=num_qubits, terms=terms)


def qubit_bits(num_qubits: int) -> np.ndarray:
    """(Q, 2**Q) table whose entry [q, i] is qubit q's bit of the state
    index i, qubit 0 the most significant bit."""
    shifts = num_qubits - 1 - np.arange(num_qubits)
    return (np.arange(2**num_qubits) >> shifts[:, None]) & 1


def signed_permutations(decomposition: PauliDecomposition):
    """Each Pauli string of `decomposition` as i^{nY} times a real signed
    permutation: (P_l x)[i] = i^{nY_l} sign[l, i] x[perm[l, i]] with
    perm[l, i] = i ^ flip_l, where flip_l sets the bits of the X and Y
    qubits of label l, and sign[l, i] is -1 for an odd count of Z qubits
    with i_q = 1 and Y qubits with i_q = 0 (Y = i [[0, -1], [1, 0]]).
    Returns (L, 2**Q) perm and sign tables and the (L,) counts nY."""
    nq, labels = decomposition.num_qubits, decomposition.labels
    chars = np.array([list(label) for label in labels]).reshape(len(labels), nq)
    bits = qubit_bits(nq)
    is_y = chars == "Y"
    flips = ((chars == "X") | is_y) @ (1 << (nq - 1 - np.arange(nq)))
    perm = np.arange(2**nq) ^ flips[:, None]
    sign = 1.0 - 2.0 * (((chars == "Z") @ bits + is_y @ (1 - bits)) & 1)
    return perm, sign, is_y.sum(1)


def reconstruct(decomposition: PauliDecomposition) -> np.ndarray:
    """Sum the weighted Pauli strings back into a dense matrix: term l adds
    c_l i^{nY_l} sign[l, i] at (i, perm[l, i]) of every row i (see
    `signed_permutations`), the terms in label order."""
    dim = 2**decomposition.num_qubits
    perm, sign, n_y = signed_permutations(decomposition)
    values = (decomposition.coefficients * I_POWERS[n_y % 4])[:, None] * sign
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (np.broadcast_to(np.arange(dim), perm.shape), perm), values)
    return out


def pauli_product(label_a: str, label_b: str) -> tuple[complex, str]:
    """Multiply two Pauli strings: P_a P_b = phase * P_c.

    The phase is a power of i; the result label never needs a coefficient
    beyond it because the single-qubit algebra is closed.
    """
    _check_labels(len(label_a), (label_a, label_b))
    phase = 1 + 0j
    chars = []
    for a, b in zip(label_a, label_b):
        if a == "I":
            chars.append(b)
        elif b == "I":
            chars.append(a)
        elif a == b:
            chars.append("I")
        else:
            p, c = _PRODUCT[(a, b)]
            phase *= p
            chars.append(c)
    return phase, "".join(chars)
