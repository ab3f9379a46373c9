"""Dense reference maths for the benchmark's correctness checks.

Everything here is rebuilt from the problem definition with plain NumPy
and none of the package's code, so a check that compares the pipeline
with these functions never compares a code path with itself:

* the reduced block system A x = b of a `ProblemSpec`;
* the unitary U that prepares |b> (the two-angle template when it
  reproduces b, else the Householder reflection, the same rule the
  solver applies);
* the layered ansatz state |x(theta)>;
* the local cost C = x^T H x / x^T A^T A x with
  H = A^T U (I - P/Q) U^T A and P = sum_q (I + Z_q)/2;
* a central-limit bound on the error of one shot-sampled cost.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

_H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def _kron_all(mats) -> np.ndarray:
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


def _bits(num_qubits: int, q: int) -> np.ndarray:
    """Bit of qubit q (qubit 0 most significant) for every basis index."""
    return (np.arange(2**num_qubits) >> (num_qubits - 1 - q)) & 1


def reduced_system(spec) -> tuple[np.ndarray, np.ndarray]:
    """(A, b_raw) of the forward-Euler system without the initial block."""
    n, levels = spec.n, spec.n_t - 1
    coupling = spec.nu / (spec.length / (n - 1)) ** 2
    eye = np.eye(n)
    stencil = coupling * (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye)
    step = eye + spec.dt * stencil
    a = np.eye(levels * n) - np.kron(np.eye(levels, k=-1), step)
    b_raw = np.zeros(levels * n)
    b_raw[:n] = step @ np.sin(spec.kappa * np.arange(n) * spec.length / (n - 1))
    return a, b_raw


def b_unitary(b: np.ndarray) -> tuple[np.ndarray, str]:
    """Real unitary with U|0> = b, and which preparation it is."""
    dim = b.size
    nq = dim.bit_length() - 1
    if nq >= 2:
        phi = 2.0 * math.atan2(b[2] - b[1], b[0] - b[3])
        cry = np.eye(4)
        cry[2:, 2:] = _ry(2.0 * phi - math.pi)
        u = np.kron(np.eye(dim // 4), cry @ np.kron(_H1, _ry(-phi)))
        if np.abs(u[:, 0] - b).max() <= 1e-10:
            return u, "template"
    v = np.eye(dim)[0] - b
    if v @ v < 1e-24:
        return np.eye(dim), "householder"
    return np.eye(dim) - 2.0 * np.outer(v, v) / (v @ v), "householder"


def ansatz_state(theta: np.ndarray, num_qubits: int) -> np.ndarray:
    """H layer, CZ chain, Ry layer per unit, applied to |0...0>."""
    theta = np.asarray(theta, dtype=float)
    h_layer = _kron_all([_H1] * num_qubits)
    cz_signs = np.ones(2**num_qubits)
    for q in range(num_qubits - 1):
        cz_signs *= 1 - 2 * (_bits(num_qubits, q) & _bits(num_qubits, q + 1))
    x = np.zeros(2**num_qubits)
    x[0] = 1.0
    for unit in theta.reshape(-1, num_qubits):
        x = _kron_all([_ry(t) for t in unit]) @ (cz_signs * (h_layer @ x))
    return x


class DenseCost:
    """The local cost of one problem spec as a dense quadratic form."""

    def __init__(self, spec):
        self.a, self.b_raw = reduced_system(spec)
        self.b = self.b_raw / np.linalg.norm(self.b_raw)
        self.u, self.b_prep = b_unitary(self.b)
        self.num_qubits = self.b.size.bit_length() - 1
        nq = self.num_qubits
        self.z = [1.0 - 2.0 * _bits(nq, q) for q in range(nq)]
        projector = sum(np.diag((1.0 + z) / 2.0) for z in self.z)
        mid = self.u @ (np.eye(self.b.size) - projector / nq) @ self.u.T
        self.h = self.a.T @ mid @ self.a
        self.gram = self.a.T @ self.a

    def classical_fields(self, n: int) -> np.ndarray:
        return np.linalg.solve(self.a, self.b_raw).reshape(-1, n)

    def state(self, theta) -> np.ndarray:
        return ansatz_state(theta, self.num_qubits)

    def cost(self, theta) -> float:
        x = self.state(theta)
        return float(x @ self.h @ x) / float(x @ self.gram @ x)

    def shot_sigma(self, theta, shots: int) -> float:
        """Standard deviation bound of one shot-sampled cost at theta.

        The estimate sums independent Pauli sample means, each with
        variance at most 1/shots: one per pair l < l' in the denominator
        c^dag beta c, and one per (q, l <= l', w) in the numerator, where
        w runs over the Pauli terms of U Z_q U^dag. The first-order
        expansion of C = 1/2 - N / (2 Q D) turns the two spreads into a
        bound on the spread of C.
        """
        nq = self.num_qubits
        c = np.abs(list(pauli_coefficients(self.a).values()))
        w_norm2 = [
            float(np.sum(np.abs(list(pauli_coefficients(self.u @ np.diag(z) @ self.u.T).values())) ** 2))
            for z in self.z
        ]
        pair = np.outer(c, c)
        upper = np.triu(np.ones_like(pair), k=1)
        sigma_d = math.sqrt(float(np.sum((2.0 * pair * upper) ** 2)) / shots)
        weight = 2.0 * upper + np.eye(c.size)
        sigma_n = math.sqrt(sum(w_norm2) * float(np.sum((weight * pair) ** 2)) / shots)
        x = self.state(theta)
        psi = self.u.T @ (self.a @ x)
        d = float(psi @ psi)
        n_val = sum(float(psi @ (z * psi)) for z in self.z)
        return (sigma_n + abs(n_val / d) * sigma_d) / (2.0 * nq * d)


def pauli_coefficients(matrix: np.ndarray, eps: float = 1e-12) -> dict[str, complex]:
    """Nonzero c_P = tr(P M) / 2^Q over every Pauli string, by brute force."""
    dim = matrix.shape[0]
    nq = dim.bit_length() - 1
    out = {}
    for chars in product("IXYZ", repeat=nq):
        label = "".join(chars)
        coeff = complex(np.trace(_kron_all([_PAULI[ch] for ch in label]) @ matrix) / dim)
        if abs(coeff) > eps:
            out[label] = coeff
    return out


def relative_error(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - ref) ** 2)) / np.sqrt(np.mean(ref**2)))
