"""Oracles the tests check the package against.

`label_matrix` builds a Pauli string as a Kronecker product of 2x2
matrices, independently of the signed-permutation form the package uses
(`advqls.pauli.signed_permutations`). `csv_text` writes CSV cells by the
rule the CLI documents, one cell at a time. `ansatz_circuit` and
`prepare_b_circuit` build the ansatz and the two-angle right-hand-side
preparation gate by gate as `advqls.sim.Circuit`s, independently of the
table kernel (`vqls.ansatz_amplitudes`) and the closed-form matrix
(`vqls._template`) that the solver runs.
"""

import csv
import io
import math

import numpy as np

from advqls import _checks, sim
from advqls.sim import Circuit
from advqls.vqls import AnsatzConfig, _angles

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def label_matrix(label: str) -> np.ndarray:
    """Dense 2^Q x 2^Q matrix of a Q-character Pauli string, a new array
    per call."""
    if not label or any(ch not in PAULI_1Q for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}")
    m = PAULI_1Q[label[0]].copy()
    for ch in label[1:]:
        m = np.kron(m, PAULI_1Q[ch])
    return m


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV text with every float (Python or NumPy) at 15 significant
    digits and every other cell as its lower-cased str."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, (float, np.floating)):
                cells.append(f"{float(value):.15g}")
            else:
                cells.append(str(value).lower())
        writer.writerow(cells)
    return buf.getvalue()


def ansatz_circuit(cfg: AnsatzConfig, theta: np.ndarray) -> sim.Circuit:
    """One unit = H on every qubit, CZ on each adjacent pair, Ry layer."""
    theta = _angles(cfg, theta).reshape(cfg.units, cfg.num_qubits)
    circuit = sim.Circuit(cfg.num_qubits)
    for unit in theta:
        for q in range(cfg.num_qubits):
            circuit.h(q)
        for q in range(cfg.num_qubits - 1):
            circuit.cz(q, q + 1)
        for q, angle in enumerate(unit):
            circuit.ry(angle, q)
    return circuit


def prepare_b_circuit(phi_deg: float, num_qubits: int = 3) -> Circuit:
    """Circuit preparing the two-block right-hand-side state.

    Output state: (cos phi/2, -sin phi/2, sin phi/2, -cos phi/2, 0, ..., 0)
    / sqrt(2). Only the two least significant qubits are touched, so for
    the default three-qubit register qubit 0 (the block qubit) stays |0>.
    The branch with the upper ladder qubit at 0 needs Ry(-phi)|0>, the
    branch at 1 needs Ry(phi - pi)|0>; the CRy supplies the difference on
    top of the unconditional rotation.
    """
    num_qubits = _checks.integer("num_qubits", num_qubits, low=2)
    upper, lower = num_qubits - 2, num_qubits - 1
    phi = math.radians(_checks.real("phi_deg", phi_deg))
    circuit = Circuit(num_qubits)
    circuit.h(upper)
    circuit.ry(-phi, lower)
    circuit.cry(2.0 * phi - math.pi, upper, lower)
    return circuit
