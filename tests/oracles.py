"""Oracles the tests check the package against.

`label_matrix` builds a Pauli string as a Kronecker product of 2x2
matrices, independently of the signed-permutation form the package uses
(`advqls.pauli.signed_permutations`). `csv_text` writes CSV cells by the
rule the CLI documents, one cell at a time.
"""

import csv
import io

import numpy as np

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
