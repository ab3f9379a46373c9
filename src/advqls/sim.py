"""Minimal statevector simulator for small registers.

Conventions used across the package:

* Qubit 0 is the most significant bit of the amplitude index, so for a
  3-qubit register the amplitude at index 0b100 has qubit 0 in |1> and
  the rest in |0>. Viewing the amplitudes as (2**q, 2, -1) puts qubit q
  on the middle axis.
* Ry(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]; every gate in
  the supported set {H, Ry, CZ, CRy} is therefore real, and a circuit
  built from them keeps real amplitudes real.

Every gate runs on one primitive: `m @ amps.reshape(2**q, 2, -1)` applies
a 2x2 operator m to qubit q of a state, or of every column of a matrix;
CZ and CRy select on the control bit with `np.where`.
A state is a plain complex amplitude array: `Circuit.run()` returns a
new one, prepared from |0...0>, and `expectation` and
`sample_expectation` read one. Every shot readout in the package is a
+/-1 outcome with mean r, so `shots` of them sum to 2k - shots with
k ~ Binomial(shots, (1 + r) / 2); `shot_estimates` draws that estimate,
2k / shots - 1, for `sample_expectation` at r = <P> and for `vqls` shot
mode at each Hadamard-test readout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Gate",
    "Circuit",
    "expectation",
    "sample_expectation",
    "shot_estimates",
    "prepare_b_circuit",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _on_qubit(m: np.ndarray, amps: np.ndarray, q: int) -> np.ndarray:
    """m applied to qubit q of a state, or of every column of a matrix."""
    return (m @ amps.reshape(2**q, 2, -1)).reshape(amps.shape)


def _is_one(amps: np.ndarray, q: int) -> np.ndarray:
    """Rows of `amps` whose index has qubit q in |1>, shaped to broadcast."""
    dim = amps.shape[0]
    bit = (np.arange(dim) >> (dim.bit_length() - 2 - q)) & 1  # shift = Q - 1 - q
    return bit.astype(bool).reshape((dim,) + (1,) * (amps.ndim - 1))


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


@dataclass
class Circuit:
    """An ordered gate list over {H, Ry, CZ, CRy}."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def _check(self, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit index {q} out of range for {self.num_qubits} qubits")
        if len(set(qubits)) != len(qubits):
            raise ValueError("control and target must differ")

    def h(self, q: int) -> "Circuit":
        self._check(q)
        self.gates.append(Gate("h", (q,)))
        return self

    def ry(self, angle: float, q: int) -> "Circuit":
        self._check(q)
        self.gates.append(Gate("ry", (q,), float(angle)))
        return self

    def cz(self, control: int, target: int) -> "Circuit":
        self._check(control, target)
        self.gates.append(Gate("cz", (control, target)))
        return self

    def cry(self, angle: float, control: int, target: int) -> "Circuit":
        self._check(control, target)
        self.gates.append(Gate("cry", (control, target), float(angle)))
        return self

    def run(self) -> np.ndarray:
        """Amplitudes of the circuit applied to |0...0>."""
        amps = np.zeros(2**self.num_qubits, dtype=complex)
        amps[0] = 1.0
        for gate in self.gates:
            amps = _apply_gate(amps, gate)
        return amps

    def unitary(self) -> np.ndarray:
        """Dense matrix of the whole circuit (column k = circuit on |k>)."""
        u = np.eye(2**self.num_qubits, dtype=complex)
        for gate in self.gates:
            u = _apply_gate(u, gate)
        return u


def _apply_gate(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """One gate on a state, or on every column of a matrix."""
    num_qubits = amps.shape[0].bit_length() - 1
    for q in gate.qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")
    if gate.name == "h":
        return _on_qubit(_H, amps, gate.qubits[0])
    if gate.name == "ry":
        return _on_qubit(_ry(gate.angle), amps, gate.qubits[0])
    if gate.name == "cz":
        control, target = gate.qubits
        return np.where(_is_one(amps, control) & _is_one(amps, target), -amps, amps)
    if gate.name == "cry":
        control, target = gate.qubits
        return np.where(_is_one(amps, control), _on_qubit(_ry(gate.angle), amps, target), amps)
    raise ValueError(f"unknown gate {gate.name!r}")


def _validate_label(amplitudes: np.ndarray, label: str) -> None:
    if 2 ** len(label) != amplitudes.size:
        raise ValueError(
            f"label length {len(label)} does not match {amplitudes.size} amplitudes"
        )
    if any(ch not in "IXYZ" for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}")


def expectation(amplitudes: np.ndarray, label: str) -> float:
    """Exact <psi|P|psi> for a Pauli-string label."""
    _validate_label(amplitudes, label)
    transformed = amplitudes
    for q, ch in enumerate(label):
        if ch != "I":
            transformed = _on_qubit(_PAULI[ch], transformed, q)
    return float(np.real(np.vdot(amplitudes, transformed)))


def shot_estimates(means, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Shot estimates of +/-1 readouts with the given means, elementwise:
    2k / shots - 1 with k ~ Binomial(shots, (1 + r) / 2)."""
    # rounding can put r a few ulps outside [-1, 1] near the solution
    p = np.minimum(np.maximum((1.0 + means) / 2.0, 0.0), 1.0)
    return 2.0 * rng.binomial(shots, p) / shots - 1.0


def sample_expectation(
    amplitudes: np.ndarray,
    label: str,
    shots: int,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Shot-sampled <psi|P|psi> / <psi|psi> of one Pauli string: the mean
    of `shots` +/-1 parity outcomes, one `shot_estimates` draw."""
    _validate_label(amplitudes, label)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    mean = expectation(amplitudes, label) / float(np.vdot(amplitudes, amplitudes).real)
    return float(shot_estimates(mean, shots, np.random.default_rng(seed)))


def prepare_b_circuit(phi_deg: float, num_qubits: int = 3) -> Circuit:
    """Circuit preparing the two-block right-hand-side state.

    Output state: (cos phi/2, -sin phi/2, sin phi/2, -cos phi/2, 0, ..., 0)
    / sqrt(2). Only the two least significant qubits are touched, so for
    the default three-qubit register qubit 0 (the block qubit) stays |0>.
    The branch with the upper ladder qubit at 0 needs Ry(-phi)|0>, the
    branch at 1 needs Ry(phi - pi)|0>; the CRy supplies the difference on
    top of the unconditional rotation.
    """
    if num_qubits < 2:
        raise ValueError("the right-hand-side template needs at least 2 qubits")
    upper, lower = num_qubits - 2, num_qubits - 1
    phi = math.radians(phi_deg)
    circuit = Circuit(num_qubits)
    circuit.h(upper)
    circuit.ry(-phi, lower)
    circuit.cry(2.0 * phi - math.pi, upper, lower)
    return circuit
