"""Minimal statevector simulator for small registers.

Conventions used across the package:

* Qubit 0 is the most significant bit of the amplitude index, so for a
  3-qubit register the amplitude at index 0b100 has qubit 0 in |1> and
  the rest in |0>. Reshaping the amplitude vector to ``[2] * Q`` puts
  qubit q on axis q.
* Ry(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]; every gate in
  the supported set {H, Ry, CZ, CRy} is therefore real, and a circuit
  built from them keeps real amplitudes real.

A StateVector is mutated in place by `apply`; share states across
threads only for reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StateVector",
    "Gate",
    "Circuit",
    "apply",
    "expectation",
    "sample_expectation",
    "measurement_basis",
    "prepare_b_circuit",
    "prepare_b",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
# Maps the Y eigenbasis onto the Z basis: (H S†) Y (H S†)† = Z.
_Y_TO_Z = np.array([[1, -1j], [1, 1j]], dtype=complex) * _INV_SQRT2


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass
class StateVector:
    """Complex amplitudes of a Q-qubit register (unit Euclidean norm)."""

    num_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        dim = amps.size
        if dim < 2 or dim & (dim - 1):
            raise ValueError(f"amplitude count {dim} is not a power of two")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"amplitudes are not unit norm (got {norm})")
        return cls(dim.bit_length() - 1, amps.copy())

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


_SINGLE = {"h", "ry"}
_CONTROLLED = {"cz", "cry"}


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

    def run(self, state: StateVector | None = None) -> StateVector:
        if state is None:
            state = StateVector.zero(self.num_qubits)
        for gate in self.gates:
            apply(state, gate)
        return state

    def unitary(self) -> np.ndarray:
        """Dense matrix of the whole circuit (column k = circuit on |k>)."""
        dim = 2**self.num_qubits
        u = np.eye(dim, dtype=complex)
        for k in range(dim):
            sv = StateVector(self.num_qubits, u[:, k].copy())
            for gate in self.gates:
                apply(sv, gate)
            u[:, k] = sv.amplitudes
        return u


def _matrix_1q(gate: Gate) -> np.ndarray:
    return _H if gate.name == "h" else _ry(gate.angle)


def _apply_1q_matrix(amps: np.ndarray, m: np.ndarray, q: int, num_qubits: int) -> np.ndarray:
    t = amps.reshape([2] * num_qubits)
    t = np.moveaxis(np.tensordot(m, t, axes=([1], [q])), 0, q)
    return np.ascontiguousarray(t).reshape(-1)


def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, mutating the state in place."""
    nq = state.num_qubits
    for q in gate.qubits:
        if not 0 <= q < nq:
            raise ValueError(f"qubit index {q} out of range for {nq} qubits")
    if gate.name in _SINGLE:
        state.amplitudes = _apply_1q_matrix(state.amplitudes, _matrix_1q(gate), gate.qubits[0], nq)
        return state
    if gate.name not in _CONTROLLED:
        raise ValueError(f"unknown gate {gate.name!r}")
    control, target = gate.qubits
    t = state.amplitudes.reshape([2] * nq)
    sel: list = [slice(None)] * nq
    sel[control] = 1
    sub = t[tuple(sel)]  # view of the control=1 slab
    if gate.name == "cz":
        sel2 = list(sel)
        sel2[target] = 1
        t[tuple(sel2)] = -t[tuple(sel2)]
    else:
        # Axis of the target inside the slab shifts down once the control
        # axis has been indexed away.
        sub_axis = target - (1 if control < target else 0)
        rotated = np.moveaxis(
            np.tensordot(_ry(gate.angle), sub, axes=([1], [sub_axis])), 0, sub_axis
        )
        t[tuple(sel)] = rotated
    state.amplitudes = np.ascontiguousarray(t).reshape(-1)
    return state


def _apply_pauli_char(amps: np.ndarray, ch: str, q: int, num_qubits: int) -> np.ndarray:
    t = amps.reshape([2] * num_qubits)
    if ch == "X":
        t = np.flip(t, axis=q)
    elif ch == "Y":
        t = np.flip(t, axis=q).copy()
        sel: list = [slice(None)] * num_qubits
        sel[q] = 0
        t[tuple(sel)] *= -1j
        sel[q] = 1
        t[tuple(sel)] *= 1j
    elif ch == "Z":
        t = t.copy()
        sel = [slice(None)] * num_qubits
        sel[q] = 1
        t[tuple(sel)] *= -1
    return np.ascontiguousarray(t).reshape(-1)


def _validate_label(state: StateVector, label: str) -> None:
    if len(label) != state.num_qubits:
        raise ValueError(
            f"label length {len(label)} does not match register size {state.num_qubits}"
        )
    if any(ch not in "IXYZ" for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}")


def expectation(state: StateVector, label: str) -> float:
    """Exact <psi|P|psi> for a Pauli-string label."""
    _validate_label(state, label)
    transformed = state.amplitudes
    for q, ch in enumerate(label):
        if ch != "I":
            transformed = _apply_pauli_char(transformed, ch, q, state.num_qubits)
    return float(np.real(np.vdot(state.amplitudes, transformed)))


def _parity_signs(label: str) -> np.ndarray:
    nq = len(label)
    signs = np.ones(2**nq)
    idx = np.arange(2**nq)
    for q, ch in enumerate(label):
        if ch != "I":
            signs *= 1.0 - 2.0 * ((idx >> (nq - 1 - q)) & 1)
    return signs


def measurement_basis(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Dense rotation into the label's measurement basis and the +/-1
    parity of each outcome over the label's non-identity qubits.

    The rotation is the kron over qubits of I (for I and Z), H (for X)
    and H S-dagger (for Y), so |rotation @ psi|^2 is the distribution
    that `sample_expectation` samples from.
    """
    rotation = np.ones((1, 1), dtype=complex)
    for ch in label:
        if ch not in "IXYZ":
            raise ValueError(f"invalid Pauli label {label!r}")
        rotation = np.kron(rotation, _H if ch == "X" else _Y_TO_Z if ch == "Y" else np.eye(2))
    return rotation, _parity_signs(label)


def sample_expectation(
    state: StateVector,
    label: str,
    shots: int,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Shot-sampled <psi|P|psi>, one string at a time.

    This is the per-string reference sampler; `vqls` shot mode draws the
    counts of all its strings at once from `measurement_basis`
    distributions. Each non-identity qubit of the label is rotated into
    the Z basis (H for X, H S-dagger for Y), bitstrings are drawn by
    inverse-CDF sampling of the resulting probabilities, and the
    estimate is the mean +/-1 parity over the label's non-identity
    qubits.
    """
    _validate_label(state, label)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if all(ch == "I" for ch in label):
        return 1.0
    rng = np.random.default_rng(seed)
    amps = state.amplitudes
    for q, ch in enumerate(label):
        if ch == "X":
            amps = _apply_1q_matrix(amps, _H, q, state.num_qubits)
        elif ch == "Y":
            amps = _apply_1q_matrix(amps, _Y_TO_Z, q, state.num_qubits)
    probs = np.abs(amps) ** 2
    probs /= probs.sum()
    outcomes = np.searchsorted(np.cumsum(probs), rng.random(shots))
    return float(_parity_signs(label)[outcomes].mean())


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


def prepare_b(phi_deg: float, num_qubits: int = 3) -> StateVector:
    """Run `prepare_b_circuit` on |0...0>."""
    return prepare_b_circuit(phi_deg, num_qubits).run()
