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
mode at each Hadamard-test readout; no other module draws shots.

Inputs follow the package's one policy. A `Circuit` gets its gates only
through its builders, which check every qubit index and angle with
`advqls._checks`, so `run` and `unitary` trust the gate list. The
readouts check a label with the Pauli-label rule of `advqls.pauli` on
the register their amplitudes span. `shot_estimates` owns the shot-stream
rule: it checks `shots` and takes only seeded generators, never the
`numpy.random` module; `sample_expectation` requires a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

from . import _checks, pauli

__all__ = [
    "MAX_SHOTS",
    "Gate",
    "Circuit",
    "expectation",
    "sample_expectation",
    "shot_estimates",
    "prepare_b_circuit",
]

# `Generator.binomial` takes shot counts as int64
MAX_SHOTS = 2**63 - 1

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
    """An ordered gate list over {H, Ry, CZ, CRy}, built only through
    `h`, `ry`, `cz` and `cry`."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list, init=False)

    def __post_init__(self):
        self.num_qubits = _checks.integer("num_qubits", self.num_qubits, low=1)

    def _add(self, name: str, angle: float | None, **qubits: int) -> "Circuit":
        """The one gate rule: every qubit index is in range, and a control
        differs from its target."""
        high = self.num_qubits - 1
        checked = tuple(_checks.integer(arg, q, 0, high) for arg, q in qubits.items())
        if len(set(checked)) != len(checked):
            raise ValueError(f"control and target must differ, got {checked}")
        self.gates.append(Gate(name, checked, angle))
        return self

    def h(self, q: int) -> "Circuit":
        return self._add("h", None, q=q)

    def ry(self, angle: float, q: int) -> "Circuit":
        return self._add("ry", _checks.real("angle", angle), q=q)

    def cz(self, control: int, target: int) -> "Circuit":
        return self._add("cz", None, control=control, target=target)

    def cry(self, angle: float, control: int, target: int) -> "Circuit":
        return self._add("cry", _checks.real("angle", angle), control=control, target=target)

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
    if gate.name == "h":
        return _on_qubit(_H, amps, gate.qubits[0])
    if gate.name == "ry":
        return _on_qubit(_ry(gate.angle), amps, gate.qubits[0])
    control, target = gate.qubits
    if gate.name == "cz":
        return np.where(_is_one(amps, control) & _is_one(amps, target), -amps, amps)
    return np.where(_is_one(amps, control), _on_qubit(_ry(gate.angle), amps, target), amps)


def expectation(amplitudes: np.ndarray, label: str) -> float:
    """Exact <psi|P|psi> for a Pauli-string label on the register the
    amplitudes span."""
    amplitudes = np.asarray(amplitudes)
    size = amplitudes.size
    if size < 2 or size & (size - 1):
        raise ValueError(f"amplitudes must span a register of >= 1 qubits, got {size} amplitudes")
    pauli._check_labels(size.bit_length() - 1, (label,))
    transformed = amplitudes
    for q, ch in enumerate(label):
        if ch != "I":
            transformed = _on_qubit(_PAULI[ch], transformed, q)
    return float(np.real(np.vdot(amplitudes, transformed)))


def shot_estimates(means, shots: int, rng: np.random.Generator | list) -> np.ndarray:
    """Shot estimates of +/-1 readouts with the given means, elementwise:
    2k / shots - 1 with k ~ Binomial(shots, (1 + r) / 2). One generator
    draws all in one call; a list of one per row of axis -2 draws
    generator j's rows [..., j, :] in one call on a contiguous copy.
    Checked before any draw: a generator has a callable `binomial` and
    is not a module such as the unseeded `numpy.random`. NaN means fail
    in the draw with one ValueError naming `means`."""
    shots = _checks.integer("shots", shots, 1, MAX_SHOTS)
    generators = rng if isinstance(rng, list) else [rng]
    if (generators is rng and np.shape(means)[-2:-1] != (len(rng),)) or not all(
            callable(getattr(g, "binomial", None)) and not isinstance(g, ModuleType)
            for g in generators):
        raise ValueError("rng must be a seeded generator or a list of one per row of axis -2 "
                         f"of the means {np.shape(means)}, got {rng!r}")
    # rounding can put r a few ulps outside [-1, 1] near the solution
    p = np.minimum(np.maximum((1.0 + means) / 2.0, 0.0), 1.0)
    try:
        if not isinstance(rng, list):
            return 2.0 * rng.binomial(shots, p) / shots - 1.0
        counts = np.empty(p.shape)
        for j, g in enumerate(rng):
            counts[..., j, :] = g.binomial(shots, np.ascontiguousarray(p[..., j, :]))
    except ValueError as exc:   # NaN means, as non-finite amplitudes give
        raise ValueError("means must be readout means, not NaN") from exc
    # 2k / shots - 1 in place, the same roundings in the same order
    counts *= 2.0
    counts /= shots
    counts -= 1.0
    return counts


def sample_expectation(amplitudes: np.ndarray, label: str, shots: int,
                       seed: int | np.random.Generator) -> float:
    """Shot-sampled <psi|P|psi> / <psi|psi> of one Pauli string: the mean
    of `shots` +/-1 parity outcomes, one `shot_estimates` draw from the
    required `seed`, an integer >= 0 or a generator. <psi|psi> must be a
    positive finite number."""
    if not isinstance(seed, np.random.Generator):
        seed = _checks.integer("seed", seed, low=0)
    exact = expectation(amplitudes, label)
    norm2 = float(np.vdot(amplitudes, amplitudes).real)
    if not 0.0 < norm2 < math.inf:
        raise ValueError(f"amplitudes must have a positive finite norm, got <psi|psi> = {norm2!r}")
    return float(shot_estimates(exact / norm2, shots, np.random.default_rng(seed)))


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
