"""Variational solver for A|x> = |b> with a local projector cost.

The candidate state |x(theta)> comes from a layered real-amplitude
ansatz (H layer, CZ chain, Ry layer per unit). With A expanded into
weighted Pauli strings (see `advqls.pauli`) the cost

    C(theta) = 1/2 - (1/2Q) * sum_q sum_{ll'} c_l* c_l' delta_ll'^q
                             / sum_{ll'} c_l* c_l' beta_ll'

is built from the constituent expectation values

    beta_ll'    = <x| P_l P_l' |x>
    delta_ll'^q = <x| P_l U Z_q U^dag P_l' |x>,

where U prepares |b>. C is 0 exactly when A|x> is proportional to |b>.
Both constituent matrices are Hermitian in (l, l') and the beta diagonal
is 1, so a device runs one Hadamard test per beta_ll' with l < l' and
per delta_ll'^q with l <= l': the "full symmetry" circuit-count mode
reported by `circuit_count`. With the phase e^{i phi} of c_l* c_l' on
its ancilla, circuit c reads r_c = Re(e^{i phi} constituent), and the
cost is a ratio of two linear forms in these readouts,

    C = 1/2 - sum_{c in delta} w_c r_c
              / (2Q (sum_l |c_l|^2 + sum_{c in beta} w_c r_c)),

with w_c = |c_l c_l'|, doubled when l != l'.

The term sum (`CostEvaluator.local_cost_of_state`) evaluates that form
in real arithmetic. Every Pauli string is P_l = i^{nY_l} S_l, with nY_l
its count of Y and S_l a real signed permutation
(`pauli.signed_permutations`), and the ansatz state x and the b-prep U
are real. So with Y = [S_l x]_l every constituent family is one real
Gram product G = (Y K) Y^T, over K = I for beta and U Z_q U^T for
delta_q, and circuit c reads r_c = Re(f_c) G_c with f_c = e^{i phi}
i^{nY_l' - nY_l}. G_c is a quadratic form x^T M_c x, 0 for every real
x exactly when M_c + M_c^T = 0 and otherwise only on a null set, so
f_c is set to 0 (the circuit then reads exactly 0) where G_c is below
1e-12 on three fixed random probe states; the 16 delta circuits of
(4, 5) that are only near 0 on ansatz states stay unpinned. These
tables are built on the evaluator's first term-sum cost (exact mode
never builds them). Exact, the term sum is the independent oracle for
the closed form below.
Sampled, it runs the paper's Hadamard tests: each readout is the mean of
`shots` +/-1 ancilla outcomes, all drawn in one checked `sim.shot_estimates`
call per evaluation, from the seeded generator the caller passes or
from one per member.

Exact mode (`run_ensemble` with shots=None) evaluates the cost in closed form.
The ansatz is real, so the cost is a ratio of two real quadratic forms,

    C = x^T H x / x^T G x,   H = Re A^dag U (I/2 - sum_q Z_q / 2Q) U^dag A,
                             G = Re A^dag A,

with H and G built on the evaluator's first exact cost (shot mode never
builds them) from A = `pauli.reconstruct` of the evaluator's
decomposition, which scatters the same signed permutations. They are kept
as one (2, D, D) stack (G, H), so one matmul pair reads both forms. The
state comes from `ansatz_amplitudes` without the gate interpreter. Each
ansatz unit's real operator, the Ry layer times the fixed H/CZ
entangler W, is linear in the unit's 2**Q products of cos/sin half
angles, so one matmul of those products with a cached (2**Q, 4**Q)
table gives every unit's operator; the table holds 8**Q doubles (4 KB
at Q = 3, 256 KB at Q = 5, 16 MB at Q = 7, 134 MB at Q = MAX_QUBITS =
8).

`ansatz_amplitudes`, `rescale_solution`, `CostEvaluator.dense_cost`
and `CostEvaluator.local_cost_of_state` work over leading axes: (..., P)
angles give (..., 2**Q) amplitudes, (..., n_t - 1, n) fields and (...)
costs. They use stacked matmuls, elementwise products and last-axis sums
only, never a product whose M dimension is the batch, so each row is
byte-equal to the single-state call whatever batch it rides in.
`run_ensemble` uses that to step every member in lockstep in one
process: each SPSA iteration makes one `ansatz_amplitudes` call on the
(2, m, P) stack of the m members still running and costs it in one
call. The first call costs theta_0 with iteration 0's pair, a (3, m, P)
stack whose operator stack is 3/2 of a pair call's (theta_0 alone when
max_iter is 0), so a run of K iterations makes K cost calls. The
solution traces of all members come from one call each after the run,
split into row chunks under a fixed byte budget at large Q. `solve` is
its one-member case.

The module keeps state across calls in exactly three `lru_cache`s:

- `_unit_tables`, keyed on Q: the table that every `ansatz_amplitudes`
  call reads, so the kernel never rebuilds it per call;
- `_reference`, keyed on the spec: the block system and classical fields;
- `_cost_evaluator`, keyed on the spec and the ansatz: the decomposition,
  b-prep and `CostEvaluator`, with the tables it builds on its first cost.

The last two hold a fixed 8 entries each and are shared by
`run_ensemble` and the `solve` and `trace` commands, so what belongs to
the spec, not to a member, is built once per process; the helpers that
build it keep nothing. Every array the three caches hold is read-only,
so no caller can change what a later run reads. Only a second call on an
equal spec in one process saves time; a first call does every build,
plus the cache insert. A warm call does the same arithmetic on the same
inputs as a cold one, so its records are byte-identical. The register is
capped at `MAX_QUBITS` = 8 qubits, which bounds what these caches can
hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from . import _checks, pauli, problem, sim, spsa
from .sim import MAX_SHOTS

__all__ = [
    "AnsatzConfig",
    "DEFAULT_SPSA",
    "CostBreakdown",
    "CostEvaluator",
    "DegenerateStateError",
    "MAX_QUBITS",
    "SolveRecord",
    "ansatz_amplitudes",
    "ansatz_circuit",
    "ansatz_for",
    "ansatz_state",
    "circuit_count",
    "MAX_SUBMITTABLE_CIRCUITS",
    "MAX_SHOTS",
    "rescale_solution",
    "solve",
    "run_ensemble",
    "ensemble_mean_fields",
]

# Largest register the solver runs: the cached unit table of a Q-qubit
# ansatz holds 8**Q doubles, 134 MB at Q = 8.
MAX_QUBITS = 8

# Largest batch of distinct circuits accepted per job submission on the
# targeted cloud backends; counts beyond it are flagged infeasible.
MAX_SUBMITTABLE_CIRCUITS = 900

_COUNT_MODES = ("baseline", "beta_sym", "full_sym")

# SPSA settings of `run_ensemble` when none are given: the absolute-threshold
# stopping rule (see `spsa.SpsaConfig.stop_rule`) over the standard gains.
DEFAULT_SPSA = spsa.SpsaConfig(stop_rule="threshold")


class DegenerateStateError(RuntimeError):
    """A|x(theta)> vanished; the cost (or rescaling) is undefined."""


@dataclass(frozen=True)
class AnsatzConfig:
    """Layered real-amplitude ansatz: one Ry angle per qubit per unit, on
    at most `MAX_QUBITS` qubits."""

    num_qubits: int = 3
    units: int = 4

    def __post_init__(self):
        _checks.fields(self, _checks.integer, "num_qubits", low=1, high=MAX_QUBITS)
        _checks.fields(self, _checks.integer, "units", low=1)

    @property
    def n_params(self) -> int:
        return self.num_qubits * self.units


def ansatz_for(spec: problem.ProblemSpec, units: int = AnsatzConfig.units) -> AnsatzConfig:
    """The ansatz on the register of `spec`'s reduced system, (n_t - 1) * n
    amplitudes, which must be a power of two of at most 2**MAX_QUBITS."""
    dim = int((spec.n_t - 1) * spec.n)
    num_qubits = dim.bit_length() - 1
    if 2**num_qubits != dim:
        raise ValueError(
            f"reduced dimension {dim} is not a power of two; "
            "no qubit register maps onto it"
        )
    if num_qubits > MAX_QUBITS:
        raise ValueError(
            f"n={spec.n} and n_t={spec.n_t} need a {num_qubits}-qubit register; "
            f"the solver runs at most MAX_QUBITS={MAX_QUBITS} qubits"
        )
    return AnsatzConfig(num_qubits=num_qubits, units=units)


def _angles(cfg: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0 or theta.shape[-1] != cfg.n_params:
        raise ValueError(
            f"expected {cfg.n_params} angles on the last axis, got shape {theta.shape}"
        )
    return theta


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


def ansatz_state(cfg: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    return ansatz_circuit(cfg, theta).run()


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def _entangler(num_qubits: int) -> np.ndarray:
    """W = (CZ chain) H^(x)Q, the angle-free part of one unit: entry (i, j)
    has magnitude 2**(-Q/2) and is negative when the qubits set in both i
    and j, plus the adjacent qubit pairs both set in i, are odd in count."""
    bits = pauli.qubit_bits(num_qubits)
    idx = np.arange(2**num_qubits)
    # 1/sqrt(2) multiplied in once per qubit: 2**(-Q/2) may differ in its last bit
    scale = 1.0
    for _ in range(num_qubits):
        scale *= 1.0 / np.sqrt(2.0)
    parity = bits.sum(0)[idx[:, None] & idx] + (bits[:-1] & bits[1:]).sum(0)[:, None]
    return (1.0 - 2.0 * (parity & 1)) * scale


@lru_cache(maxsize=None)
def _unit_tables(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The cos/sin pick table and the linear unit table (read-only, cached).

    With c_q, s_q the cos and sin of qubit q's half angle, coef[m]
    multiplies s_q for each bit q set in m and c_q for each bit clear
    (qubit 0 the top bit); `pick[q, m]` indexes the factor of qubit q in
    coef[m] within the concatenated (c, s). The Ry-layer product R has
    entry (i, j) = sign(i, j) * coef[i ^ j], with sign(i, j) = -1 for an
    odd count of qubits with i_q = 0, j_q = 1 (the -s corner of Ry). So
    the unit operator R W is linear in coef,

        (R W)[i, k] = sum_m coef[m] * sign(i, i ^ m) * W[i ^ m, k],

    and `table[m, i * 2**Q + k]` holds sign(i, i ^ m) * W[i ^ m, k]: a
    (2**Q, 4**Q) table, 8**Q doubles (4 KB at Q = 3, 256 KB at Q = 5,
    16 MB at Q = 7), with R W = (coef @ table).reshape(2**Q, 2**Q).
    """
    idx = np.arange(2**num_qubits)
    bits = pauli.qubit_bits(num_qubits)
    pick = np.arange(num_qubits)[:, None] + num_qubits * bits
    col = idx[:, None] ^ idx           # col[m, i] = i ^ m
    parity = bits.sum(0)[~idx & col] & 1
    table = ((1.0 - 2.0 * parity)[..., None] * _entangler(num_qubits)[col]).reshape(idx.size, -1)
    _read_only(pick, table)
    return pick, table


def ansatz_amplitudes(cfg: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """Real amplitudes of `ansatz_circuit(cfg, theta).run()`, over leading axes.

    Maps (..., P) angles to (..., 2**Q) amplitudes. Every unit's real
    2**Q x 2**Q operator, the Ry-layer product times the cached
    entangler, is linear in the unit's 2**Q cos/sin product
    coefficients, so all units' operators come from one matmul of those
    coefficients with the cached (2**Q, 4**Q) table of `_unit_tables`,
    whose M dimension is the unit axis. The first unit acts on
    |0...0>, so its output is column 0 of its operator; the later units
    follow as a stack of matrix-vector products, so no row's bits depend
    on the batch.
    """
    nq = cfg.num_qubits
    theta = _angles(cfg, theta)
    half = theta.reshape(-1, cfg.units, nq) / 2.0
    pick, table = _unit_tables(nq)
    factors = np.concatenate((np.cos(half), np.sin(half)), -1).take(pick, -1)
    coef = np.multiply.reduce(factors, axis=-2)
    ops = (coef @ table).reshape(half.shape[:2] + (2**nq, 2**nq))
    x = ops[:, 0, :, :1]
    for u in range(1, cfg.units):
        x = ops[:, u] @ x
    return x.reshape(theta.shape[:-1] + (2**nq,))


@dataclass
class CostBreakdown:
    """One cost evaluation with the circuit readouts it was formed from."""

    value: float | np.ndarray   # (...) over the leading axes of the state
    readouts: np.ndarray        # (..., C), one per full_sym circuit, beta first


def _z_signs(num_qubits: int) -> np.ndarray:
    """(Q, 2**Q) diagonals of Z_q, row q for qubit q."""
    return 1.0 - 2.0 * pauli.qubit_bits(num_qubits)


def _circuit_tables(n_terms: int, num_qubits: int) -> tuple[np.ndarray, ...]:
    """(family, l, l') of each full_sym circuit in order: family 0 (beta)
    for l < l', then family q + 1 (delta_q) for l <= l', each row by row."""
    beta = np.triu_indices(n_terms, 1)
    delta = np.triu_indices(n_terms)
    family = np.repeat(np.arange(1 + num_qubits), [beta[0].size] + [delta[0].size] * num_qubits)
    row = np.concatenate([beta[0]] + [delta[0]] * num_qubits)
    col = np.concatenate([beta[1]] + [delta[1]] * num_qubits)
    return family, row, col


def _gram_entries(x, perm, sign, k, circuits) -> np.ndarray:
    """Entry G_c of G = (Y K) Y^T (see module doc) of each full_sym circuit
    c, the flat index `circuits[c]` of the (L, F, L) Gram products, over
    leading axes: (..., 2**Q) real amplitudes give (..., C) entries."""
    y = x.take(perm, -1) * sign
    # contiguous, so that every row's product takes the same BLAS path
    # whatever batch it rides in
    y_t = np.ascontiguousarray(y.swapaxes(-1, -2))
    # (..., L, F * D) -> (..., L * F, D) -> Gram products (..., L, F, L)
    yk = y @ k
    gram = yk.reshape(yk.shape[:-2] + (-1, x.shape[-1])) @ y_t
    return gram.reshape(gram.shape[:-2] + (-1,)).take(circuits, -1)


def _real_amplitudes(amplitudes) -> np.ndarray:
    """`amplitudes` as a real array: complex ones only with a zero imaginary part."""
    x = np.asarray(amplitudes)
    if x.dtype.kind == "c" and x.imag.any():
        raise ValueError("amplitudes must be real: the ansatz state is real")
    return x.real


def _check_norm(denominator: np.ndarray) -> None:
    """The degeneracy test of both costs; NaN, from non-finite amplitudes,
    fails it too."""
    if not np.minimum.reduce(denominator, axis=None) >= 1e-12:
        raise DegenerateStateError(
            "norm of A|x(theta)> is numerically zero or not finite; cost undefined"
        )


def _check_workers(workers) -> int:
    if _checks.integer("workers", workers) != 1:
        raise ValueError(
            f"workers must be 1, got {workers!r}: ensemble members now run "
            "in lockstep in one process"
        )
    return 1


class CostEvaluator:
    """Evaluates the local cost for one (decomposition, ansatz, b-prep) triple.

    `b_prep` may be a Circuit or a dense unitary; it must be real, and its
    action on |0...0> must be the normalized right-hand side.
    """

    def __init__(
        self,
        decomposition: pauli.PauliDecomposition,
        ansatz: AnsatzConfig,
        b_prep: sim.Circuit | np.ndarray,
    ):
        if decomposition.term_count == 0:
            raise ValueError("decomposition has no terms")
        if decomposition.num_qubits != ansatz.num_qubits:
            raise ValueError(
                f"decomposition spans {decomposition.num_qubits} qubits, "
                f"ansatz {ansatz.num_qubits}"
            )
        self.decomposition = decomposition
        self.ansatz = ansatz
        self.labels = tuple(decomposition.labels)
        self.coefficients = decomposition.coefficients
        nq = ansatz.num_qubits
        dim = 2**nq
        u = b_prep.unitary() if isinstance(b_prep, sim.Circuit) else np.array(b_prep, dtype=complex)
        if u.shape != (dim, dim):
            raise ValueError(f"b-prep unitary must be {dim}x{dim}, got {u.shape}")
        if np.abs(u.conj().T @ u - np.eye(dim)).max() > 1e-10:
            raise ValueError("b-prep operator is not unitary")
        if u.imag.any():
            raise ValueError("b_prep must be real: the readouts have no layers for Im(U Z_q U^dag)")
        self.u = u
        self.num_qubits = nq
        _read_only(self.coefficients, u)

    @cached_property
    def _readout_form(self) -> tuple:
        """The tables of `local_cost_of_state`, built on its first call
        (read-only): those of `_gram_entries`, per full_sym circuit Re f_c
        and weight w_c, then the beta count and sum_l |c_l|^2. G_c =
        x^T M_c x with M_c = S_l^T K_f S_l' is 0 for every real x exactly
        when M_c + M_c^T = 0, and otherwise only on a null set; so f_c is 0
        where |G_c| < 1e-12 on three probe states, unit-normalised Gaussian
        vectors from a private `default_rng(0)`."""
        nq, n_terms, c, u = self.num_qubits, self.term_count, self.coefficients, self.u.real
        family, row, col = _circuit_tables(n_terms, nq)
        perm, sign, n_y = pauli.signed_permutations(self.decomposition)
        k = np.concatenate((np.eye(2**nq)[None], (u * _z_signs(nq)[:, None, :]) @ u.T))
        k = k.transpose(1, 0, 2).reshape(2**nq, -1)
        tables = perm, sign, k, (row * (1 + nq) + family) * n_terms + col
        probes = np.random.default_rng(0).standard_normal((3, 2**nq))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        phase = np.exp(1j * np.angle(np.outer(c.conj(), c)))
        f = (phase * pauli.I_POWERS[(n_y - n_y[:, None]) % 4])[row, col].real
        f[(np.abs(_gram_entries(probes, *tables)) < 1e-12).all(0)] = 0.0
        weights = np.where(row == col, 1.0, 2.0) * np.abs(c[row] * c[col])
        beta_count, norm2 = n_terms * (n_terms - 1) // 2, float(np.sum(np.abs(c) ** 2))
        _read_only(*tables, f, weights)
        return tables, f, weights, beta_count, norm2

    @cached_property
    def _closed_form(self) -> np.ndarray:
        """The (2, D, D) stack (G, H) of `dense_cost`, built on its first
        call (read-only): the imaginary parts of these Hermitian matrices
        are antisymmetric and cancel in x^T M x for real x."""
        nq, u = self.num_qubits, self.u
        a = pauli.reconstruct(self.decomposition)
        local = u @ np.diag(0.5 - sum(_z_signs(nq)) / (2.0 * nq)) @ u.conj().T
        # the real view of the complex stack, not a contiguous copy: matmul
        # picks its loop from the strides, and a copy moves the costs by
        # rounding
        forms = np.real(np.stack((a.conj().T @ a, a.conj().T @ local @ a)))
        _read_only(forms)
        return forms

    @property
    def term_count(self) -> int:
        return len(self.labels)

    # -- cost ----------------------------------------------------------

    def dense_cost(self, x: np.ndarray) -> float | np.ndarray:
        """Exact cost x^T H x / x^T G x of real amplitudes x (see module
        doc), over leading axes: (..., 2**Q) amplitudes give (...) costs.
        Both quadratic forms come from one matmul pair on the (G, H) stack."""
        forms = (x[..., None, None, :] @ self._closed_form @ x[..., None, :, None])[..., 0, 0]
        denominator = forms[..., 0]
        _check_norm(denominator)
        return forms[..., 1] / denominator

    def local_cost(self, theta: np.ndarray, shots=None, rng=None) -> CostBreakdown:
        return self.local_cost_of_state(ansatz_state(self.ansatz, theta), shots, rng)

    def local_cost_of_state(self, amplitudes, shots=None, rng=None) -> CostBreakdown:
        """The cost as a linear form in the full_sym readouts (exact or shot-sampled).

        With x = `amplitudes` and Y = [S_l x]_l (see module doc), the
        constituents are beta = i^{nY_l' - nY_l} Y Y^T and delta_q =
        i^{nY_l' - nY_l} Y M_q Y^T with the real M_q = U Z_q U^T, so one
        real Gram product G = (Y K) Y^T over the side-by-side stack
        K = [I, M_q...] holds them all. Circuit c, one beta_ll' with l < l'
        or delta_ll'^q with l <= l' in that order, has e^{i phi} =
        c_l* c_l' / |c_l c_l'| on its ancilla and reads r_c = Re(f_c) G_c
        with f_c = e^{i phi} i^{nY_l' - nY_l}.

        Shot mode gives every circuit `shots` ancilla outcomes and
        replaces r by their mean, all drawn in one `sim.shot_estimates`
        call from `rng`: a seeded generator or a list of one per row of
        axis -2, the members of a lockstep ensemble. That call checks both
        before it draws: None or the `numpy.random` module raises one
        ValueError naming `rng`. Both modes then
        evaluate the module doc's ratio of linear forms in r, over leading
        axes: (..., 2**Q) amplitudes give (...) values and (..., C)
        readouts. Complex amplitudes are accepted only with a zero
        imaginary part. Non-finite amplitudes give NaN readouts, which fail
        the degeneracy test exactly and the shot draw sampled.
        """
        x = _real_amplitudes(amplitudes)
        tables, f, weights, beta_count, norm2 = self._readout_form
        readouts = f * _gram_entries(x, *tables)
        if shots is not None:
            readouts = sim.shot_estimates(readouts, shots, rng)
        weighted = weights * readouts
        denominator = norm2 + np.add.reduce(weighted[..., :beta_count], -1)
        _check_norm(denominator)
        numerator = np.add.reduce(weighted[..., beta_count:], -1)
        value = 0.5 - numerator / (2.0 * self.num_qubits * denominator)
        return CostBreakdown(value=value, readouts=readouts)


def circuit_count(num_qubits: int, n_terms: int, mode: str = "baseline") -> int:
    """Distinct circuits per cost evaluation under a symmetry policy.

    baseline counts every (q, l, l') delta and (l, l') beta circuit;
    beta_sym drops the known beta diagonal and its conjugate half;
    full_sym additionally halves the off-diagonal deltas.
    """
    q = _checks.integer("num_qubits", num_qubits, low=1)
    l = _checks.integer("n_terms", n_terms, low=1)
    off_diag = l * (l - 1) // 2
    if mode == "baseline":
        return (q + 1) * l * l
    if mode == "beta_sym":
        return q * l * l + off_diag
    if mode == "full_sym":
        return (q + 1) * off_diag + q * l
    raise ValueError(f"mode must be one of {_COUNT_MODES}, got {mode!r}")


def is_submittable(count: int) -> bool:
    return count <= MAX_SUBMITTABLE_CIRCUITS


# -- solution extraction ------------------------------------------------


def rescale_solution(x: np.ndarray, system: problem.BlockSystem) -> np.ndarray:
    """Physical fields from normalized candidate vectors, over leading axes.

    Recovers the physical scale with the least-squares scalar
    <A x, b_raw> / ||A x||^2, which also fixes the global sign (for -x
    it is exactly the negated scalar), and splits the result into time
    blocks: (..., 2**Q) amplitudes give (..., n_t - 1, n) fields. Built
    from elementwise products and last-axis sums, so each row matches
    the row-wise call bit for bit. Raises `DegenerateStateError` if A x
    vanishes or is not finite for any row; complex amplitudes need a zero
    imaginary part.
    """
    x = _real_amplitudes(x)
    dim = system.a_reduced.shape[0]
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"expected {dim} amplitudes on the last axis, got shape {x.shape}")
    ax = np.add.reduce(system.a_reduced * x[..., None, :], -1)
    norm2 = np.add.reduce(ax * ax, -1)
    # once per call: NaN fails both bounds, an overflowed inf the upper one
    if not (np.minimum.reduce(norm2, axis=None) >= 1e-18
            and np.maximum.reduce(norm2, axis=None) < np.inf):
        raise DegenerateStateError("A x is numerically zero or not finite; run did not converge")
    scale = np.add.reduce(ax * system.b_raw, -1) / norm2
    return (scale[..., None] * x).reshape(x.shape[:-1] + (system.spec.n_t - 1, system.spec.n))


# -- end-to-end solve ----------------------------------------------------


@dataclass
class SolveRecord:
    """Everything one variational run produced."""

    theta_final: np.ndarray
    cost_trace: list[float]
    solution_trace: np.ndarray   # (iterations + 1, n_t - 1, n)
    u_fields: np.ndarray         # (n_t - 1, n)
    rmse_per_time: list[dict]
    iterations: int
    seed: int
    shots: int | None
    converged: bool
    # Circuits a device would run per evaluation (`circuit_count` under
    # full_sym), not the work of the closed-form exact path.
    circuits_per_evaluation: int
    cost_evaluations: int

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]

    def to_dict(self) -> dict:
        return {
            "theta_final": self.theta_final.tolist(),
            "cost_trace": list(self.cost_trace),
            "solution_trace": self.solution_trace.tolist(),
            "u_fields": self.u_fields.tolist(),
            "rmse_per_time": self.rmse_per_time,
            "iterations": self.iterations,
            "seed": self.seed,
            "shots": self.shots,
            "converged": self.converged,
            "circuits_per_evaluation": self.circuits_per_evaluation,
            "cost_evaluations": self.cost_evaluations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolveRecord":
        return cls(
            theta_final=np.asarray(data["theta_final"], dtype=float),
            cost_trace=[float(v) for v in data["cost_trace"]],
            solution_trace=np.asarray(data["solution_trace"], dtype=float),
            u_fields=np.asarray(data["u_fields"], dtype=float),
            rmse_per_time=data["rmse_per_time"],
            iterations=int(data["iterations"]),
            seed=int(data["seed"]),
            shots=data["shots"],
            converged=bool(data["converged"]),
            circuits_per_evaluation=int(data["circuits_per_evaluation"]),
            cost_evaluations=int(data["cost_evaluations"]),
        )


def _b_preparation(system: problem.BlockSystem) -> sim.Circuit | np.ndarray:
    """Exact preparation of b_state: template circuit if it fits, else a
    Householder reflection mapping |0...0> onto b_state."""
    dim = system.b_state.size
    nq = dim.bit_length() - 1
    if nq >= 2:
        try:
            phi = problem.fit_phi_degrees(system.b_state)
            circuit = sim.prepare_b_circuit(phi, nq)
            if np.abs(circuit.run() - system.b_state).max() <= 1e-10:
                return circuit
        except ValueError:
            pass
    v = np.eye(dim)[0] - system.b_state
    vnorm2 = float(v @ v)
    if vnorm2 < 1e-24:
        return np.eye(dim, dtype=complex)
    return (np.eye(dim) - 2.0 * np.outer(v, v) / vnorm2).astype(complex)


# Specs whose builds `_reference` and `_cost_evaluator` keep per process.
_MEMO_SIZE = 8

# Bytes of the (rows, units, 2**Q, 2**Q) operator stack that one
# `ansatz_amplitudes` call of the solution traces builds: 8192 rows of the
# default 3-qubit, 4-unit ansatz, 128 at Q = 6, 8 at Q = MAX_QUBITS.
_TRACE_BYTES = 2**24


@lru_cache(maxsize=_MEMO_SIZE)
def _reference(spec: problem.ProblemSpec) -> tuple[problem.BlockSystem, np.ndarray]:
    """The block system of `spec` and its classical solution as (n_t - 1, n)
    fields (read-only, cached)."""
    system = problem.build_block_system(spec)
    classical = problem.classical_solve(system).reshape(spec.n_t - 1, spec.n)
    _read_only(system.a_full, system.a_reduced, system.b_raw, system.b_state, system.u0, classical)
    return system, classical


@lru_cache(maxsize=_MEMO_SIZE)
def _cost_evaluator(spec: problem.ProblemSpec, ansatz: AnsatzConfig) -> CostEvaluator:
    """The evaluator on the decomposition of `spec`'s reduced operator and
    its b-prep (cached, so its lazily built tables are kept too)."""
    system, _ = _reference(spec)
    decomposition = pauli.decompose(system.a_reduced)
    return CostEvaluator(decomposition, ansatz, _b_preparation(system))


def solve(
    spec: problem.ProblemSpec,
    ansatz: AnsatzConfig | None = None,
    spsa_cfg: spsa.SpsaConfig | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> SolveRecord:
    """Run the full pipeline for one seed: the one-member ensemble
    `run_ensemble(spec, ansatz, spsa_cfg, shots, base_seed=seed,
    ensemble_size=1)[0]`."""
    return run_ensemble(spec, ansatz, spsa_cfg, shots, base_seed=seed, ensemble_size=1)[0]


def run_ensemble(
    spec: problem.ProblemSpec,
    ansatz: AnsatzConfig | None = None,
    spsa_cfg: spsa.SpsaConfig | None = None,
    shots: int | None = None,
    base_seed: int = 0,
    ensemble_size: int = 24,
    workers: int = 1,
) -> list[SolveRecord]:
    """Independent seeded runs, stepped in lockstep in one process; member
    i uses seed base_seed + i, and its record equals that of the member
    run alone.

    Builds the block system, classical reference, decomposition, b-prep
    and evaluator once per process (see the module doc), then drives
    every member's local cost with
    `spsa.run_lockstep` from a uniformly random start in [0, 2 pi)^P: the
    closed form when shots is None, else the sampled term sum, one
    shot draw per full_sym circuit. Each iteration costs the (2, m, P)
    point stack of the m members still running with one
    `ansatz_amplitudes` call and one cost call; the first call costs the
    (3, m, P) stack of theta_0 over iteration 0's pair, so its
    (3, m, units, 2**Q, 2**Q) operator stack is 3/2 of a pair call's
    (theta_0 alone, (1, m, P), when max_iter is 0). A member that hits the
    iteration cap is returned with converged=False. After the run every
    member's solution trace, (iterations + 1, n_t - 1, n), comes from
    `ansatz_amplitudes` and `rescale_solution` calls on chunks of the
    stacked theta_k of all members, each chunk's (rows, units, 2**Q,
    2**Q) operator stack within `_TRACE_BYTES` (one chunk at Q = 3 up to
    8192 rows), and rows are byte-equal in any chunk; u_fields is its
    last row, and a degenerate state at any theta_k raises
    `DegenerateStateError` there.

    Member i draws its start and SPSA perturbations from
    `default_rng(base_seed + i)`, and its shot noise, one binomial call
    per cost call, from `SeedSequence(base_seed + i, spawn_key=(0,))`,
    the stream that `SeedSequence(base_seed + i).spawn(1)[0]` gives, so
    the sampler never shifts the perturbations. The first call draws
    theta_0's readouts, then iteration 0's pair, in one call: the draws
    of a theta_0 call followed by a pair call.

    Without an ansatz the register comes from the spec (`ansatz_for`);
    without a config, SPSA runs with `DEFAULT_SPSA`. `workers` is
    accepted only at 1: every member runs in this process.
    """
    _check_workers(workers)
    ensemble_size = _checks.integer("ensemble_size", ensemble_size, low=1)
    base_seed = _checks.integer("base_seed", base_seed, low=0)
    if shots is not None:
        shots = _checks.integer("shots", shots, 1, MAX_SHOTS)
    if ansatz is None:
        ansatz = ansatz_for(spec)
    if spsa_cfg is None:
        spsa_cfg = DEFAULT_SPSA
    dim = (spec.n_t - 1) * spec.n
    if 2**ansatz.num_qubits != dim:
        raise ValueError(
            f"ansatz spans 2^{ansatz.num_qubits} amplitudes but the reduced "
            f"system has dimension {dim}"
        )
    system, classical = _reference(spec)
    evaluator = _cost_evaluator(spec, ansatz)
    seeds = [base_seed + i for i in range(ensemble_size)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    theta_init = np.array([rng.uniform(0.0, 2.0 * np.pi, ansatz.n_params) for rng in rngs])

    if shots is None:
        def cost(points, _members):
            return evaluator.dense_cost(ansatz_amplitudes(ansatz, points))
    else:
        shot_rngs = [
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))) for seed in seeds
        ]

        def cost(points, members):
            x = ansatz_amplitudes(ansatz, points)
            generators = [shot_rngs[i] for i in members.tolist()]
            return evaluator.local_cost_of_state(x, shots, generators).value

    results = spsa.run_lockstep(theta_init, cost, spsa_cfg, rngs)
    # every member's theta_0 .. theta_final, member by member, in chunks of
    # rows whose operator stack fits the byte budget
    thetas = np.concatenate([r.theta_trace for r in results])
    chunk = max(1, _TRACE_BYTES // (8 * ansatz.units * 4**ansatz.num_qubits))
    fields = np.concatenate([
        rescale_solution(ansatz_amplitudes(ansatz, thetas[start:start + chunk]), system)
        for start in range(0, len(thetas), chunk)
    ])
    ends = list(accumulate(r.iterations + 1 for r in results))
    traces = [fields[start:end] for start, end in zip([0, *ends], ends)]
    circuits = circuit_count(ansatz.num_qubits, evaluator.term_count, "full_sym")
    # every member's final fields against the classical ones, per time level
    errors = problem.rmse(fields[[end - 1 for end in ends]], classical)
    rmse, relative = errors.tolist(), problem._relative(errors, classical).tolist()
    records = []
    for seed, result, solution_trace, member_rmse, member_relative in zip(
        seeds, results, traces, rmse, relative
    ):
        u_fields = solution_trace[-1].copy()
        rmse_per_time = [
            {"t": (k + 1) * spec.dt, "rmse": member_rmse[k], "relative": member_relative[k]}
            for k in range(spec.n_t - 1)
        ]
        records.append(SolveRecord(
            theta_final=result.theta,
            cost_trace=result.cost_trace,
            solution_trace=solution_trace,
            u_fields=u_fields,
            rmse_per_time=rmse_per_time,
            iterations=result.iterations,
            seed=seed,
            shots=shots,
            converged=result.converged,
            circuits_per_evaluation=circuits,
            cost_evaluations=1 + 2 * result.iterations,
        ))
    return records


def ensemble_mean_fields(records: list[SolveRecord]) -> np.ndarray:
    return np.mean([r.u_fields for r in records], axis=0)
