"""Variational solver for A|x> = |b> with a local projector cost.

The candidate state |x(theta)> comes from a layered real-amplitude
ansatz (H layer, CZ chain, Ry layer per unit). With A expanded into
weighted Pauli strings (see `advqls.pauli`) the cost

    C(theta) = 1/2 - (1/2Q) * sum_q sum_{ll'} c_l* c_l' delta_ll'^q
                             / sum_{ll'} c_l* c_l' beta_ll'

is assembled from the constituent expectation values

    beta_ll'    = <x| P_l P_l' |x>
    delta_ll'^q = <x| P_l U Z_q U^dag P_l' |x>,

where U prepares |b>. C is 0 exactly when A|x> is proportional to |b>.
Both constituent matrices are Hermitian in (l, l'); the number of
constituents a device needs per evaluation (l <= l' only, with the unit
beta diagonal known for free) is the "full symmetry" circuit-count mode
reported by `circuit_count`.

The term sum (`CostEvaluator.local_cost`) builds all constituents as
dense products of the Pauli matrices with the state; exact, it is the
independent oracle for the closed form below. Sampled, it runs the
paper's Hadamard tests, one per full_sym circuit: the ancilla reads
Re(e^{i phi} constituent) with the phase of c_l* c_l' folded into it, so
each circuit is one binomial draw of `shots` ancilla outcomes, and one
evaluation draws all of them in one call.

Exact mode (`solve` with shots=None) evaluates the cost in closed form.
The ansatz is real, so the cost is a ratio of two real quadratic forms,

    C = x^T H x / x^T G x,   H = Re A^dag U (I/2 - sum_q Z_q / 2Q) U^dag A,
                             G = Re A^dag A,

with H and G built once per evaluator, and the state comes from
`ansatz_amplitudes` without the gate interpreter.

`ansatz_amplitudes` and `rescale_solution` work over leading axes:
(..., P) angles give (..., 2**Q) amplitudes and (..., n_t - 1, n) fields.
They use stacked matmuls, elementwise products and last-axis sums only,
never a product whose M dimension is the batch, so each row is
byte-equal to the single-theta call whatever batch it rides in. `solve`
uses that twice: each SPSA iteration evaluates its two points
theta +/- c_k Delta as one (2, P) call, and the whole solution trace is
built after the SPSA run, in one call each.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import pauli, problem, sim, spsa

__all__ = [
    "AnsatzConfig",
    "DEFAULT_SPSA",
    "CostBreakdown",
    "CostEvaluator",
    "DegenerateStateError",
    "SolveRecord",
    "ansatz_amplitudes",
    "ansatz_circuit",
    "ansatz_for",
    "ansatz_state",
    "circuit_count",
    "MAX_SUBMITTABLE_CIRCUITS",
    "rescale_solution",
    "extract_solution",
    "solve",
    "run_ensemble",
    "ensemble_mean_fields",
]

# Largest batch of distinct circuits accepted per job submission on the
# targeted cloud backends; counts beyond it are flagged infeasible.
MAX_SUBMITTABLE_CIRCUITS = 900

_COUNT_MODES = ("baseline", "beta_sym", "full_sym")

# SPSA settings of `solve` when none are given: the absolute-threshold
# stopping rule (see `spsa.SpsaConfig.stop_rule`) over the standard gains.
DEFAULT_SPSA = spsa.SpsaConfig(stop_rule="threshold")


class DegenerateStateError(RuntimeError):
    """A|x(theta)> vanished; the cost (or rescaling) is undefined."""


@dataclass(frozen=True)
class AnsatzConfig:
    """Layered real-amplitude ansatz: one Ry angle per qubit per unit."""

    num_qubits: int = 3
    units: int = 4

    def __post_init__(self):
        if self.num_qubits < 1 or self.units < 1:
            raise ValueError("num_qubits and units must be >= 1")

    @property
    def n_params(self) -> int:
        return self.num_qubits * self.units


def ansatz_for(spec: problem.ProblemSpec, units: int = AnsatzConfig.units) -> AnsatzConfig:
    """The ansatz on the register of `spec`'s reduced system, (n_t - 1) * n
    amplitudes, which must be a power of two."""
    dim = (spec.n_t - 1) * spec.n
    num_qubits = dim.bit_length() - 1
    if 2**num_qubits != dim:
        raise ValueError(
            f"reduced dimension {dim} is not a power of two; "
            "no qubit register maps onto it"
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


@lru_cache(maxsize=None)
def _entangler(num_qubits: int) -> np.ndarray:
    """W = (CZ chain) H^(x)Q, the angle-free part of one unit (read-only, cached)."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    w = np.ones((1, 1))
    for _ in range(num_qubits):
        w = np.kron(w, hadamard)
    idx = np.arange(2**num_qubits)
    bits = [(idx >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
    cz_parity = np.zeros_like(idx)
    for q in range(num_qubits - 1):
        cz_parity ^= bits[q] & bits[q + 1]
    w = (1.0 - 2.0 * cz_parity)[:, None] * w
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _ry_layer_tables(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of the Ry-layer Kronecker product (read-only, cached).

    With c_q, s_q the cos and sin of qubit q's half angle, the product's
    entry (i, j) is sign(i, j) * coef[i ^ j], where coef[m] multiplies
    s_q for each bit q set in m and c_q for each bit clear (qubit 0 the
    top bit), and sign(i, j) = -1 for an odd count of qubits with
    i_q = 0, j_q = 1 (the -s corner of Ry). `pick[q, m]` indexes the
    factor of qubit q in coef[m] within the concatenated (c, s);
    `gather[i, j]` indexes entry (i, j) within the concatenated
    (coef, -coef).
    """
    idx = np.arange(2**num_qubits)
    bits = (idx >> (num_qubits - 1 - np.arange(num_qubits)[:, None])) & 1
    pick = np.arange(num_qubits)[:, None] + num_qubits * bits
    flips = ~idx[:, None] & idx
    parity = np.zeros_like(flips)
    for q in range(num_qubits):
        parity ^= (flips >> q) & 1
    gather = (idx[:, None] ^ idx) + (parity << num_qubits)
    for table in (pick, gather):
        table.setflags(write=False)
    return pick, gather


def ansatz_amplitudes(cfg: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """Real amplitudes of `ansatz_circuit(cfg, theta).run()`, over leading axes.

    Maps (..., P) angles to (..., 2**Q) amplitudes. Every unit's real
    2**Q x 2**Q operator, the Ry-layer product times the cached
    entangler, is built at once: one gather of all units' 2**Q cos/sin
    product coefficients (`_ry_layer_tables`) and one stacked matmul.
    The first unit acts on |0...0>, so its output is column 0 of its
    operator; the later units follow as a stack of matrix-vector
    products, so no row's bits depend on the batch.
    """
    nq = cfg.num_qubits
    theta = _angles(cfg, theta)
    half = theta.reshape(-1, cfg.units, nq) / 2.0
    pick, gather = _ry_layer_tables(nq)
    factors = np.concatenate((np.cos(half), np.sin(half)), -1).take(pick, -1)
    coef = np.multiply.reduce(factors, axis=-2)
    ops = np.concatenate((coef, -coef), -1).take(gather, -1) @ _entangler(nq)
    x = ops[:, 0, :, :1]
    for u in range(1, cfg.units):
        x = ops[:, u] @ x
    return x.reshape(theta.shape[:-1] + (2**nq,))


@dataclass
class CostBreakdown:
    """One cost evaluation with its constituent matrices."""

    value: float
    beta: np.ndarray    # (L, L), Hermitian, unit diagonal
    delta: np.ndarray   # (Q, L, L), Hermitian in (l, l') per q


def _z_signs(num_qubits: int, q: int) -> np.ndarray:
    idx = np.arange(2**num_qubits)
    return 1.0 - 2.0 * ((idx >> (num_qubits - 1 - q)) & 1)


def _check_shots(shots) -> None:
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")


class CostEvaluator:
    """Evaluates the local cost for one (decomposition, ansatz, b-prep) triple.

    `b_prep` may be a Circuit or a dense unitary; its action on |0...0>
    must be the normalized right-hand side.
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
        self.labels = decomposition.labels
        self.coefficients = decomposition.coefficients
        nq = ansatz.num_qubits
        dim = 2**nq
        u = b_prep.unitary() if isinstance(b_prep, sim.Circuit) else np.asarray(b_prep, dtype=complex)
        if u.shape != (dim, dim):
            raise ValueError(f"b-prep unitary must be {dim}x{dim}, got {u.shape}")
        if np.abs(u.conj().T @ u - np.eye(dim)).max() > 1e-10:
            raise ValueError("b-prep operator is not unitary")
        self.u = u
        self._u_dag = u.conj().T
        self.num_qubits = nq
        self._z = np.array([_z_signs(nq, q) for q in range(nq)])
        self._paulis = np.stack([pauli.label_matrix(l) for l in self.labels])
        # Closed form of the exact cost for real x: the imaginary parts of
        # these Hermitian matrices are antisymmetric and cancel in x^T M x.
        a = pauli.reconstruct(decomposition)
        local = u @ np.diag(0.5 - sum(self._z) / (2.0 * nq)) @ self._u_dag
        self._h = np.real(a.conj().T @ local @ a)
        self._g = np.real(a.conj().T @ a)
        # Shot mode: one Hadamard test per full_sym circuit, named by its
        # flat index into the (1 + Q, L, L) constituents (beta for l < l',
        # delta_q for l <= l'), with the phase of c_l* c_l' on its ancilla.
        # `_mirrors` is each circuit's (l', l) entry, or its own on the
        # delta diagonal; `_beta_diagonal` the unit (l, l) entries of beta.
        # Adding `_signed_zeros` (0 on beta, -0j on delta) to the estimates
        # and 0 to their conjugates gives exact zeros the signs of the dense
        # fill T + triu(T, 1)^H + I_beta, so beta and delta equal it bit for
        # bit.
        n_terms = self.term_count
        ones = np.ones((n_terms, n_terms), dtype=bool)
        self._circuits = np.flatnonzero(np.stack([np.triu(ones, 1)] + [np.triu(ones)] * nq))
        block, row, col = np.unravel_index(self._circuits, (1 + nq, n_terms, n_terms))
        self._mirrors = np.ravel_multi_index((block, col, row), (1 + nq, n_terms, n_terms))
        self._beta_diagonal = np.arange(n_terms) * (n_terms + 1)
        self._signed_zeros = np.where(block == 0, 0j, complex(0.0, -0.0))
        phase = np.exp(1j * np.angle(np.outer(self.coefficients.conj(), self.coefficients)))
        self._phases = np.broadcast_to(phase, (1 + nq, *ones.shape)).take(self._circuits)

    @property
    def term_count(self) -> int:
        return len(self.labels)

    # -- cost ----------------------------------------------------------

    def dense_cost(self, x: np.ndarray) -> float:
        """Exact cost x^T H x / x^T G x of real amplitudes x (see module doc)."""
        denominator = float(x @ self._g @ x)
        if denominator < 1e-12:
            raise DegenerateStateError(
                "norm of A|x(theta)> is numerically zero; cost undefined"
            )
        return float(x @ self._h @ x) / denominator

    def local_cost(self, theta: np.ndarray, shots=None, rng=None) -> CostBreakdown:
        return self.local_cost_of_state(ansatz_state(self.ansatz, theta), shots, rng)

    def local_cost_of_state(self, amplitudes, shots=None, rng=None) -> CostBreakdown:
        """Assemble the cost from its constituents (exact or shot-sampled).

        The exact constituents are dense products: with x = `amplitudes`,
        V = [P_l x]_l and W = U^dag V, beta = V^dag V and
        delta_q = W^dag diag(z_q) W.

        Shot mode runs the full_sym circuits: one Hadamard test for each
        beta_ll' with l < l' and each delta_ll'^q with l <= l', in that
        order. With the phase e^{i phi} = c_l* c_l' / |c_l c_l'| on its
        ancilla, a circuit measures r = Re(e^{i phi} constituent), which
        is all the cost reads of the pair. Every circuit gets `shots`
        ancilla outcomes, k ~ Binomial(shots, (1 + r) / 2), all drawn in
        one call; the estimate e^{-i phi} (2k / shots - 1) fills the
        constituent, mirrored by conjugate symmetry, with the beta
        diagonal 1 by unitarity.
        """
        n_terms = len(self.labels)
        nq = self.num_qubits
        v = (self._paulis @ amplitudes).T
        w = self._u_dag @ v
        beta = v.conj().T @ v
        delta = (w.conj().T * self._z[:, None, :]) @ w
        if shots is not None:
            _check_shots(shots)
            if rng is None:
                rng = np.random.default_rng()
            exact = np.concatenate((beta[None], delta)).take(self._circuits)
            # rounding can put r a few ulps outside [-1, 1] near the solution
            p = np.clip((1.0 + np.real(self._phases * exact)) / 2.0, 0.0, 1.0)
            counts = rng.binomial(shots, p)
            estimates = self._phases.conj() * (2.0 * counts / shots - 1.0)
            terms = np.zeros((1 + nq, n_terms, n_terms), dtype=complex)
            # mirrors first, so the delta diagonal keeps its estimate
            np.put(terms, self._mirrors, estimates.conj() + 0.0)
            np.put(terms, self._circuits, estimates + self._signed_zeros)
            np.put(terms, self._beta_diagonal, 1.0)
            beta, delta = terms[0], terms[1:]
        c = self.coefficients
        denominator = float(np.real(c.conj() @ beta @ c))
        if denominator < 1e-12:
            raise DegenerateStateError(
                "norm of A|x(theta)> is numerically zero; cost undefined"
            )
        numerator = sum(float(np.real(c.conj() @ delta[q] @ c)) for q in range(nq))
        value = 0.5 - numerator / (2.0 * nq * denominator)
        return CostBreakdown(value=value, beta=beta, delta=delta)


def circuit_count(num_qubits: int, n_terms: int, mode: str = "baseline") -> int:
    """Distinct circuits per cost evaluation under a symmetry policy.

    baseline counts every (q, l, l') delta and (l, l') beta circuit;
    beta_sym drops the known beta diagonal and its conjugate half;
    full_sym additionally halves the off-diagonal deltas.
    """
    if num_qubits < 1 or n_terms < 1:
        raise ValueError("num_qubits and n_terms must be >= 1")
    q, l = num_qubits, n_terms
    off_diag = l * (l - 1) // 2
    if mode == "baseline":
        return (q + 1) * l * l
    if mode == "beta_sym":
        return q * l * l + off_diag
    if mode == "full_sym":
        return (q + 1) * off_diag + q * l
    raise ValueError(f"mode must be one of {_COUNT_MODES}")


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
    vanishes for any row.
    """
    x = np.real(np.asarray(x))
    dim = system.a_reduced.shape[0]
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"expected {dim} amplitudes on the last axis, got shape {x.shape}")
    ax = (system.a_reduced * x[..., None, :]).sum(-1)
    norm2 = (ax * ax).sum(-1)
    if np.any(norm2 < 1e-18):
        raise DegenerateStateError("A x is numerically zero; run did not converge")
    scale = (ax * system.b_raw).sum(-1) / norm2
    return (scale[..., None] * x).reshape(x.shape[:-1] + (system.spec.n_t - 1, system.spec.n))


def extract_solution(
    theta: np.ndarray, system: problem.BlockSystem, cfg: AnsatzConfig
) -> np.ndarray:
    """Fields u(t = dt), u(t = 2 dt), ... from a parameter vector, or
    from each row of a stack of them."""
    return rescale_solution(ansatz_amplitudes(cfg, theta), system)


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


def solve(
    spec: problem.ProblemSpec,
    ansatz: AnsatzConfig | None = None,
    spsa_cfg: spsa.SpsaConfig | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> SolveRecord:
    """Run the full pipeline for one seed.

    Builds the block system, expands the reduced operator into Pauli
    strings, and drives the local cost with SPSA from a uniformly random
    starting vector in [0, 2 pi)^P: the closed form when shots is None,
    else the sampled term sum on the ansatz amplitudes, one binomial draw
    per full_sym circuit. Each iteration's two points come from one
    `ansatz_amplitudes` call on their (2, P) stack and are costed row by
    row, + then -, which gives the bits of two single-theta evaluations.
    A run that hits the iteration cap is returned with converged=False
    rather than raised.

    The SPSA callback only records theta_k. After the run the whole
    solution trace, (iterations + 1, n_t - 1, n), comes from one batched
    `ansatz_amplitudes` call and one `rescale_solution` call, and
    u_fields is its last row; a degenerate state at any theta_k raises
    `DegenerateStateError` there.

    The starting vector and the SPSA perturbations come from
    `default_rng(seed)`; shot noise comes from a stream spawned from
    `SeedSequence(seed)`, so the sampler never shifts the perturbations.

    Without an ansatz the register comes from the spec (`ansatz_for`);
    without a config, SPSA runs with `DEFAULT_SPSA`.
    """
    if shots is not None:
        _check_shots(shots)
    if ansatz is None:
        ansatz = ansatz_for(spec)
    if spsa_cfg is None:
        spsa_cfg = DEFAULT_SPSA
    system = problem.build_block_system(spec)
    dim = system.a_reduced.shape[0]
    if 2**ansatz.num_qubits != dim:
        raise ValueError(
            f"ansatz spans 2^{ansatz.num_qubits} amplitudes but the reduced "
            f"system has dimension {dim}"
        )
    decomposition = pauli.decompose(system.a_reduced)
    evaluator = CostEvaluator(decomposition, ansatz, _b_preparation(system))
    rng = np.random.default_rng(seed)
    theta_init = rng.uniform(0.0, 2.0 * np.pi, ansatz.n_params)

    if shots is None:
        state_cost = evaluator.dense_cost
    else:
        shot_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

        def state_cost(x):
            return evaluator.local_cost_of_state(x, shots, shot_rng).value

    # each row of a batch is byte-equal to its single-theta call, so one
    # kernel call serves both SPSA points; the rows are costed + then -
    def pair_cost(points):
        return [state_cost(x) for x in ansatz_amplitudes(ansatz, points)]

    thetas: list[np.ndarray] = []
    result = spsa.run(
        theta_init, lambda theta: state_cost(ansatz_amplitudes(ansatz, theta)), spsa_cfg,
        rng=rng, callback=lambda _k, theta, _cost: thetas.append(theta), pair_cost=pair_cost,
    )

    # the batch kernels reproduce each row's single-theta bits, so the
    # last row is the fields of theta_final
    solution_trace = rescale_solution(ansatz_amplitudes(ansatz, np.array(thetas)), system)
    u_fields = solution_trace[-1].copy()
    classical = problem.classical_solve(system).reshape(spec.n_t - 1, spec.n)
    rmse_per_time = [
        {
            "t": (k + 1) * spec.dt,
            "rmse": problem.rmse(u_fields[k], classical[k]),
            "relative": problem.relative_error(u_fields[k], classical[k]),
        }
        for k in range(spec.n_t - 1)
    ]
    return SolveRecord(
        theta_final=result.theta,
        cost_trace=result.cost_trace,
        solution_trace=solution_trace,
        u_fields=u_fields,
        rmse_per_time=rmse_per_time,
        iterations=result.iterations,
        seed=seed,
        shots=shots,
        converged=result.converged,
        circuits_per_evaluation=circuit_count(
            ansatz.num_qubits, decomposition.term_count, "full_sym"
        ),
        cost_evaluations=1 + 2 * result.iterations,
    )


def _solve_job(args) -> SolveRecord:
    return solve(*args)


def run_ensemble(
    spec: problem.ProblemSpec,
    ansatz: AnsatzConfig | None = None,
    spsa_cfg: spsa.SpsaConfig | None = None,
    shots: int | None = None,
    base_seed: int = 0,
    ensemble_size: int = 24,
    workers: int = 1,
) -> list[SolveRecord]:
    """Independent seeded runs; member i uses seed base_seed + i."""
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be >= 1")
    if ansatz is None:
        ansatz = ansatz_for(spec)
    jobs = [(spec, ansatz, spsa_cfg, shots, base_seed + i) for i in range(ensemble_size)]
    if workers <= 1:
        return [solve(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_solve_job, jobs))


def ensemble_mean_fields(records: list[SolveRecord]) -> np.ndarray:
    return np.mean([r.u_fields for r in records], axis=0)
