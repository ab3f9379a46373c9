"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module, the 8192-shot ensemble behind criterion 7
included, takes a few seconds.
"""

import numpy as np
import pytest
from itertools import product

from advqls import pauli, problem, resources, sim, spsa, vqls

SPEC = problem.ProblemSpec()
ANSATZ = vqls.AnsatzConfig(num_qubits=3, units=4)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def exact_ensemble():
    # fixed 200-iteration budget so the full trace is observable
    cfg = spsa.SpsaConfig(max_iter=200, stop_rule="none")
    return vqls.run_ensemble(
        SPEC, ansatz=ANSATZ, spsa_cfg=cfg, shots=None,
        base_seed=0, ensemble_size=24,
    )


@pytest.fixture(scope="module")
def sampled_ensemble():
    # solver defaults: threshold stopping rule, 8192 shots per expectation
    cfg = spsa.SpsaConfig(max_iter=200, stop_rule="threshold")
    return vqls.run_ensemble(
        SPEC, ansatz=ANSATZ, spsa_cfg=cfg, shots=8192,
        base_seed=0, ensemble_size=24,
    )


def test_criterion_1_stencil_matrix():
    reference = np.array(
        [
            [-0.9, 0.45, 0.0, 0.45],
            [0.45, -0.9, 0.45, 0.0],
            [0.0, 0.45, -0.9, 0.45],
            [0.45, 0.0, 0.45, -0.9],
        ]
    )
    m = problem.build_m(SPEC)
    worst = np.abs(m - reference).max()
    report(1, worst <= 1e-12, f"stencil matrix entrywise error {worst:.2e} (tol 1e-12)")


def test_criterion_2_rhs_state_and_angle():
    system = problem.build_block_system(SPEC)
    prepared = sim.prepare_b_circuit(-160.725).run().real
    state_err = np.abs(prepared - system.b_state).max()
    phi = problem.fit_phi_degrees(system.b_state)
    phi_err = abs(phi - (-160.725))
    ok = state_err <= 1e-4 and phi_err <= 0.01
    report(2, ok, f"b-state error {state_err:.2e} (tol 1e-4), fitted angle "
                  f"{phi:.4f} deg (err {phi_err:.4f}, tol 0.01)")


def test_criterion_3_decomposition_roundtrip():
    rng = np.random.default_rng(2024)
    worst_roundtrip = 0.0
    for _ in range(100):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        err = np.abs(pauli.reconstruct(pauli.decompose(a, prune_eps=0.0)) - a).max()
        worst_roundtrip = max(worst_roundtrip, err)

    system = problem.build_block_system(SPEC)
    decomp = pauli.decompose(system.a_reduced)
    # independent oracle: dense trace formula over all 64 labels
    oracle = {}
    for chars in product("IXYZ", repeat=3):
        label = "".join(chars)
        c = complex(np.trace(pauli.label_matrix(label) @ system.a_reduced) / 8.0)
        if abs(c) > 1e-12:
            oracle[label] = c
    coeff_err = (
        max(abs(t.coefficient - oracle[t.label]) for t in decomp.terms)
        if set(decomp.labels) == set(oracle)
        else np.inf
    )
    ok = worst_roundtrip <= 1e-12 and decomp.term_count == 7 and coeff_err <= 1e-12
    report(3, ok, f"roundtrip error {worst_roundtrip:.2e} (tol 1e-12), "
                  f"terms {decomp.term_count} (expect 7), coefficient error {coeff_err:.2e}")


def test_criterion_4_cost_equivalence():
    system = problem.build_block_system(SPEC)
    decomp = pauli.decompose(system.a_reduced)
    b_circuit = sim.prepare_b_circuit(problem.fit_phi_degrees(system.b_state))
    evaluator = vqls.CostEvaluator(decomp, ANSATZ, b_circuit)

    # dense oracle straight from the projector form of the cost
    a = pauli.reconstruct(decomp)
    u = b_circuit.unitary()
    projector = np.zeros((8, 8), dtype=complex)
    for q in range(3):
        z_label = "I" * q + "Z" + "I" * (2 - q)
        projector += (np.eye(8) + pauli.label_matrix(z_label)) / 2.0
    h = a.conj().T @ u @ (np.eye(8) - projector / 3.0) @ u.conj().T @ a

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi, 12)
        x = vqls.ansatz_state(ANSATZ, theta)
        psi = a @ x
        dense = float(np.real(x.conj() @ h @ x) / np.real(psi.conj() @ psi))
        worst = max(worst, abs(evaluator.local_cost(theta).value - dense))
    report(4, worst <= 1e-10, f"term-sum vs dense cost max deviation {worst:.2e} (tol 1e-10)")


def test_criterion_5_convergence_exact(exact_ensemble):
    reached = sum(min(r.cost_trace) <= 1e-2 for r in exact_ensemble)
    iterations = {r.iterations for r in exact_ensemble}
    ok = reached >= 20 and iterations == {200}
    report(5, ok, f"{reached}/24 runs reached cost <= 1e-2 within 200 iterations (need >= 20)")


def test_criterion_6_accuracy_exact(exact_ensemble):
    system = problem.build_block_system(SPEC)
    classical = problem.classical_solve(system).reshape(2, 4)
    mean_fields = vqls.ensemble_mean_fields(exact_ensemble)
    rel_t1 = problem.relative_error(mean_fields[0], classical[0])
    rel_t2 = problem.relative_error(mean_fields[1], classical[1])
    ok = rel_t1 <= 0.06 and rel_t2 <= 0.15
    report(6, ok, f"exact ensemble-mean relative RMSE {rel_t1:.4f} @ t=0.25s "
                  f"(bound 0.06), {rel_t2:.4f} @ t=0.5s (bound 0.15)")


def test_criterion_7_accuracy_sampled(sampled_ensemble):
    system = problem.build_block_system(SPEC)
    classical = problem.classical_solve(system).reshape(2, 4)
    mean_fields = vqls.ensemble_mean_fields(sampled_ensemble)
    rel_t1 = problem.relative_error(mean_fields[0], classical[0])
    rel_t2 = problem.relative_error(mean_fields[1], classical[1])
    ok = rel_t1 <= 0.12 and rel_t2 <= 0.30
    report(7, ok, f"8192-shot ensemble-mean relative RMSE {rel_t1:.4f} @ t=0.25s "
                  f"(bound 0.12), {rel_t2:.4f} @ t=0.5s (bound 0.30)")


def test_criterion_8_circuit_accounting():
    exact_formula = all(
        vqls.circuit_count(q, l, "baseline") == (q + 1) * l * l
        for q in range(1, 6)
        for l in range(1, 41)
    )
    ratios = [
        vqls.circuit_count(3, l, "full_sym") / vqls.circuit_count(3, l, "baseline")
        for l in range(20, 61)
    ]
    in_band = all(0.45 <= r <= 0.55 for r in ratios)
    flags = vqls.is_submittable(900) and not vqls.is_submittable(901)
    ok = exact_formula and in_band and flags
    report(8, ok, f"baseline = (Q+1)L^2 exact: {exact_formula}; full-symmetry ratio in "
                  f"[0.45, 0.55] for L >= 20: {in_band}; 900-circuit cap flagged: {flags}")


def test_criterion_9_resource_estimate():
    cfg = resources.ForecastConfig(horizontal_resolution_deg=5.0, tau=3)
    dt, n_t = resources.cfl_timestep(cfg)
    dt_ok = abs(dt - 5574.0) / 5574.0 <= 0.01
    n = resources.grid_points(cfg)
    dim = resources.vector_dimension(n, 3, n_t)
    order_ok = 1e14 <= dim <= 1e16
    qubits = resources.qubit_count(dim)
    ok = dt_ok and n_t == 156 and order_ok and qubits == 49
    report(9, ok, f"dt {dt:.0f}s (within 1% of 5574: {dt_ok}), N_T {n_t} (expect 156), "
                  f"dimension {dim:.3e} (order 1e15: {order_ok}), qubits {qubits} (expect 49)")


def test_criterion_10_spsa_unit_behavior():
    cfg = spsa.SpsaConfig()
    a_0, c_0 = spsa.gains(0, cfg)
    gains_ok = abs(a_0 - 4.0 / 11.0**0.602) <= 1e-12 and abs(c_0 - 0.1) <= 1e-12

    calls = []

    def counting_cost(theta):
        calls.append(theta.copy())
        return float(theta @ theta)

    spsa.step(np.ones(5), counting_cost, 0, cfg, np.random.default_rng(0))
    evals_ok = len(calls) == 2

    def cost(theta):
        return float(np.sum(np.cos(theta)))

    fixed = cfg.with_overrides(max_iter=30, stop_rule="none")
    r1 = spsa.run(np.linspace(0, 2, 8), cost, fixed, np.random.default_rng(3))
    r2 = spsa.run(np.linspace(0, 2, 8), cost, fixed, np.random.default_rng(3))
    replay_ok = r1.cost_trace == r2.cost_trace and np.array_equal(r1.theta, r2.theta)

    ok = gains_ok and evals_ok and replay_ok
    report(10, ok, f"gains closed form: {gains_ok}; 2 evaluations/step: {evals_ok}; "
                   f"deterministic replay: {replay_ok}")
