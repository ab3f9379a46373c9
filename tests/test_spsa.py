import numpy as np
import pytest

from advqls.spsa import SpsaConfig, gains, run, run_lockstep, step


class TestGains:
    def test_closed_form_at_zero(self):
        cfg = SpsaConfig()
        a_0, c_0 = gains(0, cfg)
        assert abs(a_0 - 4.0 / 11.0**0.602) <= 1e-12
        assert abs(c_0 - 0.1) <= 1e-12

    def test_monotone_decay(self):
        cfg = SpsaConfig()
        seq = [gains(k, cfg) for k in range(500)]
        a_seq = [s[0] for s in seq]
        c_seq = [s[1] for s in seq]
        assert all(x > y > 0 for x, y in zip(a_seq, a_seq[1:]))
        assert all(x > y > 0 for x, y in zip(c_seq, c_seq[1:]))

    def test_zero_stability_offset(self):
        cfg = SpsaConfig(A=0.0)
        a_0, _ = gains(0, cfg)
        assert a_0 == pytest.approx(cfg.a)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            gains(-1, SpsaConfig())

    def test_spall_summability_pattern(self):
        # sum a_k must diverge while sum (a_k/c_k)^2 converges; check the
        # numeric signatures over a long horizon
        cfg = SpsaConfig()
        k = np.arange(1_000_000)
        a_k = cfg.a / (k + 1 + cfg.A) ** cfg.alpha
        c_k = cfg.c / (k + 1) ** cfg.gamma
        partial = np.cumsum(a_k)
        assert partial[-1] > 2.0 * partial[len(k) // 10]  # still growing
        ratio_sq = (a_k / c_k) ** 2
        # tail terms decay faster than 1/k (p-series exponent > 1)
        exponent = np.log(ratio_sq[1000] / ratio_sq[-1]) / np.log(len(k) / 1001)
        assert exponent > 1.0


class TestStep:
    def test_exactly_two_evaluations(self):
        calls = []

        def cost(theta):
            calls.append(theta.copy())
            return float(theta @ theta)

        rng = np.random.default_rng(0)
        step(np.ones(4), cost, 0, SpsaConfig(), rng)
        assert len(calls) == 2

    def test_perturbation_is_rademacher(self):
        cfg = SpsaConfig()
        seen = []

        def cost(theta):
            seen.append(theta.copy())
            return 0.0

        theta = np.full(64, np.pi)
        step(theta, cost, 0, cfg, np.random.default_rng(1))
        _, c_0 = gains(0, cfg)
        delta = (seen[0] - theta) / c_0
        assert set(np.round(delta).astype(int)) <= {-1, 1}
        np.testing.assert_allclose(seen[1], theta - c_0 * delta, atol=1e-12)

    def test_perturbation_points_are_bit_exact(self):
        cfg = SpsaConfig()
        seen = []

        def cost(theta):
            seen.append(theta.copy())
            return 0.0

        theta = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 64)
        step(theta, cost, 0, cfg, np.random.default_rng(1))
        _, c_0 = gains(0, cfg)
        d = np.random.default_rng(1).integers(0, 2, 64) * 2 - 1
        assert seen[0].tobytes() == (theta + c_0 * d).tobytes()
        assert seen[1].tobytes() == (theta - c_0 * d).tobytes()

    def test_angles_wrapped(self):
        def cost(theta):
            return float(theta.sum())  # constant gradient estimate drives a move

        theta = np.full(3, 2 * np.pi - 1e-3)
        nxt, _ = step(theta, cost, 0, SpsaConfig(), np.random.default_rng(2))
        assert np.all(nxt >= 0.0) and np.all(nxt < 2 * np.pi)

    def test_deterministic_replay(self):
        def cost(theta):
            return float(np.sum((theta - 1.0) ** 2))

        out1, est1 = step(np.zeros(5), cost, 3, SpsaConfig(), np.random.default_rng(9))
        out2, est2 = step(np.zeros(5), cost, 3, SpsaConfig(), np.random.default_rng(9))
        assert est1 == est2
        assert np.array_equal(out1, out2)


class TestRun:
    def test_quadratic_bowl(self):
        # oracle: known minimum at theta*; P = 3 so the default gain
        # a = 4 contracts within the 200-iteration budget
        star = np.full(3, np.pi)
        cfg = SpsaConfig(max_iter=200, stop_rule="none")
        hits = 0
        for seed in range(100):
            theta0 = star + np.random.default_rng(10_000 + seed).uniform(-1, 1, 3)
            result = run(
                theta0,
                lambda t: float(np.sum((t - star) ** 2)),
                cfg,
                rng=np.random.default_rng(seed),
            )
            if np.linalg.norm(result.theta - star) <= 0.1:
                hits += 1
        assert hits >= 95

    def test_constant_cost_converges_in_patience_iterations(self):
        cfg = SpsaConfig(stop_rule="diff", patience=5, max_iter=100)
        result = run(np.ones(4), lambda t: 0.42, cfg, np.random.default_rng(0))
        assert result.converged
        assert result.iterations == 5

    def test_threshold_rule(self):
        cfg = SpsaConfig(stop_rule="threshold", tol=0.5, patience=3, max_iter=100)
        result = run(np.ones(2), lambda t: 0.1, cfg, np.random.default_rng(0))
        assert result.converged
        assert result.iterations == 3
        cfg_high = SpsaConfig(stop_rule="threshold", tol=0.01, patience=3, max_iter=10)
        result = run(np.ones(2), lambda t: 0.1, cfg_high, np.random.default_rng(0))
        assert not result.converged
        assert result.iterations == 10

    def test_zero_max_iter(self):
        theta0 = np.array([0.3, 0.4])
        result = run(theta0, lambda t: 1.0, SpsaConfig(max_iter=0), np.random.default_rng(0))
        assert not result.converged
        assert np.array_equal(result.theta, theta0)
        assert result.cost_trace == [1.0]

    def test_trace_starts_at_initial_cost(self):
        result = run(
            np.zeros(2), lambda t: float(t @ t), SpsaConfig(max_iter=4, stop_rule="none"),
            np.random.default_rng(0),
        )
        assert result.cost_trace[0] == 0.0
        assert len(result.cost_trace) == 5

    def test_evaluation_budget(self):
        calls = []

        def cost(theta):
            calls.append(1)
            return float(theta @ theta)

        result = run(np.ones(3), cost, SpsaConfig(max_iter=7, stop_rule="none"), np.random.default_rng(0))
        assert len(calls) == 1 + 2 * result.iterations

    def test_bitwise_deterministic(self):
        def cost(theta):
            return float(np.sum(np.sin(theta)))

        cfg = SpsaConfig(max_iter=25, stop_rule="none")
        r1 = run(np.linspace(0, 1, 6), cost, cfg, np.random.default_rng(5))
        r2 = run(np.linspace(0, 1, 6), cost, cfg, np.random.default_rng(5))
        assert r1.cost_trace == r2.cost_trace
        assert np.array_equal(r1.theta, r2.theta)


def _cosine_bowl(p):
    """Scalar and batched forms of mean(1 - cos(theta - phi)); each row of
    the batched form is byte-equal to the scalar call."""
    phi = np.random.default_rng(p).uniform(0.0, 2.0 * np.pi, p)

    def cost(theta):
        return float((1.0 - np.cos(theta - phi)).mean())

    def batch_cost(points, _rows):
        return (1.0 - np.cos(points - phi)).mean(-1)

    return cost, batch_cost


def step_loop(theta, cost, cfg, rng):
    """Oracle: public `step` calls from theta until cfg's stopping rule
    fires. Returns the iterates theta_0 .. theta_K, the cost trace and
    whether the rule fired."""
    thetas, trace = [theta], [float(cost(theta))]
    streak = 0
    for k in range(cfg.max_iter):
        theta, estimate = step(theta, cost, k, cfg, rng)
        thetas.append(theta)
        trace.append(float(estimate))
        if cfg.stop_rule == "diff":
            within = abs(trace[-1] - trace[-2]) < cfg.tol
        else:
            within = cfg.stop_rule == "threshold" and trace[-1] < cfg.tol
        streak = streak + 1 if within else 0
        if streak >= cfg.patience:
            return np.array(thetas), trace, True
    return np.array(thetas), trace, False


class TestPairCost:
    """The lockstep loop hands each iteration's points to its cost as one
    (2, m, P) stack, theta + c_k Delta over theta - c_k Delta."""

    @pytest.mark.parametrize("p", [5, 12])
    @pytest.mark.parametrize("rule, tol", [("none", 1e-2), ("diff", 1e-3), ("threshold", 1e-2)])
    def test_pair_cost_matches_scalar_calls(self, p, rule, tol):
        # four vectors in lockstep against a loop of `step` calls each, and
        # `run` (the one-vector case) too; 130 iterations cross two 64-row
        # Delta blocks
        cost, batch_cost = _cosine_bowl(p)
        cfg = SpsaConfig(max_iter=130, stop_rule=rule, tol=tol)
        starts = np.random.default_rng(p).uniform(0.0, 2.0 * np.pi, (4, p))
        shapes = []

        def recording(points, rows):
            shapes.append(points.shape)
            return batch_cost(points, rows)

        results = run_lockstep(starts, recording, cfg, [np.random.default_rng(3 + i) for i in range(4)])
        iterations = []
        for i, result in enumerate(results):
            thetas, trace, converged = step_loop(starts[i], cost, cfg, np.random.default_rng(3 + i))
            single = run(starts[i], cost, cfg, rng=np.random.default_rng(3 + i))
            for got in (result, single):
                assert np.array(got.cost_trace).tobytes() == np.array(trace).tobytes()
                assert got.theta.tobytes() == thetas[-1].tobytes()
                assert got.converged == converged
            iterations.append(result.iterations)
        running = [sum(n > k for n in iterations) for k in range(max(iterations))]
        assert shapes == [(4, p)] + [(2, m, p) for m in running]
        if rule == "none":
            assert iterations == [130] * 4
        else:
            assert len(set(iterations)) > 1

    @pytest.mark.parametrize("p", [5, 9, 12, 16])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_block_draws_replay_per_step_draws(self, p, seed):
        # the points of vector i at iteration k are theta_k +/- c_k Delta_k
        # with Delta_k the k-th per-step draw of default_rng(seed + i),
        # across block borders
        cfg = SpsaConfig(max_iter=130, stop_rule="none")
        _, batch_cost = _cosine_bowl(p)
        points = []

        def recording(x, rows):
            points.append(x.copy())
            return batch_cost(x, rows)

        results = run_lockstep(
            np.zeros((2, p)), recording, cfg, [np.random.default_rng(seed + i) for i in range(2)]
        )
        assert len(points) == 1 + 130
        for i in range(2):
            replay = np.random.default_rng(seed + i)
            thetas = results[i].theta_trace
            for k, x in enumerate(points[1:]):
                _, c_k = gains(k, cfg)
                delta = replay.integers(0, 2, p) * 2 - 1
                expected = np.stack((thetas[k] + c_k * delta, thetas[k] - c_k * delta))
                assert x[:, i].tobytes() == expected.tobytes()

    def test_cost_sees_running_rows(self):
        # a row whose rule fired leaves the stack after that iteration
        cfg = SpsaConfig(max_iter=10, stop_rule="threshold", tol=0.5, patience=2)
        seen = []

        def cost(points, rows):
            seen.append((points.shape, rows.tolist()))
            return np.broadcast_to(rows * 1.0, points.shape[:-1])

        results = run_lockstep(np.zeros((3, 2)), cost, cfg, [np.random.default_rng(i) for i in range(3)])
        assert [r.iterations for r in results] == [2, 10, 10]
        assert [r.converged for r in results] == [True, False, False]
        assert [r.cost_trace for r in results] == [[0.0] * 3, [1.0] * 11, [2.0] * 11]
        assert seen == (
            [((3, 2), [0, 1, 2])]
            + [((2, 3, 2), [0, 1, 2])] * 2
            + [((2, 2, 2), [1, 2])] * 8
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="generators"):
            run_lockstep(np.zeros((2, 3)), lambda x, r: x.sum(-1), SpsaConfig(), [np.random.default_rng()])


class TestHistory:
    """run_lockstep keeps every row's iterates and cost estimates itself and
    splits them into each result's theta_trace and cost_trace."""

    @pytest.mark.parametrize("rule, tol", [("none", 1e-2), ("diff", 1e-3), ("threshold", 1e-2)])
    def test_traces_match_step_loop(self, rule, tol):
        p = 5
        cost, batch_cost = _cosine_bowl(p)
        cfg = SpsaConfig(max_iter=130, stop_rule=rule, tol=tol)
        starts = np.random.default_rng(p).uniform(0.0, 2.0 * np.pi, (4, p))
        results = run_lockstep(starts, batch_cost, cfg, [np.random.default_rng(3 + i) for i in range(4)])
        for i, result in enumerate(results):
            thetas, trace, _ = step_loop(starts[i], cost, cfg, np.random.default_rng(3 + i))
            assert result.theta_trace.shape == (result.iterations + 1, p)
            assert result.theta_trace.tobytes() == thetas.tobytes()
            assert result.theta.tobytes() == thetas[-1].tobytes()
            assert np.array(result.cost_trace).tobytes() == np.array(trace).tobytes()
        if rule != "none":
            # some rows dropped out while others ran on
            assert len({r.iterations for r in results}) > 1

    def test_storage_grows_with_iterations_run(self):
        # an uncapped max_iter must not size anything up front
        cfg = SpsaConfig(max_iter=10**12, stop_rule="threshold", tol=1.0, patience=2)
        results = run_lockstep(
            np.zeros((2, 3)), lambda x, _rows: np.zeros(x.shape[:-1]), cfg,
            [np.random.default_rng(i) for i in range(2)],
        )
        for result in results:
            assert result.iterations == 2
            assert result.converged
            assert result.cost_trace == [0.0, 0.0, 0.0]
            assert result.theta_trace.shape == (3, 3)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"gamma": -0.1},
            {"c": 0.0},
            {"patience": 0},
            {"max_iter": -1},
            {"stop_rule": "bogus"},
            {"A": -1.0},
            {"A": -11.0},
            {"tol": "x"},
            {"alpha": "x"},
            {"c": float("nan")},
            {"a": float("inf")},
            {"gamma": True},
            {"A": np.nan},
        ],
    )
    def test_invalid(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            SpsaConfig(**kwargs)

    def test_overrides(self):
        cfg = SpsaConfig().with_overrides(max_iter=42, stop_rule="threshold")
        assert cfg.max_iter == 42
        assert cfg.stop_rule == "threshold"
        assert cfg.a == 4.0
