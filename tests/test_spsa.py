import numpy as np
import pytest

from advqls.spsa import SpsaConfig, gains, run, step


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
        result = run(np.ones(4), lambda t: 0.42, cfg)
        assert result.converged
        assert result.iterations == 5

    def test_threshold_rule(self):
        cfg = SpsaConfig(stop_rule="threshold", tol=0.5, patience=3, max_iter=100)
        result = run(np.ones(2), lambda t: 0.1, cfg)
        assert result.converged
        assert result.iterations == 3
        cfg_high = SpsaConfig(stop_rule="threshold", tol=0.01, patience=3, max_iter=10)
        result = run(np.ones(2), lambda t: 0.1, cfg_high)
        assert not result.converged
        assert result.iterations == 10

    def test_zero_max_iter(self):
        theta0 = np.array([0.3, 0.4])
        result = run(theta0, lambda t: 1.0, SpsaConfig(max_iter=0))
        assert not result.converged
        assert np.array_equal(result.theta, theta0)
        assert result.cost_trace == [1.0]

    def test_trace_starts_at_initial_cost(self):
        result = run(np.zeros(2), lambda t: float(t @ t), SpsaConfig(max_iter=4, stop_rule="none"))
        assert result.cost_trace[0] == 0.0
        assert len(result.cost_trace) == 5

    def test_evaluation_budget(self):
        calls = []

        def cost(theta):
            calls.append(1)
            return float(theta @ theta)

        result = run(np.ones(3), cost, SpsaConfig(max_iter=7, stop_rule="none"))
        assert len(calls) == 1 + 2 * result.iterations

    def test_bitwise_deterministic(self):
        def cost(theta):
            return float(np.sum(np.sin(theta)))

        cfg = SpsaConfig(max_iter=25, stop_rule="none", seed=5)
        r1 = run(np.linspace(0, 1, 6), cost, cfg)
        r2 = run(np.linspace(0, 1, 6), cost, cfg)
        assert r1.cost_trace == r2.cost_trace
        assert np.array_equal(r1.theta, r2.theta)

    def test_callback_sees_every_iteration(self):
        seen = []
        run(
            np.ones(2),
            lambda t: float(t @ t),
            SpsaConfig(max_iter=3, stop_rule="none"),
            callback=lambda k, theta, cost: seen.append(k),
        )
        assert seen == [0, 1, 2, 3]


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
