import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from advqls import problem
from advqls.problem import (
    ProblemSpec,
    analytic_solution,
    build_block_system,
    build_m,
    classical_solve,
    fit_phi_degrees,
    initial_condition,
    relative_error,
    rmse,
    solve_unit_lower_triangular,
)

REFERENCE_SPEC = ProblemSpec()  # n=4, nu=0.05, length=1, dt=0.25, n_t=3

REFERENCE_M = np.array(
    [
        [-0.9, 0.45, 0.0, 0.45],
        [0.45, -0.9, 0.45, 0.0],
        [0.0, 0.45, -0.9, 0.45],
        [0.45, 0.0, 0.45, -0.9],
    ]
)


class TestBuildM:
    def test_reference_entries(self):
        assert_allclose(build_m(REFERENCE_SPEC), REFERENCE_M, rtol=0, atol=1e-12)

    def test_n5_entries(self):
        # oracle: direct evaluation of -2 nu/dx^2 and nu/dx^2 at dx = 0.25
        m = build_m(ProblemSpec(n=5))
        assert_allclose(np.diag(m), np.full(5, -1.6), atol=1e-12)
        assert m[0, 1] == pytest.approx(0.8, abs=1e-12)
        assert m[0, 4] == pytest.approx(0.8, abs=1e-12)
        assert m[0, 2] == 0.0

    def test_zero_diffusion(self):
        assert_allclose(build_m(ProblemSpec(nu=0.0)), np.zeros((4, 4)))

    def test_rejects_small_stencil(self):
        with pytest.raises(ValueError, match="n >= 3"):
            build_m(ProblemSpec(n=2))

    @pytest.mark.parametrize("n,nu,length", [(4, 0.05, 1.0), (6, 0.3, 2.5), (9, 1.0, 0.5)])
    def test_symmetric_circulant_conservative(self, n, nu, length):
        m = build_m(ProblemSpec(n=n, nu=nu, length=length))
        assert_allclose(m, m.T, atol=1e-14)
        assert_allclose(m.sum(axis=1), np.zeros(n), atol=1e-12)
        for i in range(n):
            assert_allclose(m[i], np.roll(m[0], i), atol=1e-14)


class TestInitialCondition:
    def test_reference_values(self):
        # oracle: sin(2 pi * {0, 1/3, 2/3, 1})
        assert_allclose(
            initial_condition(REFERENCE_SPEC), [0.0, 0.8660, -0.8660, 0.0], atol=5e-5
        )

    def test_two_points(self):
        assert_allclose(initial_condition(ProblemSpec(n=2)), [0.0, 0.0], atol=1e-12)

    def test_zero_wavenumber(self):
        spec = ProblemSpec(kappa=0.0)
        assert_allclose(initial_condition(spec), np.zeros(4))


class TestBlockSystem:
    def test_reference_b_state(self):
        # oracle: normalize (I + 0.25 M) u0
        system = build_block_system(REFERENCE_SPEC)
        step = np.eye(4) + 0.25 * REFERENCE_M
        expected = np.concatenate([step @ initial_condition(REFERENCE_SPEC), np.zeros(4)])
        expected /= np.linalg.norm(expected)
        assert_allclose(system.b_state, expected, atol=1e-12)
        assert_allclose(
            system.b_state[:4], [0.1184, 0.6971, -0.6971, -0.1184], atol=5e-5
        )

    def test_b_state_unit_norm_and_zero_tail(self):
        for spec in (REFERENCE_SPEC, ProblemSpec(n=4, n_t=5), ProblemSpec(n=8, n_t=3)):
            system = build_block_system(spec)
            assert np.linalg.norm(system.b_state) == pytest.approx(1.0, abs=1e-12)
            tail = system.b_state[spec.n:]
            assert tail.size == (spec.n_t - 2) * spec.n
            assert_allclose(tail, np.zeros_like(tail))

    def test_full_matrix_structure(self):
        system = build_block_system(REFERENCE_SPEC)
        n = 4
        step = np.eye(n) + 0.25 * REFERENCE_M
        for k in range(3):
            block = system.a_full[k * n:(k + 1) * n, k * n:(k + 1) * n]
            assert_allclose(block, np.eye(n))
            if k:
                sub = system.a_full[k * n:(k + 1) * n, (k - 1) * n:k * n]
                assert_allclose(sub, -step, atol=1e-12)
        # everything above the diagonal blocks is zero
        assert_allclose(np.triu(system.a_full, 1), 0.0)

    def test_reduced_is_unit_lower_triangular(self):
        system = build_block_system(REFERENCE_SPEC)
        assert_allclose(np.triu(system.a_reduced, 1), 0.0)
        assert_allclose(np.diag(system.a_reduced), np.ones(8))
        assert np.linalg.det(system.a_reduced) == pytest.approx(1.0, rel=1e-12)

    def test_zero_diffusion_rhs(self):
        spec = ProblemSpec(nu=0.0)
        system = build_block_system(spec)
        expected = np.concatenate([initial_condition(spec), np.zeros(4)])
        assert_allclose(system.b_raw, expected, atol=1e-14)
        assert_allclose(system.b_state, expected / np.linalg.norm(expected), atol=1e-14)

    def test_two_time_levels(self):
        spec = ProblemSpec(n_t=2)
        system = build_block_system(spec)
        assert_allclose(system.a_reduced, np.eye(4))
        step = np.eye(4) + 0.25 * REFERENCE_M
        assert_allclose(system.b_raw, step @ initial_condition(spec), atol=1e-12)

    def test_fitted_phi(self):
        system = build_block_system(REFERENCE_SPEC)
        assert fit_phi_degrees(system.b_state) == pytest.approx(-160.725, abs=0.01)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kappa": 0.0}, "vanishes for kappa=0.0"),
            ({"kappa": 1e-200}, "vanishes for kappa=1e-200"),   # its norm underflows
            ({"nu": 1e308}, "nu=1e+308"),                       # M overflows
            ({"dt": 1e300}, "dt=1e+300"),                       # the norm of b overflows
            ({"nu": np.float64(1e308)}, "nu=1e+308"),
        ],
    )
    def test_degenerate_or_overflowing_system(self, kwargs, message):
        # raised before any warning (warnings are errors here)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_block_system(ProblemSpec(**kwargs))


class TestClassicalSolve:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 1e100},              # its norm overflows
            {"dt": 1e100, "n_t": 5},    # the solution itself overflows
        ],
    )
    def test_overflowing_solution(self, kwargs):
        # the system and b are finite; raised before any warning
        system = build_block_system(ProblemSpec(**kwargs))
        with pytest.raises(ValueError, match=re.escape("dt=1e+100") + ".*classical solution norm"):
            classical_solve(system)

    def test_reference_fields(self):
        system = build_block_system(REFERENCE_SPEC)
        solution = classical_solve(system).reshape(2, 4)
        assert_allclose(solution[0], [0.0974, 0.5737, -0.5737, -0.0974], atol=1e-4)
        assert_allclose(solution[1], [0.1291, 0.3910, -0.3910, -0.1291], atol=1e-4)

    @pytest.mark.parametrize("spec", [REFERENCE_SPEC, ProblemSpec(n=4, n_t=6), ProblemSpec(n=8, nu=0.01)])
    def test_matches_iterated_stepping(self, spec):
        # oracle: repeated application of (I + M dt)
        system = build_block_system(spec)
        solution = classical_solve(system).reshape(spec.n_t - 1, spec.n)
        step = np.eye(spec.n) + build_m(spec) * spec.dt
        u = initial_condition(spec)
        for k in range(spec.n_t - 1):
            u = step @ u
            assert_allclose(solution[k], u, atol=1e-12)

    def test_zero_diffusion_blocks(self):
        spec = ProblemSpec(nu=0.0)
        system = build_block_system(spec)
        solution = classical_solve(system).reshape(2, 4)
        for block in solution:
            assert_allclose(block, initial_condition(spec), atol=1e-14)

    def test_forward_substitution_against_dense_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lower = np.tril(rng.normal(size=(8, 8)), k=-1) + np.eye(8)
            rhs = rng.normal(size=8)
            x = solve_unit_lower_triangular(lower, rhs)
            assert np.linalg.norm(lower @ x - rhs) <= 1e-12
            assert_allclose(x, np.linalg.solve(lower, rhs), atol=1e-10)


class TestAnalyticSolution:
    def test_initial_time(self):
        assert_allclose(
            analytic_solution(REFERENCE_SPEC, 0.0), initial_condition(REFERENCE_SPEC)
        )

    def test_reference_decay(self):
        # oracle: exp(-(2 pi)^2 * 0.05 * 0.25) = 0.610498
        field = analytic_solution(REFERENCE_SPEC, 0.25)
        assert_allclose(field, [0.0, 0.5287, -0.5287, 0.0], atol=5e-5)

    def test_no_diffusion_is_stationary(self):
        spec = ProblemSpec(nu=0.0)
        assert_allclose(analytic_solution(spec, 17.3), initial_condition(spec))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            analytic_solution(REFERENCE_SPEC, -0.1)


class TestErrorMetrics:
    def test_identical_vectors(self):
        v = np.array([1.0, -2.0, 3.0])
        assert rmse(v, v) == 0.0
        assert relative_error(v, v) == 0.0

    def test_constant_offset(self):
        v = np.array([1.0, -2.0, 3.0])
        assert rmse(v + 0.25, v) == pytest.approx(0.25, abs=1e-14)

    def test_relative_normalization(self):
        b = np.array([3.0, 4.0])  # rms = sqrt(12.5)
        a = b + np.array([0.5, -0.5])
        assert relative_error(a, b) == pytest.approx(0.5 / np.sqrt(12.5), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("n", [4, 16])
    def test_leading_axes_match_vector_calls(self, n):
        # each entry is the vector call's float, bit for bit
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(2, 3, 5, n))
        assert type(rmse(a[0, 0], b[0, 0])) is float
        assert type(relative_error(a[0, 0], b[0, 0])) is float
        for metric in (rmse, relative_error):
            assert metric(a, b).tolist() == [[metric(x, y) for x, y in zip(xs, ys)] for xs, ys in zip(a, b)]

    def test_any_zero_reference_row_raises(self):
        b = np.ones((2, 3))
        b[1] = 0.0
        with pytest.raises(ValueError, match="identically zero"):
            relative_error(np.zeros((2, 3)), b)

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.zeros(3))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"n_t": 1},
            {"dt": 0.0},
            {"dt": -1.0},
            {"nu": -0.05},
            {"length": 0.0},
            {"length": 1e-320},   # dx**2 underflows to 0
            {"length": 1e200},    # dx**2 overflows
            {"kappa": 1e200},     # kappa**2 overflows
            {"kappa": np.float64(1e200)},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ProblemSpec(**kwargs)

    def test_derived_quantities(self):
        spec = ProblemSpec(n=5, length=2.0)
        assert spec.dx == pytest.approx(0.5)
        assert spec.kappa == pytest.approx(np.pi)
        assert_allclose(spec.grid, [0.0, 0.5, 1.0, 1.5, 2.0])
