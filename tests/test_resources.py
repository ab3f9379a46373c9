import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advqls.resources import (
    SWEEP_CSV_HEADER,
    ForecastConfig,
    cfl_timestep,
    grid_points,
    qubit_count,
    sweep,
    vector_dimension,
)

REFERENCE = ForecastConfig(horizontal_resolution_deg=5.0, tau=3)


class TestCflTimestep:
    def test_reference_configuration(self):
        dt, n_t = cfl_timestep(REFERENCE)
        assert abs(dt - 5574.0) / 5574.0 <= 0.01
        assert n_t == 156

    def test_linear_in_speed(self):
        dt_fast, _ = cfl_timestep(ForecastConfig(5.0, tau=1, u_max=200.0))
        dt_ref, _ = cfl_timestep(REFERENCE)
        assert dt_fast == pytest.approx(dt_ref / 2.0)

    def test_one_degree(self):
        dt, _ = cfl_timestep(ForecastConfig(1.0, tau=1))
        assert dt == pytest.approx(1113.2, abs=0.5)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            cfl_timestep(ForecastConfig(5.0, tau=1, u_max=0.0))


class TestVectorDimension:
    def test_linear_truncation(self):
        assert vector_dimension(4, 1, 3) == 12

    def test_reference_global_case(self):
        n = grid_points(REFERENCE)
        assert n == 12960
        _, n_t = cfl_timestep(REFERENCE)
        dim = vector_dimension(n, 3, n_t)
        # oracle: exact integer geometric sum
        assert dim == n_t * n * (n**3 - 1) // (n - 1)
        assert 1e14 <= dim <= 1e16  # order 1e15
        assert qubit_count(dim) == 49

    def test_hand_arithmetic(self):
        assert vector_dimension(2, 2, 1) == 6

    def test_exact_integer_at_scale(self):
        dim = vector_dimension(12960, 5, 156)
        assert isinstance(dim, int)
        assert dim > 2**63  # exceeds 64-bit range, must not overflow

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            vector_dimension(1, 2, 3)
        with pytest.raises(ValueError):
            vector_dimension(4, 0, 3)

    @given(st.integers(2, 50), st.integers(1, 8), st.integers(1, 100))
    @settings(max_examples=100, deadline=None)
    def test_geometric_sum_always_integral(self, n, tau, n_t):
        dim = vector_dimension(n, tau, n_t)
        assert dim == n_t * sum(n**k for k in range(1, tau + 1))


class TestQubitCount:
    @pytest.mark.parametrize("dim,expected", [(1, 0), (2, 1), (8, 3), (9, 4), (1024, 10)])
    def test_values(self, dim, expected):
        assert qubit_count(dim) == expected

    def test_power_of_two_boundaries(self):
        for k in range(1, 60):
            assert qubit_count(2**k) == k
            assert qubit_count(2**k + 1) == k + 1

    def test_order_1e15(self):
        assert qubit_count(10**15) == 50

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qubit_count(0)


class TestSweep:
    def test_single_entry_matches_pointwise_ops(self):
        rows = sweep(REFERENCE, [5.0])
        assert len(rows) == 1
        row = rows[0]
        dt, n_t = cfl_timestep(REFERENCE)
        assert row.dt_s == pytest.approx(dt)
        assert row.n_t == n_t
        assert row.n == grid_points(REFERENCE)
        assert row.dimension == vector_dimension(row.n, 3, n_t)
        assert row.qubits == qubit_count(row.dimension)
        assert row.as_csv_row() == [
            5.0, row.dt_s, row.n_t, row.n, row.dimension, row.qubits,
        ]

    def test_monotone_in_resolution(self):
        rows = sweep(REFERENCE, [5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
        dims = [r.dimension for r in rows]
        qubits = [r.qubits for r in rows]
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert all(a <= b for a, b in zip(qubits, qubits[1:]))

    def test_dimension_span_and_header(self):
        rows = sweep(REFERENCE, [5.0, 0.5])
        assert math.log10(rows[0].dimension) >= 14
        assert math.log10(rows[-1].dimension) >= 20
        assert SWEEP_CSV_HEADER == ["resolution_deg", "dt_s", "n_t", "n", "dimension", "qubits"]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            sweep(REFERENCE, [])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizontal_resolution_deg": 0.0, "tau": 1},
            {"horizontal_resolution_deg": 5.0, "tau": 0},
            {"horizontal_resolution_deg": 5.0, "tau": 1, "vertical_levels": 0},
            {"horizontal_resolution_deg": 5.0, "tau": 1, "cfl": 0.0},
            {"horizontal_resolution_deg": float("nan"), "tau": 1},
            {"horizontal_resolution_deg": 5.0, "tau": 1, "forecast_length_s": float("inf")},
            {"horizontal_resolution_deg": 5.0, "tau": 1, "u_max": True},
            {"horizontal_resolution_deg": 5.0, "tau": 1, "u_max": -1.0},
            {"horizontal_resolution_deg": 5.0, "tau": 1, "km_per_degree": "111"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ForecastConfig(**kwargs)

    def test_tau_is_required(self):
        with pytest.raises(TypeError):
            ForecastConfig(horizontal_resolution_deg=5.0)  # no silent tau default
