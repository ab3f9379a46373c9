"""Qubit-resource estimates for global forecast-scale linear systems.

Sizing follows the linearization bookkeeping: n coupled equations
truncated at monomial order tau over N_T time levels span

    N = N_T * n * (n^tau - 1) / (n - 1)

states. The geometric-sum factor is exact integer arithmetic (the
dimensions at sub-degree resolutions overflow 64-bit floats), and the
register size is ceil(log2 N). The time step comes from the CFL
condition at the chosen grid spacing and maximum signal speed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from . import _checks

__all__ = [
    "ForecastConfig",
    "MAX_TAU",
    "MAX_DIMENSION_BITS",
    "SweepRow",
    "SWEEP_CSV_HEADER",
    "cfl_timestep",
    "grid_points",
    "vector_dimension",
    "qubit_count",
    "sweep",
]

SECONDS_PER_DAY = 86_400.0

# Largest truncation order accepted.
MAX_TAU = 100

# Integers below 2^14284 have at most the 4300 digits Python prints by default.
MAX_DIMENSION_BITS = 14_284


@dataclass(frozen=True)
class ForecastConfig:
    """Global forecast model shape driving the estimate.

    tau has no default on purpose: the truncation order dominates the
    dimension and must be chosen explicitly; it is capped at `MAX_TAU`.
    """

    horizontal_resolution_deg: float
    tau: int
    vertical_levels: int = 1
    prognostic_variables: int = 5
    forecast_length_s: float = 10 * SECONDS_PER_DAY
    u_max: float = 100.0
    cfl: float = 1.0
    km_per_degree: float = 111.32

    def __post_init__(self):
        reals = ("horizontal_resolution_deg", "forecast_length_s", "u_max", "cfl", "km_per_degree")
        _checks.fields(self, _checks.real, *reals, positive=True)
        _checks.fields(self, _checks.integer, "tau", low=1, high=MAX_TAU)
        _checks.fields(self, _checks.integer, "vertical_levels", "prognostic_variables", low=1)


def cfl_timestep(cfg: ForecastConfig) -> tuple[float, int]:
    """(dt seconds, number of time levels including zero). A dt that
    underflows to 0 or overflows to inf raises ValueError."""
    grid_spacing_m = cfg.horizontal_resolution_deg * cfg.km_per_degree * 1000.0
    dt = cfg.cfl * grid_spacing_m / cfg.u_max
    if not 0.0 < dt < float("inf"):
        raise ValueError(
            f"resolution {cfg.horizontal_resolution_deg} deg with cfl={cfg.cfl} and "
            f"u_max={cfg.u_max} gives a CFL time step of {dt} s, not a positive finite number"
        )
    n_t = int(cfg.forecast_length_s // dt) + 1
    return dt, n_t


def grid_points(cfg: ForecastConfig) -> int:
    """Unknowns per time level: variables x levels x lon cells x lat cells."""
    lon = round(360.0 / cfg.horizontal_resolution_deg)
    lat = round(180.0 / cfg.horizontal_resolution_deg)
    return cfg.prognostic_variables * cfg.vertical_levels * lon * lat


def vector_dimension(n: int, tau: int, n_t: int) -> int:
    """Exact N = n_t * n * (n^tau - 1) / (n - 1) for integers n >= 2,
    1 <= tau <= MAX_TAU and n_t >= 1."""
    n = _checks.integer("n", n, low=2)
    tau = _checks.integer("tau", tau, 1, MAX_TAU)
    n_t = _checks.integer("n_t", n_t, low=1)
    return n_t * n * ((n**tau - 1) // (n - 1))


def qubit_count(dimension: int) -> int:
    """Smallest register whose Hilbert space holds `dimension` states."""
    return (_checks.integer("dimension", dimension, low=1) - 1).bit_length()


@dataclass(frozen=True)
class SweepRow:
    resolution_deg: float
    dt_s: float
    n_t: int
    n: int
    dimension: int
    qubits: int

    def as_csv_row(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


# the estimate CSV's columns: the fields of `SweepRow`, in order
SWEEP_CSV_HEADER = [f.name for f in fields(SweepRow)]


def sweep(cfg_template: ForecastConfig, resolutions: list[float]) -> list[SweepRow]:
    """Apply the estimate at each horizontal resolution."""
    if not resolutions:
        raise ValueError("resolution list is empty")
    rows = []
    for resolution in resolutions:
        cfg = replace(cfg_template, horizontal_resolution_deg=resolution)
        try:
            dt, n_t = cfl_timestep(cfg)
            n = grid_points(cfg)
        except OverflowError:
            raise ValueError(
                f"resolution {resolution} deg is too fine: its grid overflows a float"
            ) from None
        if n < 2:  # a grid coarser than one cell
            raise ValueError(f"resolution {resolution} deg: need n >= 2 coupled equations, got {n}")
        dimension = vector_dimension(n, cfg.tau, n_t)
        if dimension.bit_length() > MAX_DIMENSION_BITS:
            raise ValueError(
                f"resolution {resolution} deg gives a dimension too long to print "
                f"({dimension.bit_length()} bits, at most {MAX_DIMENSION_BITS})"
            )
        rows.append(
            SweepRow(
                resolution_deg=resolution,
                dt_s=dt,
                n_t=n_t,
                n=n,
                dimension=dimension,
                qubits=qubit_count(dimension),
            )
        )
    return rows
