"""Forward-Euler block linear system for 1-D periodic advection-diffusion.

The velocity field u(x, t) obeys u_t = -u u_x + nu u_xx on x in [0, L]
with u(x, 0) = sin(kappa x), kappa = 2 pi / L. At linearization order one
the quadratic advection term drops out, leaving the periodic diffusion
stencil M with -2 nu / dx^2 on the diagonal and nu / dx^2 on the (cyclic)
neighbours, on the grid x_j = j L / (n - 1).

All N_T time levels are stacked into one block lower-bidiagonal system
A u = b (identity diagonal blocks, -(I + M dt) subdiagonal blocks), which
a single linear solve inverts into the full trajectory. Because the first
block row only restates the initial condition, it is dropped together
with its column, reducing the dimension from N_T * n to (N_T - 1) * n and
moving (I + M dt) u0 into the right-hand side.

The closed-form reference implemented here is u(x, t) =
exp(-kappa^2 nu t) sin(kappa x): the kappa^2 rate is the one that
actually solves the linearized equation (pure diffusion of a single
Fourier mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks

__all__ = [
    "ProblemSpec",
    "BlockSystem",
    "build_m",
    "initial_condition",
    "build_block_system",
    "classical_solve",
    "solve_unit_lower_triangular",
    "analytic_solution",
    "rmse",
    "relative_error",
    "fit_phi_degrees",
]


def _square(value) -> float:
    """value**2 as a Python float, inf where it overflows."""
    try:
        return float(value) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ProblemSpec:
    """Grid and physics parameters of one advection-diffusion run.

    kappa defaults to the fundamental wavenumber 2 pi / length of the
    periodic domain; override it only to probe other initial modes.
    """

    n: int = 4
    nu: float = 0.05
    length: float = 1.0
    dt: float = 0.25
    n_t: int = 3
    kappa: float | None = None

    def __post_init__(self):
        _checks.fields(self, _checks.integer, "n", "n_t", low=2)
        _checks.fields(self, _checks.real, "nu", low=0)
        _checks.fields(self, _checks.real, "dt", "length", positive=True)
        if self.kappa is not None:
            _checks.fields(self, _checks.real, "kappa")
        try:
            dx = self.dx
        except OverflowError:   # an n beyond the float range
            dx = 0.0
        if not 0.0 < _square(dx) < math.inf:
            raise ValueError(
                f"length={self.length} over n={self.n} points gives a grid spacing "
                f"dx={dx} whose square is not a positive finite number"
            )
        if self.kappa is None:
            object.__setattr__(self, "kappa", 2.0 * np.pi / self.length)
        if not _square(self.kappa) < math.inf:
            raise ValueError(
                f"kappa must have a finite square (the reference decays as "
                f"exp(-kappa**2 nu t)), got kappa={self.kappa}"
            )

    @property
    def dx(self) -> float:
        return self.length / (self.n - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


@dataclass(frozen=True)
class BlockSystem:
    """The stacked time-stepping system and its reduced form."""

    spec: ProblemSpec
    a_full: np.ndarray      # (n_t * n) x (n_t * n), block lower bidiagonal
    a_reduced: np.ndarray   # ((n_t - 1) * n) square, initial block dropped
    b_raw: np.ndarray       # ((I + M dt) u0, 0, ..., 0), unnormalized
    b_state: np.ndarray     # b_raw / ||b_raw||
    u0: np.ndarray


def build_m(spec: ProblemSpec) -> np.ndarray:
    """Periodic second-difference stencil scaled by the diffusion coefficient."""
    if spec.n < 3:
        raise ValueError(f"the periodic stencil needs n >= 3, got n={spec.n}")
    coupling = spec.nu / spec.dx**2
    m = np.zeros((spec.n, spec.n))
    i = np.arange(spec.n)
    m[i, i] = -2.0 * coupling
    m[i, (i + 1) % spec.n] += coupling
    m[i, (i - 1) % spec.n] += coupling
    return m


def initial_condition(spec: ProblemSpec) -> np.ndarray:
    """sin(kappa x_j) on the grid."""
    return np.sin(spec.kappa * spec.grid)


def _not_finite(spec: ProblemSpec, what: str) -> str:
    return (
        f"nu={spec.nu}, dt={spec.dt}, length={spec.length} and kappa={spec.kappa} "
        f"give {what} that is not finite (nu * dt / dx**2 = "
        f"{spec.nu * spec.dt / spec.dx**2:g} over n_t={spec.n_t} levels)"
    )


# overflow is reported by the finiteness check, not warned about
@np.errstate(over="ignore", invalid="ignore")
def build_block_system(spec: ProblemSpec) -> BlockSystem:
    """The stacked system of `spec` and its reduced form.

    Raises ValueError, naming the fields, when the system or the norm of
    its right-hand side is not finite, or when the right-hand side
    vanishes, before anything divides by its norm.
    """
    n, n_t = spec.n, spec.n_t
    m = build_m(spec)
    step = np.eye(n) + m * spec.dt
    eye = np.eye(n)

    a_full = np.zeros((n_t * n, n_t * n))
    for k in range(n_t):
        a_full[k * n:(k + 1) * n, k * n:(k + 1) * n] = eye
        if k:
            a_full[k * n:(k + 1) * n, (k - 1) * n:k * n] = -step

    a_reduced = a_full[n:, n:].copy()
    u0 = initial_condition(spec)
    b_raw = np.zeros((n_t - 1) * n)
    b_raw[:n] = step @ u0
    b_norm = float(np.linalg.norm(b_raw))
    if not (np.isfinite(a_full).all() and math.isfinite(b_norm)):
        raise ValueError(_not_finite(spec, "a system or right-hand side norm"))
    if b_norm == 0.0:
        raise ValueError(
            f"right-hand side (I + M dt) u0 vanishes for kappa={spec.kappa}, "
            f"nu={spec.nu}, dt={spec.dt}: the initial mode sin(kappa x) must not "
            "be zero on the grid"
        )
    return BlockSystem(
        spec=spec,
        a_full=a_full,
        a_reduced=a_reduced,
        b_raw=b_raw,
        b_state=b_raw / b_norm,
        u0=u0,
    )


def solve_unit_lower_triangular(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for a unit lower-triangular matrix."""
    n = rhs.size
    x = np.zeros(n)
    for i in range(n):
        x[i] = rhs[i] - lower[i, :i] @ x[:i]
    return x


@np.errstate(over="ignore", invalid="ignore")
def classical_solve(system: BlockSystem) -> np.ndarray:
    """Exact solution of the reduced system (concatenated u at t = dt, 2dt, ...).

    Raises ValueError, naming the fields, when its norm is not finite.
    """
    x = solve_unit_lower_triangular(system.a_reduced, system.b_raw)
    if not np.isfinite(np.linalg.norm(x)):
        raise ValueError(_not_finite(system.spec, "a classical solution norm"))
    return x


def analytic_solution(spec: ProblemSpec, t: float) -> np.ndarray:
    """Decaying single-mode reference: exp(-kappa^2 nu t) sin(kappa x)."""
    t = _checks.real("t", t, low=0)
    return np.exp(-spec.kappa**2 * spec.nu * t) * initial_condition(spec)


def _float_if_scalar(value: np.ndarray) -> float | np.ndarray:
    return float(value) if value.ndim == 0 else value


def rmse(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Root-mean-square of a - b over the last axis: a float for vectors,
    and over leading axes an array whose entries equal the vector calls.
    b has a's shape, or only its trailing axes: one reference for every
    leading row of a."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[a.ndim - b.ndim:] != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # np.mean's own sum and division, without its dispatch
    return _float_if_scalar(np.sqrt(np.add.reduce((a - b) ** 2, -1) / a.shape[-1]))


def relative_error(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """rmse(a, b) normalized by the RMS of the reference b, over leading
    axes like `rmse`."""
    b = np.asarray(b, dtype=float)
    return _float_if_scalar(_relative(rmse(a, b), b))


def _relative(error: float | np.ndarray, b: np.ndarray) -> np.ndarray:
    """An rmse against the reference b, normalized by the RMS of b."""
    reference_rms = np.sqrt(np.add.reduce(b**2, -1) / b.shape[-1])
    if not reference_rms.all():
        raise ValueError("reference vector is identically zero")
    return error / reference_rms


def fit_phi_degrees(b_state: np.ndarray) -> float:
    """Invert the two-block template for its rotation angle, in degrees.

    The template is (cos phi/2, -sin phi/2, sin phi/2, -cos phi/2, 0...0)
    / sqrt(2); averaging the paired components gives cos and sin of phi/2
    up to the common 1/sqrt(2) factor.
    """
    b_state = np.asarray(b_state, dtype=float)
    if b_state.size < 4:
        raise ValueError("need at least the four leading components")
    half_cos = (b_state[0] - b_state[3]) / np.sqrt(2.0)
    half_sin = (b_state[2] - b_state[1]) / np.sqrt(2.0)
    return float(np.degrees(2.0 * np.arctan2(half_sin, half_cos)))
