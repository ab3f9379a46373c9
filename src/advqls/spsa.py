"""Simultaneous Perturbation Stochastic Approximation.

Gain sequences follow Spall's standard form a_k = a / (k + 1 + A)^alpha,
c_k = c / (k + 1)^gamma. Each step estimates the full gradient from two
cost evaluations at theta +/- c_k * Delta with a Rademacher Delta, then
updates theta and wraps every component into [0, 2 pi).

`step` is one update on a scalar cost, two `cost_fn` calls. The
iteration loop is `run_lockstep`: it steps M parameter vectors at once,
each drawing Delta from its own generator, and hands every iteration's
points to one batched cost call as the (2, m, P) stack of the m vectors
still running. A vector whose stopping rule fires drops out of the
stack. Delta is drawn for up to 64 iterations at a time, in rows equal
to the per-step draws, and the update is elementwise, so every vector's
result equals a loop of `step` calls on its generator bit for bit. One
history of the iterations run gives every vector its `cost_trace` and
`theta_trace`, which hold every iterate and cost estimate. `run` is the
one-vector case on a scalar cost. Every entry point takes its
generators from the caller; none seeds one itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _checks

__all__ = ["SpsaConfig", "SpsaResult", "gains", "step", "run", "run_lockstep"]

_STOP_RULES = ("diff", "threshold", "none")

# costs, shape (..., m), of points (..., m, P) of the m running vectors,
# which the second argument names by their rows of theta_init
BatchCost = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SpsaConfig:
    """Hyperparameters and stopping policy.

    stop_rule selects what "5 successive iterations within tolerance"
    compares:

    * "diff": |C_k - C_{k-1}| < tol (successive-difference reading);
    * "threshold": C_k < tol (absolute reading). In noise-free runs the
      difference rule fires long before the cost has plateaued, so
      solvers built on top of this module default to "threshold";
    * "none": run to max_iter.
    """

    alpha: float = 0.602
    gamma: float = 0.101
    A: float = 10.0
    a: float = 4.0
    c: float = 0.1
    tol: float = 2e-2
    patience: int = 5
    max_iter: int = 500
    stop_rule: str = "diff"

    def __post_init__(self):
        _checks.fields(self, _checks.integer, "patience", low=1)
        _checks.fields(self, _checks.integer, "max_iter", low=0)
        _checks.fields(self, _checks.real, "alpha", "gamma", "c", positive=True)
        _checks.fields(self, _checks.real, "A", "a", "tol")
        if self.A <= -1:
            # a_k = a / (k + 1 + A)^alpha needs k + 1 + A > 0 from k = 0
            raise ValueError(f"A must be > -1 (the stability offset), got {self.A!r}")
        if self.stop_rule not in _STOP_RULES:
            raise ValueError(f"stop_rule must be one of {_STOP_RULES}, got {self.stop_rule!r}")

    def with_overrides(self, **kwargs) -> "SpsaConfig":
        return replace(self, **kwargs)


@dataclass
class SpsaResult:
    cost_trace: list[float]
    converged: bool
    theta_trace: np.ndarray   # (iterations + 1, P): theta_0 .. theta

    @property
    def theta(self) -> np.ndarray:
        return self.theta_trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.cost_trace) - 1


def gains(k: int, cfg: SpsaConfig) -> tuple[float, float]:
    """(a_k, c_k) for iteration index k >= 0."""
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    a_k = cfg.a / (k + 1 + cfg.A) ** cfg.alpha
    c_k = cfg.c / (k + 1) ** cfg.gamma
    return a_k, c_k


# rows of the (2, m, P) point stack: theta + c_k Delta, then theta - c_k Delta
_SIGNS = np.array([1.0, -1.0])[:, None, None]
# iterations whose Delta each vector draws in one call
_DELTA_BLOCK = 64


def step(
    theta: np.ndarray,
    cost_fn: Callable[[np.ndarray], float],
    k: int,
    cfg: SpsaConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One SPSA update; exactly two cost evaluations.

    Returns the wrapped next iterate and the mean of the two perturbed
    costs as the iteration's cost estimate.
    """
    a_k, c_k = gains(k, cfg)
    perturbation = c_k * (rng.integers(0, 2, size=theta.size) * 2 - 1)
    cost_plus = cost_fn(theta + perturbation)
    cost_minus = cost_fn(theta - perturbation)
    gradient = (cost_plus - cost_minus) / (2.0 * perturbation)
    return (theta - a_k * gradient) % (2.0 * np.pi), 0.5 * (cost_plus + cost_minus)


def run(
    theta_init: Sequence[float],
    cost_fn: Callable[[np.ndarray], float],
    cfg: SpsaConfig,
    rng: np.random.Generator,
) -> SpsaResult:
    """Iterate the SPSA update, drawing Delta from `rng`, until the
    stopping rule fires or max_iter is reached.

    cost_trace[0] is the cost at theta_init (one extra evaluation beyond
    the two per iteration), so traces always carry an iteration-0 row.
    Each iteration calls `cost_fn` on theta + c_k Delta, then on
    theta - c_k Delta. This is the one-vector case of `run_lockstep`,
    so the result equals a loop of `step` calls on the same generator
    bit for bit, and the generator's state after `run` is unspecified.
    """
    theta = np.asarray(theta_init, dtype=float)

    def cost(points, _rows):
        flat = [cost_fn(x) for x in points.reshape(-1, theta.size)]
        return np.array(flat, dtype=float).reshape(points.shape[:-1])

    return run_lockstep(theta[None], cost, cfg, [rng])[0]


def run_lockstep(
    theta_init: np.ndarray,
    cost: BatchCost,
    cfg: SpsaConfig,
    rngs: Sequence[np.random.Generator],
) -> list[SpsaResult]:
    """Run SPSA on each row of the (M, P) `theta_init` in lockstep, row i
    drawing Delta from `rngs[i]`.

    `cost(points, rows)` gets one stack of points of the m rows still
    running, named by the index array `rows`: their (m, P) starting
    vectors once, then every iteration's (2, m, P) stack, theta + c_k Delta
    over theta - c_k Delta. It returns their costs as an array of shape
    (m,) or (2, m). A row leaves the stack after the iteration on which
    its stopping rule fires. Delta is drawn for up to 64 iterations at a
    time with one `integers` call per row, whose rows equal the per-step
    draws, so a row that stops early has drawn ahead.

    Each iteration appends (rows, theta, cost estimates) to one history,
    which grows with the iterations run, never with `max_iter`. Returns
    one `SpsaResult` per row of `theta_init`, its traces split out of the
    history by one stable sort of the row ids: `theta_trace` and
    `cost_trace` hold every iterate and cost estimate from k = 0.
    """
    theta = np.array(theta_init, dtype=float)
    if theta.ndim != 2 or len(rngs) != len(theta):
        raise ValueError(
            f"need (M, P) starting vectors and M generators, got shape "
            f"{theta.shape} and {len(rngs)} generators"
        )
    rows = np.arange(len(theta))
    estimate = np.array(cost(theta, rows), dtype=float)
    history = [(rows, theta, estimate)]   # (rows, theta_k, C_k) per iteration k
    converged = np.zeros(len(theta), dtype=bool)
    streak = np.zeros(len(theta), dtype=int)
    for k in range(cfg.max_iter):
        row = k % _DELTA_BLOCK
        if row == 0:
            # the block's gains, then from its perturbations c_k Delta_k the
            # offsets of both points and the divisors 2 c_k Delta_k
            block = [gains(j, cfg) for j in range(k, min(k + _DELTA_BLOCK, cfg.max_iter))]
            size = (len(block), theta.shape[1])
            deltas = np.stack([rngs[i].integers(0, 2, size=size) for i in rows], 1) * 2 - 1
            perturbations = np.array([c_j for _, c_j in block])[:, None, None] * deltas
            offsets, divisors = _SIGNS * perturbations[:, None], 2.0 * perturbations
        pair = cost(theta + offsets[row], rows)
        gradient = (pair[0] - pair[1])[:, None] / divisors[row]
        a_k = block[row][0]
        theta = (theta - a_k * gradient) % (2.0 * np.pi)
        previous, estimate = estimate, 0.5 * (pair[0] + pair[1])
        history.append((rows, theta, estimate))
        if cfg.stop_rule == "none":
            continue
        within = (np.abs(estimate - previous) if cfg.stop_rule == "diff" else estimate) < cfg.tol
        streak = (streak + 1) * within
        done = streak >= cfg.patience
        if np.count_nonzero(done):
            converged[rows[done]] = True
            keep = ~done
            theta, rows, estimate, streak = theta[keep], rows[keep], estimate[keep], streak[keep]
            offsets, divisors = offsets[:, :, keep], divisors[:, keep]
            if not rows.size:
                break

    # every row's entries, row by row in iteration order
    owner, thetas, costs = (np.concatenate(column) for column in zip(*history))
    order = np.argsort(owner, kind="stable")
    bounds = np.cumsum(np.bincount(owner, minlength=len(converged)))[:-1]
    return [
        SpsaResult(cost_trace.tolist(), bool(stopped), theta_trace)
        for theta_trace, cost_trace, stopped
        in zip(np.split(thetas[order], bounds), np.split(costs[order], bounds), converged)
    ]
