"""Simultaneous Perturbation Stochastic Approximation.

Gain sequences follow Spall's standard form a_k = a / (k + 1 + A)^alpha,
c_k = c / (k + 1)^gamma. Each step estimates the full gradient from two
cost evaluations at theta +/- c_k * Delta with a Rademacher Delta, then
updates theta and wraps every component into [0, 2 pi).

`step` and `run` share one update core, which takes the costs of both
points from one `pair_cost` call on their (2, P) stack. `step` makes it
two scalar `cost_fn` calls; a caller of `run` with a batched cost (such
as `vqls.solve`) evaluates both points at once. `run` draws Delta for up
to 64 iterations at a time, in rows equal to the per-step draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = ["SpsaConfig", "SpsaResult", "gains", "step", "run"]

_STOP_RULES = ("diff", "threshold", "none")

# costs of the two rows of a (2, P) point stack
PairCost = Callable[[np.ndarray], Sequence[float]]


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
    seed: int = 0
    stop_rule: str = "diff"

    def __post_init__(self):
        for name in ("patience", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "gamma", "A", "a", "c", "tol"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and -math.inf < value < math.inf):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("alpha and gamma must be positive")
        if self.c <= 0:
            raise ValueError("perturbation size c must be positive")
        if self.A <= -1:
            # a_k = a / (k + 1 + A)^alpha needs k + 1 + A > 0 from k = 0
            raise ValueError(f"stability offset A must be > -1, got {self.A!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.stop_rule not in _STOP_RULES:
            raise ValueError(f"stop_rule must be one of {_STOP_RULES}")

    def with_overrides(self, **kwargs) -> "SpsaConfig":
        return replace(self, **kwargs)


@dataclass
class SpsaResult:
    theta: np.ndarray
    cost_trace: list[float]
    converged: bool

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


# rows of the (2, P) point stack: theta + c_k Delta, then theta - c_k Delta
_SIGNS = np.array([[1.0], [-1.0]])
# iterations whose Delta `run` draws in one call
_DELTA_BLOCK = 64


def _pairwise(cost_fn: Callable[[np.ndarray], float]) -> PairCost:
    """A pair cost that makes two scalar `cost_fn` calls, + then -."""
    return lambda points: (cost_fn(points[0]), cost_fn(points[1]))


def _advance(
    theta: np.ndarray, pair_cost: PairCost, k: int, cfg: SpsaConfig, delta: np.ndarray
) -> tuple[np.ndarray, float]:
    """The update of iteration k along the Rademacher direction `delta`."""
    a_k, c_k = gains(k, cfg)
    perturbation = c_k * delta
    cost_plus, cost_minus = pair_cost(theta + _SIGNS * perturbation)
    gradient = (cost_plus - cost_minus) / (2.0 * perturbation)
    theta_next = (theta - a_k * gradient) % (2.0 * np.pi)
    return theta_next, 0.5 * (cost_plus + cost_minus)


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
    delta = rng.integers(0, 2, size=theta.size) * 2 - 1
    return _advance(theta, _pairwise(cost_fn), k, cfg, delta)


def run(
    theta_init: Sequence[float],
    cost_fn: Callable[[np.ndarray], float],
    cfg: SpsaConfig,
    rng: np.random.Generator | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
    *,
    pair_cost: PairCost | None = None,
) -> SpsaResult:
    """Iterate the SPSA update until the stopping rule fires or max_iter
    is reached.

    cost_trace[0] is the cost at theta_init (one extra evaluation beyond
    the two per iteration), so traces always carry an iteration-0 row.
    `cost_fn` evaluates theta_init; each iteration's two points come as
    one (2, P) stack, theta + c_k Delta then theta - c_k Delta, to
    `pair_cost`, which returns their two costs (by default two
    `cost_fn` calls, in that order). The result equals a loop of `step`
    calls on the same generator bit for bit.

    Delta is drawn for up to 64 iterations at a time with one
    `rng.integers` call, whose rows equal the per-step draws. A run that
    stops early has drawn ahead, so the generator's state after `run`
    is unspecified.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if pair_cost is None:
        pair_cost = _pairwise(cost_fn)
    theta = np.asarray(theta_init, dtype=float).copy()
    trace = [float(cost_fn(theta))]
    if callback is not None:
        callback(0, theta, trace[0])
    streak = 0
    for k in range(cfg.max_iter):
        row = k % _DELTA_BLOCK
        if row == 0:
            rows = min(_DELTA_BLOCK, cfg.max_iter - k)
            deltas = rng.integers(0, 2, size=(rows, theta.size)) * 2 - 1
        theta, estimate = _advance(theta, pair_cost, k, cfg, deltas[row])
        trace.append(float(estimate))
        if callback is not None:
            callback(k + 1, theta, trace[-1])
        if cfg.stop_rule == "diff":
            within = abs(trace[-1] - trace[-2]) < cfg.tol
        elif cfg.stop_rule == "threshold":
            within = trace[-1] < cfg.tol
        else:
            within = False
        streak = streak + 1 if within else 0
        if streak >= cfg.patience:
            return SpsaResult(theta, trace, True)
    return SpsaResult(theta, trace, False)
