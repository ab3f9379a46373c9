"""Simultaneous Perturbation Stochastic Approximation.

Gain sequences follow Spall's standard form a_k = a / (k + 1 + A)^alpha,
c_k = c / (k + 1)^gamma. Each step estimates the full gradient from two
cost evaluations at theta +/- c_k * Delta with a Rademacher Delta, then
updates theta and wraps every component into [0, 2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = ["SpsaConfig", "SpsaResult", "gains", "step", "run"]

_STOP_RULES = ("diff", "threshold", "none")


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
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("alpha and gamma must be positive")
        if self.c <= 0:
            raise ValueError("perturbation size c must be positive")
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
    delta = rng.integers(0, 2, size=theta.size) * 2 - 1
    cost_plus = cost_fn(theta + c_k * delta)
    cost_minus = cost_fn(theta - c_k * delta)
    gradient = (cost_plus - cost_minus) / (2.0 * c_k * delta)
    theta_next = (theta - a_k * gradient) % (2.0 * np.pi)
    return theta_next, 0.5 * (cost_plus + cost_minus)


def run(
    theta_init: Sequence[float],
    cost_fn: Callable[[np.ndarray], float],
    cfg: SpsaConfig,
    rng: np.random.Generator | None = None,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> SpsaResult:
    """Iterate `step` until the stopping rule fires or max_iter is reached.

    cost_trace[0] is the cost at theta_init (one extra evaluation beyond
    the two per iteration), so traces always carry an iteration-0 row.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    theta = np.asarray(theta_init, dtype=float).copy()
    trace = [float(cost_fn(theta))]
    if callback is not None:
        callback(0, theta, trace[0])
    streak = 0
    for k in range(cfg.max_iter):
        theta, estimate = step(theta, cost_fn, k, cfg, rng)
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
