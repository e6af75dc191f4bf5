"""Constant-intensity (Poisson) benchmark: the 1-d deterministic control problem.

With memoryless arrivals the value function loses its intensity argument and
solves a plain PDE in (t, h). It is solved here as a degenerate configuration
of the 2-d kernel: a single intensity node, on which the intensity drift
vanishes and the jump shift is the identity. The one-node axis is what marks
a constant-intensity field; its node is the intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .breach import BreachModel
from .dynamics import CostParams
from .hawkes import HawkesParams
from .hjb import PolicyField, SolverGrid, SolverOptions, ValueField, solve

__all__ = [
    "PoissonField",
    "lambda_baseline",
    "lambda_expectation_matched",
    "solve_poisson",
]


@dataclass(frozen=True)
class PoissonField:
    """Solved 1-d benchmark field: V^P(t, h), z^P*(t, h) at constant intensity.

    level_paths holds what strategies.gain_vs_poisson computes once per start
    (t, h): the benchmark's level path, which does not depend on the starting
    intensity. The fields fix the model and the costs.
    """

    value: ValueField
    policy: PolicyField
    quality: dict
    level_paths: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def grid(self) -> SolverGrid:
        return self.value.grid

    @property
    def intensity(self) -> float:
        """The constant intensity: the one node of the intensity axis."""
        return float(self.grid.lambda_min)

    def values2d(self) -> np.ndarray:
        """V^P as (snapshot, h)."""
        return self.value.values[:, 0, :]

    def controls2d(self) -> np.ndarray:
        return self.policy.controls[:, 0, :]


def lambda_baseline(hawkes: HawkesParams) -> float:
    """Benchmark intensity matching only the starting intensity."""
    return float(hawkes.lambda0)


def lambda_expectation_matched(hawkes: HawkesParams, horizon: float) -> float:
    """Constant intensity generating the same expected attack count over the horizon.

    Uses the fixed-form expression with discount e^{-xi T}; it differs from the
    exact mean count divided by T (discount e^{-(xi-beta) T}) by about 0.02
    events/year at the default parameters. Both conventions are exposed: the
    exact average is expected_count(hawkes, T)/T.
    """
    lam0, xi, beta = hawkes.lambda0, hawkes.xi, hawkes.beta
    k = xi - beta
    lstar = lam0 * xi / k
    return lstar + (1.0 - math.exp(-xi * horizon)) / (horizon * k) * (lam0 - lstar)


def solve_poisson(
    grid: SolverGrid,
    lambda_p: float,
    model: BreachModel,
    costs: CostParams,
    options: Optional[SolverOptions] = None,
) -> PoissonField:
    """Solve the constant-intensity problem on the h-grid of `grid`.

    The lambda dimension of `grid` is ignored; a single-node intensity axis at
    lambda_p is substituted so the 2-d kernel degenerates to the 1-d PDE.
    `options` is accepted and ignored (see hjb.SolverOptions).
    """
    if lambda_p <= 0:
        raise ValueError("benchmark intensity must be positive")
    degenerate = replace(grid, lambda_min=lambda_p, lambda_max=lambda_p, d_lambda=max(grid.d_lambda, 1.0))
    # beta = 0 kills the nonlocal term; alpha = lambda_p kills the drift.
    constant = HawkesParams(alpha=lambda_p, lambda0=lambda_p, xi=1.0, beta=0.0)
    res = solve(degenerate, constant, model, costs)
    return PoissonField(res.value, res.policy, res.quality)
