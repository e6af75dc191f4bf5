"""Insurance premia under the standard-deviation loading principle.

The premium for an aggregate loss L is E[L] + theta * sd(L). Both reports are
deterministic. The no-investment baseline is exact, from the total-variance
decomposition. The optimal-policy report takes both moments of the loss under
the solved policy from one coupled linear backward solve on the policy's own
grid, so it needs no paths, seed or worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .breach import BreachModel
from .dynamics import CostParams, _check_initial_level, expected_loss_no_investment, loss_variance
from .hawkes import HawkesParams
from .hjb import PolicyField, _check_field_inputs, _check_in_grid, _lookup, _loss_surfaces, _pair_schedule

__all__ = [
    "PremiumReport",
    "premium",
    "premium_report_baseline",
    "premium_report_optimal",
    "prevention_gap",
]


def premium(expected_loss: float, loss_std: float, theta: float) -> float:
    """Loaded premium: expected loss plus theta times the loss standard deviation."""
    if expected_loss < 0 or loss_std < 0 or theta < 0:
        raise ValueError("expected loss, loss dispersion and loading must be nonnegative")
    return expected_loss + theta * loss_std


@dataclass(frozen=True)
class PremiumReport:
    """Priced loss distribution of one policy at one loading factor."""

    policy_label: str
    expected_loss: float
    loss_std: float
    theta: float
    mc_paths: int
    standard_errors: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.loss_std < 0 or self.theta < 0:
            raise ValueError("loss dispersion and loading must be nonnegative")

    @property
    def premium(self) -> float:
        return premium(self.expected_loss, self.loss_std, self.theta)


def premium_report_baseline(
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    theta: float,
    mc_paths: int = 0,
    seed: int = 0,
) -> PremiumReport:
    """No-investment benchmark: closed-form mean and exact dispersion.

    The report is deterministic; `mc_paths` and `seed` are accepted for call
    compatibility and do not affect it.
    """
    e0 = expected_loss_no_investment(hawkes, model, costs)
    return PremiumReport(
        policy_label="no-investment",
        expected_loss=float(e0),
        loss_std=math.sqrt(loss_variance(hawkes, model, costs)),
        theta=float(theta),
        mc_paths=0,
        standard_errors={"expected_loss": 0.0, "loss_std": 0.0},
    )


def premium_report_optimal(
    policy_field: PolicyField,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    theta: float,
    mc_paths: int = 0,
    seed: int = 0,
    h_init: float = 0.0,
    threads: int = 1,
) -> PremiumReport:
    """Price the solved dynamic policy from the state (hawkes.lambda0, h_init) at t = 0.

    Both moments come from one linear backward solve under the stored policy
    (hjb._loss_surfaces), of the pair u, the expected number of breaches, and
    B, whose coupling to u is lambda p(h) (J u): E[L] = eta_mean u and
    E[L^2] = (eta_var + eta_mean^2) u + 2 eta_mean^2 B, read off at the start
    state by hjb's bilinear lookup; a start state off the field's box raises
    ValueError. The report depends on the mark distribution only through
    eta_mean and eta_var. The surfaces are kept on the field object
    (PolicyField.loss_surfaces), so a report on the same field at another
    eta_var or start state costs two interpolations. The report carries the
    discretization error of the field's grid and no sampling error: its
    standard errors are 0, and `mc_paths`, `seed` and `threads` are accepted
    for call compatibility and do not affect it. `diagnostics` records the
    pair's scheme, "douglas-adi-2dt" (implicit steps of one snapshot interval,
    then Douglas steps of two), and its number of steps.
    """
    _check_field_inputs(policy_field.meta, hawkes, model, costs)
    _check_initial_level(h_init)
    grid = policy_field.grid
    _check_in_grid(grid, hawkes.lambda0, h_init)
    surfaces = policy_field.loss_surfaces
    if not surfaces:
        surfaces["u"], surfaces["b"] = _loss_surfaces(policy_field)
    u, b = (_lookup(grid, surfaces[name], hawkes.lambda0, h_init) for name in ("u", "b"))
    m = costs.eta_mean
    mean = m * u
    second = (costs.eta_var + m * m) * u + 2.0 * m * m * b
    return PremiumReport(
        policy_label="optimal-dynamic",
        expected_loss=mean,
        loss_std=math.sqrt(second - mean * mean),
        theta=float(theta),
        mc_paths=0,
        standard_errors={"expected_loss": 0.0, "loss_std": 0.0},
        diagnostics={
            "method": "frozen-policy-pide",
            "scheme": "douglas-adi-2dt",
            "steps": len(_pair_schedule(grid.t_snapshots)),
            "time_steps": grid.time_steps,
        },
    )


def prevention_gap(baseline: PremiumReport, optimal: PremiumReport) -> tuple:
    """Percentage reductions (premium, dispersion) of the optimal policy."""
    if baseline.theta != optimal.theta:
        raise ValueError("reports use different loading factors")
    if baseline.premium <= 0 or baseline.loss_std <= 0:
        raise ValueError("baseline premium and dispersion must be positive")
    dp = 100.0 * (1.0 - optimal.premium / baseline.premium)
    ds = 100.0 * (1.0 - optimal.loss_std / baseline.loss_std)
    return dp, ds
