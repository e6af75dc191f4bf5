"""Insurance premia under the standard-deviation loading principle.

The premium for an aggregate loss L is E[L] + theta * sd(L). The
no-investment baseline is exact, from the total-variance decomposition; the
optimal-policy report simulates attacks, extracts the solved policy along
each path, and prices the resulting losses. It streams the paths in
CHUNK_PATHS chunks, so its memory does not grow with the batch beyond a few
per-path numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .breach import BreachModel, breach_prob
from .dynamics import (
    CostParams,
    LossBatch,
    _control_levels,
    _draw_losses,
    _eta_sampler,
    expected_loss_no_investment,
    loss_variance,
)
from .errors import ConfigError
from .hawkes import HawkesParams, PathBatch, _chunk_jobs, _map_chunks, _simulate_chunk
from .hjb import PolicyField
from .strategies import _euler_walk, _snapshot_times

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
        loss_std=math.sqrt(loss_variance(hawkes, model, costs).value),
        theta=float(theta),
        mc_paths=0,
        standard_errors={"expected_loss": 0.0, "loss_std": 0.0},
    )


def _check_field_inputs(policy_field: PolicyField, hawkes, model, costs):
    meta = policy_field.meta
    problems = []
    if meta.hawkes != hawkes:
        problems.append(f"field solved for {meta.hawkes}, got {hawkes}")
    if meta.model != model:
        problems.append(f"field solved for {meta.model}, got {model}")
    same_objective = (
        meta.costs.gamma == costs.gamma
        and meta.costs.eta_mean == costs.eta_mean
        and meta.costs.rho == costs.rho
        and meta.costs.horizon == costs.horizon
        and meta.costs.delta == costs.delta
        and meta.costs.terminal_utility == costs.terminal_utility
    )
    # eta_var / eta_family may differ: the objective depends on the loss
    # distribution only through its mean.
    if not same_objective:
        problems.append("field objective parameters differ from the requested costs")
    if problems:
        raise ConfigError(problems)


def _optimal_chunk(shared, job):
    """Per-path counts, per-event breach probabilities and per-path terminal
    levels of one chunk of paths under the solved policy, and its counts."""
    policy_field, hawkes, horizon, model, rho, h_init = shared
    *flat, candidates = _simulate_chunk((hawkes, horizon), job)
    batch = PathBatch(hawkes, horizon, *flat)
    times, snap_idx = _snapshot_times(policy_field, 0.0)
    controls, clamped_lambda, clamped_h = _euler_walk(
        policy_field, times, snap_idx, batch.intensity_on_grid(times), h_init
    )
    levels, terminal_h = _control_levels(batch, times, controls, h_init, rho)
    probs = breach_prob(model, levels) if levels.size else np.zeros(0)
    tally = {
        "events": int(batch.times.size),
        "thinning_candidates": candidates,
        "clamped_lambda": clamped_lambda,
        "clamped_h": clamped_h,
    }
    return batch.counts(), probs, terminal_h, tally


def premium_report_optimal(
    policy_field: PolicyField,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    theta: float,
    mc_paths: int = 100_000,
    seed: int = 0,
    h_init: float = 0.0,
    threads: int = 1,
    losses_csv=None,
) -> PremiumReport:
    """Price the solved dynamic policy by Monte Carlo from level h_init.

    Equals simulate_paths -> extract_policies_batch -> simulate_losses (with
    h0 = h_init) bit for bit, for any `threads`, but holds only one chunk
    per worker plus 32 bytes per path. The report's diagnostics count the
    events, the thinning candidates, and the policy lookups whose intensity
    or level lay beyond the field's grid and were clamped to its last node.
    """
    if mc_paths < 10_000:
        raise ValueError("mc_paths must be at least 10^4")
    if h_init < 0:
        raise ValueError("h_init must be nonnegative")
    _check_field_inputs(policy_field, hawkes, model, costs)
    shared = (policy_field, hawkes, float(costs.horizon), model, costs.rho, float(h_init))
    jobs = _chunk_jobs(seed, mc_paths)
    rng_b, rng_l = substream(seed, "breach"), substream(seed, "losses")
    draw_eta = _eta_sampler(costs)
    lb = LossBatch(np.empty(mc_paths), np.empty(mc_paths, np.int64), np.empty(mc_paths, np.int64), np.empty(mc_paths))
    pos = 0
    diagnostics = Counter()
    for counts, probs, terminal_h, chunk_tally in _map_chunks(_optimal_chunk, shared, jobs, threads):
        rows = slice(pos, pos + counts.size)
        lb.gross_loss[rows], lb.n_breaches[rows] = _draw_losses(probs, counts, rng_b, rng_l, draw_eta)
        lb.n_attacks[rows] = counts
        lb.terminal_h[rows] = terminal_h
        diagnostics.update(chunk_tally)
        pos += counts.size
    if losses_csv is not None:
        lb.write_csv(losses_csv)
    mean = lb.mean_loss()
    std = lb.std_loss()
    return PremiumReport(
        policy_label="optimal-dynamic",
        expected_loss=mean.value,
        loss_std=std.value,
        theta=float(theta),
        mc_paths=int(mc_paths),
        standard_errors={"expected_loss": mean.stderr, "loss_std": std.stderr},
        diagnostics=dict(diagnostics),
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
