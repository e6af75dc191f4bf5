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
import weakref
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._rng import CHUNK_PATHS, substream
from .breach import BreachModel, breach_prob
from .dynamics import (
    CostParams,
    LossBatch,
    _control_levels,
    _draw_breaches,
    _draw_marks,
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


def _snapshot_cells(times: np.ndarray, event_times: np.ndarray):
    """Both snapshot indices of every event from one binary search: the first
    snapshot at or after it, as intensity_on_grid bins events, and the last one
    at or before it, at least 0, as _exact_levels locates events from t = 0.
    The two differ by one except where an event falls on a snapshot time."""
    after = np.searchsorted(times, event_times, side="left")
    on = times.take(after, mode="clip") == event_times
    return after, np.maximum(after - 1 + on, 0)


def _optimal_chunk(shared, job):
    """Per-path counts, per-event breach probabilities and per-path terminal
    levels of one chunk of paths under the solved policy, and its counts."""
    policy_field, hawkes, horizon, model, rho, h_init = shared
    *flat, candidates = _simulate_chunk((hawkes, horizon), job)
    batch = PathBatch(hawkes, horizon, *flat)
    times, snap_idx = _snapshot_times(policy_field, 0.0)
    after, before = _snapshot_cells(times, batch.times)
    controls, clamped_lambda, clamped_h = _euler_walk(
        policy_field, times, snap_idx, batch._intensity_on_grid(times, after), h_init
    )
    levels, terminal_h = _control_levels(batch, times, controls, h_init, rho, before)
    probs = breach_prob(model, levels) if levels.size else np.zeros(0)
    tally = {
        "events": int(batch.times.size),
        "thinning_candidates": candidates,
        "clamped_lambda": clamped_lambda,
        "clamped_h": clamped_h,
    }
    return batch.counts(), probs, terminal_h, tally


@dataclass(frozen=True)
class _BreachPass:
    """The eta_var-independent part of an optimal-policy report: per-path
    counts and terminal levels (read-only), every chunk's breach flags packed
    one bit per event, and the summed chunk diagnostics."""

    n_attacks: np.ndarray
    n_breaches: np.ndarray
    terminal_h: np.ndarray
    masks: tuple
    diagnostics: dict


def _breach_pass(policy_field, hawkes, model, rho, horizon, mc_paths, seed, h_init, threads) -> _BreachPass:
    shared = (policy_field, hawkes, horizon, model, rho, h_init)
    rng_b = substream(seed, "breach")
    n_attacks = np.empty(mc_paths, np.int64)
    n_breaches = np.empty(mc_paths, np.int64)
    terminal_h = np.empty(mc_paths)
    masks = []
    diagnostics = Counter()
    pos = 0
    for counts, probs, chunk_h, chunk_tally in _map_chunks(_optimal_chunk, shared, _chunk_jobs(seed, mc_paths), threads):
        rows = slice(pos, pos + counts.size)
        breached, n_breaches[rows] = _draw_breaches(probs, counts, rng_b)
        masks.append(np.packbits(breached))
        n_attacks[rows] = counts
        terminal_h[rows] = chunk_h
        diagnostics.update(chunk_tally)
        pos += counts.size
    for a in (n_attacks, n_breaches, terminal_h, *masks):
        a.flags.writeable = False
    return _BreachPass(n_attacks, n_breaches, terminal_h, tuple(masks), dict(diagnostics))


# (weak reference to the policy field, key, _BreachPass) of the last breach
# pass; the entry goes when another key replaces it or the field is collected.
# Without a lock, concurrent callers can at worst both build the same pass.
_last_pass = None


def _forget_pass(ref) -> None:
    global _last_pass
    if _last_pass is not None and _last_pass[0] is ref:
        _last_pass = None


def _shared_breach_pass(policy_field: PolicyField, key: tuple, threads: int) -> _BreachPass:
    """The breach pass of `key` on this field object, reused from the last call
    if it had the same field and key (the results do not depend on threads)."""
    global _last_pass
    last = _last_pass
    if last is not None and last[0]() is policy_field and last[1] == key:
        return last[2]
    _last_pass = None  # free the old pass before building the new one
    bp = _breach_pass(policy_field, *key, threads)
    _last_pass = (weakref.ref(policy_field, _forget_pass), key, bp)
    return bp


def _mark_pass(bp: _BreachPass, costs: CostParams, seed: int) -> np.ndarray:
    """Gross loss of every path: the chunks' marks drawn in chunk order from
    the "losses" substream, as one draw over the whole batch would give."""
    rng_l, draw_eta = substream(seed, "losses"), _eta_sampler(costs)
    gross = np.empty(bp.n_attacks.size)
    pos = 0
    for packed in bp.masks:
        rows = slice(pos, min(pos + CHUNK_PATHS, gross.size))
        counts = bp.n_attacks[rows]
        breached = np.unpackbits(packed, count=int(counts.sum())).view(bool)
        gross[rows] = _draw_marks(breached, counts, rng_l, draw_eta)
        pos = rows.stop
    return gross


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
    h0 = h_init) bit for bit, for any `threads`. A breach pass simulates the
    paths, walks the policy and draws the breaches; it does not depend on
    eta_var or eta_family and keeps 24 bytes plus one bit per event for each
    path. A mark pass then draws the losses of the breached events. The last
    breach pass is kept while its field object lives, so a report on the same
    field, hawkes, model, rho, horizon, mc_paths, seed and h_init (say, at
    another eta_var) runs only the mark pass. The report's diagnostics count
    the events, the thinning candidates, and the policy lookups whose
    intensity or level lay beyond the field's grid and were clamped to its
    last node.
    """
    if mc_paths < 10_000:
        raise ValueError("mc_paths must be at least 10^4")
    if h_init < 0:
        raise ValueError("h_init must be nonnegative")
    _check_field_inputs(policy_field, hawkes, model, costs)
    key = (hawkes, model, costs.rho, float(costs.horizon), mc_paths, seed, float(h_init))
    bp = _shared_breach_pass(policy_field, key, threads)
    lb = LossBatch(_mark_pass(bp, costs, seed), bp.n_attacks, bp.n_breaches, bp.terminal_h)
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
        diagnostics=dict(bp.diagnostics),
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
