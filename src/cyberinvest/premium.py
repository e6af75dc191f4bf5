"""Insurance premia under the standard-deviation loading principle.

The premium for an aggregate loss L is E[L] + theta * sd(L). The
no-investment baseline is exact, from the total-variance decomposition; the
optimal-policy report simulates attacks and extracts the solved policy along
each path, then prices the loss by conditional Monte Carlo: given a path,
both loss moments are exact functions of its attack count and of the sums
of its events' breach probabilities and of their squares. It streams the
paths in chunks, so its memory does not grow with the batch beyond these
four numbers per path. A chunk's events stay in the sampler's generation
order, unsorted (see _optimal_chunk).
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .breach import BreachModel, _breach_curve
from .dynamics import CostParams, _control_levels, expected_loss_no_investment, loss_variance
from .errors import ConfigError
from .hawkes import HawkesParams, _central_moments, _chunk_jobs, _intensity_on_grid, _map_chunks, _simulate_chunk
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
    """Both snapshot indices of every event: the first snapshot at or after it,
    as intensity_on_grid bins events, and the last one at or before it, at
    least 0, as _exact_levels locates events from t = 0. The two differ by one
    except where an event falls on a snapshot time.

    The first index is searchsorted(times, event_times, side="left") for any
    strictly increasing `times`, found without a binary search: a guess from
    the straight line through the first and last snapshot, then steps of one
    towards the exact index until no index moves. On a uniform grid the guess
    is off by at most one.
    """
    k = times.size
    guess = event_times - times[0]
    if k > 1:
        # divided by the span before the multiply, so a subnormal span sends
        # far events to inf but keeps one at times[0] at 0 (not 0 * inf = nan)
        with np.errstate(over="ignore"):
            guess /= times[-1] - times[0]
            guess *= k - 1
    np.ceil(guess, out=guess)
    np.minimum(guess, k, out=guess)
    after = np.maximum(guess, 0.0, out=guess).astype(np.intp)
    rows = slice(None)  # the events to check: all of them, then the ones that moved
    while True:
        a, e = after[rows], event_times[rows]
        up = (a < k) & (times.take(a, mode="clip") < e)
        down = (a > 0) & (times.take(a - 1, mode="clip") >= e)
        moved = np.flatnonzero(up | down)
        if not moved.size:
            break
        rows = moved if isinstance(rows, slice) else rows[moved]
        after[rows] += up[moved].astype(np.intp) - down[moved]
    on = times.take(after, mode="clip") == event_times
    return after, np.maximum(after - 1 + on, 0)


def _optimal_chunk(shared, job):
    """Per-path attack counts, sums of the events' breach probabilities and of
    their squares, and terminal levels of one chunk of paths under the solved
    policy, and the chunk's counts.

    The events stay in the sampler's generation order, where each path's
    events come in time order: every per-path sum below then adds them in
    the order a path-sorted batch would, so no sort is needed.
    """
    policy_field, hawkes, horizon, model, rho, h_init = shared
    n = job[0]
    pid, ev, candidates = _simulate_chunk((hawkes, horizon), job)
    times, snap_idx = _snapshot_times(policy_field, 0.0)
    after, before = _snapshot_cells(times, ev)
    lam = _intensity_on_grid(hawkes, times, ev, pid, n, after)
    controls, clamped_lambda, clamped_h = _euler_walk(policy_field, times, snap_idx, lam, h_init)
    levels, terminal_h = _control_levels(times, controls, h_init, rho, ev, pid, n, horizon, before)
    probs = _breach_curve(model, levels)
    tally = {
        "events": int(ev.size),
        "thinning_candidates": candidates,
        "clamped_lambda": clamped_lambda,
        "clamped_h": clamped_h,
    }
    return np.bincount(pid, minlength=n), np.bincount(pid, probs, n), np.bincount(pid, probs**2, n), terminal_h, tally


@dataclass(frozen=True)
class _PathPass:
    """The eta_var-independent part of an optimal-policy report: for each path
    its attack count N, the sums S1 and S2 of its events' breach probabilities
    and of their squares, and its terminal level (read-only), and the summed
    chunk diagnostics."""

    n_attacks: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    terminal_h: np.ndarray
    diagnostics: dict


def _path_pass(policy_field, hawkes, model, rho, horizon, mc_paths, seed, h_init, threads) -> _PathPass:
    shared = (policy_field, hawkes, horizon, model, rho, h_init)
    columns = (np.empty(mc_paths, np.int64), np.empty(mc_paths), np.empty(mc_paths), np.empty(mc_paths))
    diagnostics = Counter()
    pos = 0
    for *parts, chunk_tally in _map_chunks(_optimal_chunk, shared, _chunk_jobs(seed, mc_paths), threads):
        rows = slice(pos, pos + parts[0].size)
        for column, part in zip(columns, parts):
            column[rows] = part
        diagnostics.update(chunk_tally)
        pos = rows.stop
    for column in columns:
        column.flags.writeable = False
    return _PathPass(*columns, dict(diagnostics))


# (weak reference to the policy field, key, _PathPass) of the last path pass;
# the entry goes when another key replaces it or the field is collected.
# Without a lock, concurrent callers can at worst both build the same pass.
_last_pass = None


def _forget_pass(ref) -> None:
    global _last_pass
    if _last_pass is not None and _last_pass[0] is ref:
        _last_pass = None


def _shared_path_pass(policy_field: PolicyField, key: tuple, threads: int) -> _PathPass:
    """The path pass of `key` on this field object, reused from the last call
    if it had the same field and key (the results do not depend on threads)."""
    global _last_pass
    last = _last_pass
    if last is not None and last[0]() is policy_field and last[1] == key:
        return last[2]
    _last_pass = None  # free the old pass before building the new one
    pp = _path_pass(policy_field, *key, threads)
    _last_pass = (weakref.ref(policy_field, _forget_pass), key, pp)
    return pp


def _controlled_mean(y: np.ndarray, controls: list) -> tuple:
    """Control-variate estimate of E[y] from controls of known mean 0: the
    sample mean of y less the least-squares fit of y on the controls at their
    sample means. Returns it with the fit's residuals."""
    centred = [x - x.mean() for x in controls]
    y_c = y - y.mean()
    gram = [[np.mean(a * b) for b in centred] for a in centred]
    coef = np.linalg.solve(gram, [np.mean(a * y_c) for a in centred])
    estimate = y.mean() - sum(c * x.mean() for c, x in zip(coef, controls))
    return float(estimate), y_c - sum(c * a for c, a in zip(coef, centred))


def _stderr(residuals: np.ndarray) -> float:
    """Standard error of a sample mean whose deviations are `residuals`."""
    return math.sqrt(float(np.mean(residuals * residuals)) / (residuals.size - 1))


def _loss_moments(pp: _PathPass, hawkes: HawkesParams, costs: CostParams) -> tuple:
    """(E[L], SE, sd(L), SE) of the aggregate loss by conditional Monte Carlo.

    The policy reacts to the attack path and never to losses. Given a path,
    the breaches are therefore independent with the probabilities p of its
    events, and the marks i.i.d. with mean m and variance s^2, so
    E[L | path] = M = m S1 and Var(L | path) = V = (s^2 + m^2) S1 - m^2 S2.
    E[L] is the mean of M and Var(L) the mean of V + M^2 less E[L]^2. The
    attack count N, and N^2 for the second moment, serve as control variates
    with their exact means. The standard errors follow from the regression
    residuals by the delta method.
    """
    m, s2 = costs.eta_mean, costs.eta_var
    en, var_n = _central_moments(hawkes, costs.horizon)[[2, 5]]
    n = pp.n_attacks.astype(float)
    d_n, d_n2 = n - en, n * n - (var_n + en * en)
    cond_mean = m * pp.s1
    mean, r_mean = _controlled_mean(cond_mean, [d_n])
    cond_second = (s2 + m * m) * pp.s1 - m * m * pp.s2 + cond_mean * cond_mean
    second, r_second = _controlled_mean(cond_second, [d_n, d_n2])
    sd = math.sqrt(second - mean * mean)
    se_var = _stderr(r_second - 2.0 * mean * r_mean)
    return mean, _stderr(r_mean), sd, se_var / (2.0 * sd) if sd > 0 else 0.0


def _write_paths_csv(pp: _PathPass, path) -> None:
    rows = np.column_stack((np.arange(pp.n_attacks.size), pp.n_attacks, pp.s1, pp.s2, pp.terminal_h))
    fmt = ("%d", "%d", "%.12g", "%.12g", "%.12g")
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header="path,n_attacks,s1,s2,terminal_h", comments="")


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
    paths_csv=None,
) -> PremiumReport:
    """Price the solved dynamic policy by conditional Monte Carlo from level h_init.

    One pass simulates the paths and walks the policy along them chunk by
    chunk, as simulate_paths -> extract_policies_batch (with h0 = h_init)
    would, bit for bit and for any `threads`. It keeps 32 bytes per path: the
    attack count N, the sums S1 and S2 of the events' breach probabilities
    and of their squares, and the terminal level. No breach or loss mark is
    drawn: both moments of the loss are exact functions of these sums (see
    _loss_moments), so the report depends on the mark distribution only
    through eta_mean and eta_var, and the lognormal and gamma families give
    the same report. The last pass is kept while its field object lives, so
    a report on the same field, hawkes, model, rho, horizon, mc_paths, seed
    and h_init (say, at another eta_var) is O(mc_paths) arithmetic on it.
    `paths_csv`, if given, receives one row per path:
    path,n_attacks,s1,s2,terminal_h. The report's diagnostics count the
    events, the thinning candidates, and the policy lookups whose intensity
    or level lay beyond the field's grid and were clamped to its last node.
    """
    if mc_paths < 10_000:
        raise ValueError("mc_paths must be at least 10^4")
    _check_field_inputs(policy_field, hawkes, model, costs)
    key = (hawkes, model, costs.rho, float(costs.horizon), mc_paths, seed, float(h_init))
    pp = _shared_path_pass(policy_field, key, threads)
    if paths_csv is not None:
        _write_paths_csv(pp, paths_csv)
    mean, mean_se, sd, sd_se = _loss_moments(pp, hawkes, costs)
    return PremiumReport(
        policy_label="optimal-dynamic",
        expected_loss=mean,
        loss_std=sd,
        theta=float(theta),
        mc_paths=int(mc_paths),
        standard_errors={"expected_loss": mean_se, "loss_std": sd_se},
        diagnostics=dict(pp.diagnostics),
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
