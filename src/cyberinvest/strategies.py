"""Policy extraction along simulated paths and benchmark-strategy evaluation.

A solved policy surface is turned into an applied investment path on its
snapshot times: bilinear lookup in (lambda, h), exact level. Constant and
deterministic benchmark strategies are valued in closed form up to one smooth
quadrature, using the exact expected-intensity formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .breach import BreachModel, _breach_curve, breach_prob
from .dynamics import CostParams, GridRate, _check_initial_level, _check_rates, _phi, evolve_level
from .errors import GainUndefinedError
from .hawkes import AttackPath, HawkesParams, PathBatch, lambda_max_heuristic
from .hjb import PolicyField, ValueField, _axis, _bilinear, _check_field_inputs, query
from .poisson import PoissonField

__all__ = [
    "PolicyTrace",
    "extract_policy",
    "extract_policies_batch",
    "evaluate_constant",
    "optimize_constant",
    "lower_bound",
    "evaluate_deterministic",
    "gain_vs_constant",
    "gain_vs_poisson",
]


@dataclass(frozen=True)
class PolicyTrace:
    """Applied control along one intensity path on a uniform time grid, with
    the numbers of its lookups that read the policy at lambda_max for an
    intensity above it and at h_max for a level above it."""

    times: np.ndarray
    intensity: np.ndarray
    control: np.ndarray
    level: np.ndarray
    clamped_lambda: int = 0
    clamped_h: int = 0

    def __post_init__(self):
        if np.any(self.control < 0):
            raise ValueError("controls must be nonnegative")

    def as_grid_rate(self) -> GridRate:
        return GridRate(self.times, self.control)


def _check_start(t: float, horizon: float) -> None:
    if not 0.0 <= t <= horizon:  # nan fails both comparisons
        raise ValueError(f"start time t = {t!r} must lie in [0, {horizon}]")


def _check_state(t: float, lam: float, h: float, horizon: float) -> None:
    """Raise ValueError unless t lies in [0, horizon], lam is finite and h is
    finite and nonnegative."""
    _check_start(t, horizon)
    if not math.isfinite(lam):
        raise ValueError(f"intensity lambda = {lam!r} must be finite")
    _check_initial_level(h)


def _check_states(t, lam, h, horizon: float) -> None:
    """_check_state elementwise over broadcast arrays: raises its error for
    the first state that it rejects."""
    t, lam, h = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(lam, dtype=float), np.asarray(h, dtype=float))
    ok = (t >= 0.0) & (t <= horizon) & np.isfinite(lam) & np.isfinite(h) & (h >= 0.0)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        _check_state(float(t.flat[i]), float(lam.flat[i]), float(h.flat[i]), horizon)


def _snapshot_times(field: PolicyField, t_init: float) -> tuple:
    """The walk's times, t_init and then every later snapshot up to the horizon,
    and the index into the field's snapshot axis of the snapshot that each
    reads. The walk starts at t_init itself, and its first lookup reads the
    snapshot at or before t_init, GridRate's convention. A snapshot less than
    1e-12 horizons after t_init is at it: a start typed as a decimal (0.3)
    reads the snapshot stored within rounding of it, above or below."""
    grid = field.grid
    _check_start(t_init, grid.horizon)
    t_asc = grid.t_snapshots[::-1]
    start = int(np.searchsorted(t_asc, t_init + 1e-12 * grid.horizon, side="right")) - 1
    times = np.concatenate(([t_init], t_asc[start + 1 :]))
    snap_idx = grid.t_snapshots.size - 1 - (start + np.arange(times.size))
    return times, snap_idx


def _walk(field: PolicyField, times, snap_idx, lam: np.ndarray, h_init: float, level=None) -> tuple:
    """Controls along each row of the (n_paths, len(times)) intensity matrix lam
    by hjb's bilinear lookup in the table of snapshot snap_idx[i] at times[i]
    (as _snapshot_times gives them), the level moving exactly, h e^{-rho dt} +
    z phi(rho, dt), from h_init (finite, nonnegative) at times[0]; fills
    `level` (same shape) with the levels if given. Returns the controls,
    column-major, and the numbers of lookups clamped at lambda_max and at h_max
    (read there, although the solve's jump term extends V past lambda_max).
    On a one-node intensity axis each lookup reads two h corners (_bilinear).
    """
    _check_initial_level(h_init)
    grid = field.grid
    n_h = grid.n_h
    # each lookup's lambda weight and (snapshot, lower lambda node) row, as a flat index
    rows, w_lam = _axis(lam, grid.lambda_min, grid.d_lambda, grid.n_lambda)
    rows *= n_h
    rows += snap_idx * (grid.n_lambda * n_h)
    stride = n_h if grid.n_lambda > 1 else 0
    rho = field.meta.costs.rho
    dt = np.diff(times, append=times[-1])  # the last, empty step leaves the level as it is
    flat = field.controls.reshape(-1)
    controls = np.empty(lam.shape, order="F")
    h = np.full(lam.shape[0], float(h_init))
    clamped_h = 0
    for i, (decay, gain) in enumerate(zip(np.exp(-rho * dt).tolist(), _phi(rho, dt).tolist())):
        if level is not None:
            level[:, i] = h
        clamped_h += np.count_nonzero(h > grid.h_max)
        j, w_h = _axis(h, grid.h_min, grid.d_h, n_h)
        j += rows[:, i]
        z = controls[:, i] = _bilinear(flat, j, stride, w_lam[:, i], w_h)
        h = h * decay + z * gain
    return controls, int(np.count_nonzero(lam > grid.lambda_max)), int(clamped_h)


def extract_policy(
    field: PolicyField,
    path: Union[AttackPath, float],
    t_init: float,
    h_init: float,
) -> PolicyTrace:
    """Control and level along a path: bilinear lookup at each snapshot, and
    the exact level, evolve_level of the trace's own GridRate. The trace
    carries the walk's counts of lookups clamped at lambda_max and h_max.

    `path` may be a simulated attack path or a constant intensity value
    (deterministic benchmark extraction). It runs the walk of
    extract_policies_batch on a one-row intensity matrix, which for a path
    is its batch of one's intensity_on_grid.
    """
    times, snap_idx = _snapshot_times(field, t_init)
    if isinstance(path, AttackPath):
        lam = path.as_batch().intensity_on_grid(times)
    else:
        lam = np.full((1, times.size), float(path))
    level = np.empty((1, times.size))
    control, clamped_lambda, clamped_h = _walk(field, times, snap_idx, lam, h_init, level)
    return PolicyTrace(times, lam[0], control[0], level[0], clamped_lambda, clamped_h)


def extract_policies_batch(
    field: PolicyField,
    batch: PathBatch,
    t_init: float = 0.0,
    h_init: float = 0.0,
) -> tuple:
    """Vectorized extract_policy over a path batch; returns (times, controls).

    controls has shape (n_paths, len(times)) and matches what extract_policy
    produces path by path.
    """
    times, snap_idx = _snapshot_times(field, t_init)
    return times, _walk(field, times, snap_idx, batch.intensity_on_grid(times), h_init)[0]


@functools.cache
def _reward_rule() -> tuple:
    """The 48-node Gauss-Legendre rule on [0, 1] in u = s^(1/3), built on first use."""
    x, w = np.polynomial.legendre.leggauss(48)
    u = 0.5 * (x + 1.0)
    nodes, weights = u**3, 1.5 * w * u**2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class _ConstantQuadrature(NamedTuple):
    """The rate-independent terms of evaluate_constant from one state (t, lam, h)."""

    span: float  # T - t
    decayed: np.ndarray  # h e^{-rho s} at the reward rule's nodes s and at the horizon
    phi: np.ndarray  # phi(rho, s) there
    weight: np.ndarray  # span x rule weight x eta_mean x the mean intensity at the nodes


def _constant_quadrature(t: float, lam: float, h: float, hawkes: HawkesParams, costs: CostParams) -> _ConstantQuadrature:
    span = costs.horizon - t
    nodes, weights = _reward_rule()
    s = np.append(span * nodes, span)  # the horizon rides along with the nodes
    lstar = hawkes.stationary_mean
    mean_lam = lstar + (lam - lstar) * np.exp(-hawkes.reversion_rate * s[:-1])
    return _ConstantQuadrature(
        span, h * np.exp(-costs.rho * s), _phi(costs.rho, s), (span * costs.eta_mean) * weights * mean_lam
    )


def _constant_value(quad: _ConstantQuadrature, z: np.ndarray, model: BreachModel, costs: CostParams):
    """evaluate_constant's rate-dependent part: the values of the rates z."""
    levels = quad.decayed + z[..., None] * quad.phi
    reward = (model.v - _breach_curve(model, levels[..., :-1])) @ quad.weight
    cost = quad.span * (costs.delta * z + 0.5 * costs.gamma * z**2)
    return reward - cost + costs.utility(levels[..., -1])


def evaluate_constant(
    t: float,
    lam: float,
    h: float,
    zbar,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
):
    """Expected net benefit of the constant rate zbar from state (t, lam, h).

    Broadcasts over an array of rates. The level h e^{-rho s} + zbar phi(s) and
    the mean intensity are exact; the reward integral takes one 48-node
    Gauss-Legendre rule graded towards s = 0, where a large rate makes the
    breach curve steep. Against adaptive quadrature (either family, a <= 2,
    b <= 4) it agrees to 2e-14 of max(|value|, cost) at T = 1 for rates up to
    300, to 5e-14 at rate 1e3 and to 3e-12 at T = 5; a rule in s itself gave
    2e-5 at T = 1 and rate 300.

    It is two parts: the state's rate-independent terms (_constant_quadrature:
    the nodes, h e^{-rho s}, phi(s) and the mean-intensity weights), then the
    rates' levels, reward, cost and terminal utility (_constant_value).
    """
    _check_state(t, lam, h, costs.horizon)
    z = np.asarray(zbar, dtype=float)
    _check_rates(z, "constant rate")
    out = _constant_value(_constant_quadrature(t, lam, h, hawkes, costs), z, model, costs)
    return float(out) if np.ndim(out) == 0 else out


def optimize_constant(
    t: float,
    lam: float,
    h: float,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    z_cap: Optional[float] = None,
) -> tuple:
    """Best constant rate and its value: a batched bracket search on [0, z_cap].

    The net benefit is strictly concave in the rate: the level is affine in
    it, both breach families are convex and decreasing in the level (Gordon &
    Loeb 2002), the cost is strictly convex (gamma > 0), every named terminal
    utility is concave (resolve_utility) and the reward rule's weights are
    positive. So the maximizer lies between the neighbours of the best of 33
    evenly spaced rates; each round values them in one call and keeps that
    bracket, at least 16 times narrower, until it is at most 1e-6 wide. The
    first round samples the corner zbar = 0, so where investing does not pay
    (an invulnerable firm) the rate returned is exactly 0.0.

    The state's rate-independent terms of evaluate_constant are built once
    per search; each round evaluates only the rate-dependent part, so every
    value is evaluate_constant's, bit for bit.
    """
    if z_cap is None:
        z_cap = 10.0 * costs.eta_mean * model.v * lambda_max_heuristic(hawkes, costs.horizon) / costs.gamma
    if z_cap <= 0:
        return 0.0, evaluate_constant(t, lam, h, 0.0, hawkes, model, costs)
    _check_state(t, lam, h, costs.horizon)
    quad = _constant_quadrature(t, lam, h, hawkes, costs)
    lo, hi = 0.0, z_cap
    for _ in range(max(1, math.ceil(math.log(z_cap / 1e-6, 16)))):
        z = np.linspace(lo, hi, 33)
        values = _constant_value(quad, z, model, costs)
        i = int(np.argmax(values))
        lo, hi = z[max(i - 1, 0)], z[min(i + 1, 32)]
    return float(z[i]), float(values[i])


def lower_bound(t, lam, h, hawkes: HawkesParams, model: BreachModel, costs: CostParams):
    """Value of holding the level constant (rate rho*h), in closed form.

    Broadcasts over array-valued t, lam and h, each state checked as
    _check_state does.
    """
    T = costs.horizon
    _check_states(t, lam, h, T)
    span = T - np.asarray(t, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
    h_arr = np.asarray(h, dtype=float)
    k = hawkes.reversion_rate
    lstar = hawkes.stationary_mean
    integral = lstar * span - (lam_arr - lstar) / k * (np.exp(-k * span) - 1.0)
    hold = costs.rho * h_arr
    out = (
        costs.utility(h_arr)
        - hold * (costs.delta + 0.5 * costs.gamma * hold) * span
        + costs.eta_mean * (model.v - breach_prob(model, h_arr)) * integral
    )
    return float(out) if np.ndim(out) == 0 else out


class _LevelPath(NamedTuple):
    """The intensity-free part of a deterministic valuation from (t, h)."""

    offsets: np.ndarray  # s - t at every segment's reward-rule nodes
    weight: np.ndarray  # segment length x rule weight x eta_mean (v - S(level)) there
    cost: float
    terminal: float  # utility of the level at the horizon


def _level_path(knots: np.ndarray, levels: np.ndarray, z: np.ndarray, model: BreachModel, costs: CostParams) -> _LevelPath:
    """The level path of a rate path from t = knots[0] to the horizon, the last
    knot: the rate z[i] on [knots[i], knots[i + 1]), from the exact level
    levels[i] at each knot. Each segment takes the reward rule of
    evaluate_constant, the level at a node s past its segment's knot being
    levels[i] e^{-rho s} + z[i] phi(rho, s), the formula of _exact_levels."""
    t = knots[0]
    dt = np.diff(knots)
    nodes, weights = _reward_rule()
    offsets = (knots[:-1] - t)[:, None] + dt[:, None] * nodes
    # time past the segment's knot; a segment shorter than the rounding of
    # its knot can put a node a rounding before it
    s = np.maximum((t + offsets) - knots[:-1, None], 0.0)
    node_levels = levels[:-1, None] * np.exp(-costs.rho * s) + z[:, None] * _phi(costs.rho, s)
    return _LevelPath(
        offsets.ravel(),
        (dt[:, None] * weights).ravel() * costs.eta_mean * (model.v - breach_prob(model, node_levels.ravel())),
        np.sum(dt * (costs.delta * z + 0.5 * costs.gamma * z**2)),
        costs.utility(levels[-1]),
    )


def _path_value(path: _LevelPath, lam: float, hawkes: HawkesParams) -> float:
    """The valuation of a level path from intensity lam: the running reward
    under the exact mean intensity, less the cost, plus the terminal utility."""
    lstar = hawkes.stationary_mean
    reward = path.weight @ (lstar + (lam - lstar) * np.exp(-hawkes.reversion_rate * path.offsets))
    return float(reward - path.cost + path.terminal)


def evaluate_deterministic(
    t: float,
    lam: float,
    h: float,
    strategy,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
) -> float:
    """Expected net benefit of a deterministic rate path from state (t, lam, h).

    `strategy` is a PolicyTrace or a GridRate (a ConstantRate among them).
    Each constant segment takes the reward rule of evaluate_constant; the
    levels at the knots come from evolve_level, and _level_path takes the
    nodes' levels from them.
    """
    T = costs.horizon
    _check_state(t, lam, h, T)
    if isinstance(strategy, PolicyTrace):
        strategy = strategy.as_grid_rate()
    if not isinstance(strategy, GridRate):
        raise TypeError(f"strategy must be a PolicyTrace, GridRate or ConstantRate, not {type(strategy).__name__}")
    inside = strategy.times[(strategy.times > t) & (strategy.times < T)]
    knots = np.concatenate(([t], inside, [T] if t < T else []))
    levels = evolve_level(h, costs.rho, strategy, knots)
    return _path_value(_level_path(knots, levels, strategy(knots[:-1]), model, costs), lam, hawkes)


def _gain(v: float, benchmark: float) -> float:
    """Percentage gain of v over a benchmark value, which must be positive."""
    if benchmark <= 0:
        raise GainUndefinedError(f"benchmark value {benchmark} is not positive")
    return 100.0 * (v - benchmark) / benchmark


def _check_mode(mode: str) -> None:
    """The one mode, kept only because perfbench/workloads.py passes mode="linear"."""
    if mode != "linear":
        raise ValueError(f"mode {mode!r}: a gain reads the value field by bilinear lookup, mode 'linear'")


def gain_vs_constant(
    t: float,
    lam: float,
    h: float,
    value_field: ValueField,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    mode: str = "linear",
) -> float:
    """Percentage gain of the solved policy, whose field must fit the model and
    hold the state (query), over the best constant rate."""
    _check_mode(mode)
    _check_field_inputs(value_field.meta, hawkes, model, costs)
    _, best = optimize_constant(t, lam, h, hawkes, model, costs)  # first: it validates the state
    return _gain(query(value_field, t, lam, h), best)


def gain_vs_poisson(
    t: float,
    lam: float,
    h: float,
    value_field: ValueField,
    poisson_field: PoissonField,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    mode: str = "linear",
) -> float:
    """Percentage gain of the solved policy over the deterministic benchmark policy.

    Both fields must fit the model and the costs, and the value field must hold
    the state (query). The benchmark's trace and level path do not depend on
    lam: the first call for a (t, h) computes them and keeps them on
    poisson_field, and every call values them at its own lam, as
    evaluate_deterministic does. The trace starts at t, so the level path
    takes its knot levels from the walk that recorded them.
    """
    _check_mode(mode)
    _check_field_inputs(value_field.meta, hawkes, model, costs)
    bench = poisson_field.value.meta
    _check_field_inputs(bench, bench.hawkes, model, costs)  # its intensity process is its own constant one
    _check_state(t, lam, h, costs.horizon)
    v = query(value_field, t, lam, h)  # first: the state keys the reuse
    key = (t, h)
    path = poisson_field.level_paths.get(key)
    if path is None:
        trace = extract_policy(poisson_field.policy, poisson_field.intensity, t, h)
        path = _level_path(trace.times, trace.level, trace.control[:-1], model, costs)
        poisson_field.level_paths[key] = path
    return _gain(v, _path_value(path, lam, hawkes))
