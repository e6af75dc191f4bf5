"""Policy extraction along simulated paths and benchmark-strategy evaluation.

A solved policy surface is turned into an applied investment path by
nearest-node lookup on a uniform time grid with an explicit-Euler level
update. Constant and deterministic benchmark strategies are valued in closed
form up to one smooth quadrature, using the exact expected-intensity formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize_scalar

from .breach import BreachModel, breach_prob
from .dynamics import ConstantRate, CostParams, GridRate, _phi
from .errors import GainUndefinedError
from .hawkes import AttackPath, HawkesParams, PathBatch, lambda_max_heuristic
from .hjb import PolicyField, ValueField, query
from .poisson import PoissonField

__all__ = [
    "TraceSource",
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


class TraceSource(Enum):
    HAWKES_OPTIMAL = "hawkes-optimal"
    POISSON_DETERMINISTIC = "poisson-deterministic"
    CONSTANT = "constant"


@dataclass(frozen=True)
class PolicyTrace:
    """Applied control along one intensity path on a uniform time grid."""

    times: np.ndarray
    intensity: np.ndarray
    control: np.ndarray
    level: np.ndarray
    source: TraceSource

    def __post_init__(self):
        if np.any(self.control < 0):
            raise ValueError("controls must be nonnegative")

    def as_grid_rate(self) -> GridRate:
        return GridRate(self.times, self.control)


def _nearest(x, lo, step, n):
    return np.clip(np.rint((x - lo) / step).astype(int), 0, n - 1)


def _snapshot_times(field: PolicyField, t_init: float) -> tuple:
    """Ascending snapshot times from the one nearest t_init to the horizon, and
    their indices into the field's snapshot axis."""
    grid = field.grid
    T = grid.horizon
    if t_init > T:
        raise ValueError(f"t_init {t_init} exceeds the horizon {T}")
    t_asc = grid.t_snapshots[::-1]
    start = int(np.argmin(np.abs(t_asc - t_init)))
    times = t_asc[start:]
    snap_idx = grid.t_snapshots.size - 1 - (start + np.arange(times.size))
    return times, snap_idx


def _euler_walk(field: PolicyField, times, snap_idx, lam: np.ndarray, h_init: float, level=None) -> np.ndarray:
    """Controls along each row of the (n_paths, len(times)) intensity matrix lam
    by nearest-node lookup, with an explicit-Euler level update between
    snapshots; fills `level` (same shape) with the levels if given."""
    grid = field.grid
    rho = field.meta.costs.rho
    k_lam = _nearest(lam, grid.lambda_min, grid.d_lambda, grid.n_lambda)
    controls = np.empty(lam.shape)
    h = np.full(lam.shape[0], float(h_init))
    for i in range(times.size):
        if level is not None:
            level[:, i] = h
        j = _nearest(h, grid.h_min, grid.d_h, grid.n_h)
        controls[:, i] = field.controls[snap_idx[i], k_lam[:, i], j]
        if i + 1 < times.size:
            dt = times[i + 1] - times[i]
            h = h - rho * h * dt + controls[:, i] * dt
    return controls


def extract_policy(
    field: PolicyField,
    path: Union[AttackPath, float],
    t_init: float,
    h_init: float,
) -> PolicyTrace:
    """Control and level along a path by nearest-node lookup plus Euler update.

    `path` may be a simulated attack path or a constant intensity value
    (deterministic benchmark extraction). It runs the walk of
    extract_policies_batch on a one-row intensity matrix.
    """
    times, snap_idx = _snapshot_times(field, t_init)
    if isinstance(path, AttackPath):
        lam = np.asarray(path.intensity(times), dtype=float)
        source = TraceSource.HAWKES_OPTIMAL
    else:
        lam = np.full(times.size, float(path))
        source = (
            TraceSource.POISSON_DETERMINISTIC
            if field.meta.dimension == "poisson"
            else TraceSource.CONSTANT
        )
    level = np.empty((1, times.size))
    control = _euler_walk(field, times, snap_idx, lam[None, :], h_init, level)
    return PolicyTrace(times, lam, control[0], level[0], source)


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
    return times, _euler_walk(field, times, snap_idx, batch.intensity_on_grid(times), h_init)


def _mean_intensity_integral(hawkes: HawkesParams, lam: float, span: float):
    """E over [0, span] of the intensity started at lam, integrated in closed form."""
    k = hawkes.reversion_rate
    lstar = hawkes.stationary_mean
    return lstar * span - (lam - lstar) / k * (math.exp(-k * span) - 1.0)


def _reward_scale(model: BreachModel, costs: CostParams, hawkes: HawkesParams, span: float) -> float:
    return max(1.0, costs.eta_mean * model.v * hawkes.stationary_mean * max(span, 1.0))


def evaluate_constant(
    t: float,
    lam: float,
    h: float,
    zbar: float,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
) -> float:
    """Expected net benefit of the constant rate zbar from state (t, lam, h)."""
    if zbar < 0:
        raise ValueError("constant rate must be nonnegative")
    T = costs.horizon
    if t > T:
        raise ValueError(f"t {t} exceeds the horizon {T}")
    span = T - t
    rho, gamma, delta = costs.rho, costs.gamma, costs.delta

    k = hawkes.reversion_rate
    lstar = hawkes.stationary_mean

    def level(s):
        return h * np.exp(-rho * s) + zbar * _phi(rho, s)

    def integrand(s):
        mean_lam = lstar + (lam - lstar) * math.exp(-k * s)
        return costs.eta_mean * (model.v - breach_prob(model, level(s))) * mean_lam

    if span <= 0:
        return float(costs.utility(h))
    epsabs = 1e-8 * _reward_scale(model, costs, hawkes, span)
    reward, _ = quad(integrand, 0.0, span, epsabs=epsabs, epsrel=1e-10, limit=200)
    cost = span * (delta * zbar + 0.5 * gamma * zbar**2)
    return float(reward - cost + costs.utility(level(span)))


def optimize_constant(
    t: float,
    lam: float,
    h: float,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    z_cap: Optional[float] = None,
) -> tuple:
    """Best constant rate and its value: global scalar maximization on [0, z_cap]."""
    cap = (
        z_cap
        if z_cap is not None
        else 10.0 * costs.eta_mean * model.v * lambda_max_heuristic(hawkes, costs.horizon) / costs.gamma
    )
    if cap <= 0:
        return 0.0, evaluate_constant(t, lam, h, 0.0, hawkes, model, costs)

    def neg(z):
        return -evaluate_constant(t, lam, h, float(z), hawkes, model, costs)

    pts = np.concatenate(([0.0], np.geomspace(cap * 1e-6, cap, 63)))
    vals = np.array([neg(z) for z in pts])
    order = np.argsort(vals)[:8]
    best_z, best_v = float(pts[order[0]]), float(vals[order[0]])
    for idx in order:
        lo = pts[idx - 1] if idx > 0 else 0.0
        hi = pts[idx + 1] if idx + 1 < pts.size else cap
        res = minimize_scalar(neg, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6})
        if res.fun < best_v:
            best_z, best_v = float(res.x), float(res.fun)
    return best_z, -best_v


def lower_bound(t, lam, h, hawkes: HawkesParams, model: BreachModel, costs: CostParams):
    """Value of holding the level constant (rate rho*h), in closed form.

    Broadcasts over array-valued lam and h.
    """
    T = costs.horizon
    span = T - np.asarray(t, dtype=float)
    if np.any(span < 0):
        raise ValueError("t exceeds the horizon")
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

    `strategy` may be a PolicyTrace, a GridRate / ConstantRate, or a callable
    s -> rate. Piecewise-constant rates integrate the level exactly and use a
    per-segment Simpson rule for the smooth reward integrand.
    """
    T = costs.horizon
    if t > T:
        raise ValueError(f"t {t} exceeds the horizon {T}")
    if isinstance(strategy, PolicyTrace):
        strategy = strategy.as_grid_rate()
    if isinstance(strategy, ConstantRate):
        return evaluate_constant(t, lam, h, strategy.rate, hawkes, model, costs)
    rho, gamma, delta = costs.rho, costs.gamma, costs.delta
    k = hawkes.reversion_rate
    lstar = hawkes.stationary_mean

    def mean_lam(s):
        return lstar + (lam - lstar) * np.exp(-k * (s - t))

    def running(s, level):
        return costs.eta_mean * (model.v - breach_prob(model, level)) * mean_lam(s)

    if isinstance(strategy, GridRate):
        inside = strategy.times > t
        knots = np.concatenate(([t], strategy.times[inside], [T]))
        knots = knots[knots <= T]
        if knots[-1] < T:
            knots = np.concatenate((knots, [T]))
        zvals = np.asarray([float(strategy(s)) for s in knots[:-1]])
        hk = np.empty(knots.size)
        hk[0] = h
        reward = 0.0
        cost = 0.0
        for i in range(knots.size - 1):
            dt = knots[i + 1] - knots[i]
            z = zvals[i]
            h0 = hk[i]
            hmid = h0 * math.exp(-rho * 0.5 * dt) + z * _phi(rho, 0.5 * dt)
            h1 = h0 * math.exp(-rho * dt) + z * _phi(rho, dt)
            hk[i + 1] = h1
            s0, smid, s1 = knots[i], knots[i] + 0.5 * dt, knots[i + 1]
            reward += dt / 6.0 * (running(s0, h0) + 4.0 * running(smid, hmid) + running(s1, h1))
            cost += dt * (delta * z + 0.5 * gamma * z**2)
        return float(reward - cost + costs.utility(hk[-1]))

    # general deterministic callable s -> rate
    def ode(s, y):
        z = float(strategy(s))
        if z < 0:
            raise ValueError(f"strategy returned negative rate at s={s}")
        return z - rho * y[0]

    sol = solve_ivp(ode, (t, T), [h], rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"level integration failed: {sol.message}")

    def integrand(s):
        z = float(strategy(s))
        return (
            costs.eta_mean * (model.v - breach_prob(model, float(sol.sol(s)[0]))) * float(mean_lam(s))
            - delta * z
            - 0.5 * gamma * z**2
        )

    epsabs = 1e-8 * _reward_scale(model, costs, hawkes, T - t)
    total, _ = quad(integrand, t, T, epsabs=epsabs, epsrel=1e-10, limit=400)
    return float(total + costs.utility(float(sol.sol(T)[0])))


def gain_vs_constant(
    t: float,
    lam: float,
    h: float,
    value_field: ValueField,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    mode: Optional[str] = None,
) -> float:
    """Percentage gain of the solved policy over the best constant rate."""
    v = query(value_field, t, lam, h, mode=mode)
    _, best = optimize_constant(t, lam, h, hawkes, model, costs)
    if best <= 0:
        raise GainUndefinedError(f"benchmark value {best} is not positive")
    return 100.0 * (v - best) / best


def gain_vs_poisson(
    t: float,
    lam: float,
    h: float,
    value_field: ValueField,
    poisson_field: PoissonField,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    mode: Optional[str] = None,
) -> float:
    """Percentage gain of the solved policy over the deterministic benchmark policy."""
    v = query(value_field, t, lam, h, mode=mode)
    trace = extract_policy(poisson_field.policy, poisson_field.intensity, t, h)
    j = evaluate_deterministic(t, lam, h, trace, hawkes, model, costs)
    if j <= 0:
        raise GainUndefinedError(f"benchmark value {j} is not positive")
    return 100.0 * (v - j) / j
