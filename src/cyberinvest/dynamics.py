"""Controlled protection-level dynamics and marked attack-loss simulation.

The protection level follows dH = (z_t - rho H) dt for a nonnegative
investment rate z. At each attack time tau the system is breached with
probability S(H_tau, v); a breach draws an independent monetary loss with
mean eta_mean and variance eta_var.

Strategy callbacks are predictable by construction: at an attack time they
only ever see the left limit of the intensity, so no callback can react to
the attack it is being evaluated for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ._rng import substream
from .breach import BreachModel, breach_prob
from .errors import PolicyError
from .hawkes import AttackPath, HawkesParams, MCEstimate, PathBatch, expected_count, count_variance, simulate_paths

__all__ = [
    "CostParams",
    "LossSample",
    "LossBatch",
    "ConstantRate",
    "GridRate",
    "evolve_level",
    "simulate_loss",
    "simulate_losses",
    "expected_loss_no_investment",
    "loss_variance",
    "resolve_utility",
    "utility_label",
]

RK4_MAX_STEP = 1e-3
_TINY = float(np.finfo(float).tiny)  # smallest normal float


def _zero_utility(h):
    return np.multiply(h, 0.0)


def _power_utility(p: float):
    def u(h):
        return np.power(h, p)

    u._label = f"power:{p:g}"
    return u


UTILITIES = {
    "sqrt": np.sqrt,
    "zero": _zero_utility,
}


def resolve_utility(spec) -> Callable:
    """Map a utility spec ('sqrt', 'zero', 'power:p', or a callable) to a callable."""
    if callable(spec):
        return spec
    name = str(spec)
    if name in UTILITIES:
        return UTILITIES[name]
    if name.startswith("power:"):
        p = float(name.split(":", 1)[1])
        if not (0 < p <= 1):
            raise ValueError(f"power utility exponent must lie in (0, 1], got {p}")
        return _power_utility(p)
    raise ValueError(f"unknown terminal utility {spec!r}")


def utility_label(spec) -> str:
    """Serializable name of a utility spec; refuses unregistered callables."""
    if isinstance(spec, str):
        resolve_utility(spec)
        return spec
    if spec is np.sqrt:
        return "sqrt"
    if spec is _zero_utility:
        return "zero"
    label = getattr(spec, "_label", None)
    if label:
        return label
    raise ValueError("terminal utility is not serializable; use a named spec string")


@dataclass(frozen=True)
class CostParams:
    """Investment-cost, loss-mark and horizon parameters of the planning problem."""

    gamma: float
    eta_mean: float
    eta_var: float
    rho: float
    horizon: float
    terminal_utility: Union[str, Callable] = "sqrt"
    delta: float = 1.0
    eta_family: str = "lognormal"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"quadratic cost coefficient gamma must be positive, got {self.gamma}")
        if self.eta_mean <= 0:
            raise ValueError(f"mean breach loss must be positive, got {self.eta_mean}")
        if self.eta_var < 0:
            raise ValueError(f"breach-loss variance must be nonnegative, got {self.eta_var}")
        if self.rho < 0:
            raise ValueError(f"obsolescence rate must be nonnegative, got {self.rho}")
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.delta <= 0:
            raise ValueError(f"linear cost coefficient delta must be positive, got {self.delta}")
        if self.eta_family not in ("lognormal", "gamma", "fixed"):
            raise ValueError(f"unknown loss family {self.eta_family!r}")
        if self.eta_family == "fixed" and self.eta_var != 0:
            raise ValueError("fixed loss family requires eta_var = 0")
        u = resolve_utility(self.terminal_utility)
        grid = np.linspace(0.0, 80.0, 33)
        vals = np.asarray(u(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("terminal utility must be finite on the level range")
        scale = max(1.0, float(np.max(np.abs(vals))))
        d1 = np.diff(vals)
        if np.any(d1 < -1e-9 * scale):
            raise ValueError("terminal utility must be nondecreasing")
        if np.any(np.diff(d1) > 1e-9 * scale):
            raise ValueError("terminal utility must be concave")

    @property
    def utility(self) -> Callable:
        return resolve_utility(self.terminal_utility)


@dataclass(frozen=True)
class LossSample:
    """Realized aggregate loss of one path under one strategy."""

    gross_loss: float
    n_attacks: int
    n_breaches: int
    terminal_h: float

    def __post_init__(self):
        if not (0 <= self.n_breaches <= self.n_attacks):
            raise ValueError("breach count must lie between 0 and the attack count")
        if self.gross_loss < 0:
            raise ValueError("gross loss must be nonnegative")


@dataclass(frozen=True)
class LossBatch:
    """Per-path loss results for a batch of simulated paths."""

    gross_loss: np.ndarray
    n_attacks: np.ndarray
    n_breaches: np.ndarray
    terminal_h: np.ndarray

    @property
    def n_paths(self) -> int:
        return int(self.gross_loss.size)

    def sample(self, i: int) -> LossSample:
        return LossSample(
            float(self.gross_loss[i]),
            int(self.n_attacks[i]),
            int(self.n_breaches[i]),
            float(self.terminal_h[i]),
        )

    def mean_loss(self) -> MCEstimate:
        n = self.gross_loss.size
        return MCEstimate(float(self.gross_loss.mean()), float(self.gross_loss.std(ddof=1) / math.sqrt(n)))

    def std_loss(self) -> MCEstimate:
        """Sample standard deviation with its (fourth-moment based) standard error."""
        x = self.gross_loss
        n = x.size
        s2 = float(np.var(x, ddof=1))
        c = x - x.mean()
        m4 = float(np.mean(c**4))
        se_var = math.sqrt(max(m4 - s2**2, 0.0) / n)
        s = math.sqrt(s2)
        return MCEstimate(s, se_var / (2.0 * s) if s > 0 else 0.0)

    def write_csv(self, path) -> None:
        """Per-path rows: seed (path index within the batch), loss, counts, level."""
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("seed,gross_loss,n_attacks,n_breaches,terminal_h\n")
            for i in range(self.n_paths):
                fh.write(
                    f"{i},{self.gross_loss[i]:.12g},{self.n_attacks[i]},"
                    f"{self.n_breaches[i]},{self.terminal_h[i]:.12g}\n"
                )


class ConstantRate:
    """Constant investment rate; recognized for exact exponential integration."""

    def __init__(self, rate: float):
        if rate < 0:
            raise PolicyError(f"investment rate must be nonnegative, got {rate}")
        self.rate = float(rate)

    def __call__(self, t, *state):
        return self.rate

    def __repr__(self):
        return f"ConstantRate({self.rate})"


class GridRate:
    """Piecewise-constant rate: values[i] applies on [times[i], times[i+1])."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.size != self.values.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if self.times.size == 0:
            raise ValueError("need at least one knot")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if np.any(self.values < 0):
            raise PolicyError("investment rates must be nonnegative")

    def __call__(self, t, *state):
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if np.ndim(t) == 0 else out


def _phi(rho: float, s):
    """Integral of e^{-rho u} over [0, s]; equals s when rho = 0.

    Where rho*s is below the smallest normal float the product has lost its
    digits, so -expm1(-rho s)/rho is wrong (0 at rho = 5e-324, s = 0.5),
    while the integral equals s to double precision; s is returned there.
    """
    s_arr = np.asarray(s, dtype=float)
    if rho == 0:
        return float(s_arr) if s_arr.ndim == 0 else s_arr
    out = -np.expm1(-rho * s_arr) / rho
    if s_arr.ndim == 0:
        # plain floats: the quadrature integrands call this per node, and
        # numpy scalar arithmetic would more than double the cost per call
        s = float(s_arr)
        return s if abs(rho * s) < _TINY else float(out)
    # recomputing the product keeps no extra float array alive at peak
    small = abs(rho * s_arr) < _TINY
    return np.where(small, s_arr, out) if small.any() else out


def _level_knots(h0: float, rho: float, knots: np.ndarray, zvals: np.ndarray) -> np.ndarray:
    """Exact level at each knot under the piecewise-constant rate starting at knots[0]."""
    out = np.empty(knots.size)
    out[0] = h0
    for i in range(knots.size - 1):
        dt = knots[i + 1] - knots[i]
        out[i + 1] = out[i] * math.exp(-rho * dt) + zvals[i] * _phi(rho, dt)
    return out


def _level_query(h0, rho, knots, zvals, hknots, ts):
    """Exact level at query times >= knots[0] under the piecewise-constant rate."""
    ts = np.asarray(ts, dtype=float)
    j = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, knots.size - 1)
    dt = ts - knots[j]
    return hknots[j] * np.exp(-rho * dt) + zvals[j] * _phi(rho, dt)


def _rk4_walk(path: AttackPath, rho: float, strategy, h0: float, stops: np.ndarray):
    """RK4 integration of dH = (z - rho H) dt, returning H at each stop time.

    The strategy sees (t, lambda_{t-}, H); rates are validated at every stage.
    """

    def rate(t, h):
        lam = path.intensity(t, before=True)
        z = float(strategy(t, lam, h))
        if z < 0:
            raise PolicyError(f"strategy returned negative rate {z} at t={t}")
        return z

    h = float(h0)
    t = 0.0
    out = np.empty(stops.size)
    for k, stop in enumerate(stops):
        seg = stop - t
        if seg > 0:
            nsub = max(1, int(math.ceil(seg / RK4_MAX_STEP)))
            dt = seg / nsub
            for _ in range(nsub):
                f1 = rate(t, h) - rho * h
                h2 = h + 0.5 * dt * f1
                f2 = rate(t + 0.5 * dt, h2) - rho * h2
                h3 = h + 0.5 * dt * f2
                f3 = rate(t + 0.5 * dt, h3) - rho * h3
                h4 = h + dt * f3
                f4 = rate(t + dt, h4) - rho * h4
                h = h + dt * (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
                t += dt
            t = stop
        out[k] = h
    return out


def evolve_level(h0: float, rho: float, strategy, times) -> np.ndarray:
    """Protection level along `times` (ascending, times[0] = start) under `strategy`.

    Constant and piecewise-constant rates are integrated exactly; general
    callables (t, h) -> rate fall back to RK4 with step <= 1e-3.
    """
    if h0 < 0:
        raise ValueError("initial level must be nonnegative")
    if rho < 0:
        raise ValueError("obsolescence rate must be nonnegative")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    t0 = times[0]
    if isinstance(strategy, ConstantRate):
        s = times - t0
        return h0 * np.exp(-rho * s) + strategy.rate * _phi(rho, s)
    if isinstance(strategy, GridRate):
        inside = strategy.times > t0
        knots = np.concatenate(([t0], strategy.times[inside]))
        first = float(strategy(t0))
        zvals = np.concatenate(([first], strategy.values[inside]))
        hk = _level_knots(h0, rho, knots, zvals)
        return _level_query(h0, rho, knots, zvals, hk, times)

    # general callback: RK4 walk, signature (t, h)
    h = float(h0)
    t = t0
    out = np.empty(times.size)
    out[0] = h
    for k in range(1, times.size):
        seg = times[k] - t
        nsub = max(1, int(math.ceil(seg / RK4_MAX_STEP)))
        dt = seg / nsub
        for _ in range(nsub):

            def f(tt, hh):
                z = float(strategy(tt, hh))
                if z < 0:
                    raise PolicyError(f"strategy returned negative rate {z} at t={tt}")
                return z - rho * hh

            f1 = f(t, h)
            f2 = f(t + 0.5 * dt, h + 0.5 * dt * f1)
            f3 = f(t + 0.5 * dt, h + 0.5 * dt * f2)
            f4 = f(t + dt, h + dt * f3)
            h = h + dt * (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
            t += dt
        t = times[k]
        out[k] = h
    return out


def _eta_sampler(costs: CostParams):
    mean, var = costs.eta_mean, costs.eta_var
    if var == 0 or costs.eta_family == "fixed":
        return lambda rng, n: np.full(n, mean)
    if costs.eta_family == "lognormal":
        sigma2 = math.log1p(var / mean**2)
        mu = math.log(mean) - 0.5 * sigma2
        s = math.sqrt(sigma2)
        return lambda rng, n: rng.lognormal(mu, s, n)
    # gamma with matched mean/variance
    shape = mean**2 / var
    scale = var / mean
    return lambda rng, n: rng.gamma(shape, scale, n)


def _levels_at_events(path: AttackPath, costs: CostParams, strategy, h0: float):
    """Level at every attack time plus the terminal level, per strategy type."""
    taus = path.event_times
    stops = np.concatenate((taus, [path.horizon]))
    if isinstance(strategy, ConstantRate):
        levels = h0 * np.exp(-costs.rho * stops) + strategy.rate * _phi(costs.rho, stops)
    elif isinstance(strategy, GridRate):
        inside = strategy.times > 0
        knots = np.concatenate(([0.0], strategy.times[inside]))
        zvals = np.concatenate(([float(strategy(0.0))], strategy.values[inside]))
        hk = _level_knots(h0, costs.rho, knots, zvals)
        levels = _level_query(h0, costs.rho, knots, zvals, hk, stops)
    else:
        levels = _rk4_walk(path, costs.rho, strategy, h0, stops)
    return levels[:-1], float(levels[-1])


def simulate_loss(path: AttackPath, model: BreachModel, costs: CostParams, strategy, seed: int, h0: float = 0.0) -> LossSample:
    """Aggregate loss along one attack path under a predictable strategy.

    Per-attack randomness is drawn up front (one breach uniform and one loss
    draw per attack), so runs with the same path and seed are coupled across
    strategies: pointwise-larger strategies can only lower the realized loss.
    """
    n = path.n_events
    rng_b = substream(seed, "breach")
    rng_l = substream(seed, "losses")
    uniforms = rng_b.random(n)
    etas = _eta_sampler(costs)(rng_l, n)
    levels, terminal_h = _levels_at_events(path, costs, strategy, h0)
    probs = breach_prob(model, levels) if n else np.zeros(0)
    breached = uniforms < probs
    gross = float(np.sum(etas[breached])) if n else 0.0
    return LossSample(gross, n, int(breached.sum()), terminal_h)


def _control_levels(batch: PathBatch, tk: np.ndarray, Z: np.ndarray, h0: float, rho: float):
    """Exact level at every event and at the horizon under piecewise-constant controls.

    Z[:, i] applies on [tk[i], tk[i+1]); Z has one row per path, or a single
    row that every path shares.
    """
    decay = np.exp(-rho * np.diff(tk))
    gain = _phi(rho, np.diff(tk))
    hk = np.empty(Z.shape)
    hk[:, 0] = h0
    for i in range(tk.size - 1):
        hk[:, i + 1] = hk[:, i] * decay[i] + Z[:, i] * gain[i]
    j = np.clip(np.searchsorted(tk, batch.times, side="right") - 1, 0, tk.size - 1)
    row = batch.path_index() if Z.shape[0] > 1 else 0
    dt_ev = batch.times - tk[j]
    levels = hk[row, j] * np.exp(-rho * dt_ev) + Z[row, j] * _phi(rho, dt_ev)
    T = batch.horizon
    jT = np.clip(np.searchsorted(tk, T, side="right") - 1, 0, tk.size - 1)
    terminal = hk[:, jT] * math.exp(-rho * (T - tk[jT])) + Z[:, jT] * _phi(rho, T - tk[jT])
    return levels, np.broadcast_to(terminal, batch.n_paths).copy()


def _draw_losses(probs: np.ndarray, counts: np.ndarray, rng_b, rng_l, draw_eta):
    """Per-path (gross loss, breach count) from per-event breach probabilities.

    Draws one breach uniform and one loss mark per event from the given
    generators. Drawing a batch chunk by chunk from the same two generators
    gives the same numbers as drawing it at once.
    """
    n = probs.size
    pid = np.repeat(np.arange(counts.size), counts)
    breached = rng_b.random(n) < probs
    etas = draw_eta(rng_l, n)
    gross = np.bincount(pid, weights=np.where(breached, etas, 0.0), minlength=counts.size)
    return gross, np.bincount(pid[breached], minlength=counts.size)


def simulate_losses(
    batch: PathBatch,
    model: BreachModel,
    costs: CostParams,
    strategy=None,
    seed: int = 0,
    h0: float = 0.0,
    control_times: Optional[np.ndarray] = None,
    controls: Optional[np.ndarray] = None,
) -> LossBatch:
    """Vectorized losses over a path batch.

    Either pass `strategy` (ConstantRate / GridRate / general callable), or
    per-path piecewise-constant controls as (`control_times`, `controls`)
    with controls shaped (n_paths, len(control_times)).

    All strategies share the same flat per-attack draws for a given batch and
    seed (common random numbers).
    """
    n_paths = batch.n_paths
    rho = costs.rho
    T = batch.horizon

    if controls is not None:
        tk = np.asarray(control_times, dtype=float)
        Z = np.asarray(controls, dtype=float)
        if Z.shape != (n_paths, tk.size):
            raise ValueError("controls must have shape (n_paths, len(control_times))")
        if np.any(Z < 0):
            raise PolicyError("controls must be nonnegative")
        levels, terminal = _control_levels(batch, tk, Z, h0, rho)
    elif isinstance(strategy, ConstantRate):
        levels = h0 * np.exp(-rho * batch.times) + strategy.rate * _phi(rho, batch.times)
        terminal = np.full(n_paths, h0 * math.exp(-rho * T) + strategy.rate * _phi(rho, T))
    elif isinstance(strategy, GridRate):
        levels, terminal = _control_levels(batch, strategy.times, strategy.values[None, :], h0, rho)
    elif callable(strategy):
        levels = np.empty(batch.times.size)
        terminal = np.empty(n_paths)
        for i in range(n_paths):
            lv, th = _levels_at_events(batch.path(i), costs, strategy, h0)
            levels[batch.offsets[i] : batch.offsets[i + 1]] = lv
            terminal[i] = th
    else:
        raise ValueError("pass a strategy or per-path controls")

    probs = breach_prob(model, levels) if levels.size else np.zeros(0)
    counts = batch.counts()
    gross, nb = _draw_losses(
        probs, counts, substream(seed, "breach"), substream(seed, "losses"), _eta_sampler(costs)
    )
    return LossBatch(gross, counts.astype(np.int64), nb, np.asarray(terminal, dtype=float))


def expected_loss_no_investment(params: HawkesParams, model: BreachModel, costs: CostParams) -> float:
    """Closed-form expected aggregate loss with no investment: eta_mean * v * E[N_T]."""
    return costs.eta_mean * model.v * expected_count(params, costs.horizon)


def _is_zero_strategy(strategy) -> bool:
    return strategy is None or (isinstance(strategy, ConstantRate) and strategy.rate == 0.0)


def loss_variance(
    params: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    strategy=None,
    mc_paths: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Variance of the aggregate loss under a strategy.

    With no investment it is exact, with standard error 0, from the
    total-variance decomposition

        Var = E[N_T] (eta_var v + eta_mean^2 v (1 - v)) + eta_mean^2 v^2 Var(N_T),

    and the exact Var(N_T); other strategies are estimated by simulating
    losses directly over mc_paths paths.
    """
    if mc_paths < 10_000:
        raise ValueError("mc_paths must be at least 10^4")
    T = costs.horizon
    if _is_zero_strategy(strategy):
        v = model.v
        if v == 0:
            return MCEstimate(0.0, 0.0)
        en = expected_count(params, T)
        per_event = costs.eta_var * v + costs.eta_mean**2 * v * (1.0 - v)
        return MCEstimate(en * per_event + costs.eta_mean**2 * v**2 * count_variance(params, T), 0.0)
    batch = simulate_paths(params, T, mc_paths, seed)
    lb = simulate_losses(batch, model, costs, strategy, seed)
    x = lb.gross_loss
    s2 = float(np.var(x, ddof=1))
    c = x - x.mean()
    m4 = float(np.mean(c**4))
    return MCEstimate(s2, math.sqrt(max(m4 - s2**2, 0.0) / x.size))
