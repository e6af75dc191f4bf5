"""Controlled protection-level dynamics and marked attack-loss simulation.

The protection level follows dH = (z_t - rho H) dt for a nonnegative
investment rate z. At each attack time tau the system is breached with
probability S(H_tau, v); a breach draws an independent monetary loss with
mean eta_mean and variance eta_var.

Every strategy is piecewise constant in time (a ConstantRate, a GridRate or
per-path controls), so levels are integrated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import substream
from .breach import BreachModel, breach_prob
from .errors import PolicyError
from .hawkes import AttackPath, HawkesParams, MCEstimate, PathBatch, expected_count, count_variance

__all__ = [
    "CostParams",
    "LossBatch",
    "ConstantRate",
    "GridRate",
    "evolve_level",
    "simulate_loss",
    "simulate_losses",
    "expected_loss_no_investment",
    "loss_variance",
    "resolve_utility",
]

_TINY = float(np.finfo(float).tiny)  # smallest normal float


def _zero_utility(h):
    return np.multiply(h, 0.0)


def resolve_utility(spec: str) -> Callable:
    """The terminal utility named by `spec`: 'sqrt', 'zero' or 'power:p' with p in (0, 1].

    Each is finite, nondecreasing and concave for h >= 0, which
    strategies.optimize_constant relies on.
    """
    if spec == "sqrt":
        return np.sqrt
    if spec == "zero":
        return _zero_utility
    if isinstance(spec, str) and spec.startswith("power:"):
        p = float(spec.split(":", 1)[1])
        if not (0 < p <= 1):
            raise ValueError(f"power utility exponent must lie in (0, 1], got {p}")
        return lambda h: np.power(h, p)
    raise ValueError(f"unknown terminal utility {spec!r}; expected 'sqrt', 'zero' or 'power:p'")


@dataclass(frozen=True)
class CostParams:
    """Investment-cost, loss-mark and horizon parameters of the planning problem."""

    gamma: float
    eta_mean: float
    eta_var: float
    rho: float
    horizon: float
    terminal_utility: str = "sqrt"
    delta: float = 1.0
    eta_family: str = "lognormal"

    def __post_init__(self):
        for name in ("gamma", "eta_mean", "eta_var", "rho", "horizon", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma <= 0:
            raise ValueError(f"quadratic cost coefficient gamma must be positive, got {self.gamma}")
        if self.eta_mean <= 0:
            raise ValueError(f"mean breach loss must be positive, got {self.eta_mean}")
        if self.eta_var < 0:
            raise ValueError(f"breach-loss variance must be nonnegative, got {self.eta_var}")
        if self.rho < 0:
            raise ValueError(f"obsolescence rate must be nonnegative, got {self.rho}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.delta <= 0:
            raise ValueError(f"linear cost coefficient delta must be positive, got {self.delta}")
        if self.eta_family not in ("lognormal", "gamma", "fixed"):
            raise ValueError(f"unknown loss family {self.eta_family!r}")
        if self.eta_family == "fixed" and self.eta_var != 0:
            raise ValueError("fixed loss family requires eta_var = 0")
        resolve_utility(self.terminal_utility)

    @property
    def utility(self) -> Callable:
        return resolve_utility(self.terminal_utility)


@dataclass(frozen=True)
class LossBatch:
    """Per-path loss results for a batch of simulated paths; simulate_loss returns a batch of one."""

    gross_loss: np.ndarray
    n_attacks: np.ndarray
    n_breaches: np.ndarray
    terminal_h: np.ndarray

    @property
    def n_paths(self) -> int:
        return int(self.gross_loss.size)

    def _losses(self) -> np.ndarray:
        """The per-path losses, refused below the two paths a sample variance needs."""
        if self.n_paths < 2:
            raise ValueError(f"sample statistics need at least two paths, got {self.n_paths}")
        return self.gross_loss

    def mean_loss(self) -> MCEstimate:
        x = self._losses()
        return MCEstimate(float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)))

    def var_loss(self) -> MCEstimate:
        """Sample variance with its (fourth-moment based) standard error."""
        x = self._losses()
        s2 = float(np.var(x, ddof=1))
        c = x - x.mean()
        m4 = float(np.mean(c**4))
        return MCEstimate(s2, math.sqrt(max(m4 - s2**2, 0.0) / x.size))

    def std_loss(self) -> MCEstimate:
        """Sample standard deviation with its delta-method standard error."""
        var = self.var_loss()
        s = math.sqrt(var.value)
        return MCEstimate(s, var.stderr / (2.0 * s) if s > 0 else 0.0)


def _check_rates(z: np.ndarray, what: str) -> None:
    if not np.all((z >= 0) & (z < math.inf)):  # nan fails both comparisons
        raise PolicyError(f"{what} must be finite and nonnegative")


class GridRate:
    """Piecewise-constant rate: values[i] applies on [times[i], times[i+1]),
    values[0] also before times[0]."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.size != self.values.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if self.times.size == 0:
            raise ValueError("need at least one knot")
        if not (np.isfinite(self.times).all() and np.all(np.diff(self.times) > 0)):
            raise ValueError("knot times must be finite and strictly increasing")
        _check_rates(self.values, "investment rates")

    def __call__(self, t):
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if np.ndim(t) == 0 else out


class ConstantRate(GridRate):
    """Constant investment rate: a GridRate of one knot, at t = 0."""

    def __init__(self, rate: float):
        super().__init__([0.0], [rate])
        self.rate = float(rate)

    def __repr__(self):
        return f"ConstantRate({self.rate})"


def _phi(rho: float, s):
    """Integral of e^{-rho u} over [0, s]; equals s when rho = 0.

    Where rho*s is below the smallest normal float the product has lost its
    digits, so -expm1(-rho s)/rho is wrong (0 at rho = 5e-324, s = 0.5),
    while the integral equals s to double precision; s is returned there.
    """
    s_arr = np.asarray(s, dtype=float)
    if rho == 0:
        return s_arr
    out = -np.expm1(-rho * s_arr) / rho
    # recomputing the product keeps no extra float array alive at peak
    small = abs(rho * s_arr) < _TINY
    return np.where(small, s_arr, out) if small.any() else out


def _exact_levels(tk, Z, h0: float, rho: float, t0: float, times, row, t_end: float):
    """Exact levels of dH = (z - rho H) dt from h0 at t0 under piecewise-constant rates.

    Z[:, i] applies on [tk[i], tk[i+1]), Z[:, 0] also before tk[0]; Z has one
    row per path, or a single row that every path shares. Returns the level
    at each times[m] >= t0 on row row[m], and every row's level at t_end.
    """
    j0 = max(int(np.searchsorted(tk, t0, side="right")) - 1, 0)
    tk = np.concatenate(([t0], tk[j0 + 1 :]))
    Z = Z[:, j0:]
    span = np.diff(tk)
    decay = np.exp(-rho * span)
    gain = _phi(rho, span)
    hk = np.empty(Z.shape, order="F")
    hk[:, 0] = h0
    for i in range(tk.size - 1):
        hk[:, i + 1] = hk[:, i] * decay[i] + Z[:, i] * gain[i]
    j = np.searchsorted(tk, times, side="right") - 1
    dt = times - tk[j]
    # column-major flat positions of (row, j): one 1-d gather per array
    # costs less than 2-d fancy indexing
    at = j * Z.shape[0] + row
    levels = hk.ravel("F")[at] * np.exp(-rho * dt) + Z.ravel("F")[at] * _phi(rho, dt)
    jT = np.searchsorted(tk, t_end, side="right") - 1
    terminal = hk[:, jT] * math.exp(-rho * (t_end - tk[jT])) + Z[:, jT] * _phi(rho, t_end - tk[jT])
    return levels, terminal


def _knots(strategy):
    """Knot times and one-row rate matrix of a GridRate, a ConstantRate among them."""
    if not isinstance(strategy, GridRate):
        raise TypeError(f"strategy must be a ConstantRate or GridRate, not {type(strategy).__name__}")
    return strategy.times, strategy.values[None, :]


def _check_initial_level(h0: float) -> None:
    if not (math.isfinite(h0) and h0 >= 0):
        raise ValueError(f"initial level must be finite and nonnegative, got {h0!r}")


def evolve_level(h0: float, rho: float, strategy, times) -> np.ndarray:
    """Protection level along `times` (ascending, times[0] = start) under a
    ConstantRate or GridRate strategy, integrated exactly."""
    _check_initial_level(h0)
    if rho < 0:
        raise ValueError("obsolescence rate must be nonnegative")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    return _exact_levels(*_knots(strategy), h0, rho, times[0], times, 0, times[-1])[0]


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


def simulate_loss(path: AttackPath, model: BreachModel, costs: CostParams, strategy, seed: int, h0: float = 0.0) -> LossBatch:
    """Aggregate loss along one attack path: the LossBatch of simulate_losses on a batch of one.

    Runs with the same path and seed share their per-attack draws across
    strategies, so pointwise-larger strategies can only lower the realized loss.
    """
    return simulate_losses(path.as_batch(), model, costs, strategy, seed, h0)


def _control_levels(tk, Z, h0: float, rho: float, times, pid, n_paths: int, horizon: float):
    """Exact level at every event and at the horizon of n_paths paths under
    piecewise-constant controls from h0 at t = 0; `times` are the flat events
    of paths `pid`, in any order. Z is as in _exact_levels."""
    row = pid if Z.shape[0] > 1 else 0
    levels, terminal = _exact_levels(tk, Z, h0, rho, 0.0, times, row, horizon)
    return levels, np.broadcast_to(terminal, n_paths).copy()


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

    Either pass `strategy` (ConstantRate or GridRate), or
    per-path piecewise-constant controls as (`control_times`, `controls`)
    with controls shaped (n_paths, len(control_times)).

    All strategies share the same flat per-attack draws for a given batch and
    seed (common random numbers).
    """
    _check_initial_level(h0)
    rho = costs.rho
    pid = batch.path_index()
    paths = (batch.times, pid, batch.n_paths, batch.horizon)

    if controls is not None:
        tk = np.asarray(control_times, dtype=float)
        Z = np.asarray(controls, dtype=float)
        if Z.shape != (batch.n_paths, tk.size):
            raise ValueError("controls must have shape (n_paths, len(control_times))")
        _check_rates(Z, "controls")
        levels, terminal = _control_levels(tk, Z, h0, rho, *paths)
    elif strategy is not None:
        levels, terminal = _control_levels(*_knots(strategy), h0, rho, *paths)
    else:
        raise ValueError("pass a strategy or per-path controls")

    probs = breach_prob(model, levels) if levels.size else np.zeros(0)
    counts = batch.counts()
    # one uniform and one mark per event, breached or not, so that every
    # strategy sees the same draws
    breached = substream(seed, "breach").random(probs.size) < probs
    etas = _eta_sampler(costs)(substream(seed, "losses"), probs.size)
    nb = np.bincount(pid[breached], minlength=counts.size)
    gross = np.bincount(pid, weights=np.where(breached, etas, 0.0), minlength=counts.size)
    return LossBatch(gross, counts.astype(np.int64), nb, np.asarray(terminal, dtype=float))


def expected_loss_no_investment(params: HawkesParams, model: BreachModel, costs: CostParams) -> float:
    """Closed-form expected aggregate loss with no investment: eta_mean * v * E[N_T]."""
    return costs.eta_mean * model.v * expected_count(params, costs.horizon)


def loss_variance(params: HawkesParams, model: BreachModel, costs: CostParams) -> float:
    """Exact variance of the aggregate loss with no investment, from the
    total-variance decomposition

        Var = E[N_T] (eta_var v + eta_mean^2 v (1 - v)) + eta_mean^2 v^2 Var(N_T),

    and the exact Var(N_T).
    """
    v = model.v
    if v == 0:
        return 0.0
    T = costs.horizon
    per_event = costs.eta_var * v + costs.eta_mean**2 * v * (1.0 - v)
    return expected_count(params, T) * per_event + costs.eta_mean**2 * v**2 * count_variance(params, T)
