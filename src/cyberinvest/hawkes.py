"""Self-exciting attack arrivals: exact thinning simulation and moment formulas.

The attack counter N_t carries a stochastic intensity that jumps by ``beta`` at
every event and relaxes exponentially at rate ``xi`` toward the long-run mean
``alpha``:

    lambda_t = alpha + (lambda0 - alpha) e^{-xi t} + beta * sum_i e^{-xi (t - tau_i)}

All moment formulas require the subcritical regime beta < xi, which is also
enforced at construction time.

Batches are simulated in chunks of CHUNK_PATHS paths, each by thinning
rounds over all its paths at once and from its own child of the "paths"
substream. A chunk's events come out in generation order, which keeps each
path's events in time order: simulate_paths sorts them path by path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rng import CHUNK_PATHS, generator_from, stream_children, substream
from .errors import StabilityError

__all__ = [
    "HawkesParams",
    "AttackPath",
    "PathBatch",
    "MCEstimate",
    "simulate_path",
    "simulate_paths",
    "expected_intensity",
    "expected_count",
    "intensity_variance",
    "count_variance",
    "lambda_max_heuristic",
]


class MCEstimate(NamedTuple):
    """A Monte Carlo point estimate with its standard error."""

    value: float
    stderr: float


@dataclass(frozen=True)
class HawkesParams:
    """Intensity parameters (events/year): long-run mean, start value, decay, jump."""

    alpha: float
    lambda0: float
    xi: float
    beta: float

    def __post_init__(self):
        vals = (self.alpha, self.lambda0, self.xi, self.beta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("intensity parameters must be finite")
        if self.alpha <= 0 or self.lambda0 <= 0 or self.xi <= 0 or self.beta < 0:
            raise ValueError(
                "require alpha > 0, lambda0 > 0, xi > 0, beta >= 0; got "
                f"alpha={self.alpha}, lambda0={self.lambda0}, xi={self.xi}, beta={self.beta}"
            )
        if self.beta >= self.xi:
            raise StabilityError(
                f"subcritical regime requires beta < xi (got beta={self.beta}, xi={self.xi})"
            )

    @property
    def reversion_rate(self) -> float:
        """Effective mean-reversion rate of the expected intensity."""
        return self.xi - self.beta

    @property
    def stationary_mean(self) -> float:
        """Long-run expected intensity alpha*xi/(xi - beta)."""
        return self.alpha * self.xi / (self.xi - self.beta)


@dataclass(frozen=True)
class AttackPath:
    """One realized attack history on [0, horizon] with an evaluable intensity."""

    params: HawkesParams
    horizon: float
    event_times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.event_times, dtype=float)
        object.__setattr__(self, "event_times", times)
        if times.size:
            if np.any(np.diff(times) <= 0):
                raise ValueError("event times must be strictly increasing")
            if times[0] <= 0 or times[-1] > self.horizon:
                raise ValueError("event times must lie in (0, horizon]")

    @property
    def n_events(self) -> int:
        return int(self.event_times.size)

    def as_batch(self) -> "PathBatch":
        """This path as a PathBatch of one."""
        return PathBatch(self.params, self.horizon, self.event_times, np.array([0, self.n_events]))

    def intensity(self, t, before=False):
        """Intensity at time(s) t; ``before`` gives the left limit lambda_{t-}."""
        p = self.params
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        side = "left" if before else "right"
        idx = np.searchsorted(self.event_times, t_arr, side=side)
        out = p.alpha + (p.lambda0 - p.alpha) * np.exp(-p.xi * t_arr)
        if self.event_times.size:
            # Sum the decayed kicks of all past events for each query time.
            diffs = t_arr[:, None] - self.event_times[None, :]
            mask = np.arange(self.event_times.size)[None, :] < idx[:, None]
            out = out + p.beta * np.where(mask, np.exp(-p.xi * diffs, where=mask, out=np.zeros_like(diffs)), 0.0).sum(axis=1)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(out[0])
        return out


class ThinningTrace(NamedTuple):
    """Per-candidate diagnostics of the thinning sampler (for auditing)."""

    candidate_times: np.ndarray
    bounds: np.ndarray
    intensities: np.ndarray
    accepted: np.ndarray


def simulate_path(params: HawkesParams, horizon: float, seed: int, return_trace: bool = False):
    """Draw one exact path by thinning: deterministic given the seed.

    Between events the intensity is monotone toward alpha, so
    max(current intensity, alpha) dominates it until the next event.
    """
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon)):
        raise ValueError(f"horizon must be a finite number, got {horizon!r}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = substream(seed, "paths")
    alpha, lam0, xi, beta = params.alpha, params.lambda0, params.xi, params.beta

    t, lam = 0.0, lam0
    events = []
    cand_t, cand_bound, cand_lam, cand_acc = [], [], [], []
    while True:
        bound = max(lam, alpha)
        wait = rng.exponential(1.0 / bound)
        t_new = t + wait
        if t_new > horizon:
            break
        lam_at = alpha + (lam - alpha) * math.exp(-xi * wait)
        accept = rng.random() * bound <= lam_at
        if return_trace:
            cand_t.append(t_new)
            cand_bound.append(bound)
            cand_lam.append(lam_at)
            cand_acc.append(accept)
        if accept:
            events.append(t_new)
            lam = lam_at + beta
        else:
            lam = lam_at
        t = t_new

    path = AttackPath(params=params, horizon=float(horizon), event_times=np.array(events))
    if return_trace:
        trace = ThinningTrace(
            np.array(cand_t), np.array(cand_bound), np.array(cand_lam), np.array(cand_acc, dtype=bool)
        )
        return path, trace
    return path


@dataclass(frozen=True)
class PathBatch:
    """Attack histories for many paths, stored flat for vectorized work."""

    params: HawkesParams
    horizon: float
    times: np.ndarray
    offsets: np.ndarray

    @property
    def n_paths(self) -> int:
        return int(self.offsets.size - 1)

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def path(self, i: int) -> AttackPath:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return AttackPath(self.params, self.horizon, self.times[lo:hi].copy())

    def slice(self, start: int, stop: int) -> "PathBatch":
        off = self.offsets[start : stop + 1]
        return PathBatch(self.params, self.horizon, self.times[off[0] : off[-1]], off - off[0])

    def path_index(self) -> np.ndarray:
        """Path id of each flat event."""
        return np.repeat(np.arange(self.n_paths), self.counts())

    def terminal_intensity(self) -> np.ndarray:
        """lambda at the horizon for every path."""
        return self.intensity_on_grid(np.array([self.horizon]))[:, 0]

    def intensity_on_grid(self, tgrid: np.ndarray) -> np.ndarray:
        """Intensity at the given ascending times for every path, shape (n_paths, len(tgrid)).

        The result is the transpose of a time-major (len(tgrid), n_paths)
        array, so each grid time's column is contiguous.
        """
        p, n = self.params, self.n_paths
        tgrid = np.asarray(tgrid, dtype=float)
        k = tgrid.size
        # Each event contributes to the first grid time >= tau; later grid
        # times pick it up through the exponential-decay recursion.
        bucket = np.searchsorted(tgrid, self.times, side="left")
        inside = bucket < k
        b = bucket[inside]
        cell = b * n + self.path_index()[inside]
        kicks = np.exp(-p.xi * (tgrid[b] - self.times[inside]))
        # a batch with no event gets int counts from bincount: make them float
        out = np.bincount(cell, weights=kicks, minlength=n * k).astype(float, copy=False).reshape(k, n)
        rows = list(out)
        for prev, row, step in zip(rows, rows[1:], np.diff(tgrid).tolist()):
            row += prev * math.exp(-p.xi * step)
        out *= p.beta
        out += (p.alpha + (p.lambda0 - p.alpha) * np.exp(-p.xi * tgrid))[:, None]
        return out.T


def _simulate_chunk(params: HawkesParams, horizon: float, n: int, seedseq):
    """Thinning for one chunk of paths at once: Ogata's (1981) sampler run in
    rounds, each drawing the next candidate of every path still inside the
    horizon. Returns the accepted events as (path ids, times) in the order
    the rounds produce them, and the number of candidates inside the horizon.

    A round adds at most one event to a path and later rounds only later
    times, so each path's events come in time order, interleaved with the
    other paths'. The path ids take the smallest unsigned type that holds
    them.
    """
    rng = generator_from(seedseq)
    alpha, lam0, xi, beta = params.alpha, params.lambda0, params.xi, params.beta
    t = np.zeros(n)
    lam = np.full(n, lam0)
    active = np.arange(n, dtype=np.min_scalar_type(n - 1))
    candidates = 0
    ev_pid, ev_t = [active[:0]], [t[:0]]
    while active.size:
        k = active.size
        bound = np.maximum(lam, alpha)
        wait = rng.exponential(1.0, k) / bound
        t_new = t + wait
        lam_at = alpha + (lam - alpha) * np.exp(-xi * wait)
        u = rng.random(k) * bound
        alive = t_new <= horizon
        acc = alive & (u <= lam_at)
        if acc.any():
            ev_pid.append(active[acc])
            ev_t.append(t_new[acc])
            lam_at += beta * acc  # the jump; the others add 0.0, which leaves them as they are
        t, lam, active = t_new[alive], lam_at[alive], active[alive]
        candidates += active.size
    return np.concatenate(ev_pid), np.concatenate(ev_t), candidates


def _chunk_jobs(seed: int, n_paths: int) -> list:
    """(size, SeedSequence) of every CHUNK_PATHS chunk of an n_paths batch.

    Chunk i always draws from child i of the "paths" substream, so a chunk's
    paths depend only on the seed and the chunk's index.
    """
    n_chunks = (n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS
    children = stream_children(seed, "paths", n_chunks)
    return [(min(CHUNK_PATHS, n_paths - i * CHUNK_PATHS), children[i]) for i in range(n_chunks)]


def _check_batch_args(horizon, n_paths: int) -> None:
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon)) or horizon <= 0:
        raise ValueError("horizon must be finite and positive")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")


def simulate_paths(params: HawkesParams, horizon: float, n_paths: int, seed: int) -> PathBatch:
    """Simulate many paths, chunk by chunk (see _chunk_jobs).

    A stable sort by path id puts each chunk's events, which the sampler
    returns in generation order, path by path and in time order.
    """
    _check_batch_args(horizon, n_paths)
    times, counts = [], []
    for n, seedseq in _chunk_jobs(seed, n_paths):
        pid, t, _ = _simulate_chunk(params, float(horizon), n, seedseq)
        times.append(t[np.argsort(pid, kind="stable")])
        counts.append(np.bincount(pid, minlength=n))
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=offsets[1:])
    return PathBatch(params=params, horizon=float(horizon), times=np.concatenate(times), offsets=offsets)


def expected_intensity(params: HawkesParams, t):
    """E[lambda_t] in closed form; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    k = params.reversion_rate
    lstar = params.stationary_mean
    out = lstar + np.exp(-k * t_arr) * (params.lambda0 - lstar)
    return float(out) if out.ndim == 0 else out


def expected_count(params: HawkesParams, t):
    """E[N_t] in closed form; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    k = params.reversion_rate
    lstar = params.stationary_mean
    out = lstar * t_arr - (params.lambda0 - lstar) / k * (np.exp(-k * t_arr) - 1.0)
    return float(out) if out.ndim == 0 else out


def _tail(x: float, a: float, b: float, d: float) -> float:
    """a e^{-x} + b x e^{-x} + d e^{-2x} less its Taylor polynomial of degree 1, for x >= 0; below x = 1,
    where that difference cancels, the series sum of c_n x^n, c_n = ((-1)^n (a - b n) + d (-2)^n) / n!, n = 2..31."""
    if x >= 1.0:
        e = math.exp(-x)
        return (a + b * x + d * e) * e - (a + d) - (b - a - 2.0 * d) * x
    s1, s2, total = -x, -2.0 * x, 0.0  # (-x)^n / n! and (-2x)^n / n!
    for n in range(2, 32):
        s1 *= -x / n
        s2 *= -2.0 * x / n
        total += (a - b * n) * s1 + d * s2
    return total


def _central_moments(params: HawkesParams, t: float) -> np.ndarray:
    """(1, E[lambda_t], E[N_t], Var(lambda_t), Cov(N_t, lambda_t), Var(N_t)) in closed form.

    These solve a linear ODE (Dassios & Zhao 2011): with k = xi - beta,

        d E[lambda] = xi alpha - k E[lambda]
        d E[N]      = E[lambda]
        d Var(lambda)    = beta^2 E[lambda] - 2 k Var(lambda)
        d Cov(N, lambda) = beta E[lambda] + Var(lambda) - k Cov(N, lambda)
        d Var(N)         = E[lambda] + 2 Cov(N, lambda)

    from (lambda0, 0, 0, 0, 0). Each is written as a sum of nonnegative terms in
    E = e^{-k t}, 1 - E and the remainders of _tail, which do not cancel, at small
    t either; central rather than raw moments avoid E[N^2] - E[N]^2.
    """
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    lam0, k = params.lambda0, params.reversion_rate
    lstar, r, x = params.stationary_mean, params.beta / k, k * t
    e, e1 = math.exp(-x), -math.expm1(-x)
    # x - 1 + E, 1 - E - x E, 1 - E^2 - 2 x E, x - 2 + 2 E + x E, x - 5/2 + 2 E + 2 x E + E^2/2
    p0, p1, p2, p3, p4 = (_tail(x, *abd) for abd in ((1, 0, 0), (-1, -1, 0), (0, -2, -1), (2, 1, 0), (2, 2, 0.5)))
    var_n = (lam0 * (e1 + r * (2.0 * p1 + r * p2)) + lstar * (p0 + r * (2.0 * p3 + r * p4))) / k
    cov = lstar * r * (p1 + 0.5 * r * p2) + lam0 * e * r * (x + r * p0)
    var_lam = params.beta * r * e1 * (0.5 * lstar * e1 + lam0 * e)
    return np.array([1.0, lstar * e1 + lam0 * e, (lam0 * e1 + lstar * p0) / k, var_lam, cov, var_n])


def intensity_variance(params: HawkesParams, t: float) -> float:
    """Var(lambda_t), exact (see _central_moments)."""
    return float(_central_moments(params, t)[3])


def count_variance(params: HawkesParams, t: float) -> float:
    """Var(N_t), exact (see _central_moments)."""
    return float(_central_moments(params, t)[5])


def lambda_max_heuristic(params: HawkesParams, horizon: float) -> float:
    """Upper truncation level for the intensity domain: E[lambda_T] + 7 sd(lambda_T)."""
    return expected_intensity(params, horizon) + 7.0 * math.sqrt(intensity_variance(params, horizon))
