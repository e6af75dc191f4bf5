"""Self-exciting attack arrivals: exact thinning simulation and moment formulas.

The attack counter N_t carries a stochastic intensity that jumps by ``beta`` at
every event and relaxes exponentially at rate ``xi`` toward the long-run mean
``alpha``:

    lambda_t = alpha + (lambda0 - alpha) e^{-xi t} + beta * sum_i e^{-xi (t - tau_i)}

All moment formulas require the subcritical regime beta < xi, which is also
enforced at construction time.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

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

    def count(self, t):
        """Number of attacks up to and including time t."""
        return np.searchsorted(self.event_times, t, side="right")

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
        p = self.params
        base = p.alpha + (p.lambda0 - p.alpha) * math.exp(-p.xi * self.horizon)
        kicks = np.exp(-p.xi * (self.horizon - self.times))
        sums = np.bincount(self.path_index(), weights=kicks, minlength=self.n_paths)
        return base + p.beta * sums

    def intensity_on_grid(self, tgrid: np.ndarray) -> np.ndarray:
        """Intensity at the given ascending times for every path, shape (n_paths, len(tgrid))."""
        p = self.params
        tgrid = np.asarray(tgrid, dtype=float)
        n, k = self.n_paths, tgrid.size
        # Each event contributes to the first grid time >= tau; later grid
        # times pick it up through the exponential-decay recursion.
        bucket = np.searchsorted(tgrid, self.times, side="left")
        inside = bucket < k
        b = bucket[inside]
        cell = self.path_index()[inside] * k + b
        kicks = np.exp(-p.xi * (tgrid[b] - self.times[inside]))
        contrib = np.bincount(cell, weights=kicks, minlength=n * k).reshape(n, k)
        acc = np.zeros(n)
        out = np.empty((n, k))
        prev_t = 0.0
        for j in range(k):
            acc = acc * math.exp(-p.xi * (tgrid[j] - prev_t)) + contrib[:, j]
            out[:, j] = acc
            prev_t = tgrid[j]
        base = p.alpha + (p.lambda0 - p.alpha) * np.exp(-p.xi * tgrid)
        return base[None, :] + p.beta * out


def _simulate_chunk(shared, job):
    """Thinning for one chunk of paths at once; returns its flat (times, offsets).

    shared is (params, horizon) and job is (n_paths, SeedSequence), as
    _map_chunks passes them.
    """
    (params, horizon), (n, seedseq) = shared, job
    rng = generator_from(seedseq)
    alpha, lam0, xi, beta = params.alpha, params.lambda0, params.xi, params.beta
    t = np.zeros(n)
    lam = np.full(n, lam0)
    active = np.arange(n)
    ev_pid, ev_t = [], []
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
        lam = np.where(acc, lam_at + beta, lam_at)
        t, lam, active = t_new[alive], lam[alive], active[alive]
    if ev_pid:
        pid = np.concatenate(ev_pid)
        times = np.concatenate(ev_t)
        order = np.lexsort((times, pid))
        pid, times = pid[order], times[order]
    else:
        pid = np.zeros(0, dtype=np.int64)
        times = np.zeros(0)
    counts = np.bincount(pid, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return times, offsets


def _chunk_jobs(seed: int, n_paths: int) -> list:
    """(size, SeedSequence) of every CHUNK_PATHS chunk of an n_paths batch.

    Chunk i always draws from child i of the "paths" substream, so a chunk's
    paths do not depend on which process simulates it.
    """
    n_chunks = (n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS
    children = stream_children(seed, "paths", n_chunks)
    return [(min(CHUNK_PATHS, n_paths - i * CHUNK_PATHS), children[i]) for i in range(n_chunks)]


# (kernel, shared) of a pool worker process, set once by the pool initializer.
_worker_kernel = None


def _install_kernel(kernel, shared):
    global _worker_kernel
    _worker_kernel = (kernel, shared)
    # glibc sets its mmap and trim thresholds to the largest mapping freed so
    # far (at most 32 MB). Freeing a 24 MB block here lets a worker reuse heap
    # memory for the kernels' temporaries instead of mapping and faulting them
    # in afresh for every chunk (a tenth of the page faults of a premium report).
    np.empty(3 << 20)


def _run_installed(job):
    kernel, shared = _worker_kernel
    return kernel(shared, job)


def _map_chunks(kernel, shared, jobs: list, threads: int = 1):
    """Yield kernel(shared, job) for every job, in job order.

    With threads > 1 the jobs run in a process pool that receives `shared`
    once per worker and keeps at most 2 * threads jobs in flight, so memory
    stays O(threads x chunk) however many jobs there are.
    """
    if threads <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield kernel(shared, job)
        return
    with ProcessPoolExecutor(max_workers=threads, initializer=_install_kernel, initargs=(kernel, shared)) as pool:
        pending = deque()
        for job in jobs:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(_run_installed, job))
        while pending:
            yield pending.popleft().result()


def _check_batch_args(horizon, n_paths: int) -> None:
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon)) or horizon <= 0:
        raise ValueError("horizon must be finite and positive")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")


def simulate_paths(
    params: HawkesParams, horizon: float, n_paths: int, seed: int, threads: int = 1
) -> PathBatch:
    """Simulate many paths; chunked so results are identical for any thread count."""
    _check_batch_args(horizon, n_paths)
    jobs = _chunk_jobs(seed, n_paths)
    results = list(_map_chunks(_simulate_chunk, (params, float(horizon)), jobs, threads))
    times = np.concatenate([t for t, _ in results])
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(off) for _, off in results]), out=offsets[1:])
    return PathBatch(params=params, horizon=float(horizon), times=times, offsets=offsets)


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


def _central_moments(params: HawkesParams, t: float) -> np.ndarray:
    """(1, E[lambda_t], E[N_t], Var(lambda_t), Cov(N_t, lambda_t), Var(N_t)).

    These solve a linear ODE (Dassios & Zhao 2011): with k = xi - beta,

        d E[lambda] = xi alpha - k E[lambda]
        d E[N]      = E[lambda]
        d Var(lambda)    = beta^2 E[lambda] - 2 k Var(lambda)
        d Cov(N, lambda) = beta E[lambda] + Var(lambda) - k Cov(N, lambda)
        d Var(N)         = E[lambda] + 2 Cov(N, lambda)

    The leading constant 1 carries the forcing xi alpha, so the system is
    y' = A y and y_t = expm(A t) y_0. Central rather than raw moments avoid
    the cancellation in E[N^2] - E[N]^2.
    """
    a, xi, beta = params.alpha, params.xi, params.beta
    k = xi - beta
    A = np.zeros((6, 6))
    A[1, 0], A[1, 1] = xi * a, -k
    A[2, 1] = 1.0
    A[3, 1], A[3, 3] = beta * beta, -2.0 * k
    A[4, 1], A[4, 3], A[4, 4] = beta, 1.0, -k
    A[5, 1], A[5, 4] = 1.0, 2.0
    return expm(A * t) @ np.array([1.0, params.lambda0, 0.0, 0.0, 0.0, 0.0])


def _check_time(t) -> None:
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")


def intensity_variance(params: HawkesParams, t: float) -> float:
    """Var(lambda_t), exact (see _central_moments)."""
    _check_time(t)
    if t == 0 or params.beta == 0:
        return 0.0
    return max(float(_central_moments(params, t)[3]), 0.0)


def count_variance(params: HawkesParams, t: float) -> float:
    """Var(N_t), exact (see _central_moments)."""
    _check_time(t)
    if t == 0:
        return 0.0
    return float(_central_moments(params, t)[5])


def lambda_max_heuristic(params: HawkesParams, horizon: float) -> float:
    """Upper truncation level for the intensity domain: E[lambda_T] + 7 sd(lambda_T)."""
    return expected_intensity(params, horizon) + 7.0 * math.sqrt(intensity_variance(params, horizon))
