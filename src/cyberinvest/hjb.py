"""Backward solve of the investment value surface on an (intensity, level) grid.

The dynamic-programming equation for the value V(t, lambda, h) couples a
mean-reverting drift in lambda, an obsolescence drift in h, a nonlocal shift
lambda (V(lambda + beta) - V(lambda)), a running reward
eta_mean (v - S(h, v)) lambda, and a quadratic Hamiltonian in the investment
rate. Space is discretized with central differences (one-sided at the four
boundaries) and the nonlocal term with a node shift clamped at the top
boundary. In tau = T - t the semi-discrete system is

    dW/dtau = A_lambda W + A_h W + N(W) + r,  N(W) = max(D_h W - delta, 0)^2 / (2 gamma),

where A_lambda (drift plus jump shift) acts along lambda and is the same for
every h line, while A_h (obsolescence drift) and D_h act along h. It is
integrated with the Douglas ADI scheme (theta = 1/2, one step per snapshot
interval; in 't Hout & Foulon 2010), started by two implicit half steps in
each of the first two intervals (Rannacher 1984). The lambda stage is one
sparse LU solve for all h lines. The nonlinear h stage is solved by Newton's
method, which on the max(., 0)^2 Hamiltonian is policy iteration (Forsyth &
Labahn 2007), with one tridiagonal solve for all lambda columns per iteration.

The state W[n, m] = V(lambda_n, h_m) uses the stored-field layout, so neither
stage transposes it. Stored fields add a leading snapshot axis.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

from .breach import BreachModel, breach_prob
from .dynamics import CostParams
from .errors import ConfigError, SolverError
from .hawkes import HawkesParams

__all__ = [
    "SolverGrid",
    "SolverOptions",
    "FieldMeta",
    "ValueField",
    "PolicyField",
    "SolveResult",
    "assemble_rhs",
    "solve",
    "query",
    "hjb_residual",
]

EXTRAPOLATION_RULE = "clamp-at-lambda-max"

_THETA = 0.5  # Douglas weight: second order in time
_RANNACHER_INTERVALS = 2  # leading intervals stepped as two implicit (theta = 1) half steps
_NEWTON_MAX_ITER = 20  # 2-4 iterations suffice on every grid measured
_NEWTON_RTOL = 1e-10  # update max-norm, relative to max(1, max |W|), that ends Newton


@dataclass(frozen=True)
class SolverGrid:
    """Regular discretization of (lambda, h) plus decreasing-from-T snapshot times."""

    lambda_min: float
    lambda_max: float
    d_lambda: float
    h_min: float
    h_max: float
    d_h: float
    t_snapshots: np.ndarray

    def __post_init__(self):
        snaps = np.asarray(self.t_snapshots, dtype=float)
        object.__setattr__(self, "t_snapshots", snaps)
        if self.d_lambda <= 0 or self.d_h <= 0:
            raise ValueError("grid steps must be positive")
        if self.h_min < 0:
            raise ValueError("h_min must be nonnegative")
        if self.lambda_max < self.lambda_min or self.h_max <= self.h_min:
            raise ValueError("grid bounds must be ordered")
        for lo, hi, step, name in (
            (self.lambda_min, self.lambda_max, self.d_lambda, "lambda"),
            (self.h_min, self.h_max, self.d_h, "h"),
        ):
            ratio = (hi - lo) / step
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ValueError(f"({name}_max - {name}_min) must be an integer multiple of d_{name}")
        if snaps.ndim != 1 or snaps.size < 2 or np.any(np.diff(snaps) >= 0):
            raise ValueError("t_snapshots must be strictly decreasing from the horizon")
        if snaps[-1] < 0:
            raise ValueError("snapshot times must be nonnegative")

    @classmethod
    def regular(
        cls,
        lambda_min: float,
        lambda_max: float,
        d_lambda: float,
        h_min: float,
        h_max: float,
        d_h: float,
        horizon: float,
        time_steps: int = 200,
    ) -> "SolverGrid":
        snaps = np.linspace(horizon, 0.0, time_steps + 1)
        return cls(lambda_min, lambda_max, d_lambda, h_min, h_max, d_h, snaps)

    @property
    def lambdas(self) -> np.ndarray:
        n = int(round((self.lambda_max - self.lambda_min) / self.d_lambda)) + 1
        return self.lambda_min + self.d_lambda * np.arange(n)

    @property
    def hs(self) -> np.ndarray:
        n = int(round((self.h_max - self.h_min) / self.d_h)) + 1
        return self.h_min + self.d_h * np.arange(n)

    @property
    def n_lambda(self) -> int:
        return int(round((self.lambda_max - self.lambda_min) / self.d_lambda)) + 1

    @property
    def n_h(self) -> int:
        return int(round((self.h_max - self.h_min) / self.d_h)) + 1

    @property
    def horizon(self) -> float:
        return float(self.t_snapshots[0])

    @property
    def d_t(self) -> float:
        return float(self.t_snapshots[0] - self.t_snapshots[1])

    def refined(self, factor: int = 2) -> "SolverGrid":
        """Same bounds with spatial steps divided by `factor`."""
        return replace(self, d_lambda=self.d_lambda / factor, d_h=self.d_h / factor)


@dataclass(frozen=True)
class SolverOptions:
    """Discretization and storage options for the backward solve."""

    upwind: bool = False
    jump_interp: bool = False
    interp_query: bool = False
    max_nodes: int = 200_000_000


@dataclass(frozen=True)
class FieldMeta:
    """Provenance of a solved field: inputs, options, extrapolation rule."""

    kind: str
    hawkes: HawkesParams
    model: BreachModel
    costs: CostParams
    options: SolverOptions
    dimension: str = "hawkes"
    poisson_intensity: Optional[float] = None
    extrapolation: str = EXTRAPOLATION_RULE


@dataclass(frozen=True)
class ValueField:
    """Value surface V stored as (snapshot, lambda, h)."""

    grid: SolverGrid
    values: np.ndarray
    meta: FieldMeta

    def __post_init__(self):
        expected = (self.grid.t_snapshots.size, self.grid.n_lambda, self.grid.n_h)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expected}")

    def terminal_values(self) -> np.ndarray:
        """V at the horizon snapshot, shape (n_lambda, n_h)."""
        return self.values[0]


@dataclass(frozen=True)
class PolicyField:
    """Optimal investment-rate surface z* stored like ValueField."""

    grid: SolverGrid
    controls: np.ndarray
    meta: FieldMeta

    def __post_init__(self):
        expected = (self.grid.t_snapshots.size, self.grid.n_lambda, self.grid.n_h)
        if self.controls.shape != expected:
            raise ValueError(f"controls shape {self.controls.shape} != grid shape {expected}")


@dataclass(frozen=True)
class SolveResult:
    value: ValueField
    policy: PolicyField
    quality: dict


def _onesided_central_1d(n: int, step: float) -> sp.csr_matrix:
    """Central difference with one-sided first/last rows; zero matrix when n = 1."""
    if n == 1:
        return sp.csr_matrix((1, 1))
    rows, cols, vals = [], [], []
    inv = 1.0 / step
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i + 1, i - 1]
        vals += [0.5 * inv, -0.5 * inv]
    rows += [0, 0, n - 1, n - 1]
    cols += [1, 0, n - 1, n - 2]
    vals += [inv, -inv, inv, -inv]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _upwind_1d(n: int, step: float, coeff: np.ndarray) -> sp.csr_matrix:
    """One-sided differences chosen row-wise so the transport term is monotone."""
    if n == 1:
        return sp.csr_matrix((1, 1))
    rows, cols, vals = [], [], []
    inv = 1.0 / step
    for i in range(n):
        c = coeff[i]
        if c == 0:
            continue
        if c > 0:
            j = i - 1 if i > 0 else i + 1
            sgn = 1.0 if i > 0 else -1.0
        else:
            j = i + 1 if i < n - 1 else i - 1
            sgn = -1.0 if i < n - 1 else 1.0
        rows += [i, i]
        cols += [i, j]
        vals += [sgn * inv, -sgn * inv]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _jump_shift_1d(n: int, d_lambda: float, beta: float, interp: bool) -> sp.csr_matrix:
    """Selector (or two-point interpolator) approximating V(lambda + beta).

    Without interpolation the shift must be a whole number of nodes: a
    fractional beta or beta/d_lambda would otherwise be floored in silence,
    down to zero nodes (no self-excitation) when d_lambda > beta.
    """
    pos = beta / d_lambda
    if not interp:
        if beta != math.floor(beta):
            raise ConfigError(f"jump size beta={beta:g} is not an integer; set [solver] jump_interp = true")
        if abs(pos - round(pos)) > 1e-9:
            raise ConfigError(
                f"beta/d_lambda = {beta:g}/{d_lambda:g} is not an integer, so the jump shift would be "
                f"floored to {math.floor(pos)} nodes; choose d_lambda dividing beta or set [solver] jump_interp = true"
            )
    lo = int(math.floor(pos + 1e-12))
    w = pos - lo
    rows, cols, vals = [], [], []
    for i in range(n):
        j0 = min(i + lo, n - 1)
        if w > 1e-12:
            j1 = min(i + lo + 1, n - 1)
            rows += [i, i]
            cols += [j0, j1]
            vals += [1.0 - w, w]
        else:
            rows.append(i)
            cols.append(j0)
            vals.append(1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _stencil_rows(mat: sp.csr_matrix) -> np.ndarray:
    """(3, n) coefficients of nodes i-1, i, i+1 in row i of a tridiagonal matrix (0 past the ends)."""
    return np.stack([np.r_[0.0, mat.diagonal(-1)], mat.diagonal(), np.r_[mat.diagonal(1), 0.0]])


class _PideOperator:
    """Semi-discrete operator in tau = T - t, held as 1-d factors on the (lambda, h) array W.

    dW/dtau = a_lam @ W + (a_h @ W.T).T + N(W) + reward, with
    N(W) = max(grad_h(W) - delta, 0)^2 / (2 gamma).
    """

    def __init__(self, grid: SolverGrid, hawkes: HawkesParams, model: BreachModel, costs: CostParams, options: SolverOptions):
        lam = grid.lambdas
        hs = grid.hs
        nl, nh = lam.size, hs.size
        self.shape = (nl, nh)
        self.gamma = costs.gamma
        self.delta = costs.delta
        self.reward = costs.eta_mean * (model.v - breach_prob(model, hs))[None, :] * lam[:, None]

        clam = hawkes.xi * (lam - hawkes.alpha)
        ch = costs.rho * hs
        if options.upwind:
            dlam = _upwind_1d(nl, grid.d_lambda, clam)
            dh = _upwind_1d(nh, grid.d_h, ch)
        else:
            dlam = _onesided_central_1d(nl, grid.d_lambda)
            dh = _onesided_central_1d(nh, grid.d_h)
        jump = _jump_shift_1d(nl, grid.d_lambda, hawkes.beta, options.jump_interp)
        # tau runs against t, so the transport terms change sign and the jump term keeps it
        self.a_lam = (sp.diags(lam) @ (jump - sp.identity(nl)) - sp.diags(clam) @ dlam).tocsr()
        self.a_h = (-sp.diags(ch) @ dh).tocsr()
        self.d_h = _onesided_central_1d(nh, grid.d_h)
        self._a_h_rows = _stencil_rows(self.a_h)
        self._d_h_rows = _stencil_rows(self.d_h)

    def grad_h(self, w: np.ndarray) -> np.ndarray:
        return (self.d_h @ w.T).T

    def policy(self, w: np.ndarray) -> np.ndarray:
        """Pointwise maximizer (grad_h V - delta)^+ / gamma on the (lambda, h) array."""
        return np.maximum(self.grad_h(w) - self.delta, 0.0) / self.gamma

    def h_part(self, w: np.ndarray) -> np.ndarray:
        """The terms acting along h: A_h W + N(W)."""
        excess = np.maximum(self.grad_h(w) - self.delta, 0.0)
        return (self.a_h @ w.T).T + excess * excess / (2.0 * self.gamma)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """dV/dt for a surface flattened in (lambda, h) row-major order (or shaped (n_lambda, n_h))."""
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("non-finite value surface during integration")
        w = y.reshape(self.shape)
        return -(self.a_lam @ w + self.h_part(w) + self.reward).reshape(y.shape)

    def h_jacobian(self, w: np.ndarray, c: float) -> np.ndarray:
        """I - c d(h_part)/dW at w, banded (1, 1) for solve_banded, h fastest.

        d(h_part)/dW = A_h + diag(z*) D_h on every lambda column. The entries
        that would couple the last h node of one column to the first node of
        the next are zero, so one solve handles all columns.
        """
        coef = self._a_h_rows[:, None, :] + self.policy(w)[None] * self._d_h_rows[:, None, :]
        rows = -c * coef.reshape(3, -1)
        rows[1] += 1.0
        ab = np.zeros_like(rows)
        ab[0, 1:] = rows[2, :-1]  # a[p, p+1] sits at ab[0, p+1]
        ab[1] = rows[1]
        ab[2, :-1] = rows[0, 1:]  # a[p, p-1] sits at ab[2, p-1]
        return ab


def assemble_rhs(
    state: np.ndarray,
    grid: SolverGrid,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    options: Optional[SolverOptions] = None,
    t: float = 0.0,
) -> np.ndarray:
    """Time derivative of the flattened surface (one entry per (lambda, h) node).

    The state and the result are flattened in (lambda, h) row-major order to
    match the stored-field layout.
    """
    options = options or SolverOptions()
    op = _PideOperator(grid, hawkes, model, costs, options)
    state = np.asarray(state, dtype=float)
    if state.size != grid.n_lambda * grid.n_h:
        raise ValueError(f"state must have {grid.n_lambda * grid.n_h} entries, got {state.size}")
    return op.rhs(t, state.ravel())


class _DouglasADI:
    """Douglas steps of dW/dtau = A_lambda W + F_h(W) + r, with F_h = A_h W + N(W).

    One step of size dt with weight theta:
        Y0 = W + dt (A_lambda W + F_h(W) + r)
        (I - theta dt A_lambda) Y1 = Y0 - theta dt A_lambda W
        Y2 - theta dt F_h(Y2) = Y1 - theta dt F_h(W)   (Newton)
    Counters: nfev explicit operator evaluations, njev Newton Jacobian builds,
    nlu LU factorizations, newton the Newton iterations of each step.
    """

    def __init__(self, op: _PideOperator):
        self.op = op
        self._lus = {}  # theta*dt -> LU of I - theta*dt*A_lambda
        self.nfev = 0
        self.newton = []

    def step(self, w: np.ndarray, dt: float, theta: float, t: float) -> np.ndarray:
        op = self.op
        # rounded so that steps equal but for rounding in the snapshot times share one LU
        c = float(f"{theta * dt:.12g}")
        if c not in self._lus:
            self._lus[c] = splu((sp.identity(op.shape[0], format="csc") - c * op.a_lam).tocsc())
        lu = self._lus[c]
        f_lam = op.a_lam @ w
        f_h = op.h_part(w)
        self.nfev += 1
        # SuperLU takes the right-hand side column-major; a row-major one made
        # this solve about 15x slower on a 125x201 grid under default BLAS threading
        y = lu.solve(np.asfortranarray(w + dt * (f_lam + f_h + op.reward) - c * f_lam))
        target = y - c * f_h
        norm = math.nan

        def failure(what: str) -> SolverError:
            step = len(self.newton) + 1
            return SolverError(
                f"{what} at step {step} (t = {t:.6g}); last update norm {norm:.3e}",
                {"step": step, "t": t, "update_norm": norm},
            )

        for it in range(1, _NEWTON_MAX_ITER + 1):
            resid = y - c * op.h_part(y) - target
            if not np.all(np.isfinite(resid)):
                raise failure("non-finite h stage")
            dy = solve_banded((1, 1), op.h_jacobian(y, c), resid.ravel(), check_finite=False)
            y = y - dy.reshape(y.shape)
            norm = float(np.max(np.abs(dy)))
            if norm <= _NEWTON_RTOL * max(1.0, float(np.max(np.abs(y)))):
                self.newton.append(it)
                return y
        raise failure(f"Newton did not converge in {_NEWTON_MAX_ITER} iterations")


def solve(
    grid: SolverGrid,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    options: Optional[SolverOptions] = None,
) -> SolveResult:
    """Integrate the value surface backward from the horizon; extract the policy.

    Returns the value and policy fields at every snapshot together with a
    quality report (monotonicity statistics, residual norms, integrator
    counters). Values above lambda_max are understood as clamped to the
    lambda_max column, which is recorded in the field metadata.
    """
    options = options or SolverOptions()
    if abs(grid.horizon - costs.horizon) > 1e-12:
        raise ValueError(
            f"grid horizon {grid.horizon} does not match costs.horizon {costs.horizon}"
        )
    snaps = grid.t_snapshots
    n_nodes = snaps.size * grid.n_lambda * grid.n_h
    if n_nodes > options.max_nodes:
        raise SolverError(
            f"{n_nodes} stored nodes exceed the in-memory limit {options.max_nodes}; "
            "coarsen the grid or reduce snapshots"
        )
    op = _PideOperator(grid, hawkes, model, costs, options)
    values = np.empty((snaps.size,) + op.shape)
    controls = np.empty_like(values)
    w = np.broadcast_to(np.asarray(costs.utility(grid.hs), dtype=float), op.shape).copy()
    values[0], controls[0] = w, op.policy(w)
    adi = _DouglasADI(op)
    t0 = time.perf_counter()
    for k in range(1, snaps.size):
        dt = snaps[k - 1] - snaps[k]
        if k <= _RANNACHER_INTERVALS:
            w = adi.step(w, 0.5 * dt, 1.0, snaps[k - 1])
            w = adi.step(w, 0.5 * dt, 1.0, snaps[k - 1] - 0.5 * dt)
        else:
            w = adi.step(w, dt, _THETA, snaps[k - 1])
        values[k], controls[k] = w, op.policy(w)
    wall = time.perf_counter() - t0
    diagnostics = {
        "method": "douglas-adi",
        "nfev": adi.nfev,
        "njev": int(sum(adi.newton)),
        "nlu": len(adi._lus),
        "newton_iterations": adi.newton,
        "newton_mean": float(np.mean(adi.newton)),
        "newton_max": int(max(adi.newton)),
    }

    meta_v = FieldMeta("value", hawkes, model, costs, options)
    meta_p = FieldMeta("policy", hawkes, model, costs, options)
    vf = ValueField(grid, values, meta_v)
    pf = PolicyField(grid, controls, meta_p)
    quality = _quality_report(vf, op, wall, diagnostics)
    return SolveResult(vf, pf, quality)


def _monotonicity_stats(values: np.ndarray, axis: int, tol: float) -> dict:
    diffs = np.diff(values, axis=axis)
    viol = diffs < -tol
    return {
        "violations": int(viol.sum()),
        "fraction": float(viol.sum() / max(values.size, 1)),
        "worst": float(max(-diffs.min(), 0.0)) if diffs.size else 0.0,
    }


def _quality_report(vf: ValueField, op: _PideOperator, wall: float, diagnostics: dict) -> dict:
    values = vf.values
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = 1e-6 * scale
    report = {
        "n_nodes": int(values.size),
        "scale": scale,
        "monotonicity_tolerance": tol,
        "monotone_lambda": _monotonicity_stats(values, axis=1, tol=tol),
        "monotone_h": _monotonicity_stats(values, axis=2, tol=tol),
        "integrator": diagnostics,
        "wall_time_s": float(wall),
    }
    if values.shape[0] >= 3:
        mid = values.shape[0] // 2
        interior, boundary = _residual_split(vf, mid, op)
        report["residual"] = {
            "snapshot": int(mid),
            "time": float(vf.grid.t_snapshots[mid]),
            "interior_max": interior,
            "boundary_max": boundary,
        }
    return report


def _residual_split(field: ValueField, at: int, op: _PideOperator) -> tuple:
    grid = field.grid
    snaps = grid.t_snapshots
    dvdt = (field.values[at + 1] - field.values[at - 1]) / (snaps[at + 1] - snaps[at - 1])
    res = np.abs(dvdt - op.rhs(snaps[at], field.values[at]))
    nl, nh = grid.n_lambda, grid.n_h
    interior_mask = np.zeros((nl, nh), dtype=bool)
    if nh > 2 and nl > 2:
        interior_mask[1:-1, 1:-1] = True
    elif nl == 1 and nh > 2:
        interior_mask[:, 1:-1] = True
    interior = float(res[interior_mask].max()) if interior_mask.any() else float(res.max())
    boundary = float(res[~interior_mask].max()) if (~interior_mask).any() else 0.0
    return interior, boundary


def hjb_residual(field: ValueField, at: int) -> float:
    """Max-norm equation residual at an interior snapshot, interior nodes only.

    The time derivative is approximated by the central difference of the two
    neighboring snapshots and compared against the spatial operator applied to
    the stored surface.
    """
    if field.grid.t_snapshots.size < 3:
        raise ValueError("need at least three snapshots to form a time derivative")
    if not (1 <= at <= field.grid.t_snapshots.size - 2):
        raise ValueError(f"snapshot index {at} is not interior")
    meta = field.meta
    op = _PideOperator(field.grid, meta.hawkes, meta.model, meta.costs, meta.options)
    interior, _ = _residual_split(field, at, op)
    return interior


def _nearest_index(x: float, lo: float, step: float, n: int) -> int:
    return int(np.clip(round((x - lo) / step), 0, n - 1))


def query(field, t: float, lam: float, h: float, mode: Optional[str] = None) -> float:
    """Field value at (t, lambda, h): nearest snapshot in t, nearest node or
    bilinear interpolation in (lambda, h).

    lambda above the grid is clamped to lambda_max (the extrapolation rule);
    h outside the grid is clamped with a warning.
    """
    grid = field.grid
    data = field.values if isinstance(field, ValueField) else field.controls
    T = grid.horizon
    if not (0.0 <= t <= T + 1e-12):
        raise ValueError(f"query time {t} outside [0, {T}]")
    if mode is None:
        mode = "linear" if field.meta.options.interp_query else "nearest"
    snaps = grid.t_snapshots
    k = int(np.argmin(np.abs(snaps - t)))
    if h < grid.h_min - 1e-12 or h > grid.h_max + 1e-12:
        warnings.warn(f"level {h} outside [{grid.h_min}, {grid.h_max}]; clamping", RuntimeWarning)
    lam_c = min(max(lam, grid.lambda_min), grid.lambda_max)
    h_c = min(max(h, grid.h_min), grid.h_max)
    if mode == "nearest":
        i = _nearest_index(lam_c, grid.lambda_min, grid.d_lambda, grid.n_lambda)
        j = _nearest_index(h_c, grid.h_min, grid.d_h, grid.n_h)
        return float(data[k, i, j])
    if mode != "linear":
        raise ValueError(f"unknown query mode {mode!r}")
    fi = (lam_c - grid.lambda_min) / grid.d_lambda
    fj = (h_c - grid.h_min) / grid.d_h
    i0 = int(np.clip(math.floor(fi), 0, grid.n_lambda - 1))
    j0 = int(np.clip(math.floor(fj), 0, grid.n_h - 1))
    i1 = min(i0 + 1, grid.n_lambda - 1)
    j1 = min(j0 + 1, grid.n_h - 1)
    wi = fi - i0
    wj = fj - j0
    v00, v01 = data[k, i0, j0], data[k, i0, j1]
    v10, v11 = data[k, i1, j0], data[k, i1, j1]
    return float((1 - wi) * ((1 - wj) * v00 + wj * v01) + wi * ((1 - wj) * v10 + wj * v11))
