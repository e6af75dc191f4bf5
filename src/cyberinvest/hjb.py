"""Backward solve of the investment value surface on an (intensity, level) grid.

The dynamic-programming equation for the value V(t, lambda, h) couples a
mean-reverting drift in lambda, an obsolescence drift in h, a nonlocal shift
lambda (V(lambda + beta) - V(lambda)), a running reward
eta_mean (v - S(h, v)) lambda, and a quadratic Hamiltonian in the investment
rate. Space is discretized with central differences (one-sided at the four
boundaries), the only scheme, and the nonlocal term with a two-point linear
interpolation (a node shift when beta is a whole number of d_lambda steps)
that past lambda_max extends V linearly from its last two nodes. In
tau = T - t the semi-discrete system is

    dW/dtau = A_lambda W + N(W) - rho h D_h W + r,  N(W) = max(D_h W - delta, 0)^2 / (2 gamma),

where A_lambda (drift plus jump shift), a dense matrix, acts along lambda and
is the same for every h line, while the stencil D_h acts along h. The h terms
are transport at the level's own velocity: their Jacobian is
diag(z - rho h) D_h, with z = (D_h W - delta)^+ / gamma the maximizing rate.
It is integrated with the Douglas ADI scheme (theta = 1/2, one step per
snapshot interval; in 't Hout & Foulon 2010), started by two implicit half
steps in each of the first two intervals (Rannacher 1984). The lambda stage is
one product with a dense inverse for all h lines. The nonlinear h stage is
solved by Newton's method, which on the max(., 0)^2 Hamiltonian is policy
iteration (Forsyth & Labahn 2007), with one tridiagonal solve (LAPACK gtsv on
the Jacobian's three diagonals) for all lambda columns per iteration, usually
one per step: Newton starts from the last step's correction and stops on its residual.
gtsv is bound from scipy's compiled LAPACK extension on a solve's first use
(_gtsv), so the package never imports scipy.linalg.

The state W[n, m] = V(lambda_n, h_m) uses the stored-field layout, so neither
stage transposes it. Stored fields add a leading snapshot axis.

The same steps with a stored policy z frozen make the h stage linear, transport
at the velocity z - rho h with the same Jacobian rule. _loss_surfaces takes them
for the two moments of the loss under that policy as one coupled solve of the
stacked pair: the coupling acts along lambda and joins the lambda stage, and
the h stage of both is one tridiagonal solve with two right-hand sides per step.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

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
    "solve",
    "query",
    "hjb_residual",
]

_THETA = 0.5  # Douglas weight: second order in time
_RANNACHER_INTERVALS = 2  # leading intervals stepped as two implicit (theta = 1) half steps
_NEWTON_MAX_ITER = 20  # tridiagonal solves one h stage may take; 1-2 suffice at 200 steps on every grid measured
_NEWTON_RTOL = 1e-10  # residual max-norm, relative to max(1, max |W|), that ends Newton
_MAX_NODES = 200_000_000  # stored (snapshot, lambda, h) nodes one solve may hold in memory


@functools.cache
def _gtsv():
    """LAPACK's tridiagonal solve with partial pivoting (dgtsv), bound on first use.

    It is loaded from scipy's compiled LAPACK extension alone, the function object
    that scipy.linalg.get_lapack_funcs("gtsv") returns: with the top-level scipy
    import, which comes first because it sets up the bundled OpenBLAS, this takes
    about 18 ms and 3 MB of peak memory, against 0.23 s and 20 MB through the
    scipy.linalg package.
    """
    import scipy

    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((stem + s for s in suffixes if os.path.isfile(stem + s)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension not found: no {stem} with a suffix in {suffixes}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgtsv


@dataclass(frozen=True)
class SolverGrid:
    """Regular discretization of (lambda, h), and time_steps equal steps of [0, horizon].

    The grid is its eight numbers, so grids compare and hash by value and
    dataclasses.replace gives another grid (replace(grid, time_steps=n // 2)
    halves the steps). The snapshot times decrease from the horizon to 0; the
    solve takes one step per snapshot interval.
    """

    lambda_min: float
    lambda_max: float
    d_lambda: float
    h_min: float
    h_max: float
    d_h: float
    horizon: float
    time_steps: int

    def __post_init__(self):
        for name in ("lambda_min", "lambda_max", "d_lambda", "h_min", "h_max", "d_h", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
            if not math.isfinite(ratio):
                raise ValueError(f"d_{name}={step} is too small: ({name}_max - {name}_min) / d_{name} overflows")
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ValueError(f"({name}_max - {name}_min) must be an integer multiple of d_{name}")
        if not (isinstance(self.time_steps, int) and self.time_steps > 0 and self.horizon > 0):
            raise ValueError(
                f"time_steps must be a positive int and horizon positive, got {self.time_steps!r} and {self.horizon}"
            )

    @property
    def lambdas(self) -> np.ndarray:
        return self.lambda_min + self.d_lambda * np.arange(self.n_lambda)

    @property
    def hs(self) -> np.ndarray:
        return self.h_min + self.d_h * np.arange(self.n_h)

    @property
    def n_lambda(self) -> int:
        return int(round((self.lambda_max - self.lambda_min) / self.d_lambda)) + 1

    @property
    def n_h(self) -> int:
        return int(round((self.h_max - self.h_min) / self.d_h)) + 1

    @property
    def shape(self) -> tuple:
        """(snapshot, lambda, h) shape of a field on this grid."""
        return (self.time_steps + 1, self.n_lambda, self.n_h)

    @property
    def t_snapshots(self) -> np.ndarray:
        """The time_steps + 1 snapshot times, decreasing from the horizon to 0."""
        return np.linspace(self.horizon, 0.0, self.time_steps + 1)

    @property
    def d_t(self) -> float:
        return self.horizon / self.time_steps

    def refined(self, factor: int = 2) -> "SolverGrid":
        """Same bounds with spatial steps divided by `factor`."""
        return replace(self, d_lambda=self.d_lambda / factor, d_h=self.d_h / factor)


SolverGrid.regular = SolverGrid  # the constructor's former name, which perfbench/workloads.py calls


@dataclass(frozen=True)
class SolverOptions:
    """No option is left: the backward solve has one scheme.

    The empty class, RunConfig.options and the ignored `options` parameter of
    solve and solve_poisson remain only because perfbench/workloads.py passes
    cfg.options positionally and records dataclasses.asdict(cfg.options); they
    are to be dropped in a change that may edit the benchmark.
    """


@dataclass(frozen=True)
class FieldMeta:
    """Provenance of a solved field: the model it was solved for, as plain values.

    Every field this library writes has the same scheme, so no scheme tag is
    stored. A field on a one-node intensity axis (grid.n_lambda == 1) is a
    constant-intensity benchmark (poisson.solve_poisson) at grid.lambda_min:
    there the intensity drift and the jump shift vanish, whatever hawkes holds.
    """

    hawkes: HawkesParams
    model: BreachModel
    costs: CostParams


def _check_field_inputs(meta: FieldMeta, hawkes: HawkesParams, model: BreachModel, costs: CostParams) -> None:
    """Raise ConfigError unless a field with metadata `meta` was solved for this model.

    lambda0 may differ: it is the start state, which the solve never reads.
    eta_var and eta_family may differ: the objective depends on the loss
    distribution only through its mean.
    """
    solved = (
        replace(meta.hawkes, lambda0=hawkes.lambda0),
        meta.model,
        replace(meta.costs, eta_var=costs.eta_var, eta_family=costs.eta_family),
    )
    problems = [f"field solved for {a}, got {b}" for a, b in zip(solved, (hawkes, model, costs)) if a != b]
    if problems:
        raise ConfigError(problems)


@dataclass(frozen=True)
class ValueField:
    """Value surface V stored as (snapshot, lambda, h)."""

    grid: SolverGrid
    values: np.ndarray
    meta: FieldMeta

    def __post_init__(self):
        expected = self.grid.shape
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expected}")

    def terminal_values(self) -> np.ndarray:
        """V at the horizon snapshot, shape (n_lambda, n_h)."""
        return self.values[0]


@dataclass(frozen=True)
class PolicyField:
    """Optimal investment-rate surface z* stored like ValueField.

    The controls are read-only once the field is built, so a field's identity
    stands for its contents. loss_surfaces relies on this: it holds what
    premium_report_optimal computes once per field, the two loss-moment
    surfaces of _loss_surfaces.
    """

    grid: SolverGrid
    controls: np.ndarray
    meta: FieldMeta
    loss_surfaces: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        expected = self.grid.shape
        if self.controls.shape != expected:
            raise ValueError(f"controls shape {self.controls.shape} != grid shape {expected}")
        self.controls.flags.writeable = False


@dataclass(frozen=True)
class SolveResult:
    value: ValueField
    policy: PolicyField
    quality: dict


def _stencil(n: int, step: float) -> np.ndarray:
    """(3, n) coefficients of nodes i-1, i, i+1 in row i of a first difference (0 past the ends): central,
    one-sided in the first and last rows. Zero when n = 1."""
    i = np.arange(n)
    back = np.where(i < n - 1, 0.5, 1.0) * (i > 0)  # weights of the backward and the forward difference
    forward = np.where(i > 0, 0.5, 1.0) * (i < n - 1)
    return np.stack([-back, back - forward, forward]) * (1.0 / step)


def _along_h(tiles: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A stencil along h of the C-ordered (n_lambda, n_h) array w, given as tiles over the lambda rows
    (or of a stack of such arrays, given tiles over all their rows): flat shifted products, kept apart
    across rows by the zeros past each row's first and last node."""
    flat = w.reshape(-1)
    out = tiles[1] * flat
    out[1:] += tiles[0, 1:] * flat[:-1]
    out[:-1] += tiles[2, :-1] * flat[1:]
    return out.reshape(w.shape)


def _jump_shift_1d(n: int, d_lambda: float, beta: float) -> np.ndarray:
    """Two-point linear interpolator (a selector for whole-node shifts) approximating V(lambda + beta).

    Row i reads the target x = i + beta/d_lambda between its bracketing nodes.
    A target s = x - (n - 1) > 0 nodes past the last node reads the linear
    extension (1 + s) V[n-1] - s V[n-2] instead, the usual closure for a
    nonlocal term on a truncated domain (d'Halluin, Forsyth & Vetzal 2005),
    since V grows linearly in lambda far out. Every row maps a V linear in
    lambda exactly. A one-node axis keeps its identity row.
    """
    if n == 1:
        return np.ones((1, 1))
    pos = beta / d_lambda
    if abs(pos - round(pos)) <= 1e-9:  # a whole-node shift up to rounding in beta / d_lambda: a pure selector
        pos = round(pos)
    x = np.arange(n, dtype=float) + pos
    lo = np.minimum(np.floor(x), n - 2).astype(np.int64)  # left node of the bracketing or last interval
    w = x - lo  # weight of node lo + 1: below 1 inside the domain, 1 + s past its last node
    shift = np.zeros((n, n))
    shift[np.arange(n), lo], shift[np.arange(n), lo + 1] = 1.0 - w, w
    return shift


class _PideOperator:
    """Semi-discrete operator in tau = T - t on the C-ordered (lambda, h) array W.

    dW/dtau = a_lam @ W + N(W) - ch D_h W + reward, with N(W) =
    max(D_h W - delta, 0)^2 / (2 gamma), D_h the stencil d_h and ch = rho h
    the level's obsolescence rate.
    """

    def __init__(self, grid: SolverGrid, hawkes: HawkesParams, model: BreachModel, costs: CostParams):
        lam = grid.lambdas
        hs = grid.hs
        nl, nh = lam.size, hs.size
        self.shape = (nl, nh)
        self.gamma = costs.gamma
        self.delta = costs.delta
        self.reward = costs.eta_mean * (model.v - breach_prob(model, hs))[None, :] * lam[:, None]

        clam = hawkes.xi * (lam - hawkes.alpha)
        dlam = _stencil(nl, grid.d_lambda)
        jump = _jump_shift_1d(nl, grid.d_lambda, hawkes.beta)
        # tau runs against t, so the transport terms change sign and the jump term keeps it
        dlam = np.diag(dlam[1]) + np.diag(dlam[0, 1:], -1) + np.diag(dlam[2, :-1], 1)
        self.a_lam = lam[:, None] * (jump - np.eye(nl)) - clam[:, None] * dlam
        self.jump_rate = lam[:, None] * jump  # C = diag(lambda) J, the jump term's inflow
        self.d_h = _stencil(nh, grid.d_h)
        self.tiles = np.tile(self.d_h, nl)  # over the lambda rows, for _along_h
        self.ch = costs.rho * hs

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """D_h W on the (lambda, h) array: central differences, one-sided at h_min and h_max."""
        return _along_h(self.tiles, w)

    def excess(self, grad: np.ndarray) -> np.ndarray:
        """max(D_h W - delta, 0) given grad = D_h W: gamma times the maximizing rate."""
        return np.maximum(grad - self.delta, 0.0)

    def policy(self, w: np.ndarray) -> np.ndarray:
        """Pointwise maximizer (D_h V - delta)^+ / gamma on the (lambda, h) array."""
        return self.excess(self.gradient(w)) / self.gamma

    def h_part(self, grad: np.ndarray, excess: np.ndarray) -> np.ndarray:
        """The terms acting along h, N(W) - ch D_h W, given grad = D_h W and excess = self.excess(grad)."""
        return excess * excess * (0.5 / self.gamma) - self.ch * grad

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """dV/dt for a surface flattened in (lambda, h) row-major order (or shaped (n_lambda, n_h))."""
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("non-finite value surface during integration")
        w = y.reshape(self.shape)
        grad = self.gradient(w)
        return -(self.a_lam @ w + self.h_part(grad, self.excess(grad)) + self.reward).reshape(y.shape)


class _DouglasADI:
    """Douglas steps of dW/dtau = A_lambda W + F_h(W) + r, with F_h = N(W) - rho h D_h W.

    One step of size dt with weight theta, c = theta dt:
        Y0 = W + dt (A_lambda W + F_h(W) + r)
        Y1 = (I - c A_lambda)^{-1} (Y0 - c A_lambda W)
        Y2 - c F_h(Y2) = Y1 - c F_h(W)   (Newton)
    step takes W with its gradient D_h W and excess max(D_h W - delta, 0) and
    returns Y2 with both of its own, so each is computed once per state and
    the stored control reuses it. The Jacobian of F_h is diag(excess / gamma - rho h) D_h:
    transport at the level's velocity. Newton starts from Y1 plus the last step's Y2 - Y1 and
    stops once the residual's max-norm is within _NEWTON_RTOL of max(1, max |Y|); a
    SolverError reports that norm as update_norm (the Jacobian is close to I).
    Counters: nfev explicit operator evaluations, njev Jacobian builds, one
    per tridiagonal solve, nlu factors, newton the solves of each step.
    """

    def __init__(self, op: _PideOperator):
        self.op = op
        self._factors = {}  # c -> (inverse of I - c A_lambda, -c D_h tiles)
        self._couplings = {}  # c -> K = c M^{-1} C M^{-1}, M = I - c A_lambda; frozen steps alone build it
        self._stack_tiles = {}  # number of stacked states -> D_h tiles over all their rows
        self.nfev = 0
        self.newton = []
        self._correction = 0.0  # the last step's h-stage correction Y2 - Y1, where Newton starts the next

    def _factor(self, c: float) -> tuple:
        if c not in self._factors:
            op = self.op
            inverse = np.linalg.inv(np.eye(op.shape[0]) - c * op.a_lam)
            self._factors[c] = inverse, -c * op.tiles
        return self._factors[c]

    def h_jacobian(self, velocity: np.ndarray, c: float) -> tuple:
        """I - c diag(velocity) D_h as gtsv's (sub, main, super) diagonals, h fastest: the h stage's
        Jacobian for transport at the level velocity z - rho h (z = excess / gamma in step, the frozen
        rate in frozen_step). The entries that would couple the last h node of one column to the
        first node of the next are zero, so one solve handles all columns."""
        rows = self._factor(c)[1] * velocity.reshape(-1)
        rows[1] += 1.0
        return rows[0, 1:], rows[1], rows[2, :-1]

    def step(self, w: np.ndarray, grad: np.ndarray, excess: np.ndarray, dt: float, c: float, t: float) -> tuple:
        op = self.op
        norm = math.nan

        def failure(what: str) -> SolverError:
            step = len(self.newton) + 1
            return SolverError(
                f"{what} at step {step} (t = {t:.6g}); last residual norm {norm:.3e}",
                {"step": step, "t": t, "update_norm": norm},
            )

        f_lam, f_h = op.a_lam @ w, op.h_part(grad, excess)
        self.nfev += 1
        y = w + dt * (f_lam + f_h + op.reward) - c * f_lam
        if not np.isfinite(y).all():
            raise failure("non-finite explicit stage")
        y1 = self._factor(c)[0] @ y
        target, y = y1 - c * f_h, y1 + self._correction
        for it in range(_NEWTON_MAX_ITER + 1):  # it tridiagonal solves so far
            grad = op.gradient(y)
            excess = op.excess(grad)
            resid = y - c * op.h_part(grad, excess) - target
            norm = float(np.abs(resid).max())  # nan or inf if any entry is
            if not math.isfinite(norm):
                raise failure("non-finite h stage")
            if norm <= _NEWTON_RTOL * max(1.0, float(y.max()), -float(y.min())):
                self.newton.append(it)
                self._correction = y - y1
                return y, grad, excess
            if it == _NEWTON_MAX_ITER:
                break
            # every argument is a fresh array, so gtsv may overwrite them all
            velocity = excess / op.gamma - op.ch
            *_, dy, info = _gtsv()(*self.h_jacobian(velocity, c), resid.reshape(-1), True, True, True, True)
            if info != 0:
                raise failure(f"singular h-stage Jacobian (gtsv info {info})")
            y -= dy.reshape(y.shape)
        raise failure(f"Newton did not converge in {_NEWTON_MAX_ITER} iterations")

    def _coupling(self, c: float) -> np.ndarray:
        if c not in self._couplings:
            inverse = self._factor(c)[0]
            self._couplings[c] = c * inverse @ self.op.jump_rate @ inverse
        return self._couplings[c]

    def frozen_step(
        self, x: np.ndarray, velocity: np.ndarray, source: np.ndarray, dt: float, c: float, coupling=None
    ) -> np.ndarray:
        """A Douglas step of the linear dX/dtau = L X + velocity D_h X + source for a stack X of
        (n_lambda, n_h) states along the first axis, the level velocity z - rho h frozen over the step.
        L is A_lambda on each state; given the h profile p = coupling, it also adds C (X[0] p) to the
        second, C = diag(lambda) J. Then I - c L is block lower triangular, and since p acts along h it
        commutes with M^{-1}, M = I - c A_lambda: the lambda stage is M^{-1} on each state plus
        K (Y[0] p) on the second, K = c M^{-1} C M^{-1}. Every state's h stage has the Jacobian
        h_jacobian(velocity, c), so (I - c F_h) Y2 = Y1 - c F_h X is one gtsv call with one
        right-hand side per state, the columns of a Fortran-ordered view of the stack."""
        op = self.op
        if len(x) not in self._stack_tiles:
            self._stack_tiles[len(x)] = np.tile(op.tiles, len(x))
        f_lam, f_h = op.a_lam @ x, _along_h(self._stack_tiles[len(x)], x)
        f_h *= velocity
        if coupling is not None:
            f_lam[1] += op.jump_rate @ (x[0] * coupling)
        # in place, the arithmetic of x + dt (f_lam + f_h + source) - c f_lam and then y1 - c f_h
        y = f_lam + f_h
        y += source
        y *= dt
        y += x
        f_lam *= c
        y -= f_lam
        y1 = self._factor(c)[0] @ y
        if coupling is not None:
            y[0] *= coupling
            y1[1] += self._coupling(c) @ y[0]
        f_h *= c
        y1 -= f_h
        # the diagonals and the right-hand sides are fresh arrays, so gtsv may overwrite them all
        *_, y2, info = _gtsv()(*self.h_jacobian(velocity, c), y1.reshape(len(x), -1).T, True, True, True, True)
        if info != 0:
            raise SolverError(f"singular frozen-policy h stage (gtsv info {info})", {"gtsv_info": int(info)})
        return y2.T.reshape(x.shape)


def _schedule(snaps: np.ndarray) -> list:
    """(snapshot k, dt, theta, c, t) of each backward step over the decreasing snapshot times: two
    implicit half steps in each of the first _RANNACHER_INTERVALS intervals, both storing snapshot k,
    then one Douglas step per interval. The step from t = snaps[k - 1] ends at snaps[k], and
    c = theta dt is rounded so that steps equal but for rounding in the snapshot times share one factor."""
    steps = []
    for k in range(1, snaps.size):
        dt = snaps[k - 1] - snaps[k]
        if k <= _RANNACHER_INTERVALS:
            steps += [(k, 0.5 * dt, 1.0, snaps[k - 1]), (k, 0.5 * dt, 1.0, snaps[k - 1] - 0.5 * dt)]
        else:
            steps.append((k, dt, _THETA, snaps[k - 1]))
    return [(k, dt, theta, float(f"{theta * dt:.12g}"), t) for k, dt, theta, t in steps]


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
    counters). Where the jump term reads past lambda_max, the operator extends
    V linearly from the last two intensity nodes; lookups of the stored fields
    do not (`query`, the policy walk). `options` is accepted and ignored.
    """
    if abs(grid.horizon - costs.horizon) > 1e-12:
        raise ValueError(
            f"grid horizon {grid.horizon} does not match costs.horizon {costs.horizon}"
        )
    snaps = grid.t_snapshots
    steps = _schedule(snaps)
    nl, nh, factors = grid.n_lambda, grid.n_h, len({c for *_, c, _ in steps})
    # the stored nodes, A_lambda, and each factor's inverse and three Jacobian tiles
    n_nodes = snaps.size * nl * nh + (1 + factors) * nl * nl + 3 * factors * nl * nh
    if n_nodes > _MAX_NODES:
        raise SolverError(
            f"{n_nodes} stored nodes and operator entries exceed the in-memory limit {_MAX_NODES}; "
            "coarsen the grid or reduce snapshots"
        )
    op = _PideOperator(grid, hawkes, model, costs)
    values = np.empty((snaps.size,) + op.shape)
    controls = np.empty_like(values)
    w = np.broadcast_to(np.asarray(costs.utility(grid.hs), dtype=float), op.shape).copy()
    grad = op.gradient(w)
    excess = op.excess(grad)
    values[0], controls[0] = w, excess / op.gamma
    adi = _DouglasADI(op)
    _gtsv()  # bound before the clock starts, so wall_time_s counts the steps alone
    t0 = time.perf_counter()
    for k, dt, _, c, t in steps:
        w, grad, excess = adi.step(w, grad, excess, dt, c, t)
        values[k], controls[k] = w, excess / op.gamma
    wall = time.perf_counter() - t0
    diagnostics = {
        "method": "douglas-adi",
        "nfev": adi.nfev,
        "njev": int(sum(adi.newton)),
        "nlu": len(adi._factors),
        "newton_iterations": adi.newton,
        "newton_mean": float(np.mean(adi.newton)),
        "newton_max": int(max(adi.newton)),
    }

    meta = FieldMeta(hawkes, model, costs)
    vf = ValueField(grid, values, meta)
    pf = PolicyField(grid, controls, meta)
    quality = _quality_report(vf, op, wall, diagnostics)
    return SolveResult(vf, pf, quality)


def _loss_surfaces(policy: PolicyField) -> tuple:
    """The surfaces u and B at the first snapshot (t = 0 for a regular grid) of one linear backward
    solve under the stored policy, frozen: with p(h) the breach probability and J the jump shift,

        u_tau = A_lambda u + (z - rho h) D_h u + lambda p(h),
        B_tau = A_lambda B + (z - rho h) D_h B + lambda p(h) (J u),    u(T) = B(T) = 0.

    u is the expected number of breaches from (t, lambda, h), and E[L^2] = (eta_var + eta_mean^2) u
    + 2 eta_mean^2 B (Dynkin's formula for the compound jump process; Oksendal & Sulem). The steps
    are the solve's, with z = controls[k] on the step that ends at snapshot k, as the policy walk
    applies a snapshot's control until the next one. The pair is one stacked state: B's coupling
    lambda p(h) (J u) = C (u p) acts along lambda, so it sits in the implicit lambda stage
    (frozen_step), and each step's h stage is one tridiagonal solve with two right-hand sides.
    """
    grid, meta = policy.grid, policy.meta
    op = _PideOperator(grid, meta.hawkes, meta.model, meta.costs)
    adi = _DouglasADI(op)
    p = breach_prob(meta.model, grid.hs)
    source = np.zeros((2,) + op.shape)
    source[0] = grid.lambdas[:, None] * p
    x = np.zeros_like(source)
    for k, dt, _, c, _ in _schedule(grid.t_snapshots):
        x = adi.frozen_step(x, policy.controls[k] - op.ch, source, dt, c, p)
    return x[0], x[1]


def _monotonicity_stats(values: np.ndarray, axis: int, tol: float) -> dict:
    """Count, share and worst of the decreases beyond tol along `axis` of the
    (snapshot, lambda, h) field, differenced in blocks of at most 128 KB (one
    snapshot when a snapshot is larger), so the report adds little to the peak
    memory of a solve beyond its two fields."""
    block = max(1, (1 << 14) // max(values[0].size, 1))
    violations, lowest = 0, math.inf
    for start in range(0, values.shape[0], block):
        diffs = np.diff(values[start : start + block], axis=axis)
        violations += int(np.count_nonzero(diffs < -tol))
        lowest = min(lowest, diffs.min(initial=math.inf))
    return {
        "violations": violations,
        "fraction": violations / max(values.size, 1),
        "worst": float(max(0.0, -lowest)),  # 0.0 first: a monotone field's -lowest is -0.0
    }


def _quality_report(vf: ValueField, op: _PideOperator, wall: float, diagnostics: dict) -> dict:
    values = vf.values
    scale = max(1.0, float(values.max()), float(-values.min()))  # max |V|, no temporary
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
    if field.grid.time_steps < 2:
        raise ValueError("need at least three snapshots to form a time derivative")
    if not (1 <= at <= field.grid.time_steps - 1):
        raise ValueError(f"snapshot index {at} is not interior")
    meta = field.meta
    op = _PideOperator(field.grid, meta.hawkes, meta.model, meta.costs)
    interior, _ = _residual_split(field, at, op)
    return interior


def _check_in_grid(grid: SolverGrid, lam: float, h: float) -> None:
    """Raise ValueError unless the state (lam, h), nan being nowhere, lies in the grid's box."""
    if not (grid.lambda_min <= lam <= grid.lambda_max and grid.h_min <= h <= grid.h_max):
        raise ValueError(
            f"state (lambda, h) = ({lam!r}, {h!r}) lies outside the field's box "
            f"[{grid.lambda_min:g}, {grid.lambda_max:g}] x [{grid.h_min:g}, {grid.h_max:g}]"
        )


def _axis(x, lo: float, step: float, n: int) -> tuple:
    """Lower node i in [0, n - 2] and weight w in [0, 1] of each x, clipped to the
    uniform axis lo + step k of n nodes: x = lo + (i + w) step; i = w = 0 if n = 1."""
    y = np.minimum(np.maximum((x - lo) / step, 0.0), n - 1)
    i = np.minimum(y.astype(np.intp), max(n - 2, 0))
    return i, y - i


def _bilinear(flat: np.ndarray, at, stride: int, w_lam, w_h):
    """Bilinear interpolation in a C-ordered (..., n_lambda, n_h) array read flat:
    `at` is the flat index of each point's lower (lambda, h) node, `stride` the
    step to the next lambda node (n_h, or 0 if n_lambda = 1), w_lam and w_h the
    weights of _axis. The one lookup rule of every stored field."""
    v00, v01, v10, v11 = flat.take(np.add.outer((0, 1, stride, stride + 1), at))
    u_h = 1 - w_h
    return (1 - w_lam) * (u_h * v00 + w_h * v01) + w_lam * (u_h * v10 + w_h * v11)


def _lookup(grid: SolverGrid, surface: np.ndarray, lam: float, h: float) -> float:
    """_bilinear on one (n_lambda, n_h) surface at a state that _check_in_grid has passed."""
    i, w_lam = _axis(lam, grid.lambda_min, grid.d_lambda, grid.n_lambda)
    j, w_h = _axis(h, grid.h_min, grid.d_h, grid.n_h)
    stride = grid.n_h if grid.n_lambda > 1 else 0
    return float(_bilinear(surface.reshape(-1), i * grid.n_h + j, stride, w_lam, w_h))


def query(field, t: float, lam: float, h: float) -> float:
    """Field value at (t, lambda, h): bilinear interpolation in (lambda, h) on
    the two snapshots that bracket t, and linear interpolation between them.
    At a snapshot time it is that snapshot's lookup alone.

    The state must lie in the field's box, or ValueError is raised: the
    lookup does not extend V past lambda_max, as the solve's jump term does.
    """
    grid = field.grid
    data = field.values if isinstance(field, ValueField) else field.controls
    if not (0.0 <= t <= grid.horizon + 1e-12):
        raise ValueError(f"query time {t} outside [0, {grid.horizon}]")
    _check_in_grid(grid, lam, h)
    snaps = grid.t_snapshots
    k = max(int(np.count_nonzero(snaps >= t)) - 1, 0)  # snaps[k] >= t > snaps[k + 1]
    value = _lookup(grid, data[k], lam, h)
    if t >= snaps[k] or k + 1 == snaps.size:
        return value
    w = (snaps[k] - t) / (snaps[k] - snaps[k + 1])
    return float((1.0 - w) * value + w * _lookup(grid, data[k + 1], lam, h))
