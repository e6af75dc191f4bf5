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
steps in each of the first two intervals (Rannacher 1984). As every step spans
d_t / 2 or d_t, its explicit and lambda stages are two products with dense
matrices formed once, for all h lines. The nonlinear h stage is
solved by Newton's method, which on the max(., 0)^2 Hamiltonian is policy
iteration (Forsyth & Labahn 2007), with one tridiagonal solve (LAPACK gtsv on
the Jacobian's three diagonals) for all lambda columns per iteration, usually
one per step: Newton starts from the last step's correction and stops on its residual.
A state's F_h, from that residual, is carried into the next step, and Newton works
in one array allocated once per solve, with the flat views and slices it reads bound once
(h_operands). One function, _excess, gives D_h W and the excess (D_h W - delta)^+ to the
steppers' one h-term evaluator, _PideOperator.h_terms (which adds F_h for Newton and the
operator's rhs), and to _snapshot_controls, the one computation of the control excess / gamma,
in blocks of snapshots of at most 62.5 KB with at most 256 KB of work arrays (SolveResult.policy,
derive_policy, the field CSV). A solve holds one field, the value; its policy is derived from
it when first read. gtsv is bound from scipy's compiled LAPACK
extension on a solve's first use (_gtsv), so the package never imports scipy.linalg.

The state W[n, m] = V(lambda_n, h_m) uses the stored-field layout, so neither
stage transposes it. Stored fields add a leading snapshot axis.

The same steps with the rate held at a stored policy's controls at each step's
two ends make the h stage linear, transport at the velocity z - rho h, and stay
second order; their lambda stage is the value step's. _loss_surfaces takes them,
most over two snapshot intervals, for the two moments of the loss under that
policy as one coupled solve of the stacked pair: the coupling acts along lambda
and joins the lambda stage, the h stage of both is one tridiagonal solve with two
right-hand sides per step, and F_h is carried from it into the next step.
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
    "derive_policy",
    "query",
    "hjb_residual",
]

_THETA = 0.5  # Douglas weight: second order in time
_RANNACHER_INTERVALS = 2  # leading intervals stepped as two implicit (theta = 1) half steps
_NEWTON_MAX_ITER = 20  # tridiagonal solves one h stage may take; 1-2 suffice at 200 steps on every grid measured
_NEWTON_RTOL = 1e-10  # residual max-norm, relative to max(1, max |W|), that ends Newton
_MAX_NODES = 200_000_000  # stored (snapshot, lambda, h) nodes one solve may hold in memory
_BLOCK = 8000  # numbers in a block of snapshots derived at once: 4 blocks, with their views, within 256 KB
_IMPLICIT, _DOUGLAS = 1, 2  # a step's kind: its span in units of c = theta dt


@functools.cache
def _gtsv():
    """LAPACK's tridiagonal solve with partial pivoting (dgtsv), bound on first use.

    It is loaded from scipy's compiled LAPACK extension alone, the function object
    that scipy.linalg.get_lapack_funcs("gtsv") returns: with the top-level scipy
    import, which comes first because it sets up the bundled OpenBLAS, this takes
    about 13 ms and 3.3 MB of peak memory on one BLAS thread, against 0.14 s and
    23 MB through the scipy.linalg package (medians of 10 and 5 fresh processes
    on a 2-core x86_64 VM).
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
    """A solve's value field and quality report, and its policy, computed when first read and kept."""

    value: ValueField
    quality: dict

    @functools.cached_property
    def policy(self) -> PolicyField:
        """_snapshot_controls into a new array: blocks of at most 62.5 KB, 256 KB of work arrays."""
        return _policy(self.value, np.empty(self.value.values.shape))


def _stencil(n: int, step: float) -> np.ndarray:
    """(3, n) coefficients of nodes i-1, i, i+1 in row i of a first difference (0 past the ends): central,
    one-sided in the first and last rows. Zero when n = 1."""
    i = np.arange(n)
    back = np.where(i < n - 1, 0.5, 1.0) * (i > 0)  # weights of the backward and the forward difference
    forward = np.where(i > 0, 0.5, 1.0) * (i < n - 1)
    return np.stack([-back, back - forward, forward]) * (1.0 / step)


def _tiled_rows(d_h: np.ndarray, n_rows: int) -> tuple:
    """The (3, n_h) stencil d_h tiled over n_rows rows as _along_h reads it: (main, sub[1:], super[:-1])."""
    tiles = np.tile(d_h, n_rows)
    return tiles[1], tiles[0, 1:], tiles[2, :-1]


def _along_h_operands(rows: tuple, w: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> tuple:
    """_along_h's operands, bound once per set of arrays: the stencil `rows` (_tiled_rows over w's rows)
    along h of the C-ordered w into out, scratch overwritten, as flat views and shifted slices."""
    main, sub, sup = rows
    flat, res, tmp = w.reshape(-1), out.reshape(-1), scratch.reshape(-1)
    return (main, flat, res), (res[1:], sub, flat[:-1], tmp[1:]), (res[:-1], sup, flat[1:], tmp[:-1])


def _along_h(operands: tuple) -> None:
    """The stencil of _along_h_operands: flat shifted products, kept apart across rows by the zeros past
    each row's first and last node."""
    (main, flat, res), (above, sub, lower, tmp_above), (below, sup, upper, tmp_below) = operands
    np.multiply(main, flat, out=res)
    np.add(above, np.multiply(sub, lower, out=tmp_above), out=above)
    np.add(below, np.multiply(sup, upper, out=tmp_below), out=below)


def _excess(along: tuple, delta: float, grad: np.ndarray, excess: np.ndarray) -> None:
    """D_h W by _along_h into grad, its flat output, and the excess max(D_h W - delta, 0), gamma times
    the maximizing rate, into the flat excess, which may be W or grad."""
    _along_h(along)
    np.maximum(np.subtract(grad, delta, out=excess), 0.0, out=excess)


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
    the level's obsolescence rate, tiled to a state. h_terms is the one
    evaluation of the terms acting along h.
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
        self.rows = _tiled_rows(self.d_h, nl)  # over the lambda rows
        self.ch = np.tile(costs.rho * hs, (nl, 1))
        self._flat_ch, self._half_inv_gamma = self.ch.reshape(-1), 0.5 / self.gamma

    def h_operands(
        self, w: np.ndarray, scratch: np.ndarray, grad: np.ndarray, excess: np.ndarray, f_h: np.ndarray
    ) -> tuple:
        """h_terms' operands, bound once per set of (lambda, h) arrays: _along_h's and flat views."""
        flat = tuple(a.reshape(-1) for a in (grad, excess, f_h, scratch))
        return (_along_h_operands(self.rows, w, grad, scratch),) + flat

    def h_terms(self, operands: tuple) -> None:
        """D_h W (central differences, one-sided at h_min and h_max) and the excess max(D_h W - delta, 0)
        by _excess, and F_h(W) = N(W) - ch D_h W of h_operands(w, scratch, grad, excess, f_h), into grad,
        excess and f_h; scratch is overwritten."""
        along, grad, excess, f_h, scratch = operands
        _excess(along, self.delta, grad, excess)
        np.multiply(np.multiply(excess, excess, out=f_h), self._half_inv_gamma, out=f_h)
        np.subtract(f_h, np.multiply(self._flat_ch, grad, out=scratch), out=f_h)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """dV/dt for a surface flattened in (lambda, h) row-major order (or shaped (n_lambda, n_h))."""
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("non-finite value surface during integration")
        w = y.reshape(self.shape)
        scratch, grad, excess, f_h = np.empty((4,) + self.shape)
        self.h_terms(self.h_operands(w, scratch, grad, excess, f_h))
        return -(self.a_lam @ w + f_h + self.reward).reshape(y.shape)


class _DouglasADI:
    """Douglas steps of dW/dtau = A_lambda W + F_h(W) + r, with F_h = N(W) - rho h D_h W.

    A step of size dt with weight theta, c = theta dt and M = I - c A_lambda:
        Y1 = M^{-1} (W + dt (A_lambda W + F_h(W) + r) - c A_lambda W) = P W + Q (F_h(W) + r)
        Y2 - c F_h(Y2) = Y1 - c F_h(W)   (Newton)
    with P = M^{-1} (I + (dt - c) A_lambda) and Q = dt M^{-1}. Every step of _schedule and
    _pair_schedule spans dt = c (_IMPLICIT, theta = 1) or 2c (_DOUGLAS) to rounding in the snapshot
    times, so products[kind] = (P, Q) are formed once; lambda_stage forms Y1 for step and frozen_step.
    step takes W with F_h(W) and returns Y2 with F_h(Y2), from Newton's last residual, and leaves
    the excess max(D_h Y2 - delta, 0) in self.excess: rows of one work array, allocated once
    (allocate_newton), which the next step overwrites and may take as its (W, F_h(W)). Each Newton
    iterate's D_h, excess and F_h come from op.h_terms.
    The Jacobian of F_h is diag(excess / gamma - rho h) D_h: transport at the level's velocity.
    Newton starts from Y1 plus the last step's Y2 - Y1 and stops once the residual's max-norm is
    within _NEWTON_RTOL of max(1, max |Y|); a SolverError reports that norm as update_norm (the
    Jacobian is close to I), also when a nan or an infinity in W or F_h(W) makes it not finite.
    Counters: nfev explicit operator evaluations, njev Jacobian builds (one per tridiagonal solve),
    newton the solves of each step.
    """

    def __init__(self, op: _PideOperator, c: float):
        self.op = op
        self.c = c
        identity = np.eye(op.shape[0])
        inverse = np.linalg.inv(identity - c * op.a_lam)
        # M^{-1} (I + c A_lambda) = 2 M^{-1} - I, as c A_lambda = I - M
        self.products = {_IMPLICIT: (inverse, c * inverse), _DOUGLAS: (2.0 * inverse - identity, 2.0 * c * inverse)}
        main, sub, sup = op.rows
        # h_jacobian's (sub, main, super) rows before the velocity and after: the latter hold gtsv's diagonals
        self._jacobian = (-c * sub, -c * main, -c * sup), (np.empty(sub.size), np.empty(main.size), np.empty(sup.size))
        self._stacks = {}  # stack size -> frozen_step's work arrays
        self.nfev = 0
        self.newton = []
        self._work = None  # Newton's, allocated by allocate_newton

    def allocate_newton(self) -> None:
        """Newton's work rows and the flat views and h_terms operands step reads of them, and gtsv bound,
        on the value step's first use: frozen steps read no array."""
        if self._work is not None:
            return
        # residual and iterate (their absolute values go to the next two rows: one reduction gives both
        # max-norms), scratch, the iterate's gradient, excess and F_h, the last Y2 - Y1 (Newton's start),
        # Y1 and Newton's target
        work = np.zeros((9,) + self.op.shape)
        self._work, flat = tuple(work), work.reshape(9, -1)
        # and their flat views: the residual and the iterate as a pair and their magnitudes for the
        # reduction, the residual as gtsv's right-hand side and the iterate its update writes
        self._pair, self._magnitudes, self._flat_resid, self._flat_y = flat[:2], flat[2:4], flat[0], flat[1]
        self._maxima = np.empty(2)
        self.y, self.excess, self.f_h = work[1], work[4], work[5]
        self._h_operands = self.op.h_operands(*work[1:6])  # the iterate, scratch, gradient, excess and F_h
        _gtsv()

    @functools.cached_property
    def coupling(self) -> np.ndarray:
        """c M^{-1} C, which coupled frozen steps alone read."""
        return self.products[_IMPLICIT][1] @ self.op.jump_rate

    def h_jacobian(self, velocity: np.ndarray) -> tuple:
        """I - c diag(velocity) D_h as gtsv's (sub, main, super) diagonals, h fastest: the h stage's
        Jacobian for transport at the level velocity z - rho h (z = excess / gamma in step, the stored
        rate at the step's end in frozen_step). The entries that would couple the last h node of one
        column to the first node of the next are zero, so one solve handles all columns. Each call
        rebuilds them in one work array."""
        v = velocity.reshape(-1)
        (t_lower, t_main, t_upper), (lower, main, upper) = self._jacobian
        # row by row: one broadcast product allocates a temporary of the three rows
        np.multiply(t_lower, v[1:], out=lower)
        np.add(np.multiply(t_main, v, out=main), 1.0, out=main)
        np.multiply(t_upper, v[:-1], out=upper)
        return lower, main, upper

    def lambda_stage(self, x, f_h, source, kind: int, y1, part, product) -> np.ndarray:
        """Y1 = P X + Q (F_h(X) + source) of a step of the given kind for a state or a stack of states X,
        into y1 (new if None), overwriting part and product; returns y1."""
        p, q = self.products[kind]
        y1 = np.matmul(p, x, out=y1)
        y1 += np.matmul(q, np.add(f_h, source, out=part), out=product)
        return y1

    def step(self, w: np.ndarray, f_h: np.ndarray, kind: int, t: float) -> tuple:
        """(Y2, F_h(Y2)) from W and f_h = F_h(W) by a step of the given kind, as work rows (see the
        class docstring)."""
        self.allocate_newton()
        op, c, maxima, operands = self.op, self.c, self._maxima, self._h_operands
        resid, y, scratch, _, excess, f_y, correction, y1, target = self._work  # _: the gradient
        pair, magnitudes, flat_resid, flat_y = self._pair, self._magnitudes, self._flat_resid, self._flat_y
        norm = math.nan
        self.lambda_stage(w, f_h, op.reward, kind, y1, scratch, target)
        np.subtract(y1, np.multiply(f_h, c, out=scratch), out=target)  # Newton's target Y1 - c F_h(W)
        self.nfev += 1
        np.add(y1, correction, out=y)
        for it in range(_NEWTON_MAX_ITER + 1):  # it tridiagonal solves so far
            op.h_terms(operands)
            np.subtract(np.subtract(y, np.multiply(f_y, c, out=resid), out=resid), target, out=resid)
            norm, size = np.maximum.reduce(np.abs(pair, out=magnitudes), axis=1, out=maxima).tolist()
            if not math.isfinite(norm):  # nan or inf if any entry is
                raise self._failure("non-finite h stage", t, norm)
            if norm <= _NEWTON_RTOL * max(1.0, size):  # size = max |Y|, finite as the residual is
                self.newton.append(it)
                np.subtract(y, y1, out=correction)
                return self.y, self.f_h
            if it == _NEWTON_MAX_ITER:
                break
            velocity = np.subtract(np.divide(excess, op.gamma, out=scratch), op.ch, out=scratch)
            # gtsv may overwrite the diagonals and the residual: both are rebuilt before each solve
            *_, dy, info = _gtsv()(*self.h_jacobian(velocity), flat_resid, True, True, True, True)
            if info != 0:
                raise self._failure(f"singular h-stage Jacobian (gtsv info {info})", t, norm)
            flat_y -= dy
        raise self._failure(f"Newton did not converge in {_NEWTON_MAX_ITER} iterations", t, norm)

    def _failure(self, what: str, t: float, norm: float) -> SolverError:
        """The SolverError of the step under way, from t, at the residual norm `norm`."""
        step = len(self.newton) + 1
        return SolverError(
            f"{what} at step {step} (t = {t:.6g}); last residual norm {norm:.3e}",
            {"step": step, "t": t, "update_norm": norm},
        )

    def frozen_step(
        self, x: np.ndarray, f_h: np.ndarray, end: np.ndarray, source: np.ndarray, kind: int, coupling=None, out=None
    ) -> np.ndarray:
        """step of a kind with the Hamiltonian held at a stored policy, for the linear
        dX/dtau = L X + v D_h X + source for a stack X of (n_lambda, n_h) states along the first axis,
        the level velocity v = z - rho h at the step's start in f_h = F_h(X) = v D_h X and `end` in the
        h stage. L is A_lambda on each state; given the h profile p = coupling (or its tile), it adds
        C (X[0] p) to the second, C = diag(lambda) J. I - c L is block lower triangular, and p commutes
        with M^{-1}: the lambda stage is step's on each state plus (M^{-1} C) [((dt - c) X[0] + c Y1[0]) p]
        on the second. The h stages are one gtsv call on h_jacobian(end), one right-hand side per state.
        Returns Y2 in `out` (new if None; not x) and overwrites f_h with F_h(Y2) at `end`,
        (Y2 - Y1 + c F_h(X)) / c, the next step's F_h(X)."""
        c = self.c
        if len(x) not in self._stacks:
            self._stacks[len(x)] = np.empty((2,) + x.shape), np.empty((2,) + self.op.shape)
        (part, target), inflow = self._stacks[len(x)]
        y1 = self.lambda_stage(x, f_h, source, kind, out, part, target)
        if coupling is not None:
            u = np.add(x[0], y1[0], out=inflow[0]) if kind == _DOUGLAS else y1[0]
            y1[1] += np.matmul(self.coupling, np.multiply(u, coupling, out=inflow[0]), out=inflow[1])
        np.subtract(y1, np.multiply(f_h, c, out=part), out=target)
        np.copyto(y1, target)  # gtsv overwrites its right-hand sides; h_jacobian rebuilds the diagonals
        *_, y2, info = _gtsv()(*self.h_jacobian(end), y1.reshape(len(x), -1).T, True, True, True, True)
        if info != 0:
            raise SolverError(f"singular frozen-policy h stage (gtsv info {info})", {"gtsv_info": int(info)})
        y2 = y2.T.reshape(x.shape)
        np.multiply(np.subtract(y2, target, out=f_h), 1.0 / c, out=f_h)
        return y2


def _schedule(snaps: np.ndarray) -> list:
    """(snapshot k, kind, t) of each backward step over the decreasing snapshot times: two implicit
    half steps in each of the first _RANNACHER_INTERVALS intervals, both storing snapshot k, then one
    Douglas step (theta = _THETA) per interval. The step from t = snaps[k - 1] ends at snaps[k]."""
    steps = []
    for k in range(1, snaps.size):
        if k <= _RANNACHER_INTERVALS:
            steps += [(k, _IMPLICIT, snaps[k - 1]), (k, _IMPLICIT, 0.5 * (snaps[k - 1] + snaps[k]))]
        else:
            steps.append((k, _DOUGLAS, snaps[k - 1]))
    return steps


def _pair_schedule(snaps: np.ndarray) -> list:
    """(snapshot k, kind) of each step of the frozen pair: implicit steps of one interval over the first
    2 _RANNACHER_INTERVALS intervals (one more if their number is odd), then Douglas steps of two (so
    theta dt = d_t); each step ends at snapshot k and starts at the previous step's."""
    n = snaps.size - 1
    first = min(n, 2 * _RANNACHER_INTERVALS + n % 2)
    return [(k, _IMPLICIT) for k in range(1, first + 1)] + [(k, _DOUGLAS) for k in range(first + 2, n + 1, 2)]


def solve(
    grid: SolverGrid,
    hawkes: HawkesParams,
    model: BreachModel,
    costs: CostParams,
    options: Optional[SolverOptions] = None,
) -> SolveResult:
    """Integrate the value surface backward from the horizon.

    Returns the value field at every snapshot together with a quality report
    (monotonicity statistics, residual norms, integrator counters, the jump's
    length in intensity steps and the inflow nodes at h_max). Where the jump
    term reads past lambda_max, the operator extends V linearly from the last
    two intensity nodes; lookups of the stored fields do not (`query`, the
    policy walk). `options` is accepted and ignored.
    """
    if abs(grid.horizon - costs.horizon) > 1e-12:
        raise ValueError(
            f"grid horizon {grid.horizon} does not match costs.horizon {costs.horizon}"
        )
    snaps = grid.t_snapshots
    steps = _schedule(snaps)
    nl, nh = grid.n_lambda, grid.n_h
    # the stored nodes and the excess at h_max per snapshot; A_lambda, C and the four lambda-stage products
    # (n_lambda^2 each); and in states: the D_h tiles, h_jacobian's and the Jacobian's rows (3 each), nine
    # work arrays and rho h
    n_nodes = snaps.size * nl * (nh + 1) + 6 * nl * nl + 19 * nl * nh
    if n_nodes > _MAX_NODES:
        raise SolverError(
            f"{n_nodes} stored nodes and operator entries exceed the in-memory limit {_MAX_NODES}; "
            "coarsen the grid or reduce snapshots"
        )
    op = _PideOperator(grid, hawkes, model, costs)
    values = np.empty((snaps.size,) + op.shape)
    # per snapshot, the excess at h_max, for the inflow nodes where z* = excess / gamma > rho h_max
    # (_quality_report); a Rannacher half step's is overwritten by the second's, which stores the snapshot
    edge = np.empty((snaps.size, nl))
    w = np.broadcast_to(np.asarray(costs.utility(grid.hs), dtype=float), op.shape).copy()
    scratch, grad, excess, f_h = np.empty((4,) + op.shape)
    op.h_terms(op.h_operands(w, scratch, grad, excess, f_h))
    values[0], edge[0] = w, excess[:, -1]
    adi = _DouglasADI(op, _THETA * grid.d_t)
    adi.allocate_newton()  # before the clock starts, so wall_time_s counts the steps alone
    t0 = time.perf_counter()
    with np.errstate(invalid="ignore"):  # a nan in Newton's residual raises
        for k, kind, t in steps:
            w, f_h = adi.step(w, f_h, kind, t)
            values[k], edge[k] = w, adi.excess[:, -1]
    wall = time.perf_counter() - t0
    inflow = np.count_nonzero(np.divide(edge, op.gamma, out=edge) > op.ch[0, -1], axis=1)
    diagnostics = {
        "method": "douglas-adi",
        "nfev": adi.nfev,
        "njev": int(sum(adi.newton)),
        "nlu": 1,  # the one lambda-stage factor
        "newton_iterations": adi.newton,
        "newton_mean": float(np.mean(adi.newton)),
        "newton_max": int(max(adi.newton)),
    }
    del adi, w, f_h, scratch, grad, excess  # the work arrays, before the quality report's temporaries

    vf = ValueField(grid, values, FieldMeta(hawkes, model, costs))
    return SolveResult(vf, _quality_report(vf, inflow, op, wall, diagnostics))


def _snapshot_controls(value: ValueField, out: Optional[np.ndarray] = None):
    """The maximizing rate (D_h V - delta)^+ / gamma of a value field by _excess, as the steps take it: the
    one computation of the policy. Yields each block of snapshots' slice and controls, written into
    out[slice] (out = value.values derives over the field) or, with out None, one block array. A block
    holds at most _BLOCK numbers, 62.5 KB (half that over the field), or one snapshot. The work arrays are
    the stencil tiled over a block (3 blocks), scratch, and the gradient unless it goes into a new
    field: 256 KB beside a new field, 160 KB over the field."""
    grid, costs, values = value.grid, value.meta.costs, value.values
    if out is not None and not out.flags.c_contiguous:  # written through flat views
        raise ValueError("the controls are written into a C-ordered field only")
    in_place = out is values
    per = max(1, (_BLOCK // 2 if in_place else _BLOCK) // (grid.n_lambda * grid.n_h))  # snapshots in a block
    rows = _tiled_rows(_stencil(grid.n_h, grid.d_h), per * grid.n_lambda)
    work = np.empty((1 + (out is None or in_place), per, grid.n_lambda, grid.n_h))
    scratch, block = work[0], work[-1]  # block: the gradient over the field, the controls with out None
    for start in range(0, len(values), per):
        w = values[start : start + per]
        n = len(w)
        controls = block[:n] if out is None else out[start : start + n]
        grad = block[:n] if in_place else controls
        if n < per:  # the last block, shorter: the stencil's rows over its nodes alone
            main, sub, sup = rows
            rows = main[: w.size], sub[: w.size - 1], sup[: w.size - 1]
        _excess(_along_h_operands(rows, w, grad, scratch[:n]), costs.delta, grad.reshape(-1), controls.reshape(-1))
        yield slice(start, start + n), np.divide(controls, costs.gamma, out=controls)


def _policy(value: ValueField, out: np.ndarray) -> PolicyField:
    """The policy of a value field, its controls written into out."""
    for _ in _snapshot_controls(value, out):
        pass
    return PolicyField(value.grid, out, value.meta)


def derive_policy(value: ValueField) -> PolicyField:
    """The maximizing rate at every node of a value field, by _snapshot_controls.

    The controls are written over value.values (in blocks of at most 31.25 KB, with 160 KB of work
    arrays), so that no second field is held: the value field is spent, and the policy's controls
    are its array, read-only from then on.
    """
    return _policy(value, value.values)


def _loss_surfaces(policy: PolicyField) -> tuple:
    """The surfaces u and B at the first snapshot (t = 0 for a regular grid) of one linear backward
    solve under the stored policy, frozen: with p(h) the breach probability and J the jump shift,

        u_tau = A_lambda u + (z - rho h) D_h u + lambda p(h),
        B_tau = A_lambda B + (z - rho h) D_h B + lambda p(h) (J u),    u(T) = B(T) = 0.

    u is the expected number of breaches from (t, lambda, h), and E[L^2] = (eta_var + eta_mean^2) u
    + 2 eta_mean^2 B (Dynkin's formula for the compound jump process; Oksendal & Sulem). frozen_step,
    with z the stored control at each step's two ends, is second order, so most steps span two snapshot
    intervals (_pair_schedule: 102 steps at 200 intervals). The pair is one stacked state: B's coupling
    lambda p(h) (J u) = C (u p) acts along lambda, so it sits in the implicit lambda stage, and each
    step's h stage is one tridiagonal solve with two right-hand sides.
    """
    grid, meta = policy.grid, policy.meta
    op = _PideOperator(grid, meta.hawkes, meta.model, meta.costs)
    adi = _DouglasADI(op, grid.d_t)
    # tiled to a state's shape, so that no product or difference with a state broadcasts
    p = np.tile(breach_prob(meta.model, grid.hs), (grid.n_lambda, 1))
    velocity = np.empty(op.shape)
    source = np.zeros((2,) + op.shape)
    source[0] = grid.lambdas[:, None] * p
    # the state, its F_h (0 at u = B = 0) and the next state's buffer
    x, f_h, out = np.zeros_like(source), np.zeros_like(source), np.empty_like(source)
    for k, kind in _pair_schedule(grid.t_snapshots):
        x, out = adi.frozen_step(x, f_h, np.subtract(policy.controls[k], op.ch, out=velocity), source, kind, p, out), x
    return x[0], x[1]


def _monotonicity_stats(values: np.ndarray, axis: int, tol: float) -> dict:
    """Count, share and worst of the decreases beyond tol along `axis` of the
    (snapshot, lambda, h) field, differenced in blocks of at most 128 KB (one
    snapshot when a snapshot is larger), so the report adds little to the peak
    memory of a solve beyond its value field."""
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


def _quality_report(vf: ValueField, inflow: np.ndarray, op: _PideOperator, wall: float, diagnostics: dict) -> dict:
    """inflow counts, per snapshot, the nodes at h_max where z* > rho h_max moves the level up out of
    the box, and the one-sided stencil stands in for the values above it."""
    values = vf.values
    scale = max(1.0, float(values.max()), float(-values.min()))  # max |V|, no temporary
    tol = 1e-6 * scale
    report = {
        "inflow_h_max": {"nodes": int(inflow.sum()), "of": int(values.shape[0] * values.shape[1])},
        "jump_cells": vf.meta.hawkes.beta / vf.grid.d_lambda,  # below 1, the jump lands inside the first cell
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
    uniform axis lo + step k of n nodes: x = lo + (i + w) step; i = w = 0 if n = 1.
    A finite float x gives an int and a float by the same operations, without
    numpy's per-call cost."""
    if isinstance(x, float):
        y = min(max((x - lo) / step, 0.0), n - 1.0)
        i = min(int(y), max(n - 2, 0))
        return i, y - i
    y = np.minimum(np.maximum((x - lo) / step, 0.0), n - 1)
    i = np.minimum(y.astype(np.intp), max(n - 2, 0))
    return i, y - i


def _bilinear(flat: np.ndarray, at, stride: int, w_lam, w_h):
    """Bilinear interpolation in a C-ordered (..., n_lambda, n_h) array read flat:
    `at` is the flat index of each point's lower (lambda, h) node, `stride` the
    step to the next lambda node (n_h, or 0 if n_lambda = 1), w_lam and w_h the
    weights of _axis. The one lookup rule of every stored field.

    On a one-node lambda axis (stride 0, where _axis gives w_lam = 0) it reads
    the two h corners alone and interpolates in h: the four-corner blend
    returns exactly that value there. An int `at` (with _axis's float weights)
    reads its corners as floats and returns a float, by the same operations."""
    scalar = isinstance(at, int)
    if stride == 0:
        read = flat.item if scalar else flat.take
        return (1 - w_h) * read(at) + w_h * read(at + 1)
    corners = (0, 1, stride, stride + 1)
    v00, v01, v10, v11 = (flat.item(at + k) for k in corners) if scalar else flat.take(np.add.outer(corners, at))
    u_h = 1 - w_h
    return (1 - w_lam) * (u_h * v00 + w_h * v01) + w_lam * (u_h * v10 + w_h * v11)


def _lookup(grid: SolverGrid, surface: np.ndarray, lam: float, h: float) -> float:
    """_bilinear on one (n_lambda, n_h) surface at a state that _check_in_grid has passed."""
    i, w_lam = _axis(lam, grid.lambda_min, grid.d_lambda, grid.n_lambda)
    j, w_h = _axis(h, grid.h_min, grid.d_h, grid.n_h)
    stride = grid.n_h if grid.n_lambda > 1 else 0
    return float(_bilinear(surface.reshape(-1), i * grid.n_h + j, stride, w_lam, w_h))


def query(field: ValueField, t: float, lam: float, h: float) -> float:
    """V at (t, lambda, h) on a value field: bilinear interpolation in (lambda, h) on
    the two snapshots that bracket t, and linear interpolation between them.
    At a snapshot time it is that snapshot's lookup alone.

    The state must lie in the field's box, or ValueError is raised: the
    lookup does not extend V past lambda_max, as the solve's jump term does.
    """
    grid = field.grid
    if not (0.0 <= t <= grid.horizon + 1e-12):
        raise ValueError(f"query time {t} outside [0, {grid.horizon}]")
    _check_in_grid(grid, lam, h)
    snaps = grid.t_snapshots
    k = max(int(np.count_nonzero(snaps >= t)) - 1, 0)  # snaps[k] >= t > snaps[k + 1]
    value = _lookup(grid, field.values[k], lam, h)
    if t >= snaps[k] or k + 1 == snaps.size:
        return value
    w = (snaps[k] - t) / (snaps[k] - snaps[k + 1])
    return float((1.0 - w) * value + w * _lookup(grid, field.values[k + 1], lam, h))
