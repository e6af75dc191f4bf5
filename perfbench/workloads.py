"""The benchmark workloads: set-up, one timed iteration, and output checks.

Each workload calls the public API of cyberinvest in the order the CLI
commands use it. A timed iteration is a sequence of operations (one solve,
gain, premium report or path); each is timed on its own, and its output is
checked after the clock stops, so checking costs no measured time.

Why these workloads:

- tables-coarse: the backward solver dominates and no Monte Carlo runs, so a
  Monte Carlo change should leave it unchanged.
- premium-mc: the Monte Carlo layers and memory dominate while the solver is
  idle in the timed part; the same paths, extraction and Var(N_1) are redone
  for every eta_var, so caching, streaming and exact moments show here.
- paths-single: the scalar one-path sampler, extraction and loss loops, one
  path at a time; a per-call overhead that premium-mc would hide shows here.

The seed drives every random input; tables-coarse has none.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cyberinvest as ci
from cyberinvest.config import validate

# Monte Carlo worker processes, fixed so the workload is the same on any
# machine (the run record carries nproc).
THREADS = 2

# Reference values and tolerances of the acceptance suite.
E_L0, E_L0_TOL = 394.98, 0.01
E_LSTAR, E_LSTAR_REL = 141.77, 0.07
REDUCTION_BAND = (58.0, 68.0)
LAMBDA_E, LAMBDA_E_TOL = 61.0, 0.5
GAIN_TARGETS = ((0.5, 15.0), (1.0, 14.0), (2.0, 12.0), (5.0, 9.04), (10.0, 5.7), (20.0, 2.6))
GAIN_TOL = 1.5
POISSON_LAMBDAS = (27.0, 45.0, 63.0, 81.0, 99.0, 117.0, 135.0)
POISSON_BANDS = {"baseline": (7.6 - 1.5, 11.4 + 1.5), "expectation": (-0.2, 1.0)}


@dataclass(frozen=True)
class Sizes:
    grid: str  # "coarse": the 132x51 preset; "narrow": 32x51 on [27, 120]
    mc_paths: int
    single_paths: int


FULL = Sizes("coarse", 100_000, 1000)
SMOKE = Sizes("narrow", 20_000, 20)


@dataclass
class Context:
    cfg: "ci.RunConfig"
    sizes: Sizes
    seed: int
    workdir: Path


def make_context(root: Path, sizes: Sizes, seed: int, workdir: Path) -> Context:
    cfg = validate(root / "configs" / "standard.cfg", use_env=False)
    if sizes.grid == "coarse":
        cfg = cfg.coarse()
    else:
        g = cfg.grid
        grid = ci.SolverGrid.regular(
            g.lambda_min, 120.0, 3.0, g.h_min, g.h_max, 1.0, cfg.costs.horizon, g.t_snapshots.size - 1
        )
        cfg = dataclasses.replace(cfg, grid=grid)
    cfg = dataclasses.replace(cfg, mc_paths=sizes.mc_paths, seed=seed, threads=THREADS)
    return Context(cfg, sizes, seed, workdir)


def describe(ctx: Context) -> dict:
    """Workload sizes and config values for the run record."""
    cfg = ctx.cfg
    g = cfg.grid
    return {
        "grid": {
            "preset": ctx.sizes.grid,
            "n_lambda": g.n_lambda,
            "n_h": g.n_h,
            "snapshots": int(g.t_snapshots.size),
            "lambda": [g.lambda_min, g.lambda_max, g.d_lambda],
            "h": [g.h_min, g.h_max, g.d_h],
        },
        "mc_paths": cfg.mc_paths,
        "single_paths": ctx.sizes.single_paths,
        "threads": cfg.threads,
        "eta_vars": list(cfg.eta_vars),
        "theta": cfg.theta,
        "hawkes": dataclasses.asdict(cfg.hawkes),
        "breach": {"family": cfg.breach.family.value, "v": cfg.breach.v, "a": cfg.breach.a, "b": cfg.breach.b},
        "costs": {k: v for k, v in dataclasses.asdict(cfg.costs).items() if isinstance(v, (int, float, str))},
        "solver": dataclasses.asdict(cfg.options),
    }


class Recorder:
    """Times operations, defers their checks, and counts failures."""

    def __init__(self, on_op=None):
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []
        self.failures: list = []
        self.headline: dict = {}
        self._pending: list = []
        self._on_op = on_op

    def op(self, label: str, fn, check=None):
        """Run fn as one operation; its check runs later, in settle()."""
        self.attempted += 1
        if self._on_op is not None:
            self._on_op(label)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a raising operation is a counted failure
            self.latencies.append(time.perf_counter() - t0)
            self._fail(label, traceback.format_exc())
            return None
        self.latencies.append(time.perf_counter() - t0)
        if check is not None:
            self._pending.append((label, check, out))
        return out

    def settle(self) -> None:
        for label, check, out in self._pending:
            try:
                problems = check(out)
            except Exception:  # a check that cannot run marks its output bad
                problems = [traceback.format_exc()]
            if problems:
                self._fail(label, "; ".join(problems))
        self._pending.clear()

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}")
        print(f"operation failed: {label}: {detail}", file=sys.stderr)


def _outside(name: str, x: float, lo: float, hi: float) -> list:
    return [] if (math.isfinite(x) and lo <= x <= hi) else [f"{name} = {x!r} outside [{lo}, {hi}]"]


# --- tables-coarse ----------------------------------------------------------


def _setup_tables(ctx: Context):
    return None


def _iterate_tables(ctx: Context, state, rec: Recorder) -> None:
    cfg = ctx.cfg
    hk, bm, costs, grid = cfg.hawkes, cfg.breach, cfg.costs, cfg.grid

    def solve_and_save():
        res = ci.solve(grid, hk, bm, costs, cfg.options)
        ci.save_field(res.value, ctx.workdir / "value")
        ci.save_field(res.policy, ctx.workdir / "policy")
        return res

    def check_solve(res):
        rec.headline["hjb.residual_interior"] = res.quality["residual"]["interior_max"]
        problems = []
        if not (np.isfinite(res.value.values).all() and np.isfinite(res.policy.controls).all()):
            problems.append("non-finite value or policy")
        if (res.policy.controls < 0).any():
            problems.append("negative control")
        for axis in ("monotone_lambda", "monotone_h"):
            problems += _outside(f"{axis} fraction", res.quality[axis]["fraction"], 0.0, 0.001)
        return problems

    res = rec.op("hjb.solve", solve_and_save, check_solve)
    value = res.value if res is not None else None

    lam_b = ci.lambda_baseline(hk)
    lam_e = ci.lambda_expectation_matched(hk, costs.horizon)
    poisson = {}
    wanted = {"baseline": (27.0, 27.0), "expectation": (LAMBDA_E - LAMBDA_E_TOL, LAMBDA_E + LAMBDA_E_TOL)}
    for label, lam in (("baseline", lam_b), ("expectation", lam_e)):
        want = wanted[label]
        poisson[label] = rec.op(
            f"poisson.solve[{label}]",
            lambda lam=lam: ci.solve_poisson(grid, lam, bm, costs, cfg.options),
            lambda f, label=label, want=want: _outside(f"lambda_{label}", f.intensity, *want)
            + ([] if np.isfinite(f.value.values).all() else ["non-finite benchmark field"]),
        )

    gains = rec.headline.setdefault("gain_vs_constant", {})
    for h, target in GAIN_TARGETS:

        def check(g, h=h, target=target):
            gains[f"h={h:g}"] = g
            return _outside(f"gain h={h:g}", g, target - GAIN_TOL, target + GAIN_TOL)

        rec.op(
            f"gain.constant[h={h:g}]",
            lambda h=h: ci.gain_vs_constant(0.0, hk.lambda0, h, value, hk, bm, costs, mode="linear"),
            check,
        )

    for label, field in poisson.items():
        table = rec.headline.setdefault(f"gain_vs_poisson_{label}", {})
        for lam in POISSON_LAMBDAS:

            def check(g, lam=lam, label=label, table=table):
                table[f"lambda={lam:g}"] = g
                return _outside(f"gain vs {label} lambda={lam:g}", g, *POISSON_BANDS[label])

            rec.op(
                f"gain.poisson_{label}[lambda={lam:g}]",
                lambda lam=lam, field=field: ci.gain_vs_poisson(
                    0.0, lam, 0.0, value, field, hk, bm, costs, mode="linear"
                ),
                check,
            )


# --- premium-mc and paths-single share the policy set-up ---------------------


def _setup_policy(ctx: Context):
    cfg = ctx.cfg
    res = ci.solve(cfg.grid, cfg.hawkes, cfg.breach, cfg.costs, cfg.options)
    ci.save_field(res.policy, ctx.workdir / "policy")
    return res.quality


def _iterate_premium(ctx: Context, state, rec: Recorder) -> None:
    cfg = ctx.cfg
    rec.headline["hjb.residual_interior"] = state["residual"]["interior_max"]
    policy = ci.load_field(ctx.workdir / "policy")
    for eta_var in cfg.eta_vars:
        costs = dataclasses.replace(cfg.costs, eta_var=eta_var)
        tag = f"eta_var={eta_var:g}"
        row = rec.headline.setdefault(tag, {})

        def check_base(rep, row=row):
            row["sd_baseline"] = rep.loss_std
            row["sd_baseline_se"] = rep.standard_errors["loss_std"]
            row["premium_baseline"] = rep.premium
            rec.headline["E_L0"] = rep.expected_loss
            return _outside("E[L0]", rep.expected_loss, E_L0 - E_L0_TOL, E_L0 + E_L0_TOL) + _finite_se(rep)

        base = rec.op(
            f"premium.baseline[{tag}]",
            lambda costs=costs: ci.premium_report_baseline(
                cfg.hawkes, cfg.breach, costs, cfg.theta, cfg.mc_paths, cfg.seed
            ),
            check_base,
        )

        def check_opt(rep, row=row, base=base):
            row["E_Lstar"] = rep.expected_loss
            row["E_Lstar_se"] = rep.standard_errors["expected_loss"]
            row["sd_optimal"] = rep.loss_std
            row["sd_optimal_se"] = rep.standard_errors["loss_std"]
            row["premium_optimal"] = rep.premium
            lo, hi = E_LSTAR * (1 - E_LSTAR_REL), E_LSTAR * (1 + E_LSTAR_REL)
            problems = _outside("E[L*]", rep.expected_loss, lo, hi) + _finite_se(rep)
            if base is None:
                return problems + ["no baseline report to compare with"]
            dp, _ = ci.prevention_gap(base, rep)
            row["premium_reduction_pct"] = dp
            return problems + _outside("premium reduction %", dp, *REDUCTION_BAND)

        rec.op(
            f"premium.optimal[{tag}]",
            lambda costs=costs: ci.premium_report_optimal(
                policy, cfg.hawkes, cfg.breach, costs, cfg.theta, cfg.mc_paths, cfg.seed, threads=cfg.threads
            ),
            check_opt,
        )


def _finite_se(rep) -> list:
    bad = [k for k, v in rep.standard_errors.items() if not math.isfinite(v)]
    return [f"non-finite standard error of {', '.join(bad)}"] if bad else []


def _setup_paths(ctx: Context):
    quality = _setup_policy(ctx)
    return {"quality": quality, "policy": ci.load_field(ctx.workdir / "policy")}


def _iterate_paths(ctx: Context, state, rec: Recorder) -> None:
    cfg = ctx.cfg
    policy = state["policy"]
    rec.headline["hjb.residual_interior"] = state["quality"]["residual"]["interior_max"]
    done = []
    batched = {}

    def one_path(seed):
        path = ci.simulate_path(cfg.hawkes, cfg.costs.horizon, seed)
        trace = ci.extract_policy(policy, path, 0.0, 0.0)
        loss = ci.simulate_loss(path, cfg.breach, cfg.costs, trace.as_grid_rate(), seed)
        done.append((path, trace, loss))
        return len(done) - 1, path, trace, loss

    def batch_controls():
        # One extract_policies_batch call over every path of the iteration.
        # Its rows are computed independently, so row i equals the one-path
        # batch of path i, at a thousandth of the cost of 1000 calls.
        if not batched:
            paths = [p for p, _, _ in done]
            offsets = np.concatenate(([0], np.cumsum([p.n_events for p in paths])))
            batch = ci.PathBatch(cfg.hawkes, cfg.costs.horizon, np.concatenate([p.event_times for p in paths]), offsets)
            batched["times"], batched["controls"] = ci.extract_policies_batch(policy, batch, 0.0, 0.0)
            rec.headline["single_path_mean_loss"] = float(np.mean([loss.gross_loss for _, _, loss in done]))
        return batched["times"], batched["controls"]

    def check(out):
        row, path, trace, loss = out
        problems = []
        if not (0 <= loss.n_breaches <= loss.n_attacks == path.n_events):
            problems.append(f"{loss.n_breaches} breaches, {loss.n_attacks} attacks, {path.n_events} events")
        times, controls = batch_controls()
        if not (np.array_equal(times, trace.times) and np.array_equal(controls[row], trace.control)):
            problems.append("extract_policy differs from extract_policies_batch on the same path")
        return problems

    for k in range(ctx.sizes.single_paths):
        rec.op(f"path[seed={ctx.seed + k}]", lambda k=k: one_path(ctx.seed + k), check)


# name -> (set-up, one timed iteration, fewest timed iterations in a run).
# Host speed on a shared 2-core machine drifts by a quarter over seconds;
# paths-single measures four iterations (about 20 s) to average more of it.
WORKLOADS = {
    "tables-coarse": (_setup_tables, _iterate_tables, 1),
    "premium-mc": (_setup_policy, _iterate_premium, 1),
    "paths-single": (_setup_paths, _iterate_paths, 4),
}
