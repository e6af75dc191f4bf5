"""Batch command-line front end: solve, extract, evaluate, price, export.

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 I/O error.
All randomness flows from the single --seed through named substreams, so any
command rerun with the same config and seed reproduces its outputs exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .breach import enbis, static_optimum
from .config import RunConfig, validate
from .errors import ConfigError, SolverError
from .fields_io import load_field, load_poisson, save_field, save_poisson, write_field_csv
from .hawkes import (
    count_variance,
    expected_count,
    expected_intensity,
    intensity_variance,
    lambda_max_heuristic,
    simulate_path,
)
from .hjb import PolicyField, ValueField, _check_field_inputs, solve
from .poisson import lambda_baseline, lambda_expectation_matched, solve_poisson
from .premium import premium_report_baseline, premium_report_optimal, prevention_gap
from .strategies import extract_policy, gain_vs_constant, gain_vs_poisson

FMT = "{:.12g}"


def _fmt(x) -> str:
    return FMT.format(float(x))


def _floats(flag: str, text: str) -> list:
    """The comma-separated numbers of a list flag; a token that is not one is a ConfigError."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError([f"{flag} {text!r}: {exc}"]) from None


def _load_config(args) -> RunConfig:
    cfg = validate(args.config)
    if getattr(args, "coarse", False):
        cfg = cfg.coarse()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    print("configuration OK")
    print(f"  hawkes: {cfg.hawkes}")
    print(f"  breach: {cfg.breach}")
    print(f"  costs:  {cfg.costs}")
    print(
        f"  grid:   lambda [{_fmt(cfg.grid.lambda_min)}, {_fmt(cfg.grid.lambda_max)}] step {_fmt(cfg.grid.d_lambda)}, "
        f"h [{_fmt(cfg.grid.h_min)}, {_fmt(cfg.grid.h_max)}] step {_fmt(cfg.grid.d_h)}, "
        f"{cfg.grid.time_steps + 1} snapshots"
    )
    print(f"  premium: theta={_fmt(cfg.theta)} eta_vars={list(cfg.eta_vars)}")
    print(f"  run: seed={cfg.seed} out_dir={cfg.out_dir}")
    return 0


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    res = solve(cfg.grid, cfg.hawkes, cfg.breach, cfg.costs, cfg.options)
    save_field(res.value, out / "value")
    save_field(res.policy, out / "policy")
    (out / "quality.json").write_text(json.dumps(res.quality, sort_keys=True, indent=2) + "\n")
    if args.csv:
        write_field_csv(res.value, res.policy, out / "field.csv")
    print(f"solved {cfg.grid.n_lambda}x{cfg.grid.n_h} grid in {res.quality['wall_time_s']:.1f}s -> {out}")
    print(
        "  monotonicity violations:"
        f" lambda={res.quality['monotone_lambda']['violations']}"
        f" h={res.quality['monotone_h']['violations']}"
    )
    return 0


def cmd_solve_poisson(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    if args.mode == "baseline":
        lam_p = lambda_baseline(cfg.hawkes)
    else:
        lam_p = lambda_expectation_matched(cfg.hawkes, cfg.costs.horizon)
    field = solve_poisson(cfg.grid, lam_p, cfg.breach, cfg.costs, cfg.options)
    save_poisson(field, out / f"poisson_{args.mode}")
    (out / f"poisson_{args.mode}_quality.json").write_text(
        json.dumps(field.quality, sort_keys=True, indent=2) + "\n"
    )
    print(f"solved constant-intensity benchmark mode={args.mode} lambda_p={_fmt(lam_p)} -> {out}")
    return 0


def cmd_trace(args) -> int:
    cfg = _load_config(args)
    if args.n_paths < 0:
        raise ConfigError([f"--n-paths {args.n_paths} must be nonnegative"])
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    policy = load_field(args.field)
    if not isinstance(policy, PolicyField):
        raise ConfigError([f"{args.field} is not a policy field"])
    _check_field_inputs(policy.meta, cfg.hawkes, cfg.breach, cfg.costs)  # the paths follow cfg.hawkes
    clamped_lambda = clamped_h = 0
    for k in range(args.n_paths):
        path = simulate_path(cfg.hawkes, cfg.costs.horizon, cfg.seed + k)
        try:
            trace = extract_policy(policy, path, args.t_init, args.h_init)
        except ValueError as exc:
            raise ConfigError([f"--t-init/--h-init: {exc}"]) from exc
        clamped_lambda += trace.clamped_lambda
        clamped_h += trace.clamped_h
        with (out / f"path_{k}.csv").open("w") as fh:
            fh.write("index,tau\n")
            for i, tau in enumerate(path.event_times):
                fh.write(f"{i},{_fmt(tau)}\n")
        with (out / f"trace_{k}.csv").open("w") as fh:
            fh.write("t,lambda,z,H\n")
            for row in zip(trace.times, trace.intensity, trace.control, trace.level):
                fh.write(",".join(_fmt(x) for x in row) + "\n")
    grid = policy.grid
    print(
        f"lookups read at the grid's edge: {clamped_lambda} with lambda above {grid.lambda_max:g}, "
        f"{clamped_h} with h above {grid.h_max:g}"
    )
    print(f"wrote {args.n_paths} trace/path CSV pairs -> {out}")
    return 0


def cmd_gain(args) -> int:
    cfg = _load_config(args)
    lams = _floats("--lambdas", args.lambdas)
    hs = _floats("--hs", args.hs)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    value = load_field(args.value_field)
    if not isinstance(value, ValueField):
        raise ConfigError([f"{args.value_field} is not a value field"])
    t = args.t
    poisson = load_poisson(args.poisson_field) if args.poisson_field else None
    if args.benchmark != "constant" and poisson is None:
        raise ConfigError(["--poisson-field is required for the poisson benchmarks"])
    rows = []
    for lam in lams:
        for h in hs:
            try:
                if args.benchmark == "constant":
                    g = gain_vs_constant(t, lam, h, value, cfg.hawkes, cfg.breach, cfg.costs)
                else:
                    g = gain_vs_poisson(t, lam, h, value, poisson, cfg.hawkes, cfg.breach, cfg.costs)
            except ConfigError:  # a field solved for another model: one diagnostic per part
                raise
            except ValueError as exc:  # a bad --t/--lambdas/--hs, a state off the field, or an undefined gain
                raise ConfigError([f"gain at t={t:g}, lambda={lam:g}, h={h:g}: {exc}"]) from exc
            rows.append((t, lam, h, g))
    target = out / f"gain_{args.benchmark}.csv"
    with target.open("w") as fh:
        fh.write("t,lambda,h,gain_pct,benchmark\n")
        for t_, lam, h, g in rows:
            fh.write(f"{_fmt(t_)},{_fmt(lam)},{_fmt(h)},{_fmt(g)},{args.benchmark}\n")
    for t_, lam, h, g in rows:
        print(f"  t={_fmt(t_)} lambda={_fmt(lam)} h={_fmt(h)}: gain {g:.2f}% vs {args.benchmark}")
    print(f"wrote {target}")
    return 0


def cmd_premium(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    policy = load_field(args.policy_field)
    if not isinstance(policy, PolicyField):
        raise ConfigError([f"{args.policy_field} is not a policy field"])
    reports = []
    rows_std, rows_pi = [], []
    for eta_var in cfg.eta_vars:
        costs = dataclasses.replace(cfg.costs, eta_var=eta_var)
        base = premium_report_baseline(cfg.hawkes, cfg.breach, costs, cfg.theta)
        opt = premium_report_optimal(policy, cfg.hawkes, cfg.breach, costs, cfg.theta)
        dp, ds = prevention_gap(base, opt)
        reports.append({"eta_var": eta_var, "baseline": dataclasses.asdict(base), "optimal": dataclasses.asdict(opt)})
        rows_std.append((cfg.costs.eta_mean, eta_var, base.loss_std, opt.loss_std, ds))
        rows_pi.append((cfg.costs.eta_mean, eta_var, base.premium, opt.premium, dp))
    with (out / "table_std.csv").open("w") as fh:
        fh.write("eta_mean,eta_var,std_baseline,std_optimal,reduction_pct\n")
        for row in rows_std:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    with (out / "table_premia.csv").open("w") as fh:
        fh.write("eta_mean,eta_var,premium_baseline,premium_optimal,reduction_pct\n")
        for row in rows_pi:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    (out / "premium_reports.json").write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n")
    for (em, ev, pb, po, dp) in rows_pi:
        print(f"  eta_var={_fmt(ev)}: premium {pb:.2f} -> {po:.2f} ({dp:.1f}% lower)")
    print(f"wrote {out / 'table_std.csv'}, {out / 'table_premia.csv'}")
    return 0


def cmd_static_gl(args) -> int:
    cfg = _load_config(args)
    try:
        z = static_optimum(cfg.breach, args.p, args.loss)
        benefit = enbis(cfg.breach, args.p, args.loss, z)
    except ValueError as exc:
        raise ConfigError([f"--p {args.p:g} --loss {args.loss:g}: {exc}"]) from exc
    print(f"one-shot optimum: z* = {_fmt(z)}")
    print(f"expected net benefit at z*: {_fmt(benefit)}")
    print(f"spend share of expected loss: {_fmt(100 * z / max(cfg.breach.v * args.p * args.loss, 1e-300))}%")
    return 0


def cmd_moments(args) -> int:
    cfg = _load_config(args)
    hk, times = cfg.hawkes, _floats("--times", args.times)
    try:  # the heuristic at t = 0 is E[lambda_0], the intensity's variance being 0
        rows = [(t, expected_intensity(hk, t), expected_count(hk, t), intensity_variance(hk, t),
                 count_variance(hk, t), lambda_max_heuristic(hk, t)) for t in times]
    except ValueError as exc:
        raise ConfigError([f"--times {args.times}: {exc}"]) from exc
    print("t,E_lambda,E_N,Var_lambda,Var_N,lambda_max_heuristic")
    for row in rows:
        print(",".join(_fmt(x) for x in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyberinvest",
        description="Dynamic cybersecurity-investment policies under clustered attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file (defaults built in)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="root RNG seed override")
        p.add_argument("--coarse", action="store_true", help="desk-scale grid preset")

    p = sub.add_parser("validate", help="check a config file and print the effective settings")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the value/policy surfaces and persist them")
    common(p)
    p.add_argument("--csv", action="store_true", help="also export the field as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-poisson", help="solve a constant-intensity benchmark field")
    common(p)
    p.add_argument("--mode", choices=["baseline", "expectation"], default="expectation")
    p.set_defaults(func=cmd_solve_poisson)

    p = sub.add_parser("trace", help="extract the policy along simulated attack paths")
    common(p)
    p.add_argument("--field", required=True, help="prefix of a persisted policy field")
    p.add_argument("--n-paths", type=int, default=2)
    p.add_argument("--t-init", type=float, default=0.0)
    p.add_argument("--h-init", type=float, default=0.0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("gain", help="tabulate relative gains against a benchmark strategy")
    common(p)
    p.add_argument("--value-field", required=True, help="prefix of a persisted value field")
    p.add_argument("--benchmark", choices=["constant", "poisson-baseline", "poisson-expectation"], default="constant")
    p.add_argument("--poisson-field", default=None, help="prefix of a persisted benchmark field pair")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--lambdas", default="27")
    p.add_argument("--hs", default="0.5,1,2,5,10,20")
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("premium", help="standard-deviation premia for baseline and optimal policies")
    common(p)
    p.add_argument("--policy-field", required=True, help="prefix of a persisted policy field")
    p.set_defaults(func=cmd_premium)

    p = sub.add_parser("static-gl", help="one-shot static investment optimum")
    common(p)
    p.add_argument("--p", type=float, default=1.0, help="attack probability")
    p.add_argument("--loss", type=float, default=400.0, help="loss on breach")
    p.set_defaults(func=cmd_static_gl)

    p = sub.add_parser("moments", help="expected intensity/count and intensity dispersion table")
    common(p)
    p.add_argument("--times", default="0,0.25,0.5,0.75,1")
    p.set_defaults(func=cmd_moments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for d in exc.diagnostics:
            print(f"  - {d}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"  diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
