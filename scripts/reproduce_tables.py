#!/usr/bin/env python3
"""Regenerate every headline table from one command.

Runs the full pipeline at the standard parameter set: process moments and the
intensity-domain bound, the static one-shot optimum, the desk-scale backward
solve, relative gains against the best constant rate and both
constant-intensity benchmarks, and the dispersion/premium tables. Writes CSVs
next to a printed summary.

Usage:
    python scripts/reproduce_tables.py [--out OUT] [--seed S] [--mc-paths N] [--full]

--full switches to the fine grid of configs/standard.cfg (d_lambda=1, d_h=0.5,
190x101 nodes).
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cyberinvest import (
    count_variance,
    expected_count,
    expected_intensity,
    gain_vs_constant,
    gain_vs_poisson,
    intensity_variance,
    lambda_baseline,
    lambda_expectation_matched,
    lambda_max_heuristic,
    premium_report_baseline,
    premium_report_optimal,
    prevention_gap,
    save_field,
    solve,
    solve_poisson,
    static_optimum,
    enbis,
    validate,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/tables")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mc-paths", type=int, default=100_000)
    ap.add_argument("--full", action="store_true", help="fine grid instead of the desk preset")
    args = ap.parse_args()

    cfg = validate(use_env=False)
    if not args.full:
        cfg = cfg.coarse()
    cfg = dataclasses.replace(cfg, seed=args.seed, mc_paths=args.mc_paths)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hk, bm, costs, grid = cfg.hawkes, cfg.breach, cfg.costs, cfg.grid
    T = costs.horizon

    print("== process moments ==")
    rows = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        rows.append(
            (
                t,
                expected_intensity(hk, t),
                expected_count(hk, t),
                intensity_variance(hk, t),
                count_variance(hk, t),
            )
        )
        print(
            f"  t={t:4.2f}  E[lam]={rows[-1][1]:8.3f}  E[N]={rows[-1][2]:8.3f}  "
            f"Var[lam]={rows[-1][3]:8.2f}  Var[N]={rows[-1][4]:8.2f}"
        )
    print(f"  intensity domain bound E+7sd at T: {lambda_max_heuristic(hk, T):.2f}")
    with (out / "moments.csv").open("w") as fh:
        fh.write("t,E_lambda,E_N,Var_lambda,Var_N\n")
        for r in rows:
            fh.write(",".join(f"{x:.12g}" for x in r) + "\n")

    print("== static one-shot optimum (p=1, loss=400) ==")
    z_static = static_optimum(bm, 1.0, 400.0)
    print(f"  z* = {z_static:.4f}, net benefit = {enbis(bm, 1.0, 400.0, z_static):.4f}")

    print(f"== backward solve on {grid.n_lambda}x{grid.n_h} grid ==")
    t0 = time.perf_counter()
    res = solve(grid, hk, bm, costs, cfg.options)
    print(f"  solved in {time.perf_counter() - t0:.1f}s; "
          f"monotonicity violations lambda/h: {res.quality['monotone_lambda']['violations']}/"
          f"{res.quality['monotone_h']['violations']}")
    save_field(res.value, out / "value")
    save_field(res.policy, out / "policy")

    print("== gain vs best constant rate (t=0, lambda=27) ==")
    with (out / "gain_constant.csv").open("w") as fh:
        fh.write("t,lambda,h,gain_pct,benchmark\n")
        for h in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            g = gain_vs_constant(0.0, 27.0, h, res.value, hk, bm, costs, mode="linear")
            fh.write(f"0,27,{h:g},{g:.12g},constant\n")
            print(f"  h={h:4.1f}: {g:6.2f}%")

    print("== gain vs constant-intensity benchmarks (t=0, h=0) ==")
    pb = solve_poisson(grid, lambda_baseline(hk), bm, costs, cfg.options)
    pe = solve_poisson(grid, lambda_expectation_matched(hk, T), bm, costs, cfg.options)
    print(f"  benchmark intensities: {pb.intensity:g} and {pe.intensity:.2f}")
    with (out / "gain_poisson.csv").open("w") as fh:
        fh.write("t,lambda,h,gain_pct,benchmark\n")
        for lam in (27.0, 45.0, 63.0, 81.0, 99.0, 117.0, 135.0):
            g_b = gain_vs_poisson(0.0, lam, 0.0, res.value, pb, hk, bm, costs, mode="linear")
            g_e = gain_vs_poisson(0.0, lam, 0.0, res.value, pe, hk, bm, costs, mode="linear")
            fh.write(f"0,{lam:g},0,{g_b:.12g},poisson-baseline\n")
            fh.write(f"0,{lam:g},0,{g_e:.12g},poisson-expectation\n")
            print(f"  lambda={lam:5.1f}: vs baseline {g_b:6.2f}%   vs expectation-matched {g_e:6.3f}%")

    print(f"== dispersion and premia (theta={cfg.theta:g}, {cfg.mc_paths} paths) ==")
    with (out / "table_std.csv").open("w") as s_fh, (out / "table_premia.csv").open("w") as p_fh:
        s_fh.write("eta_mean,eta_var,std_baseline,std_optimal,reduction_pct\n")
        p_fh.write("eta_mean,eta_var,premium_baseline,premium_optimal,reduction_pct\n")
        for ev in cfg.eta_vars:
            c = dataclasses.replace(costs, eta_var=ev)
            base = premium_report_baseline(hk, bm, c, cfg.theta)
            opt = premium_report_optimal(
                res.policy, hk, bm, c, cfg.theta, cfg.mc_paths, cfg.seed, threads=cfg.threads
            )
            dp, ds = prevention_gap(base, opt)
            s_fh.write(f"{c.eta_mean:g},{ev:g},{base.loss_std:.12g},{opt.loss_std:.12g},{ds:.12g}\n")
            p_fh.write(f"{c.eta_mean:g},{ev:g},{base.premium:.12g},{opt.premium:.12g},{dp:.12g}\n")
            print(
                f"  eta_var={ev:5.1f}: E[L] {base.expected_loss:7.2f} -> {opt.expected_loss:7.2f},  "
                f"sd {base.loss_std:6.2f} -> {opt.loss_std:6.2f} (-{ds:4.1f}%),  "
                f"premium {base.premium:7.2f} -> {opt.premium:7.2f} (-{dp:4.1f}%)"
            )

    print(f"wrote CSVs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
