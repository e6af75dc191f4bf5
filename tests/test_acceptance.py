"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s, and in
captured output otherwise). Heavy inputs (the desk-scale solve, the 10^5-path
batch, the refinement family) are session fixtures shared across criteria.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cyberinvest import (
    BreachFamily,
    BreachModel,
    ConstantRate,
    CostParams,
    HawkesParams,
    SolverGrid,
    breach_prob_derivative,
    expected_loss_no_investment,
    intensity_variance,
    lambda_baseline,
    lambda_expectation_matched,
    lambda_max_heuristic,
    optimize_constant,
    premium_report_baseline,
    premium_report_optimal,
    prevention_gap,
    query,
    simulate_losses,
    solve,
    solve_poisson,
    static_optimum,
    gain_vs_poisson,
    lower_bound,
)
from cyberinvest.cli import main as cli_main
from cyberinvest.config import validate
from conftest import onesided_central_1d, reference_policy

REPO = Path(__file__).resolve().parents[1]
STD_H = HawkesParams(27.0, 27.0, 15.0, 9.0)
STD_M = BreachModel(BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
STD_C = CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)

TABLE5_STD = {10.0: 118.56, 50.0: 125.04, 100.0: 132.70}
TABLE6_PREMIA = {10.0: 430.55, 50.0: 432.5, 100.0: 434.79}


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_closed_form_baseline_loss():
    e0 = expected_loss_no_investment(STD_H, STD_M, STD_C)
    ok = abs(e0 - 394.98) <= 0.01
    assert report(1, ok, f"closed-form E[L0] = {e0:.4f} k$ vs 394.98 +- 0.01")


@pytest.fixture(scope="session")
def baseline_losses(std_batch_100k):
    out = {}
    for ev in (10.0, 50.0, 100.0):
        costs = dataclasses.replace(STD_C, eta_var=ev)
        out[ev] = simulate_losses(std_batch_100k, STD_M, costs, ConstantRate(0.0), seed=0)
    return out


def exact_sigma_l0(count_moments, eta_var):
    """Exact sd of the no-investment loss: sqrt(E[N] Var(X) + Var(N) E[X]^2).

    With no investment H stays 0, so each attack breaches with probability v
    and the mark X is Bernoulli(v) times a loss of mean eta_mean and variance
    eta_var.
    """
    en, var_n = count_moments
    v, m = STD_M.v, STD_C.eta_mean
    mean_x = m * v
    var_x = v * (eta_var + m * m) - mean_x**2
    return math.sqrt(en * var_x + var_n * mean_x**2)


def test_criterion_02_monte_carlo_consistency(baseline_losses, std_count_moments):
    mean = baseline_losses[10.0].mean_loss()
    mean_ok = abs(mean.value - 394.98) <= 3 * mean.stderr
    lines = [f"mean {mean.value:.2f} +- {mean.stderr:.2f} vs 394.98 (3 SE): {'ok' if mean_ok else 'off'}"]
    std_ok = True
    for ev, paper in TABLE5_STD.items():
        exact = exact_sigma_l0(std_count_moments, ev)
        est = baseline_losses[ev].std_loss()
        hit = abs(est.value - exact) <= 3 * est.stderr
        std_ok &= hit
        lines.append(
            f"sigma(eta_var={ev:g}) {est.value:.2f} +- {est.stderr:.2f} vs exact {exact:.2f} "
            f"(3 SE; paper {paper}): {'ok' if hit else 'off'}"
        )
    ok = mean_ok and std_ok
    report(2, ok, "; ".join(lines))
    # Each sigma is checked against the exact sigma(L0) of the stated model,
    # from the joint count-moment ODEs (Var(N_1) = 309.0, sigma 121.8/128.1/
    # 135.6), at the same 3 SE bar as the mean. The paper's targets in
    # TABLE5_STD imply Var(N_1) = 290.6, which no correct simulation of the
    # model reaches; they are printed alongside as a known discrepancy.
    assert ok


def test_criterion_03_baseline_premium_table(baseline_losses):
    lines = []
    ok = True
    for ev, target in TABLE6_PREMIA.items():
        costs = dataclasses.replace(STD_C, eta_var=ev)
        rep = premium_report_baseline(STD_H, STD_M, costs, 0.3)
        hit = abs(rep.premium - target) <= 0.02 * target
        ok &= hit
        lines.append(f"pi(eta_var={ev:g}) = {rep.premium:.2f} vs {target} (2%): {'ok' if hit else 'off'}")
    assert report(3, ok, "; ".join(lines))


def test_criterion_04_benchmark_intensities():
    lb = lambda_baseline(STD_H)
    le = lambda_expectation_matched(STD_H, 1.0)
    ok = (lb == 27.0) and abs(le - 61.0) <= 0.5
    assert report(4, ok, f"lambda_b = {lb:g} (exact 27), lambda_e = {le:.4f} vs 61 +- 0.5")


def test_criterion_05_lambda_max_heuristic(std_batch_100k):
    lmax = lambda_max_heuristic(STD_H, 1.0)
    band_ok = abs(lmax - 216.0) <= 5.0
    var_ode = intensity_variance(STD_H, 1.0)
    lam_t = std_batch_100k.terminal_intensity()
    var_mc = float(np.var(lam_t, ddof=1))
    c = lam_t - lam_t.mean()
    se = math.sqrt(max(float(np.mean(c**4)) - var_mc**2, 0.0) / lam_t.size)
    mc_ok = abs(var_ode - var_mc) <= 4 * se
    ok = band_ok and mc_ok
    assert report(
        5,
        ok,
        f"E+7sd = {lmax:.2f} vs 216 +- 5; Var(lam_T) ode {var_ode:.1f} vs mc {var_mc:.1f} +- {se:.1f} (4 SE)",
    )


def _structural_clauses(solution, grid):
    """Criterion 6's per-solve clauses: terminal values, monotonicity, lower bound, policy identity."""
    lines = []
    # terminal condition exact
    term_err = float(np.max(np.abs(solution.value.terminal_values() - np.sqrt(grid.hs)[None, :])))
    t_ok = term_err == 0.0
    lines.append(f"terminal max err {term_err:g}")
    # monotone in lambda and h, < 0.1% violating nodes
    q = solution.quality
    m_ok = q["monotone_lambda"]["fraction"] < 0.001 and q["monotone_h"]["fraction"] < 0.001
    lines.append(
        f"monotone viol: lambda {q['monotone_lambda']['fraction']:.2e}, h {q['monotone_h']['fraction']:.2e}"
    )
    # lower bound within 2% everywhere
    worst = 0.0
    lams, hs = grid.lambdas[:, None], grid.hs[None, :]
    for k, t in enumerate(grid.t_snapshots):
        jb = lower_bound(t, lams, hs, STD_H, STD_M, STD_C)
        gap = solution.value.values[k] - (jb - 0.02 * np.abs(jb))
        worst = min(worst, float(gap.min()))
    b_ok = worst >= 0.0
    lines.append(f"bound slack min {worst:.3f}")
    # policy identity exact: the derived controls against the sparse stencil's maximizer
    d_h = onesided_central_1d(grid.n_h, grid.d_h)
    p_ok = True
    for k in (0, grid.t_snapshots.size // 2, grid.t_snapshots.size - 1):
        expected = reference_policy(d_h, solution.value.values[k], STD_C.delta, STD_C.gamma)
        p_ok &= np.array_equal(solution.policy.controls[k], expected)
    lines.append(f"policy identity {'exact' if p_ok else 'broken'}")
    return t_ok and m_ok and b_ok and p_ok, lines


def test_criterion_06_solver_structural_suite(coarse_solution, coarse_grid, narrow_family):
    s_ok, lines = _structural_clauses(coarse_solution, coarse_grid)
    # self-convergence on the fixed-domain family
    v1 = narrow_family[1].value.values[-1]
    v2 = narrow_family[2].value.values[-1]
    v4 = narrow_family[4].value.values[-1]
    d12 = float(np.max(np.abs(v1 - v2[::2, ::2])))
    d24 = float(np.max(np.abs(v2 - v4[::2, ::2])))
    factor = d12 / d24
    c_ok = factor >= 1.5
    corner = abs(v1[0, 0] - v2[0, 0]) / abs(v2[0, 0])
    r_ok = corner <= 0.02
    lines.append(f"refinement factor {factor:.2f} (>=1.5), V(0,27,0) shift {100*corner:.3f}% (<=2%)")
    ok = s_ok and c_ok and r_ok
    assert report(6, ok, "; ".join(lines))


def test_criterion_06_error_budget(coarse_solution, coarse_grid, lambda_family):
    """The coarse grid's error is in h, not in lambda. On the coarse domain, refining d_lambda
    threefold at the preset's d_h moves V(0, 27, 0) and the t = 0 surface less than halving d_h at
    the preset's d_lambda, and V(0, 27, 0) converges at second order in h over d_h, d_h / 2 and
    d_h / 4 (differences near 0.021 and 0.0049 at the preset's steps). At h = 5 the sequence is not
    monotone, so its differences are reported, and no order is taken from them."""
    g = coarse_grid
    h_coarse, h_fine = (
        solve(dataclasses.replace(g, d_h=d_h), STD_H, STD_M, STD_C).value.values[-1] for d_h in (2 * g.d_h, g.d_h / 2)
    )
    lam_fine = lambda_family[g.d_lambda / 3].value.values[-1]
    base = coarse_solution.value.values[-1]
    lam_move, lam_surface = abs(lam_fine[0, 0] - base[0, 0]), float(np.abs(lam_fine[::3] - base).max())
    h_move, h_surface = abs(h_fine[0, 0] - base[0, 0]), float(np.abs(h_fine[:, ::2] - base).max())
    budget_ok = lam_move < h_move and lam_surface < h_surface
    lines = [
        f"{g.n_lambda}x{g.n_h} grid: V(0,27,0) moves {lam_move:.2e} with d_lambda {g.d_lambda:g}->{g.d_lambda / 3:g}, "
        f"{h_move:.2e} with d_h {g.d_h:g}->{g.d_h / 2:g} (surface {lam_surface:.2e} vs {h_surface:.2e})"
    ]
    order_ok = False
    for h in (0.0, 5.0):
        col = round(h / g.d_h)
        d1, d2 = base[0, col] - h_coarse[0, col // 2], h_fine[0, 2 * col] - base[0, col]
        line = f"V(0,27,{h:g}) differences over d_h {2 * g.d_h:g}, {g.d_h:g}, {g.d_h / 2:g}: {d1:+.2e}, {d2:+.2e}"
        if d1 * d2 > 0 and abs(d2) < abs(d1):
            order = math.log2(d1 / d2)
            line += f", observed order {order:.2f}"
            if h == 0.0:
                order_ok = 1.5 <= order <= 2.5
                line += " (near 2)"
        else:
            line += " (not monotone: no order)"
        lines.append(line)
    ok = budget_ok and order_ok
    assert report(6, ok, "error budget: " + "; ".join(lines))


def test_criterion_07_memoryless_limit_equivalence():
    grid = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 200)
    memoryless = HawkesParams(27.0, 27.0, 15.0, 0.0)
    full = solve(grid, memoryless, STD_M, STD_C)
    flat = solve_poisson(grid, 27.0, STD_M, STD_C)
    row = full.value.values[:, 0, :]
    ref = flat.value.values[:, 0, :]
    gap = float(np.max(np.abs(row - ref) / np.maximum(np.abs(ref), 1.0)))
    ok = gap < 0.01
    assert report(7, ok, f"2-d beta=0 vs 1-d constant-intensity: max rel gap {gap:.2e} (< 1%)")


GAIN_TARGETS = [(0.5, 15.0), (1.0, 14.0), (2.0, 12.0), (5.0, 9.04), (10.0, 5.7), (20.0, 2.6)]


def _constant_gains(value_field):
    gains = []
    for h, _ in GAIN_TARGETS:
        v = query(value_field, 0.0, 27.0, h)
        _, best = optimize_constant(0.0, 27.0, h, STD_H, STD_M, STD_C)
        gains.append(100.0 * (v - best) / best)
    return gains


def test_criterion_08_gain_vs_best_constant(coarse_solution, coarse_grid):
    gains = _constant_gains(coarse_solution.value)
    in_band = all(abs(g - t) <= 1.5 for g, (_, t) in zip(gains, GAIN_TARGETS))
    decreasing = all(a > b for a, b in zip(gains, gains[1:]))
    used = "coarse"
    if not (in_band and decreasing):
        refined = solve(coarse_grid.refined(2), STD_H, STD_M, STD_C)
        gains = _constant_gains(refined.value)
        in_band = all(abs(g - t) <= 1.5 for g, (_, t) in zip(gains, GAIN_TARGETS))
        decreasing = all(a > b for a, b in zip(gains, gains[1:]))
        used = "2x-refined"
    ok = in_band and decreasing
    detail = ", ".join(f"h={h:g}: {g:.2f} (ref {t})" for g, (h, t) in zip(gains, GAIN_TARGETS))
    assert report(8, ok, f"{used} grid: {detail}; decreasing={decreasing}")


def test_criterion_06_loss_std_second_order_in_lambda(lambda_family):
    """sd(L*) carries a d_lambda error that V does not, and it is second order: over d_lambda
    1, 3 and 9 at the coarse preset's d_h the differences fall by 9 in the limit (8.9 measured,
    0.0015 and 0.0132), where first order would give 3."""
    sd = {d: premium_report_optimal(res.policy, STD_H, STD_M, STD_C, 0.3).loss_std for d, res in lambda_family.items()}
    fine, coarse = sd[3.0] - sd[1.0], sd[9.0] - sd[3.0]
    ratio = coarse / fine
    ok = 7.5 <= ratio <= 10.5
    detail = ", ".join(f"{sd[d]:.4f}" for d in (1.0, 3.0, 9.0))
    detail += f"; differences {fine:.4f}, {coarse:.4f}, ratio {ratio:.2f} in [7.5, 10.5]"
    assert report(6, ok, f"sd(L*) over d_lambda 1, 3, 9: {detail}")


def test_criteria_06_08_on_standard_grid(lambda_family):
    # the 190x101 grid that configs/standard.cfg names, rather than the coarse preset
    cfg = validate(REPO / "configs" / "standard.cfg", use_env=False)
    assert (cfg.hawkes, cfg.breach, cfg.costs) == (STD_H, STD_M, STD_C)
    res = lambda_family[1.0]
    assert res.value.grid == cfg.grid
    s_ok, lines = _structural_clauses(res, cfg.grid)
    gains = _constant_gains(res.value)
    in_band = all(abs(g - t) <= 1.5 for g, (_, t) in zip(gains, GAIN_TARGETS))
    decreasing = all(a > b for a, b in zip(gains, gains[1:]))
    lines.append("gains " + ", ".join(f"h={h:g}: {g:.2f} (ref {t})" for g, (h, t) in zip(gains, GAIN_TARGETS)))
    ok = s_ok and in_band and decreasing
    assert report("6+8", ok, f"{cfg.grid.n_lambda}x{cfg.grid.n_h} grid: " + "; ".join(lines))


def test_criterion_09_gain_vs_poisson_benchmarks(coarse_solution, poisson_pair):
    pb, pe = poisson_pair
    # sampled inside the trustworthy region of the reference figures (the top
    # of the intensity domain is a truncation boundary layer there)
    lams = [27.0, 45.0, 63.0, 81.0, 99.0, 117.0, 135.0]
    gb = [gain_vs_poisson(0.0, l, 0.0, coarse_solution.value, pb, STD_H, STD_M, STD_C) for l in lams]
    ge = [gain_vs_poisson(0.0, l, 0.0, coarse_solution.value, pe, STD_H, STD_M, STD_C) for l in lams]
    b_band = all(7.6 - 1.5 <= g <= 11.4 + 1.5 for g in gb)
    b_mono = all(a < b for a, b in zip(gb, gb[1:]))
    e_band = all(-0.2 <= g <= 1.0 for g in ge)
    ok = b_band and b_mono and e_band
    assert report(
        9,
        ok,
        f"baseline gains {['%.2f' % g for g in gb]} (band [6.1, 12.9], increasing={b_mono}); "
        f"expectation gains {['%.3f' % g for g in ge]} (band [-0.2, 1.0])",
    )


def test_criterion_10_optimal_policy_loss(coarse_solution):
    opt = premium_report_optimal(coarse_solution.policy, STD_H, STD_M, STD_C, 0.3)
    base = premium_report_baseline(STD_H, STD_M, STD_C, 0.3)
    e_ok = abs(opt.expected_loss - 141.77) <= 0.07 * 141.77
    dp, _ = prevention_gap(base, opt)
    r_ok = 58.0 <= dp <= 68.0
    ok = e_ok and r_ok
    assert report(
        10,
        ok,
        f"E[L*] = {opt.expected_loss:.2f} vs 141.77 +- 7%; premium cut {dp:.1f}% in [58, 68]",
    )


def test_criterion_11_static_optimum_properties():
    rng = np.random.default_rng(2024)
    worst_resid = 0.0
    ok = True
    for _ in range(100):
        fam = BreachFamily.CLASS_I if rng.random() < 0.5 else BreachFamily.CLASS_II
        m = BreachModel(fam, v=rng.uniform(0.1, 0.95), a=rng.uniform(0.02, 1.0), b=rng.uniform(0.3, 3.0))
        p = rng.uniform(0.2, 1.0)
        loss = rng.uniform(10.0, 2000.0)
        z = static_optimum(m, p, loss)
        ok &= z < m.v * p * loss / math.e + 1e-12
        if z > 0:
            resid = abs(-breach_prob_derivative(m, z) * p * loss - 1.0)
            worst_resid = max(worst_resid, resid)
            ok &= resid < 1e-8
    assert report(11, ok, f"100 random models: worst FOC residual {worst_resid:.2e} (< 1e-8), 1/e bound held")


def test_criterion_12_repeat_runs_are_identical(tmp_path):
    import json

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[grid]\nlambda_max = 57\nd_lambda = 3\nh_max = 10\nd_h = 1\ntime_steps = 20\n"
        "[premium]\neta_vars = 10\n"
    )
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        value = ["--value-field", f"{out}/value"]
        assert cli_main(["trace", "--config", str(cfg), *value, "--n-paths", "1", "--out", str(out)]) == 0
        assert cli_main(["premium", "--config", str(cfg), *value, "--out", str(out)]) == 0
        outputs[tag] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".f64", ".json", ".csv")
        }
    same = outputs["a"].keys() == outputs["b"].keys()
    for k in outputs["a"]:
        a, b = outputs["a"][k], outputs["b"][k]
        if k == "quality.json":
            # the quality report is required to carry wall time, which cannot
            # reproduce byte-for-byte; everything else in it must match
            qa, qb = json.loads(a), json.loads(b)
            qa.pop("wall_time_s"), qb.pop("wall_time_s")
            same &= qa == qb
        else:
            same &= a == b
    assert report(12, same, f"{len(outputs['a'])} output files identical across reruns (timing field excluded)")
