import dataclasses
import gc
import importlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberinvest import (
    BreachFamily,
    BreachModel,
    ConfigError,
    CostParams,
    HawkesParams,
    PremiumReport,
    SolverGrid,
    breach_prob,
    count_variance,
    expected_count,
    extract_policies_batch,
    load_field,
    premium,
    premium_report_baseline,
    premium_report_optimal,
    prevention_gap,
    save_field,
    simulate_losses,
    simulate_paths,
    solve,
)
from cyberinvest import hjb
from cyberinvest.dynamics import _control_levels
from cyberinvest.hjb import FieldMeta, PolicyField, _DouglasADI, _PideOperator, _schedule

# the package exports the premium() function under the module's name
premium_module = importlib.import_module("cyberinvest.premium")

STD_H = HawkesParams(27.0, 27.0, 15.0, 9.0)
STD_M = BreachModel(BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
STD_C = CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)


class TestPremiumFormula:
    def test_table_row(self):
        assert premium(394.98, 118.56, 0.3) == pytest.approx(430.55, abs=0.005)

    def test_zero_loading_is_pure_premium(self):
        assert premium(394.98, 118.56, 0.0) == 394.98

    def test_second_table_row(self):
        assert premium(394.98, 132.70, 0.3) == pytest.approx(434.79, abs=0.005)

    def test_negative_inputs_rejected(self):
        for args in [(-1, 1, 0.3), (1, -1, 0.3), (1, 1, -0.1)]:
            with pytest.raises(ValueError):
                premium(*args)

    @settings(max_examples=40)
    @given(st.floats(0, 1e6), st.floats(0, 1e5), st.floats(0, 2))
    def test_affine_identity(self, e, s, theta):
        r = PremiumReport("x", e, s, theta, 10_000)
        assert r.premium == e + theta * s


class TestBaselineReport:
    def test_invulnerable_all_zero(self):
        m0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        r = premium_report_baseline(STD_H, m0, STD_C, 0.3, mc_paths=10_000)
        assert r.expected_loss == 0.0 and r.loss_std == 0.0 and r.premium == 0.0

    def test_standard_mean(self, std_count_moments):
        r = premium_report_baseline(STD_H, STD_M, STD_C, 0.3, mc_paths=20_000, seed=0)
        assert r.expected_loss == pytest.approx(394.98, abs=0.01)
        en, var_n = std_count_moments
        v, m = STD_M.v, STD_C.eta_mean
        exact = math.sqrt(en * (STD_C.eta_var * v + m * m * v * (1 - v)) + m * m * v * v * var_n)
        assert r.loss_std == pytest.approx(exact, rel=1e-9)
        assert r.premium == r.expected_loss + 0.3 * r.loss_std
        assert r.standard_errors["loss_std"] == 0.0
        assert premium_report_baseline(STD_H, STD_M, STD_C, 0.3, mc_paths=20_000, seed=7) == r

    def test_dispersion_grows_with_eta_var(self):
        rows = []
        for ev in (10.0, 50.0, 100.0):
            costs = dataclasses.replace(STD_C, eta_var=ev)
            rows.append(premium_report_baseline(STD_H, STD_M, costs, 0.3, mc_paths=20_000, seed=0).loss_std)
        assert rows[0] < rows[1] < rows[2]


def _conditional_moments(policy, n, seed, eta_vars, chunk=2048):
    """Oracle: E[L*] and sd(L*) for each eta_var, with their standard errors,
    by conditional Monte Carlo over n paths from level 0.

    Per path, the attack count N and the sums S1 and S2 of the events'
    breach probabilities and of their squares come from the path pipeline:
    simulate_paths, extract_policies_batch, _control_levels and breach_prob.
    Given a path the breaches are independent and the marks i.i.d., so
    E[L | path] = m S1 and Var(L | path) = (s^2 + m^2) S1 - m^2 S2. N, and N^2
    for the second moment, serve as control variates of exact mean; the
    standard errors follow from the regression residuals by the delta method.
    """
    batch = simulate_paths(STD_H, STD_C.horizon, n, seed)
    parts = []
    for start in range(0, n, chunk):
        sub = batch.slice(start, min(start + chunk, n))
        times, controls = extract_policies_batch(policy, sub)
        pid = sub.path_index()
        levels, _ = _control_levels(times, controls, 0.0, STD_C.rho, sub.times, pid, sub.n_paths, sub.horizon)
        probs = breach_prob(STD_M, levels)
        parts.append((sub.counts(), np.bincount(pid, probs, sub.n_paths), np.bincount(pid, probs**2, sub.n_paths)))
    n_att, s1, s2 = (np.concatenate(column).astype(float) for column in zip(*parts))

    def controlled_mean(y, controls):
        centred = [x - x.mean() for x in controls]
        y_c = y - y.mean()
        gram = [[np.mean(a * b) for b in centred] for a in centred]
        coef = np.linalg.solve(gram, [np.mean(a * y_c) for a in centred])
        return y.mean() - sum(c * x.mean() for c, x in zip(coef, controls)), y_c - sum(c * a for c, a in zip(coef, centred))

    def stderr(residuals):
        return math.sqrt(np.mean(residuals**2) / (residuals.size - 1))

    en, var_n = expected_count(STD_H, STD_C.horizon), count_variance(STD_H, STD_C.horizon)
    d_n, d_n2 = n_att - en, n_att**2 - (var_n + en * en)
    m = STD_C.eta_mean
    mean, r_mean = controlled_mean(m * s1, [d_n])
    out = []
    for eta_var in eta_vars:
        second, r_second = controlled_mean((eta_var + m * m) * s1 - m * m * s2 + (m * s1) ** 2, [d_n, d_n2])
        sd = math.sqrt(second - mean * mean)
        out.append((mean, stderr(r_mean), sd, stderr(r_second - 2.0 * mean * r_mean) / (2.0 * sd)))
    return out


def _theta_weighted_pair(policy):
    """Oracle: the loss pair (u, B) as two single-state frozen solves per
    step, B's coupling lambda p(h) (J u) a source weighted theta between u's
    states at the step's two ends, so u steps first."""
    grid = policy.grid
    op = _PideOperator(grid, STD_H, STD_M, STD_C)
    adi = _DouglasADI(op)
    p = breach_prob(STD_M, grid.hs)
    breach_rate = grid.lambdas[:, None] * p
    u, b, source = np.zeros((1,) + op.shape), np.zeros((1,) + op.shape), np.zeros(op.shape)
    for k, dt, theta, c, _ in _schedule(grid.t_snapshots):
        velocity = policy.controls[k] - op.ch
        u = adi.frozen_step(u, velocity, breach_rate, dt, c)
        after = (op.jump_rate @ u[0]) * p
        b = adi.frozen_step(b, velocity, (1.0 - theta) * source + theta * after, dt, c)
        source = after
    return u[0], b[0]


def _field(grid, controls, model=STD_M, costs=STD_C, hawkes=STD_H):
    """A policy field of given controls, as if solved for these parameters."""
    return PolicyField(grid, controls, FieldMeta(hawkes, model, costs))


class TestOptimalReport:
    @pytest.fixture(scope="class")
    def small_policy(self):
        grid = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50)
        return solve(grid, STD_H, STD_M, STD_C).policy

    @pytest.fixture(scope="class")
    def fine_policy(self):
        """small_policy's grid at 200 time steps."""
        grid = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 200)
        return solve(grid, STD_H, STD_M, STD_C).policy

    def test_field_mismatch_rejected(self, small_policy):
        others = [
            (HawkesParams(27.0, 27.0, 15.0, 3.0), STD_M, STD_C),
            (HawkesParams(30.0, 30.0, 15.0, 9.0), STD_M, STD_C),
            (HawkesParams(27.0, 27.0, 14.0, 9.0), STD_M, STD_C),
            (STD_H, dataclasses.replace(STD_M, v=0.6), STD_C),
            (STD_H, STD_M, dataclasses.replace(STD_C, rho=0.3)),
        ]
        for hawkes, model, costs in others:
            with pytest.raises(ConfigError):
                premium_report_optimal(small_policy, hawkes, model, costs, 0.3)

    def test_eta_var_change_allowed(self, small_policy):
        costs = dataclasses.replace(STD_C, eta_var=50.0)
        r = premium_report_optimal(small_policy, STD_H, STD_M, costs, 0.3, mc_paths=10_000, seed=0)
        assert r.expected_loss > 0

    def test_other_start_intensity_allowed(self, small_policy):
        """The solve never reads lambda0: a start intensity on the grid is read
        off the same surfaces, and a higher one means more expected loss."""
        rows = [
            premium_report_optimal(small_policy, HawkesParams(27.0, lam0, 15.0, 9.0), STD_M, STD_C, 0.3)
            for lam0 in (27.0, 40.5, 120.0)
        ]
        assert rows[0] == premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3)
        assert rows[0].expected_loss < rows[1].expected_loss < rows[2].expected_loss

    @pytest.mark.parametrize("lambda0", [20.0, 120.5, 200.0])
    def test_start_intensity_outside_grid_rejected(self, small_policy, lambda0):
        with pytest.raises(ValueError, match=rf"\({lambda0}, 0.0\) lies outside the field's box \[27, 120\] x \[0, 50\]"):
            premium_report_optimal(small_policy, HawkesParams(27.0, lambda0, 15.0, 9.0), STD_M, STD_C, 0.3)

    def test_prevention_reduces_both_moments(self, small_policy):
        base = premium_report_baseline(STD_H, STD_M, STD_C, 0.3, mc_paths=20_000, seed=0)
        opt = premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, mc_paths=20_000, seed=0)
        assert opt.expected_loss < base.expected_loss
        assert opt.loss_std < base.loss_std
        dp, ds = prevention_gap(base, opt)
        assert dp > 0 and ds > 0

    @pytest.mark.parametrize("family", ["lognormal", "gamma"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_identical_for_any_sampling_arguments(self, small_policy, family, threads):
        """The report has no sampling error: mc_paths, seed and threads do not
        change it, and it sees the marks only through eta_mean and eta_var."""
        costs = dataclasses.replace(STD_C, eta_var=50.0, eta_family=family)
        r = premium_report_optimal(small_policy, STD_H, STD_M, costs, 0.3, 20_000, 3, threads=threads)
        other = dataclasses.replace(costs, eta_family="gamma" if family == "lognormal" else "lognormal")
        for field, c, n, seed, t in (
            (dataclasses.replace(small_policy), costs, 10_000, 9, 3 - threads),
            (small_policy, other, 100, 0, threads),
            (small_policy, costs, 0, 5, 1),
        ):
            assert premium_report_optimal(field, STD_H, STD_M, c, 0.3, n, seed, threads=t) == r
        assert r.mc_paths == 0 and r.standard_errors == {"expected_loss": 0.0, "loss_std": 0.0}

    def test_memo_cannot_leak(self, small_policy, monkeypatch):
        """The loss surfaces are solved once per field object: reports at other
        eta_var, start levels and start intensities reuse them, and a new field
        object solves its own."""
        calls = []
        solve_surfaces = premium_module._loss_surfaces
        monkeypatch.setattr(premium_module, "_loss_surfaces", lambda f: calls.append(f) or solve_surfaces(f))
        fresh = dataclasses.replace(small_policy)
        assert not fresh.loss_surfaces
        first = premium_report_optimal(fresh, STD_H, STD_M, STD_C, 0.3)
        for eta_var, h_init, lam0 in ((50.0, 0.0, 27.0), (100.0, 3.0, 27.0), (10.0, 2.5, 45.0)):
            costs = dataclasses.replace(STD_C, eta_var=eta_var)
            hawkes = HawkesParams(27.0, lam0, 15.0, 9.0)
            premium_report_optimal(fresh, hawkes, STD_M, costs, 0.3, h_init=h_init)
        assert calls == [fresh]
        assert set(fresh.loss_surfaces) == {"u", "b"}
        again = dataclasses.replace(fresh)
        assert premium_report_optimal(again, STD_H, STD_M, STD_C, 0.3) == first
        assert len(calls) == 2 and calls[1] is again
        for name in ("u", "b"):
            np.testing.assert_array_equal(again.loss_surfaces[name], fresh.loss_surfaces[name])

    @pytest.mark.parametrize("seed, eta_var, family", [(11, 10.0, "lognormal"), (12, 50.0, "gamma"), (13, 100.0, "lognormal")])
    def test_agrees_with_sampled_losses(self, fine_policy, seed, eta_var, family):
        """Oracle: both moments lie within 3 standard errors of the ones of
        losses sampled with breach and mark draws under the policy walk.

        At 200 time steps; on small_policy's 50 steps the report is 142.78
        against the conditional Monte Carlo's 141.79 +- 0.05, a time-step
        bias of the walk, not noise."""
        costs = dataclasses.replace(STD_C, eta_var=eta_var, eta_family=family)
        r = premium_report_optimal(fine_policy, STD_H, STD_M, costs, 0.3)
        batch = simulate_paths(STD_H, costs.horizon, 20_000, seed)
        times, controls = extract_policies_batch(fine_policy, batch)
        lb = simulate_losses(batch, STD_M, costs, seed=seed, control_times=times, controls=controls)
        for name, sampled in (("expected_loss", lb.mean_loss()), ("loss_std", lb.std_loss())):
            assert abs(getattr(r, name) - sampled.value) <= 3.0 * sampled.stderr, name

    @pytest.fixture(scope="class")
    def policy_800(self):
        """The coarse preset's steps on the standard domain at 800 time steps."""
        grid = SolverGrid(27.0, 216.0, 3.0, 0.0, 50.0, 1.0, 1.0, 800)
        return solve(grid, STD_H, STD_M, STD_C).policy

    @pytest.mark.parametrize("seed", [1, 2])
    def test_agrees_with_conditional_monte_carlo(self, policy_800, seed):
        """At 800 time steps the walk's time-step bias is below the noise of
        4 x 10^4 paths: E[L*] and sd(L*) at each eta_var lie within 3 standard
        errors of the conditional Monte Carlo oracle."""
        eta_vars = (10.0, 50.0, 100.0)
        for eta_var, (mean, mean_se, sd, sd_se) in zip(eta_vars, _conditional_moments(policy_800, 40_000, seed, eta_vars)):
            r = premium_report_optimal(policy_800, STD_H, STD_M, dataclasses.replace(STD_C, eta_var=eta_var), 0.3)
            assert abs(r.expected_loss - mean) <= 3.0 * mean_se, (eta_var, r.expected_loss, mean, mean_se)
            assert abs(r.loss_std - sd) <= 3.0 * sd_se, (eta_var, r.loss_std, sd, sd_se)

    @pytest.mark.parametrize("steps", [200, 400, 800])
    def test_breach_count_is_expected_count_at_p_one(self, steps):
        """With p = 1 and eta_mean = 1, E[L] is E[N_T] in closed form, whatever
        the controls, from any start intensity on the grid."""
        grid = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, steps)
        controls = np.random.default_rng(steps).uniform(0.0, 40.0, (steps + 1, grid.n_lambda, grid.n_h))
        always = BreachModel(BreachFamily.CLASS_II, 1.0, 0.1, 1.0)
        costs = dataclasses.replace(STD_C, eta_mean=1.0)
        field = _field(grid, controls, always, costs)
        for lam0 in (27.0, 50.5, 120.0):
            hawkes = HawkesParams(27.0, lam0, 15.0, 9.0)
            r = premium_report_optimal(field, hawkes, always, costs, 0.3, h_init=7.5)
            assert r.expected_loss == pytest.approx(expected_count(hawkes, 1.0), rel=1e-9)

    def test_no_investment_gives_the_exact_baseline(self, std_count_moments):
        """Under zero controls from h = 0 the level stays 0, so both moments
        are the exact no-investment ones: E[L] to 1e-9 and sd(L), which the
        solve with the source lambda p (J u) carries through Var(N_T), to the
        time-step error of 800 steps."""
        grid = SolverGrid(27.0, 216.0, 3.0, 0.0, 50.0, 1.0, 1.0, 800)
        field = _field(grid, np.zeros((801, grid.n_lambda, grid.n_h)))
        for eta_var in (0.0, 100.0):
            costs = dataclasses.replace(STD_C, eta_var=eta_var)
            r = premium_report_optimal(field, STD_H, STD_M, costs, 0.3)
            base = premium_report_baseline(STD_H, STD_M, costs, 0.3)
            assert r.expected_loss == pytest.approx(base.expected_loss, rel=1e-9)
            assert r.loss_std == pytest.approx(base.loss_std, rel=2e-5)

    def test_surfaces_monotone_and_dispersed(self, small_policy):
        """At every node u falls with the level and E[L^2] >= E[L]^2, at eta_var = 0 too."""
        premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3)
        u, b = small_policy.loss_surfaces["u"], small_policy.loss_surfaces["b"]
        assert (np.diff(u, axis=1) <= 0.0).all()
        m = STD_C.eta_mean
        for eta_var in (0.0, 10.0, 100.0):
            second = (eta_var + m * m) * u + 2.0 * m * m * b
            assert (second >= (m * u) ** 2).all()

    def test_linearity_matches_a_direct_second_moment_solve(self, small_policy):
        """E[L^2] = (eta_var + m^2) u + 2 m^2 B equals, to 1e-12, the second
        state of the pair (u, E[L^2]) stepped by the same stacked step, with
        the coupling 2 m^2 lambda p(h) (J u) in the lambda stage and the
        source [lambda p(h); (eta_var + m^2) lambda p(h)]."""
        premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3)
        u0, b0 = small_policy.loss_surfaces["u"], small_policy.loss_surfaces["b"]
        grid = small_policy.grid
        op = _PideOperator(grid, STD_H, STD_M, STD_C)
        adi = _DouglasADI(op)
        p = breach_prob(STD_M, grid.hs)
        breach_rate = grid.lambdas[:, None] * p
        m, eta_var = STD_C.eta_mean, 50.0
        x = np.zeros((2,) + op.shape)
        source = np.stack([breach_rate, (eta_var + m * m) * breach_rate])
        for k, dt, _, c, _ in _schedule(grid.t_snapshots):
            x = adi.frozen_step(x, small_policy.controls[k] - op.ch, source, dt, c, 2.0 * m * m * p)
        np.testing.assert_array_equal(x[0], u0)
        np.testing.assert_allclose((eta_var + m * m) * u0 + 2.0 * m * m * b0, x[1], rtol=1e-12, atol=0.0)

    def test_one_tridiagonal_solve_per_step(self, fine_policy, monkeypatch):
        """The pair's h stages are one gtsv call per step of the schedule, with
        u and B as its two right-hand sides: 202 calls at 200 steps, whose
        first two intervals take two half steps each."""
        gtsv, rhs_shapes = hjb._gtsv(), []

        def counted(*args):
            rhs_shapes.append(args[3].shape)
            return gtsv(*args)

        monkeypatch.setattr(hjb, "_gtsv", lambda: counted)
        hjb._loss_surfaces(fine_policy)
        grid = fine_policy.grid
        assert len(rhs_shapes) == len(_schedule(grid.t_snapshots)) == 202
        assert set(rhs_shapes) == {(grid.n_lambda * grid.n_h, 2)}

    def test_coupled_lambda_stage_converges_to_the_theta_weighted_source(self):
        """B against the oracle's scheme, which takes B's coupling
        lambda p(h) (J u) as a source weighted theta between u's states at the
        step's two ends: both treat the coupling to second order, so on the
        27-120 grid they agree within 2e-5 of max|B| at 200 steps, and their
        gap falls by at least 3.5 per halving of the step, 100 to 200 to 400."""
        gaps = []
        for steps in (100, 200, 400):
            grid = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, steps)
            policy = solve(grid, STD_H, STD_M, STD_C).policy
            b, b_ref = hjb._loss_surfaces(policy)[1], _theta_weighted_pair(policy)[1]
            gaps.append(np.abs(b - b_ref).max() / np.abs(b).max())
        assert gaps[1] <= 2e-5
        assert gaps[0] >= 3.5 * gaps[1] and gaps[1] >= 3.5 * gaps[2], gaps

    def test_u_is_the_single_state_solve(self, coarse_solution):
        """Stacking B beside u leaves u's arithmetic alone: on the coarse grid
        u equals, bit for bit, the frozen solve of u by itself."""
        policy = coarse_solution.policy
        np.testing.assert_array_equal(hjb._loss_surfaces(policy)[0], _theta_weighted_pair(policy)[0])

    def test_standard_errors_match_the_spread(self, small_policy):
        """The oracle's standard errors, on which the agreement above rests:
        over 20 seeds its estimates spread as much as those standard errors
        say, within a factor 1.5."""
        rows = [_conditional_moments(small_policy, 10_000, seed, (10.0,))[0] for seed in range(20)]
        for value, se in ((0, 1), (2, 3)):
            spread = np.std([row[value] for row in rows], ddof=1)
            ratio = spread / np.mean([row[se] for row in rows])
            assert 1.0 / 1.5 <= ratio <= 1.5, (value, ratio)

    def test_memo_dropped_with_its_field(self, small_policy):
        """The surfaces live on the field object: no module-level reference
        keeps a field alive once its last user lets it go."""
        fresh = dataclasses.replace(small_policy)
        premium_report_optimal(fresh, STD_H, STD_M, STD_C, 0.3)
        assert fresh.loss_surfaces
        ref = weakref.ref(fresh)
        del fresh
        gc.collect()
        assert ref() is None

    def test_policy_controls_read_only(self, small_policy, tmp_path):
        save_field(small_policy, tmp_path / "policy")
        for field in (small_policy, load_field(tmp_path / "policy")):
            with pytest.raises(ValueError):
                field.controls[0, 0, 0] = 1.0

    def test_initial_level_drives_losses(self, small_policy):
        """A higher start level lowers both moments; a start level between two
        nodes reads between their reports."""
        r0, r5, r6 = (premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, h_init=h) for h in (0.0, 5.0, 6.0))
        assert r5.expected_loss < r0.expected_loss and r5.loss_std < r0.loss_std
        mid = premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, h_init=5.25)
        assert mid.expected_loss == pytest.approx(0.75 * r5.expected_loss + 0.25 * r6.expected_loss, rel=1e-14)

    @pytest.mark.parametrize("h_init", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bad_initial_level_rejected(self, small_policy, h_init, threads):
        """A negative or non-finite h_init raises instead of pricing a nan or
        an unclamped level."""
        with pytest.raises(ValueError, match="initial level"):
            premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, 10_000, h_init=h_init, threads=threads)

    def test_initial_level_above_grid_rejected(self, small_policy):
        with pytest.raises(ValueError, match=r"\(27.0, 50.5\) lies outside the field's box \[27, 120\] x \[0, 50\]"):
            premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, h_init=50.5)

    def test_diagnostics_identical_for_any_threads(self, small_policy):
        one, two = (
            premium_report_optimal(field, STD_H, STD_M, STD_C, 0.3, 10_000, seed=2, threads=t).diagnostics
            for field, t in ((small_policy, 1), (dataclasses.replace(small_policy), 2))
        )
        assert one == two == {"method": "frozen-policy-pide", "time_steps": 50}

    def test_memory_bounded_in_paths(self, small_policy):
        """The report holds no per-path state: its peak memory, two solves on
        a new field object included, does not grow with mc_paths."""
        peaks = {}
        for n in (20_000, 40_000, 80_000):
            tracemalloc.start()
            try:
                premium_report_optimal(dataclasses.replace(small_policy), STD_H, STD_M, STD_C, 0.3, n, seed=0, threads=1)
                peaks[n] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        assert peaks[40_000] <= 64.0
        assert peaks[80_000] - peaks[20_000] <= 8.0


class TestPreventionGap:
    def test_identical_reports_give_zero(self):
        r = PremiumReport("x", 100.0, 10.0, 0.3, 10_000)
        assert prevention_gap(r, r) == (0.0, 0.0)

    def test_theta_mismatch_rejected(self):
        a = PremiumReport("x", 100.0, 10.0, 0.3, 10_000)
        b = PremiumReport("y", 50.0, 5.0, 0.2, 10_000)
        with pytest.raises(ValueError):
            prevention_gap(a, b)

    def test_zero_baseline_rejected(self):
        z = PremiumReport("x", 0.0, 0.0, 0.3, 10_000)
        with pytest.raises(ValueError):
            prevention_gap(z, z)
