import dataclasses
import math

import numpy as np
import pytest
from conftest import deterministic_oracle, reward_scale
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from cyberinvest import (
    AttackPath,
    BreachFamily,
    BreachModel,
    ConfigError,
    ConstantRate,
    CostParams,
    GridRate,
    HawkesParams,
    PathBatch,
    PoissonField,
    PolicyField,
    SolverGrid,
    ValueField,
    breach_prob,
    evaluate_constant,
    evolve_level,
    evaluate_deterministic,
    extract_policies_batch,
    extract_policy,
    gain_vs_constant,
    gain_vs_poisson,
    lambda_max_heuristic,
    lower_bound,
    optimize_constant,
    premium_report_optimal,
    query,
    simulate_paths,
    solve,
    solve_poisson,
)
from cyberinvest.hjb import FieldMeta
from cyberinvest.strategies import _snapshot_times, _walk

STD_H = HawkesParams(27.0, 27.0, 15.0, 9.0)
STD_M = BreachModel(BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
STD_C = CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)
GRID = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50)
LAMBDAS = (27.0, 45.0, 63.0, 81.0, 99.0, 117.0, 135.0)  # the Poisson gain tables' intensities

MODELS = st.one_of(
    st.builds(BreachModel, st.just(BreachFamily.CLASS_I), st.floats(0.0, 1.0), st.floats(0.01, 2.0), st.floats(0.2, 4.0)),
    st.builds(BreachModel, st.just(BreachFamily.CLASS_II), st.floats(0.0, 0.95), st.floats(0.01, 2.0)),
)
UTILITIES = st.one_of(st.sampled_from(["sqrt", "zero"]), st.floats(0.05, 1.0).map(lambda p: f"power:{p:g}"))


def quad_value(t, lam, h, zbar, hawkes, model, costs):
    """Oracle: evaluate_constant with its reward integral by adaptive quadrature
    in s at tight tolerances (rho > 0)."""
    span = costs.horizon - t
    rho, k, lstar = costs.rho, hawkes.reversion_rate, hawkes.stationary_mean

    def level(s):
        return h * math.exp(-rho * s) - zbar * math.expm1(-rho * s) / rho

    def integrand(s):
        mean_lam = lstar + (lam - lstar) * math.exp(-k * s)
        return costs.eta_mean * (model.v - breach_prob(model, level(s))) * mean_lam

    epsabs = 1e-14 * reward_scale(model, costs, hawkes, span)
    reward, _ = quad(integrand, 0.0, span, epsabs=epsabs, epsrel=1e-13, limit=1000)
    cost = span * (costs.delta * zbar + 0.5 * costs.gamma * zbar**2)
    return reward - cost + float(costs.utility(level(span)))


def rate_cap(model, costs):
    """optimize_constant's default search interval [0, cap]."""
    return 10.0 * costs.eta_mean * model.v * lambda_max_heuristic(STD_H, costs.horizon) / costs.gamma


@pytest.fixture(scope="module")
def solution():
    return solve(GRID, STD_H, STD_M, STD_C)


@pytest.fixture(scope="module")
def poisson_27():
    return solve_poisson(GRID, 27.0, STD_M, STD_C)


@pytest.fixture(scope="module")
def zero_solution():
    model0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
    costs0 = dataclasses.replace(STD_C, terminal_utility="zero")
    return solve(GRID, STD_H, model0, costs0)


class TestEvaluateConstant:
    def test_holding_rate_equals_lower_bound(self):
        for h in (0.0, 1.0, 5.0, 20.0):
            a = evaluate_constant(0.0, 27.0, h, 0.2 * h, STD_H, STD_M, STD_C)
            b = lower_bound(0.0, 27.0, h, STD_H, STD_M, STD_C)
            assert a == pytest.approx(b, rel=1e-8)

    def test_zero_rate_invulnerable(self):
        m0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        val = evaluate_constant(0.2, 27.0, 4.0, 0.0, STD_H, m0, STD_C)
        assert val == pytest.approx(math.sqrt(4.0 * math.exp(-0.2 * 0.8)), rel=1e-10)

    def test_at_horizon_returns_utility(self):
        assert evaluate_constant(1.0, 27.0, 9.0, 3.0, STD_H, STD_M, STD_C) == pytest.approx(3.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            evaluate_constant(0.0, 27.0, 1.0, -1.0, STD_H, STD_M, STD_C)

    @pytest.mark.parametrize(
        "state",
        [
            (0.0, 27.0, 0.0, math.nan),
            (0.0, 27.0, 0.0, math.inf),
            (0.0, 27.0, 0.0, np.array([1.0, math.nan])),
            (math.nan, 27.0, 0.0, 1.0),
            (0.0, math.nan, 0.0, 1.0),
            (0.0, math.inf, 0.0, 1.0),
            (0.0, 27.0, math.nan, 1.0),
            (0.0, 27.0, -5.0, 1.0),
            (1.0, 27.0, math.nan, 1.0),  # at the horizon, too
        ],
        ids=["nan-rate", "inf-rate", "nan-in-batch", "nan-t", "nan-lambda", "inf-lambda", "nan-h", "negative-h", "nan-h-at-T"],
    )
    def test_invalid_state_or_rate_rejected(self, state):
        with pytest.raises(ValueError):
            evaluate_constant(*state, STD_H, STD_M, STD_C)

    def test_batch_matches_one_rate_at_a_time(self):
        rates = np.linspace(0.0, 120.0, 33)
        batch = evaluate_constant(0.3, 60.0, 4.0, rates, STD_H, STD_M, STD_C)
        assert batch.shape == rates.shape
        single = [evaluate_constant(0.3, 60.0, 4.0, z, STD_H, STD_M, STD_C) for z in rates]
        np.testing.assert_allclose(batch, single, rtol=1e-14)
        at_horizon = evaluate_constant(1.0, 60.0, 4.0, rates, STD_H, STD_M, STD_C)
        np.testing.assert_array_equal(at_horizon, np.full(rates.shape, 2.0))

    # The graded 48-node rule against adaptive quadrature on the paper's
    # horizon T = 1, both families with a <= 2 and b <= 4, rates up to 300.
    # The gap is measured against the larger of |value| and the running cost,
    # which can cancel the reward; over 6,000 random draws the worst was 1.4e-14.
    @settings(max_examples=150)
    @given(MODELS, UTILITIES, st.floats(0.0, 1.0), st.floats(27.0, 216.0), st.floats(0.0, 50.0), st.floats(0.0, 300.0))
    @example(BreachModel(BreachFamily.CLASS_I, 1.0, 2.0, 4.0), "sqrt", 0.0, 216.0, 0.0, 300.0)
    @example(BreachModel(BreachFamily.CLASS_II, 0.95, 2.0), "zero", 0.0, 27.0, 0.0, 300.0)
    def test_matches_adaptive_quadrature(self, model, utility, t, lam, h, zbar):
        costs = dataclasses.replace(STD_C, terminal_utility=utility)
        want = quad_value(t, lam, h, zbar, STD_H, model, costs)
        got = evaluate_constant(t, lam, h, zbar, STD_H, model, costs)
        cost = (1.0 - t) * (costs.delta * zbar + 0.5 * costs.gamma * zbar**2)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want), cost)

    # past that domain, with the steepest breach curves of the sweep and h = 0;
    # measured worst gaps: class I 4.8e-14 (T = 1, rate 1e3) and 2.4e-12
    # (T = 5, rate 300), class II below 1e-15
    @pytest.mark.parametrize("horizon,zbar,rtol", [(1.0, 1e3, 1e-12), (5.0, 300.0, 1e-11)])
    @pytest.mark.parametrize(
        "model", [BreachModel(BreachFamily.CLASS_I, 1.0, 2.0, 4.0), BreachModel(BreachFamily.CLASS_II, 0.95, 2.0)]
    )
    def test_domain_edges(self, model, horizon, zbar, rtol):
        costs = dataclasses.replace(STD_C, horizon=horizon)
        for lam in (27.0, 216.0):
            want = quad_value(0.0, lam, 0.0, zbar, STD_H, model, costs)
            got = evaluate_constant(0.0, lam, 0.0, zbar, STD_H, model, costs)
            assert abs(got - want) <= rtol * max(1.0, abs(want))

    # optimize_constant's bracket search rests on this property
    @settings(max_examples=30)
    @given(MODELS, UTILITIES, st.floats(0.0, 0.95), st.floats(27.0, 216.0), st.floats(0.0, 50.0), st.floats(1.0, 300.0))
    def test_concave_in_rate(self, model, utility, t, lam, h, z_max):
        costs = dataclasses.replace(STD_C, terminal_utility=utility)
        vals = np.array([evaluate_constant(t, lam, h, z, STD_H, model, costs) for z in np.linspace(0.0, z_max, 41)])
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert np.max(np.diff(vals, 2)) <= 1e-7 * scale


class TestOptimizeConstant:
    @pytest.mark.parametrize("utility", ["sqrt", "power:0.5"])
    @pytest.mark.parametrize(
        "model", [STD_M, BreachModel(BreachFamily.CLASS_II, 0.65, 0.5, 1.0)], ids=["class1", "class2"]
    )
    def test_grid_sweep_oracle(self, model, utility):
        costs = dataclasses.replace(STD_C, terminal_utility=utility)
        zst, best = optimize_constant(0.0, 27.0, 0.0, STD_H, model, costs)
        sweep = np.linspace(0.0, 60.0, 601)
        vals = [evaluate_constant(0.0, 27.0, 0.0, z, STD_H, model, costs) for z in sweep]
        assert best >= max(vals) - 1e-6
        assert abs(zst - sweep[int(np.argmax(vals))]) < 0.2

    def test_invulnerable_invests_nothing(self):
        m0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        zst, _ = optimize_constant(0.0, 27.0, 1.0, STD_H, m0, STD_C)
        assert zst == 0.0

    # the bracket search against the bounded Brent search it replaced
    @settings(max_examples=25)
    @given(MODELS, UTILITIES, st.floats(0.0, 0.95), st.floats(27.0, 216.0), st.floats(0.0, 50.0))
    def test_bounded_brent_oracle(self, model, utility, t, lam, h):
        costs = dataclasses.replace(STD_C, terminal_utility=utility)
        zst, best = optimize_constant(t, lam, h, STD_H, model, costs)
        at_zero = evaluate_constant(t, lam, h, 0.0, STD_H, model, costs)
        cap = rate_cap(model, costs)
        if cap <= 0:
            assert (zst, best) == (0.0, at_zero)
            return
        res = minimize_scalar(
            lambda z: -evaluate_constant(t, lam, h, z, STD_H, model, costs),
            bounds=(0.0, cap),
            method="bounded",
            options={"xatol": 1e-6},
        )
        oracle = max(-res.fun, at_zero)
        # never worse than Brent; it can be better where Brent's 1e-6 in the
        # rate is coarse (sqrt utility, v = 1e-9: cap 4e-4, Brent 1.1e-5 lower)
        assert best >= oracle - 1e-10 * max(1.0, abs(oracle))
        assert best == pytest.approx(evaluate_constant(t, lam, h, zst, STD_H, model, costs), rel=1e-14)

    @pytest.mark.parametrize("h", [-5.0, math.nan, math.inf])
    def test_invalid_level_rejected(self, h):
        with pytest.raises(ValueError, match="initial level"):
            optimize_constant(0.0, 27.0, h, STD_H, STD_M, STD_C)

    def test_cap_robustness(self):
        z1, v1 = optimize_constant(0.0, 27.0, 0.5, STD_H, STD_M, STD_C)
        z2, v2 = optimize_constant(0.0, 27.0, 0.5, STD_H, STD_M, STD_C, z_cap=2 * 280_000.0)
        assert z1 == pytest.approx(z2, abs=1e-4)
        assert v1 == pytest.approx(v2, rel=1e-9)


class TestLowerBound:
    def test_terminal(self):
        assert lower_bound(1.0, 27.0, 9.0, STD_H, STD_M, STD_C) == pytest.approx(3.0)

    def test_h_zero_collapses_to_zero(self):
        assert lower_bound(0.0, 27.0, 0.0, STD_H, STD_M, STD_C) == pytest.approx(0.0, abs=1e-12)

    def test_broadcasts(self):
        lams = GRID.lambdas[:, None]
        hs = GRID.hs[None, :]
        out = lower_bound(0.0, lams, hs, STD_H, STD_M, STD_C)
        assert out.shape == (GRID.n_lambda, GRID.n_h)

    @pytest.mark.parametrize(
        "t, lam, h, match",
        [
            (math.nan, 27.0, 5.0, "start time t = nan"),
            (-0.5, 27.0, 5.0, "start time t = -0.5"),
            (1.5, 27.0, 5.0, "start time t = 1.5"),
            (0.0, math.nan, 5.0, "intensity lambda = nan"),
            (0.0, -math.inf, 5.0, "intensity lambda = -inf"),
            (0.0, 27.0, math.nan, "initial level"),
            (0.0, 27.0, -1.0, "initial level"),
            (np.array([0.0, 0.5, -0.5]), 27.0, 5.0, "start time t = -0.5"),
            (0.0, np.array([[27.0], [math.nan]]), np.array([0.0, 5.0]), "intensity lambda = nan"),
            (np.array([0.0, 1.0]), 27.0, np.array([1.0, math.inf]), "initial level"),
        ],
    )
    def test_bad_state_rejected(self, t, lam, h, match):
        """Each state of an array is checked as _check_state checks one: a start
        time outside [0, T], a non-finite lambda or a non-finite or negative
        level raises instead of valuing nan or another horizon."""
        with pytest.raises(ValueError, match=match):
            lower_bound(t, lam, h, STD_H, STD_M, STD_C)


class TestEvaluateDeterministic:
    def test_constant_consistency(self):
        a = evaluate_deterministic(0.0, 27.0, 2.0, ConstantRate(7.0), STD_H, STD_M, STD_C)
        b = evaluate_constant(0.0, 27.0, 2.0, 7.0, STD_H, STD_M, STD_C)
        assert a == pytest.approx(b, rel=1e-8)

    def test_grid_rate_constant_consistency(self):
        gr = GridRate(np.linspace(0.0, 1.0, 201), np.full(201, 7.0))
        a = evaluate_deterministic(0.0, 27.0, 2.0, gr, STD_H, STD_M, STD_C)
        b = evaluate_constant(0.0, 27.0, 2.0, 7.0, STD_H, STD_M, STD_C)
        assert a == pytest.approx(b, rel=1e-7)

    def test_callable_matches_grid_route(self):
        # midpoint-sampled staircase is a second-order stand-in for the ramp
        knots = np.linspace(0.0, 1.0, 401)
        gr = GridRate(knots, 3.0 + 2.0 * (knots + 0.5 * (knots[1] - knots[0])))
        a = evaluate_deterministic(0.0, 27.0, 1.0, gr, STD_H, STD_M, STD_C)
        b = deterministic_oracle(0.0, 27.0, 1.0, lambda s: 3.0 + 2.0 * s, STD_H, STD_M, STD_C)
        assert a == pytest.approx(b, rel=1e-5)

    def test_zero_strategy_invulnerable(self):
        m0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        val = evaluate_deterministic(0.0, 27.0, 4.0, ConstantRate(0.0), STD_H, m0, STD_C)
        assert val == pytest.approx(math.sqrt(4.0 * math.exp(-0.2)), rel=1e-8)

    def test_callable_rejected(self):
        with pytest.raises(TypeError):
            evaluate_deterministic(0.0, 27.0, 1.0, lambda s: 3.0, STD_H, STD_M, STD_C)


START_CALLS = {
    "extract_policy": lambda t, res, bench: extract_policy(res.policy, 27.0, t, 0.0),
    "evaluate_constant": lambda t, res, bench: evaluate_constant(t, 27.0, 0.0, 5.0, STD_H, STD_M, STD_C),
    "evaluate_deterministic": lambda t, res, bench: evaluate_deterministic(
        t, 27.0, 0.0, GridRate(np.linspace(0.0, 1.0, 11), np.full(11, 5.0)), STD_H, STD_M, STD_C
    ),
    "gain_vs_poisson": lambda t, res, bench: gain_vs_poisson(t, 27.0, 0.0, res.value, bench, STD_H, STD_M, STD_C),
}


@pytest.mark.parametrize("call", START_CALLS, ids=list(START_CALLS))
@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5, STD_C.horizon + 0.1], ids=["nan", "inf", "negative", "past-horizon"])
def test_start_time_outside_horizon_rejected(solution, poisson_27, call, t):
    with pytest.raises(ValueError, match="start time t"):
        START_CALLS[call](t, solution, poisson_27)
    assert not poisson_27.level_paths


class TestExtractPolicy:
    def test_t_init_beyond_horizon(self, solution):
        with pytest.raises(ValueError):
            extract_policy(solution.policy, 27.0, 1.5, 0.0)

    @pytest.mark.parametrize("h_init", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_initial_level_rejected(self, solution, h_init):
        with pytest.raises(ValueError, match="initial level"):
            extract_policy(solution.policy, 27.0, 0.0, h_init)

    @pytest.mark.parametrize("h_min, d_h, t_init, h_init", [(0.0, 1.0, 0.0, 0.0), (0.0, 0.5, 0.1, 45.0), (2.0, 1.0, 0.3, 0.0)])
    def test_walk_matches_reference_loop(self, solution, h_min, d_h, t_init, h_init):
        """The walk against a loop, path by path, that interpolates each
        snapshot's table bilinearly in (lambda, h), clipped to the grid, and
        moves the level exactly: equal controls and levels to 1e-12, and clamp
        counts equal to the intensities above lambda_max plus the levels above
        h_max. The solved controls are read on relabelled h axes, so that
        levels run past h_max (clamped and counted) and below h_min (clamped
        only)."""
        grid = solution.policy.grid
        grid = dataclasses.replace(grid, h_min=h_min, d_h=d_h, h_max=h_min + d_h * (grid.n_h - 1))
        policy = PolicyField(grid, solution.policy.controls, solution.policy.meta)
        rho = policy.meta.costs.rho

        def lookup(table, lam, h):
            x = min(max((lam - grid.lambda_min) / grid.d_lambda, 0.0), grid.n_lambda - 1.0)
            y = min(max((h - grid.h_min) / grid.d_h, 0.0), grid.n_h - 1.0)
            i, j = min(math.floor(x), grid.n_lambda - 2), min(math.floor(y), grid.n_h - 2)
            a, b = x - i, y - j
            corners = table[i : i + 2, j : j + 2]
            return float(np.array([1.0 - a, a]) @ corners @ np.array([1.0 - b, b]))

        times, snap_idx = _snapshot_times(policy, t_init)
        lam = simulate_paths(STD_H, 1.0, 300, seed=7).intensity_on_grid(times)
        level = np.empty(lam.shape)
        controls, clamped_lambda, clamped_h = _walk(policy, times, snap_idx, lam, h_init, level)

        ref, ref_level = np.empty(lam.shape), np.empty(lam.shape)
        for p in range(lam.shape[0]):
            h = h_init
            for i in range(times.size):
                ref_level[p, i] = h
                ref[p, i] = lookup(policy.controls[snap_idx[i]], lam[p, i], h)
                if i + 1 < times.size:
                    decay = math.exp(-rho * (times[i + 1] - times[i]))
                    h = h * decay + ref[p, i] * (1.0 - decay) / rho
        np.testing.assert_allclose(controls, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        np.testing.assert_allclose(level, ref_level, rtol=1e-12, atol=1e-12 * np.abs(ref_level).max())
        assert clamped_lambda == np.count_nonzero(lam > grid.lambda_max) > 0
        assert clamped_h == np.count_nonzero(ref_level > grid.h_max)
        assert (clamped_h > 0) == (h_init > grid.h_max)
        assert (level.min() < grid.h_min) == (h_init < grid.h_min)

    def test_traces_carry_the_clamp_counts(self, solution):
        """Path by path over the batch of test_walk_matches_reference_loop,
        on relabelled h axes that the levels run past, each trace counts its
        lookups clamped at lambda_max and at h_max: in total the batch's
        intensities above lambda_max and its levels above h_max."""
        grid = dataclasses.replace(solution.policy.grid, d_h=0.5, h_max=0.5 * (solution.policy.grid.n_h - 1))
        policy = PolicyField(grid, solution.policy.controls, solution.policy.meta)
        batch = simulate_paths(STD_H, 1.0, 300, seed=7)
        traces = [extract_policy(policy, batch.path(i), 0.1, 45.0) for i in range(batch.n_paths)]
        lam, level = np.stack([tr.intensity for tr in traces]), np.stack([tr.level for tr in traces])
        assert sum(tr.clamped_lambda for tr in traces) == np.count_nonzero(lam > grid.lambda_max) > 0
        assert sum(tr.clamped_h for tr in traces) == np.count_nonzero(level > grid.h_max) > 0

    def test_zero_field_gives_decaying_level(self, zero_solution):
        path = simulate_paths(STD_H, 1.0, 1, seed=0).path(0)
        trace = extract_policy(zero_solution.policy, path, 0.0, 4.0)
        assert np.all(trace.control == 0.0)
        expected = 4.0 * np.exp(-0.2 * trace.times)
        np.testing.assert_allclose(trace.level, expected, rtol=1e-12)

    @pytest.mark.parametrize("t_init, h_init", [(0.0, 0.0), (0.37, 4.0)])
    def test_level_is_the_exact_level_of_the_control(self, solution, t_init, h_init):
        path = simulate_paths(STD_H, 1.0, 1, seed=4).path(0)
        trace = extract_policy(solution.policy, path, t_init, h_init)
        assert trace.control.max() > 0.0
        expected = evolve_level(h_init, STD_C.rho, trace.as_grid_rate(), trace.times)
        np.testing.assert_allclose(trace.level, expected, rtol=1e-12, atol=0.0)

    def test_determinism(self, solution):
        path = simulate_paths(STD_H, 1.0, 1, seed=1).path(0)
        a = extract_policy(solution.policy, path, 0.0, 0.0)
        b = extract_policy(solution.policy, path, 0.0, 0.0)
        np.testing.assert_array_equal(a.control, b.control)
        np.testing.assert_array_equal(a.level, b.level)

    def test_eventless_path_matches_constant_intensity(self, solution):
        quiet = AttackPath(STD_H, 1.0, np.array([]))
        a = extract_policy(solution.policy, quiet, 0.0, 0.0)
        b = extract_policy(solution.policy, 27.0, 0.0, 0.0)
        np.testing.assert_array_equal(a.control, b.control)

    def test_times_cover_interval(self, solution):
        trace = extract_policy(solution.policy, 27.0, 0.37, 1.0)
        assert trace.times[-1] == pytest.approx(1.0)
        assert abs(trace.times[0] - 0.37) <= GRID.d_t / 2 + 1e-12

    def test_control_rises_across_attack_cluster(self, solution):
        # burst of attacks mid-horizon raises the applied rate above the
        # no-attack counterfactual at the same times
        cluster = AttackPath(STD_H, 1.0, np.array([0.50, 0.51, 0.52, 0.53, 0.54]))
        with_cluster = extract_policy(solution.policy, cluster, 0.0, 0.0)
        without = extract_policy(solution.policy, AttackPath(STD_H, 1.0, np.array([])), 0.0, 0.0)
        window = (with_cluster.times >= 0.52) & (with_cluster.times <= 0.6)
        assert np.all(with_cluster.control[window] > without.control[window])
        # and the rate jumps upward at the cluster against its local trend
        i_pre = int(np.searchsorted(with_cluster.times, 0.48))
        i_peak = int(np.searchsorted(with_cluster.times, 0.53))
        assert with_cluster.control[i_peak] > with_cluster.control[i_pre]

    def test_batch_matches_single(self, solution):
        paths = simulate_paths(STD_H, 1.0, 16, seed=3)
        # an eventless last path: its intensity row is the constant alpha = lambda0 = 27
        batch = PathBatch(STD_H, 1.0, paths.times, np.append(paths.offsets, paths.offsets[-1]))
        times, controls = extract_policies_batch(solution.policy, batch, 0.0, 0.0)
        for i in (0, 5, 11):
            trace = extract_policy(solution.policy, batch.path(i), 0.0, 0.0)
            np.testing.assert_array_equal(controls[i], trace.control)
            np.testing.assert_array_equal(times, trace.times)
        trace = extract_policy(solution.policy, 27.0, 0.0, 0.0)
        np.testing.assert_array_equal(controls[-1], trace.control)
        np.testing.assert_array_equal(times, trace.times)


class TestGains:
    def test_value_dominates_benchmark_chain(self, solution):
        for (lam, h) in [(27.0, 0.0), (27.0, 5.0), (60.0, 10.0)]:
            v = query(solution.value, 0.0, lam, h)
            _, best_const = optimize_constant(0.0, lam, h, STD_H, STD_M, STD_C)
            hold = lower_bound(0.0, lam, h, STD_H, STD_M, STD_C)
            assert v >= best_const - 0.02 * abs(best_const)
            assert best_const >= hold - 1e-8

    def test_gain_zero_at_horizon(self, solution):
        g = gain_vs_constant(1.0, 27.0, 5.0, solution.value, STD_H, STD_M, STD_C)
        assert g == pytest.approx(0.0, abs=1e-6)

    def test_memoryless_self_comparison_is_flat(self, zero_solution):
        # beta = 0 field against the matching constant-intensity benchmark
        memoryless = HawkesParams(27.0, 27.0, 15.0, 0.0)
        res = solve(GRID, memoryless, STD_M, STD_C)
        pfield = solve_poisson(GRID, 27.0, STD_M, STD_C)
        for h in (0.0, 5.0, 20.0):
            g = gain_vs_poisson(0.0, 27.0, h, res.value, pfield, memoryless, STD_M, STD_C)
            assert abs(g) < 0.5

    def test_poisson_gain_positive_for_hawkes(self, solution):
        pfield = solve_poisson(GRID, 27.0, STD_M, STD_C)
        g = gain_vs_poisson(0.0, 27.0, 0.0, solution.value, pfield, STD_H, STD_M, STD_C)
        assert g > 0.0

    def test_poisson_gain_flat_in_lambda_at_high_level(self, coarse_solution, poisson_pair):
        # at a high protection level the gain barely moves with the intensity
        pb, pe = poisson_pair
        lams = [27.0, 81.0, 135.0]
        for bench in (pb, pe):
            g0 = [
                gain_vs_poisson(0.0, l, 0.0, coarse_solution.value, bench, STD_H, STD_M, STD_C)
                for l in lams
            ]
            g20 = [
                gain_vs_poisson(0.0, l, 20.0, coarse_solution.value, bench, STD_H, STD_M, STD_C)
                for l in lams
            ]
            spread0 = max(g0) - min(g0)
            spread20 = max(g20) - min(g20)
            assert spread20 < 0.3 * spread0

    def test_reused_level_paths_match_fresh_fields(self, coarse_solution, poisson_pair):
        """Each Poisson gain table equals, bit for bit, the one computed with a
        fresh field for every row and the one valued from the benchmark's own
        trace through evaluate_deterministic."""
        value = coarse_solution.value
        for bench in poisson_pair:
            for t in (0.0, 0.5):
                for h in (0.0, 20.0):
                    reused = [gain_vs_poisson(t, l, h, value, bench, STD_H, STD_M, STD_C) for l in LAMBDAS]
                    fresh = [
                        gain_vs_poisson(t, l, h, value, dataclasses.replace(bench), STD_H, STD_M, STD_C)
                        for l in LAMBDAS
                    ]
                    trace = extract_policy(bench.policy, bench.intensity, t, h)
                    direct = []
                    for l in LAMBDAS:
                        b = evaluate_deterministic(t, l, h, trace, STD_H, STD_M, STD_C)
                        direct.append(100.0 * (query(value, t, l, h) - b) / b)
                    assert reused == fresh == direct
                    assert (t, h) in bench.level_paths

    def test_fields_of_another_model_rejected(self, coarse_solution, poisson_pair):
        """The fields fix the model and the costs: a gain asked for another model, or
        on a benchmark solved for other costs, raises ConfigError and adds no entry."""
        bench = poisson_pair[0]
        value = coarse_solution.value
        gain_vs_poisson(0.0, 45.0, 0.0, value, bench, STD_H, STD_M, STD_C)  # the field holds (0, 0)
        held = set(bench.level_paths)
        other_model = BreachModel(BreachFamily.CLASS_II, 0.5, 0.3)
        other_costs = dataclasses.replace(STD_C, rho=0.3, terminal_utility="zero")
        other_hawkes = dataclasses.replace(STD_H, beta=3.0)
        for hawkes, model, costs in ((STD_H, other_model, STD_C), (STD_H, STD_M, other_costs), (other_hawkes, STD_M, STD_C)):
            with pytest.raises(ConfigError, match="field solved for"):
                gain_vs_poisson(0.0, 45.0, 0.0, value, bench, hawkes, model, costs)
            with pytest.raises(ConfigError, match="field solved for"):
                gain_vs_constant(0.0, 45.0, 0.0, value, hawkes, model, costs)
        assert set(bench.level_paths) == held
        # a value field of the right model with a benchmark solved for other costs
        meta = dataclasses.replace(bench.value.meta, costs=other_costs)
        foreign = PoissonField(
            ValueField(bench.grid, bench.value.values, meta), PolicyField(bench.grid, bench.policy.controls, meta), {}
        )
        with pytest.raises(ConfigError, match="field solved for"):
            gain_vs_poisson(0.0, 45.0, 0.0, value, foreign, STD_H, STD_M, STD_C)
        assert not foreign.level_paths
        # eta_var and eta_family are not part of the objective
        costs = dataclasses.replace(STD_C, eta_var=0.0, eta_family="fixed")
        assert gain_vs_poisson(0.0, 45.0, 0.0, value, bench, STD_H, STD_M, costs) == gain_vs_poisson(
            0.0, 45.0, 0.0, value, bench, STD_H, STD_M, STD_C
        )

    @pytest.mark.parametrize(
        "lam, h, message",
        [
            (27.0, -1.0, "initial level"),
            (27.0, math.nan, "initial level"),
            (27.0, math.inf, "initial level"),
            (math.nan, 0.0, "intensity lambda"),
            (math.inf, 0.0, "intensity lambda"),
            (1000.0, 5.0, "outside the field's box"),
            (10.0, 0.0, "outside the field's box"),
            (27.0, 80.0, "outside the field's box"),
        ],
    )
    def test_bad_state_raises_before_reuse_or_query(self, coarse_solution, poisson_pair, lam, h, message):
        """On a field that holds the entry for (0, 0), a bad lambda or level,
        or a state off the value field's box [27, 216] x [0, 50], raises in
        both gains, the Poisson one before it adds an entry."""
        bench = poisson_pair[0]
        gain_vs_poisson(0.0, 27.0, 0.0, coarse_solution.value, bench, STD_H, STD_M, STD_C)
        held = set(bench.level_paths)
        with pytest.raises(ValueError, match=message):
            gain_vs_poisson(0.0, lam, h, coarse_solution.value, bench, STD_H, STD_M, STD_C)
        assert set(bench.level_paths) == held
        with pytest.raises(ValueError, match=message):
            gain_vs_constant(0.0, lam, h, coarse_solution.value, STD_H, STD_M, STD_C)

    def test_only_the_bilinear_mode(self, solution, poisson_27):
        """The gains keep `mode` for callers that pass mode="linear"; any other
        value raises before any work, and adds no entry."""
        bench = dataclasses.replace(poisson_27)
        for mode in ("nearest", "cubic"):
            with pytest.raises(ValueError, match=f"mode {mode!r}"):
                gain_vs_constant(0.0, 27.0, 0.0, solution.value, STD_H, STD_M, STD_C, mode=mode)
            with pytest.raises(ValueError, match=f"mode {mode!r}"):
                gain_vs_poisson(0.0, 27.0, 0.0, solution.value, bench, STD_H, STD_M, STD_C, mode=mode)
        assert not bench.level_paths
        assert gain_vs_poisson(0.0, 27.0, 0.0, solution.value, bench, STD_H, STD_M, STD_C, mode="linear") == (
            gain_vs_poisson(0.0, 27.0, 0.0, solution.value, bench, STD_H, STD_M, STD_C)
        )
        assert gain_vs_constant(0.0, 27.0, 0.0, solution.value, STD_H, STD_M, STD_C, mode="linear") == (
            gain_vs_constant(0.0, 27.0, 0.0, solution.value, STD_H, STD_M, STD_C)
        )

    def test_gain_monotone_in_lambda_soft_check(self, coarse_solution):
        # reported as a diagnostic: warn rather than fail if the trend breaks
        import warnings

        gains = []
        for lam in (27.0, 60.0, 99.0, 135.0):
            gains.append(gain_vs_constant(0.0, lam, 5.0, coarse_solution.value, STD_H, STD_M, STD_C))
        if any(a > b for a, b in zip(gains, gains[1:])):
            warnings.warn(f"gain vs best constant not monotone in lambda: {gains}", RuntimeWarning)


class TestOneLookup:
    """query, the premium report and the policy walk read a stored field by
    one bilinear rule, which is exact on a surface affine in (lambda, h)."""

    @staticmethod
    def affine(k, lam, h):
        return 3.0 + 0.05 * k + 0.02 * lam + 0.1 * h

    def surfaces(self):
        k = np.arange(GRID.t_snapshots.size)[:, None, None]
        return self.affine(k, GRID.lambdas[None, :, None], GRID.hs[None, None, :])

    def points(self, n=200):
        rng = np.random.default_rng(11)
        lam = np.append(rng.uniform(GRID.lambda_min, GRID.lambda_max, n), [GRID.lambda_min, GRID.lambda_max])
        h = np.append(rng.uniform(GRID.h_min, GRID.h_max, n), [GRID.h_max, GRID.h_min])
        return lam, h, rng

    def test_query(self):
        field = ValueField(GRID, self.surfaces(), FieldMeta(STD_H, STD_M, STD_C))
        lam, h, rng = self.points()
        k = rng.integers(0, GRID.t_snapshots.size, lam.size)
        got = [query(field, GRID.t_snapshots[i], x, y) for i, x, y in zip(k, lam, h)]
        np.testing.assert_allclose(got, self.affine(k, lam, h), rtol=1e-12, atol=0.0)

    def test_premium_report(self):
        """The report reads its two loss surfaces at the start state: on
        affine surfaces u and B, E[L] = eta_mean u and E[L^2] = (eta_var +
        eta_mean^2) u + 2 eta_mean^2 B hold to 1e-12 at random start states."""
        policy = PolicyField(GRID, self.surfaces(), FieldMeta(STD_H, STD_M, STD_C))
        u = self.affine(0, GRID.lambdas[:, None], GRID.hs[None, :])
        policy.loss_surfaces.update(u=u, b=10.0 * u + 100.0)
        m, var = STD_C.eta_mean, STD_C.eta_var
        lam, h, _ = self.points(40)
        for x, y in zip(lam, h):
            report = premium_report_optimal(policy, dataclasses.replace(STD_H, lambda0=x), STD_M, STD_C, 0.3, h_init=y)
            exact = self.affine(0, x, y)
            assert report.expected_loss == pytest.approx(m * exact, rel=1e-12, abs=0.0)
            second = report.loss_std**2 + report.expected_loss**2
            assert second == pytest.approx((var + m * m) * exact + 2.0 * m * m * (10.0 * exact + 100.0), rel=1e-12, abs=0.0)

    def test_walk(self):
        """In-grid intensities and levels read the affine control at each
        (snapshot, lambda, level) and clamp nothing."""
        policy = PolicyField(GRID, self.surfaces(), FieldMeta(STD_H, STD_M, STD_C))
        times, snap_idx = _snapshot_times(policy, 0.2)
        rng = np.random.default_rng(12)
        lam = rng.uniform(GRID.lambda_min, GRID.lambda_max, (30, times.size))
        level = np.empty(lam.shape)
        controls, clamped_lambda, clamped_h = _walk(policy, times, snap_idx, lam, 4.5, level)
        assert level.max() < GRID.h_max and (clamped_lambda, clamped_h) == (0, 0)
        np.testing.assert_allclose(controls, self.affine(snap_idx, lam, level), rtol=1e-12, atol=0.0)
