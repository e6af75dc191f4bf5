import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyberinvest import (
    AttackPath,
    BreachFamily,
    BreachModel,
    ConstantRate,
    CostParams,
    GridRate,
    HawkesParams,
    LossBatch,
    PathBatch,
    PolicyError,
    evolve_level,
    expected_count,
    expected_loss_no_investment,
    loss_variance,
    simulate_loss,
    simulate_losses,
    simulate_path,
    simulate_paths,
)
from cyberinvest.dynamics import _TINY, _eta_sampler, _phi

STD_H = HawkesParams(27.0, 27.0, 15.0, 9.0)
STD_M = BreachModel(BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
STD_C = CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)


def assert_same_losses(a, b):
    """Two LossBatch results hold equal arrays, field by field."""
    for name in ("gross_loss", "n_attacks", "n_breaches", "terminal_h"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestCostParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0, eta_mean=10, eta_var=10, rho=0.2, horizon=1),
            dict(gamma=0.05, eta_mean=0, eta_var=10, rho=0.2, horizon=1),
            dict(gamma=0.05, eta_mean=10, eta_var=-1, rho=0.2, horizon=1),
            dict(gamma=0.05, eta_mean=10, eta_var=10, rho=0.2, horizon=0),
            dict(gamma=0.05, eta_mean=10, eta_var=10, rho=-0.1, horizon=1),
            dict(gamma=0.05, eta_mean=10, eta_var=1, rho=0.2, horizon=1, eta_family="fixed"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CostParams(**kwargs)

    def test_utility_shape_checks(self):
        # only named specs, each concave, are accepted: a callable is an unknown utility
        with pytest.raises(ValueError, match="unknown terminal utility"):
            CostParams(gamma=0.05, eta_mean=10, eta_var=10, rho=0.2, horizon=1, terminal_utility=lambda h: -h)
        with pytest.raises(ValueError, match="unknown terminal utility"):
            CostParams(gamma=0.05, eta_mean=10, eta_var=10, rho=0.2, horizon=1, terminal_utility=lambda h: h**2)
        CostParams(gamma=0.05, eta_mean=10, eta_var=10, rho=0.2, horizon=1, terminal_utility="zero")

    def test_unknown_utility(self):
        with pytest.raises(ValueError):
            CostParams(gamma=0.05, eta_mean=10, eta_var=10, rho=0.2, horizon=1, terminal_utility="cubic")


class TestEvolveLevel:
    def test_holding_rate_keeps_level(self):
        H = evolve_level(3.0, 0.2, ConstantRate(0.2 * 3.0), np.linspace(0, 1, 11))
        np.testing.assert_allclose(H, 3.0, rtol=1e-12)

    def test_pure_decay(self):
        H = evolve_level(1.0, 0.2, ConstantRate(0.0), np.array([0.0, 1.0]))
        assert H[-1] == pytest.approx(math.exp(-0.2), rel=1e-12)

    def test_no_obsolescence_linear(self):
        H = evolve_level(1.0, 0.0, ConstantRate(3.0), np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(H, [1.0, 2.5, 4.0], rtol=1e-12)

    @pytest.mark.parametrize("h0", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("strategy", [ConstantRate(1.0), GridRate([0.0, 0.5], [1.0, 2.0])], ids=["exact", "grid"])
    def test_invalid_initial_level_rejected(self, h0, strategy):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            evolve_level(h0, 0.2, strategy, np.array([0.0, 1.0]))

    def test_negative_rate_rejected(self):
        with pytest.raises(PolicyError):
            ConstantRate(-0.5)
        with pytest.raises(PolicyError):
            GridRate([0.0], [-1.0])

    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(PolicyError, match="finite and nonnegative"):
            ConstantRate(rate)
        with pytest.raises(PolicyError, match="finite and nonnegative"):
            GridRate([0.0, 0.5], [1.0, rate])

    @pytest.mark.parametrize("knot", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_knot_time_rejected(self, knot):
        times = [-math.inf, 0.5] if knot == -math.inf else [0.0, knot]
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            GridRate(times, [1.0, 2.0])

    def test_constant_rate_is_a_one_knot_grid_rate(self):
        rate = ConstantRate(2.5)
        assert isinstance(rate, GridRate) and repr(rate) == "ConstantRate(2.5)"
        assert rate.times.tolist() == [0.0] and rate.values.tolist() == [2.5] and rate(0.7) == rate.rate == 2.5

    def test_callable_strategy_rejected(self):
        # only piecewise-constant rates, whose levels are exact, are accepted
        batch = PathBatch(STD_H, 1.0, np.array([0.3]), np.array([0, 1]))
        with pytest.raises(TypeError, match="ConstantRate or GridRate"):
            evolve_level(1.0, 0.2, lambda t, h: 1.0, np.array([0.0, 1.0]))
        with pytest.raises(TypeError, match="ConstantRate or GridRate"):
            simulate_losses(batch, STD_M, STD_C, lambda t, lam, h: 1.0, seed=0)

    @settings(max_examples=25)
    @given(st.floats(0.0, 10.0), st.floats(0.0, 1.0), st.floats(0.0, 20.0), st.floats(0.1, 2.0))
    # subnormal rho*span, where -expm1(-rho s)/rho loses its digits
    @example(0.0, 5e-324, 1.0, 0.5)
    @example(0.0, 5e-324, 1.0, 1.0)
    @example(0.0, 1.1e-308, 20.0, 1.0)
    @example(0.0, 2.225073858507e-311, 1.0, 1.0)
    @example(0.0, 1e-320, 1.0, 0.1)
    def test_integral_form(self, h0, rho, zbar, span):
        # H_t = h0 e^{-rho t} + int_0^t e^{-rho(t-s)} z ds = h0 e^{-x} + zbar span r
        # with x = rho span and r = (1 - e^{-x}) / x, written in x so that no
        # quotient by a tiny rho overflows; expm1(-x) = -x exactly for tiny x.
        H = evolve_level(h0, rho, ConstantRate(zbar), np.array([0.0, span]))
        x = rho * span
        r = 1.0 if x == 0 else -math.expm1(-x) / x
        expected = h0 * math.exp(-x) + zbar * span * r
        assert H[-1] == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestPhi:
    @settings(max_examples=300)
    @given(st.floats(0.0, 5.0), st.floats(0.0, 10.0))
    @example(0.0, 3.0)
    @example(2.0, 0.0)
    @example(5e-324, 0.5)  # subnormal products, where the integral is s
    @example(1e-310, 10.0)
    @example(5.0, 1e-320)
    @example(2.5, 0.14453125)
    def test_scalar_and_array_agree(self, rho, s):
        array = _phi(rho, np.array([s]))
        if rho * s < _TINY:
            assert array[0] == s
        else:
            assert array[0] == -np.expm1(-rho * s) / rho
        # a Python float, a numpy scalar and an array all take one path
        assert _phi(rho, s) == _phi(rho, np.float64(s)) == array[0]


class TestEtaSamplers:
    @pytest.mark.parametrize("family,var", [("lognormal", 10.0), ("gamma", 10.0), ("lognormal", 100.0)])
    def test_matched_moments(self, family, var):
        costs = CostParams(gamma=0.05, eta_mean=10.0, eta_var=var, rho=0.2, horizon=1.0, eta_family=family)
        rng = np.random.default_rng(0)
        draws = _eta_sampler(costs)(rng, 200_000)
        assert draws.mean() == pytest.approx(10.0, abs=4 * draws.std() / math.sqrt(draws.size))
        assert np.var(draws) == pytest.approx(var, rel=0.05)
        assert np.all(draws > 0)

    def test_fixed_family(self):
        costs = CostParams(gamma=0.05, eta_mean=10.0, eta_var=0.0, rho=0.2, horizon=1.0, eta_family="fixed")
        rng = np.random.default_rng(0)
        assert np.all(_eta_sampler(costs)(rng, 100) == 10.0)


class TestSimulateLoss:
    def test_invulnerable_never_loses(self):
        m = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        path = simulate_paths(STD_H, 1.0, 1, seed=0).path(0)
        s = simulate_loss(path, m, STD_C, ConstantRate(0.0), seed=1)
        assert s.n_paths == 1
        assert np.array_equal(s.gross_loss, [0.0]) and np.array_equal(s.n_breaches, [0])

    def test_single_forced_attack_binomial_oracle(self):
        # deterministic loss, breach probability forced to one half
        costs = CostParams(gamma=0.05, eta_mean=10.0, eta_var=0.0, rho=0.0, horizon=1.0, eta_family="fixed")
        model = BreachModel(BreachFamily.CLASS_I, 0.5, 0.1, 1.0)
        path = AttackPath(STD_H, 1.0, np.array([0.4]))
        losses = [simulate_loss(path, model, costs, ConstantRate(0.0), seed=s).gross_loss[0] for s in range(4000)]
        mean = np.mean(losses)
        se = np.std(losses) / math.sqrt(len(losses))
        assert abs(mean - 5.0) <= 4 * se

    @pytest.mark.parametrize("n_paths", [0, 1])
    @pytest.mark.parametrize("statistic", ["mean_loss", "var_loss", "std_loss"])
    def test_sample_statistics_need_two_paths(self, n_paths, statistic):
        # one path once gave std_loss() = (nan, 0.0) behind numpy warnings
        if n_paths:
            losses = simulate_loss(simulate_path(STD_H, 1.0, seed=0), STD_M, STD_C, ConstantRate(0.0), seed=0)
        else:
            empty = np.zeros(0)
            losses = LossBatch(empty, empty.astype(np.int64), empty.astype(np.int64), empty)
        with pytest.raises(ValueError, match=f"at least two paths, got {n_paths}"):
            getattr(losses, statistic)()

    def test_mean_loss_matches_closed_form(self, std_batch_100k):
        sub = std_batch_100k.slice(0, 30_000)
        lb = simulate_losses(sub, STD_M, STD_C, ConstantRate(0.0), seed=0)
        est = lb.mean_loss()
        assert abs(est.value - expected_loss_no_investment(STD_H, STD_M, STD_C)) <= 4 * est.stderr

    def test_replay_on_truncated_history(self):
        # outcomes of the first k attacks do not depend on later events, and
        # a single path is a batch of one, for both kinds of strategy
        batch = simulate_paths(STD_H, 1.0, 1, seed=21)
        path = batch.path(0)
        assert path.n_events >= 4
        k = path.n_events // 2
        truncated = AttackPath(STD_H, float(path.event_times[k]), path.event_times[:k].copy())
        strategies = [
            ConstantRate(2.0),
            GridRate([0.3, 0.6], [1.0, 4.0]),
        ]
        for strategy in strategies:
            full = simulate_loss(path, STD_M, STD_C, strategy, seed=5)
            part = simulate_loss(truncated, STD_M, STD_C, strategy, seed=5)
            assert part.n_breaches[0] <= full.n_breaches[0]
            assert part.gross_loss[0] <= full.gross_loss[0] + 1e-12
            assert_same_losses(full, simulate_losses(batch, STD_M, STD_C, strategy, seed=5))


class TestSimulateLossesBatch:
    def test_crn_monotone_in_strategy(self, std_batch_100k):
        sub = std_batch_100k.slice(0, 5000)
        hi = simulate_losses(sub, STD_M, STD_C, ConstantRate(5.0), seed=0)
        lo = simulate_losses(sub, STD_M, STD_C, ConstantRate(1.0), seed=0)
        assert np.all(hi.gross_loss <= lo.gross_loss + 1e-12)
        assert np.all(hi.n_breaches <= lo.n_breaches)

    def test_crn_monotone_grid_vs_zero(self, std_batch_100k):
        sub = std_batch_100k.slice(0, 5000)
        ramp = GridRate(np.linspace(0, 1, 11), np.linspace(0, 30, 11))
        invested = simulate_losses(sub, STD_M, STD_C, ramp, seed=3)
        idle = simulate_losses(sub, STD_M, STD_C, ConstantRate(0.0), seed=3)
        assert np.all(invested.gross_loss <= idle.gross_loss + 1e-12)

    def test_grid_rate_equals_controls_route(self, std_batch_100k):
        sub = std_batch_100k.slice(0, 300)
        times = np.linspace(0, 1, 21)
        values = np.linspace(5, 0, 21)
        a = simulate_losses(sub, STD_M, STD_C, GridRate(times, values), seed=7)
        ctrl = np.broadcast_to(values, (sub.n_paths, values.size)).copy()
        b = simulate_losses(sub, STD_M, STD_C, control_times=times, controls=ctrl, seed=7)
        np.testing.assert_array_equal(a.gross_loss, b.gross_loss)
        np.testing.assert_array_equal(a.terminal_h, b.terminal_h)

    def test_controls_layout_does_not_change_losses(self, std_batch_100k):
        # the premium pipeline passes column-major controls, other callers row-major
        sub = std_batch_100k.slice(0, 300)
        times = np.linspace(0, 1, 21)
        ctrl = np.random.default_rng(1).uniform(0, 10, (sub.n_paths, times.size))
        by_row, by_col = np.ascontiguousarray(ctrl), np.asfortranarray(ctrl)
        assert not by_row.flags.f_contiguous and not by_col.flags.c_contiguous
        a = simulate_losses(sub, STD_M, STD_C, control_times=times, controls=by_row, seed=7)
        b = simulate_losses(sub, STD_M, STD_C, control_times=times, controls=by_col, seed=7)
        for name in ("gross_loss", "n_attacks", "n_breaches", "terminal_h"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("h0", [0.0, 5.0])
    def test_grid_rate_first_knot_after_start(self, std_batch_100k, h0):
        # the rate before the first knot is values[0], from t = 0 on
        from cyberinvest.dynamics import _control_levels

        gr = GridRate([0.5, 0.8], [3.0, 10.0])
        two = PathBatch(STD_H, 1.0, np.array([0.1, 0.6]), np.array([0, 2]))
        for batch in (two, std_batch_100k.slice(0, 50)):
            paths = (batch.times, batch.path_index(), batch.n_paths, batch.horizon)
            levels, _ = _control_levels(gr.times, gr.values[None, :], h0, STD_C.rho, *paths)
            lb = simulate_losses(batch, STD_M, STD_C, gr, seed=4, h0=h0)
            for i in range(batch.n_paths):
                path = batch.path(i)
                grid = np.concatenate(([0.0], path.event_times, [1.0]))
                ref = evolve_level(h0, STD_C.rho, gr, np.unique(grid))
                lv = levels[batch.offsets[i] : batch.offsets[i + 1]]
                np.testing.assert_allclose(lv, ref[1 : 1 + path.n_events], rtol=1e-12)
                assert lb.terminal_h[i] == pytest.approx(ref[-1], rel=1e-12)
        one = simulate_losses(two, STD_M, STD_C, gr, seed=4, h0=h0)
        assert_same_losses(one, simulate_loss(two.path(0), STD_M, STD_C, gr, seed=4, h0=h0))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_invalid_controls_rejected(self, bad):
        batch = PathBatch(STD_H, 1.0, np.array([0.3, 0.6]), np.array([0, 1, 2]))
        controls = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(PolicyError, match="controls must be finite and nonnegative"):
            simulate_losses(batch, STD_M, STD_C, seed=0, control_times=np.array([0.0, 0.5]), controls=controls)

    def test_negative_h0_rejected(self):
        quiet = PathBatch(STD_H, 1.0, np.array([]), np.array([0, 0]))
        with pytest.raises(ValueError):
            simulate_losses(quiet, STD_M, STD_C, ConstantRate(1.0), seed=0, h0=-1.0)

    @pytest.mark.parametrize("h0", [-1.0, math.nan, math.inf])
    def test_invalid_h0_rejected(self, h0):
        # a nan level once gave a mean loss of 0 with SE 0: no uniform is below nan
        batch = simulate_paths(STD_H, 1.0, 200, seed=0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_losses(batch, STD_M, STD_C, ConstantRate(1.0), seed=0, h0=h0)

    def test_counts_and_invariants(self, std_batch_100k):
        sub = std_batch_100k.slice(0, 1000)
        lb = simulate_losses(sub, STD_M, STD_C, ConstantRate(0.0), seed=0)
        assert np.all(lb.n_breaches <= lb.n_attacks)
        assert np.all(lb.gross_loss >= 0)
        assert np.array_equal(lb.n_attacks, sub.counts())


class TestLossVariance:
    def test_invulnerable_zero(self):
        m = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        assert loss_variance(STD_H, m, STD_C) == 0.0

    def test_decomposition_matches_pure_mc(self):
        closed = loss_variance(STD_H, STD_M, STD_C)
        pure = simulate_losses(simulate_paths(STD_H, 1.0, 100_000, 2), STD_M, STD_C, ConstantRate(0.0), 2).var_loss()
        assert abs(closed - pure.value) <= 4 * pure.stderr

    def test_table_values_internal(self):
        # E[N](sv*v + eta^2 v(1-v)) + eta^2 v^2 Var(N) with the internal Var(N)
        en = expected_count(STD_H, 1.0)
        sigma = math.sqrt(loss_variance(STD_H, STD_M, STD_C))
        assert sigma == pytest.approx(121.8, abs=1.5)
