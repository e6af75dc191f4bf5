import dataclasses
import gc
import importlib
import math
import tracemalloc

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
    PathBatch,
    PremiumReport,
    SolverGrid,
    breach_prob,
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
from cyberinvest.dynamics import _control_levels
from cyberinvest.hawkes import _intensity_on_grid

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


class TestOptimalReport:
    @pytest.fixture(scope="class")
    def small_policy(self):
        grid = SolverGrid.regular(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50)
        return solve(grid, STD_H, STD_M, STD_C).policy

    def test_field_mismatch_rejected(self, small_policy):
        other = HawkesParams(27.0, 27.0, 15.0, 3.0)
        with pytest.raises(ConfigError):
            premium_report_optimal(small_policy, other, STD_M, STD_C, 0.3, mc_paths=10_000)

    def test_eta_var_change_allowed(self, small_policy):
        costs = dataclasses.replace(STD_C, eta_var=50.0)
        r = premium_report_optimal(small_policy, STD_H, STD_M, costs, 0.3, mc_paths=10_000, seed=0)
        assert r.expected_loss > 0

    def test_requires_enough_paths(self, small_policy):
        with pytest.raises(ValueError):
            premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, mc_paths=100)

    def test_prevention_reduces_both_moments(self, small_policy):
        base = premium_report_baseline(STD_H, STD_M, STD_C, 0.3, mc_paths=20_000, seed=0)
        opt = premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, mc_paths=20_000, seed=0)
        assert opt.expected_loss < base.expected_loss
        assert opt.loss_std < base.loss_std
        dp, ds = prevention_gap(base, opt)
        assert dp > 0 and ds > 0

    @staticmethod
    def _explicit(policy, n, seed, h_extract, h_levels):
        """Per-path (N, S1, S2, terminal_h) of the unstreamed pipeline over the
        whole batch at once."""
        batch = simulate_paths(STD_H, STD_C.horizon, n, seed)
        times, controls = extract_policies_batch(policy, batch, 0.0, h_extract)
        pid = batch.path_index()
        levels, terminal_h = _control_levels(times, controls, h_levels, STD_C.rho, batch.times, pid, n, batch.horizon)
        probs = breach_prob(STD_M, levels)
        return batch.counts(), np.bincount(pid, probs, n), np.bincount(pid, probs**2, n), terminal_h

    @staticmethod
    def _assert_memo_is(expected):
        """The per-path sums of the last pass equal `expected` bit for bit."""
        pp = premium_module._last_pass[2]
        for got, want in zip((pp.n_attacks, pp.s1, pp.s2, pp.terminal_h), expected, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["lognormal", "gamma"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_streamed_equals_explicit_pipeline(self, small_policy, family, threads):
        costs = dataclasses.replace(STD_C, eta_var=50.0, eta_family=family)
        # a new field object, so this report runs its own pass at `threads`
        fresh = dataclasses.replace(small_policy)
        r = premium_report_optimal(fresh, STD_H, STD_M, costs, 0.3, 20_000, 3, threads=threads)
        self._assert_memo_is(self._explicit(small_policy, 20_000, 3, 0.0, 0.0))
        # the report sees the marks only through eta_mean and eta_var
        other = dataclasses.replace(costs, eta_family="gamma" if family == "lognormal" else "lognormal")
        assert premium_report_optimal(fresh, STD_H, STD_M, other, 0.3, 20_000, 3, threads=threads) == r

    def test_memo_cannot_leak(self, small_policy):
        runs = [
            # (eta_var, family, seed, h_init, mc_paths, threads, reuses the previous pass)
            (10.0, "lognormal", 5, 0.0, 10_000, 1, False),
            (50.0, "gamma", 5, 0.0, 10_000, 2, True),
            (100.0, "lognormal", 5, 0.0, 10_000, 1, True),
            (100.0, "lognormal", 6, 0.0, 10_000, 1, False),
            (100.0, "lognormal", 6, 3.0, 10_000, 1, False),
            (100.0, "lognormal", 6, 3.0, 12_000, 1, False),
        ]
        last = None
        for eta_var, family, seed, h_init, n, threads, reused in runs:
            costs = dataclasses.replace(STD_C, eta_var=eta_var, eta_family=family)
            premium_report_optimal(small_policy, STD_H, STD_M, costs, 0.3, n, seed, h_init=h_init, threads=threads)
            self._assert_memo_is(self._explicit(small_policy, n, seed, h_init, h_init))
            assert (premium_module._last_pass[2] is last) == reused
            last = premium_module._last_pass[2]

    @pytest.mark.parametrize("seed, eta_var, family", [(11, 10.0, "lognormal"), (12, 50.0, "gamma"), (13, 100.0, "lognormal")])
    def test_agrees_with_sampled_losses(self, small_policy, seed, eta_var, family):
        """Oracle: both moments lie within 3 combined standard errors of the
        ones of losses sampled with breach and mark draws on the same paths."""
        costs = dataclasses.replace(STD_C, eta_var=eta_var, eta_family=family)
        r = premium_report_optimal(small_policy, STD_H, STD_M, costs, 0.3, 20_000, seed)
        batch = simulate_paths(STD_H, costs.horizon, 20_000, seed)
        times, controls = extract_policies_batch(small_policy, batch)
        lb = simulate_losses(batch, STD_M, costs, seed=seed, control_times=times, controls=controls)
        for name, sampled in (("expected_loss", lb.mean_loss()), ("loss_std", lb.std_loss())):
            got, se = getattr(r, name), r.standard_errors[name]
            assert abs(got - sampled.value) <= 3.0 * math.hypot(se, sampled.stderr), name

    def test_standard_errors_match_the_spread(self, small_policy):
        """Over 20 seeds, the estimates spread as much as their reported
        standard errors say, within a factor 1.5."""
        reports = [premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, 10_000, seed) for seed in range(20)]
        for name in ("expected_loss", "loss_std"):
            spread = np.std([getattr(r, name) for r in reports], ddof=1)
            ratio = spread / np.mean([r.standard_errors[name] for r in reports])
            assert 1.0 / 1.5 <= ratio <= 1.5, (name, ratio)

    def test_memo_dropped_with_its_field(self, small_policy):
        fresh = dataclasses.replace(small_policy)
        premium_report_optimal(fresh, STD_H, STD_M, STD_C, 0.3, 10_000, seed=4)
        assert premium_module._last_pass[0]() is fresh
        del fresh
        gc.collect()
        assert premium_module._last_pass is None

    def test_policy_controls_read_only(self, small_policy, tmp_path):
        save_field(small_policy, tmp_path / "policy")
        for field in (small_policy, load_field(tmp_path / "policy")):
            with pytest.raises(ValueError):
                field.controls[0, 0, 0] = 1.0

    def test_snapshot_cells_match_both_searches(self):
        """Both event-to-snapshot indices, events on a snapshot included, and
        the levels and intensities computed from them."""
        times = np.array([0.1, 0.25, 0.5, 0.75, 1.0])
        ev = np.array([0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0, 0.1, 0.5, 0.6])
        after, before = premium_module._snapshot_cells(times, ev)
        np.testing.assert_array_equal(after, np.searchsorted(times, ev, side="left"))
        np.testing.assert_array_equal(before, np.maximum(np.searchsorted(times, ev, side="right") - 1, 0))
        # the same events as a batch: levels and intensities equal the two-search ones
        batch = PathBatch(STD_H, 1.0, ev, np.array([0, 9, 12]))
        paths = (batch.times, batch.path_index(), 2, 1.0)
        z = np.random.default_rng(0).uniform(0.0, 5.0, (2, times.size))
        for a, b in zip(
            _control_levels(times, z, 1.0, 0.2, *paths),
            _control_levels(times, z, 1.0, 0.2, *paths, before),
        ):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            batch.intensity_on_grid(times), _intensity_on_grid(STD_H, times, *paths[:3], after)
        )

    @staticmethod
    def _grids():
        # SolverGrid.regular builds its snapshots descending; the walk reverses them
        uniform = st.builds(
            lambda lo, span, k, desc: np.linspace(lo + span, lo, k)[::-1] if desc else np.linspace(lo, lo + span, k),
            st.floats(0.0, 10.0),
            st.floats(1e-3, 100.0),
            st.integers(2, 400),
            st.booleans(),
        )
        scattered = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=60, unique=True).map(
            lambda v: np.sort(np.array(v))
        )
        return st.one_of(uniform, scattered)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_snapshot_cells_equal_both_searchsorted_sides(self, data):
        """Oracle: searchsorted on uniform and scattered grids, for events
        between, on and next to snapshot times, at the horizon, outside the
        grid and for no events at all."""
        times = data.draw(self._grids(), label="times")
        on_grid = st.sampled_from(times.tolist()).flatmap(
            lambda t: st.sampled_from([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
        )
        anywhere = st.floats(times[0] - 1.0, times[-1] + 1.0)
        ev = np.array(data.draw(st.lists(st.one_of(on_grid, anywhere), max_size=80), label="events"), dtype=float)
        for events in (ev, np.append(ev, times[-1]), np.zeros(0)):
            after, before = premium_module._snapshot_cells(times, events)
            np.testing.assert_array_equal(after, np.searchsorted(times, events, side="left"))
            np.testing.assert_array_equal(before, np.maximum(np.searchsorted(times, events, side="right") - 1, 0))

    def test_initial_level_drives_losses(self, small_policy):
        r = premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, 10_000, seed=1, h_init=5.0)
        self._assert_memo_is(self._explicit(small_policy, 10_000, 1, 5.0, 5.0))
        from_zero = self._explicit(small_policy, 10_000, 1, 5.0, 0.0)
        assert r.expected_loss < STD_C.eta_mean * from_zero[1].mean()

    @pytest.mark.parametrize("h_init", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bad_initial_level_rejected(self, small_policy, h_init, threads):
        """A negative or non-finite h_init raises instead of pricing a nan or
        an unclamped level."""
        with pytest.raises(ValueError, match="initial level"):
            premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, 10_000, h_init=h_init, threads=threads)

    def test_diagnostics_identical_for_any_threads(self, small_policy):
        # the second report gets a new field object, so it runs its own pass
        one, two = (
            premium_report_optimal(field, STD_H, STD_M, STD_C, 0.3, 10_000, seed=2, threads=t).diagnostics
            for field, t in ((small_policy, 1), (dataclasses.replace(small_policy), 2))
        )
        assert one == two
        assert set(one) == {"events", "thinning_candidates", "clamped_lambda", "clamped_h"}
        batch = simulate_paths(STD_H, 1.0, 10_000, 2)
        assert one["events"] == batch.times.size <= one["thinning_candidates"]
        # small_policy's grid stops at lambda = 120, which some paths exceed
        grid = small_policy.grid
        times, _ = extract_policies_batch(small_policy, batch)
        beyond = np.count_nonzero(batch.intensity_on_grid(times) > grid.lambda_max + 0.5 * grid.d_lambda)
        assert one["clamped_lambda"] == beyond > 0

    def test_memory_bounded_in_paths(self, small_policy):
        peaks = {}
        for n in (20_000, 40_000, 80_000):
            tracemalloc.start()
            try:
                premium_report_optimal(small_policy, STD_H, STD_M, STD_C, 0.3, n, seed=0, threads=1)
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
