import dataclasses

import numpy as np
import pytest

from cyberinvest import (
    BreachFamily,
    BreachModel,
    CostParams,
    HawkesParams,
    SolverGrid,
    expected_count,
    lambda_baseline,
    lambda_expectation_matched,
    solve,
    solve_poisson,
)

STD_H = HawkesParams(27.0, 27.0, 15.0, 9.0)
STD_M = BreachModel(BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
STD_C = CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)
GRID = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50)


class TestBenchmarkIntensities:
    def test_baseline_is_lambda0(self):
        assert lambda_baseline(STD_H) == 27.0
        assert lambda_baseline(HawkesParams(30.0, 50.0, 15.0, 9.0)) == 50.0

    def test_baseline_ignores_beta_xi(self):
        assert lambda_baseline(HawkesParams(27, 27, 40, 2)) == lambda_baseline(STD_H)

    def test_expectation_matched_standard(self):
        val = lambda_expectation_matched(STD_H, 1.0)
        assert val == pytest.approx(61.0, abs=0.5)
        assert val == pytest.approx(60.75, abs=0.01)

    def test_expectation_matched_poisson_limit(self):
        p = HawkesParams(27.0, 27.0, 15.0, 0.0)
        assert lambda_expectation_matched(p, 1.0) == pytest.approx(27.0, rel=1e-12)

    def test_documented_discount_discrepancy(self):
        # the fixed-form expression differs from the exact mean count by ~0.02
        fixed_form = lambda_expectation_matched(STD_H, 1.0)
        exact_avg = expected_count(STD_H, 1.0) / 1.0
        assert 0.005 < exact_avg - fixed_form < 0.05
        assert exact_avg == pytest.approx(60.7667, abs=1e-3)

    @pytest.mark.parametrize("alpha, lambda0, expected", [(27.0, 60.0, 66.25), (40.0, 27.0, 87.83)])
    def test_expectation_matched_reads_alpha(self, alpha, lambda0, expected):
        # the stationary mean alpha xi / (xi - beta), not lambda0 xi / (xi - beta) (135.0 and 60.75)
        p = HawkesParams(alpha, lambda0, 15.0, 9.0)
        val = lambda_expectation_matched(p, 1.0)
        assert val == pytest.approx(expected, abs=0.005)
        assert abs(val - expected_count(p, 1.0)) < 0.05


class TestSolvePoisson:
    @pytest.fixture(scope="class")
    def field27(self):
        return solve_poisson(GRID, 27.0, STD_M, STD_C)

    def test_terminal_condition(self, field27):
        np.testing.assert_array_equal(field27.value.values[0, 0], np.sqrt(GRID.hs))

    def test_monotone_and_nonnegative_control(self, field27):
        v = field27.value.values[:, 0, :]
        assert np.all(np.diff(v, axis=1) >= -1e-6 * np.max(np.abs(v)))
        assert np.all(field27.policy.controls[:, 0, :] >= 0.0)

    def test_zero_problem(self):
        model0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        costs0 = dataclasses.replace(STD_C, terminal_utility="zero")
        f = solve_poisson(GRID, 27.0, model0, costs0)
        assert np.max(np.abs(f.value.values[:, 0, :])) == 0.0
        assert np.max(np.abs(f.policy.controls[:, 0, :])) == 0.0

    def test_deterministic_resolve(self, field27):
        again = solve_poisson(GRID, 27.0, STD_M, STD_C)
        np.testing.assert_array_equal(field27.value.values[:, 0, :], again.value.values[:, 0, :])
        np.testing.assert_array_equal(field27.policy.controls[:, 0, :], again.policy.controls[:, 0, :])

    def test_reward_monotone_in_intensity(self, field27):
        higher = solve_poisson(GRID, lambda_expectation_matched(STD_H, 1.0), STD_M, STD_C)
        assert np.all(higher.value.values[:, 0, :] >= field27.value.values[:, 0, :] - 1e-9)

    def test_matches_memoryless_limit_of_full_solver(self, field27):
        # beta = 0, alpha = lambda0: the lambda0 row of the 2-d solve obeys the
        # same 1-d equation
        memoryless = HawkesParams(27.0, 27.0, 15.0, 0.0)
        res2d = solve(GRID, memoryless, STD_M, STD_C)
        row = res2d.value.values[:, 0, :]
        ref = field27.value.values[:, 0, :]
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(row - ref) / scale) < 0.01

    def test_invalid_intensity(self):
        with pytest.raises(ValueError):
            solve_poisson(GRID, 0.0, STD_M, STD_C)

    def test_metadata_flags(self, field27):
        # the one-node intensity axis marks the constant-intensity field, and its node is the intensity
        assert field27.value.meta is field27.policy.meta
        assert field27.intensity == 27.0
        assert field27.value.grid.n_lambda == 1
