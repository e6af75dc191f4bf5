import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from cyberinvest import (
    BreachFamily,
    BreachModel,
    ConfigError,
    CostParams,
    HawkesParams,
    SolverError,
    SolverGrid,
    SolverOptions,
    assemble_rhs,
    breach_prob,
    hjb_residual,
    query,
    solve,
)
from conftest import radau_values
from cyberinvest import hjb
from cyberinvest.hjb import _PideOperator

STD_H = HawkesParams(27.0, 27.0, 15.0, 9.0)
STD_M = BreachModel(BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
STD_C = CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)

SMALL = SolverGrid.regular(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50)


@pytest.fixture(scope="module")
def small_solution():
    return solve(SMALL, STD_H, STD_M, STD_C)


class TestSolverGrid:
    def test_node_counts(self):
        assert SMALL.n_lambda == 32 and SMALL.n_h == 51
        assert SMALL.lambdas[0] == 27.0 and SMALL.lambdas[-1] == 120.0
        assert SMALL.hs[-1] == 50.0

    def test_non_integer_multiple_rejected(self):
        with pytest.raises(ValueError):
            SolverGrid.regular(27.0, 100.0, 3.0, 0.0, 50.0, 1.0, 1.0, 10)

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            SolverGrid.regular(27.0, 120.0, -1.0, 0.0, 50.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            SolverGrid.regular(27.0, 120.0, 3.0, -1.0, 50.0, 1.0, 1.0, 10)

    def test_refined(self):
        r = SMALL.refined(2)
        assert r.d_lambda == 1.5 and r.d_h == 0.5
        assert r.n_lambda == 63 and r.n_h == 101

    def test_snapshots_decreasing(self):
        assert SMALL.t_snapshots[0] == 1.0 and SMALL.t_snapshots[-1] == 0.0
        assert np.all(np.diff(SMALL.t_snapshots) < 0)


class TestAssembleRhs:
    def test_zero_problem_gives_zero_rhs(self):
        model0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        costs0 = dataclasses.replace(STD_C, terminal_utility="zero")
        state = np.zeros(SMALL.n_lambda * SMALL.n_h)
        out = assemble_rhs(state, SMALL, STD_H, model0, costs0)
        assert np.all(out == 0.0)

    def test_running_reward_formula(self):
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C, SolverOptions())
        reward = op.reward
        # reward(lambda, h) = eta_mean (v - S(h, v)) lambda; zero at h = 0
        assert reward[0, 0] == pytest.approx(0.0, abs=1e-14)
        expected = STD_C.eta_mean * (STD_M.v - breach_prob(STD_M, SMALL.hs))[None, :] * SMALL.lambdas[:, None]
        np.testing.assert_allclose(reward, expected, rtol=1e-14)
        # deep-protection limit: reward approaches eta_mean * v * lambda
        assert reward[0, -1] == pytest.approx(STD_C.eta_mean * STD_M.v * 27.0 * (1 - 1 / 6.0), rel=1e-12)

    def test_huge_gamma_kills_hamiltonian(self):
        state = np.repeat(np.sqrt(SMALL.hs), SMALL.n_lambda)
        state = np.tile(np.sqrt(SMALL.hs), (SMALL.n_lambda, 1)).ravel()
        big = dataclasses.replace(STD_C, gamma=1e14)
        out_big = assemble_rhs(state, SMALL, STD_H, STD_M, big)
        op = _PideOperator(SMALL, STD_H, STD_M, big, SolverOptions())
        w = state.reshape(op.shape)
        linear_only = -(op.a_lam @ w + (op.a_h @ w.T).T + op.reward).ravel()
        np.testing.assert_allclose(out_big, linear_only, atol=1e-10)

    def test_nan_state_rejected(self):
        state = np.zeros(SMALL.n_lambda * SMALL.n_h)
        state[5] = np.nan
        with pytest.raises(FloatingPointError):
            assemble_rhs(state, SMALL, STD_H, STD_M, STD_C)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            assemble_rhs(np.zeros(7), SMALL, STD_H, STD_M, STD_C)

    @pytest.mark.parametrize(
        "beta, d_lambda",
        [
            (8.0, 3.0),  # floor(beta)/d_lambda = 8/3
            (8.5, 0.5),  # fractional beta, even though beta/d_lambda = 17
            (9.0, 10.0),  # d_lambda > beta: the shift would be zero nodes
        ],
    )
    def test_non_multiple_jump_raises(self, beta, d_lambda):
        hp = HawkesParams(27.0, 27.0, 15.0, beta)
        grid = SolverGrid.regular(27.0, 27.0 + 12 * d_lambda, d_lambda, 0.0, 50.0, 1.0, 1.0, 10)
        with pytest.raises(ConfigError):
            _PideOperator(grid, hp, STD_M, STD_C, SolverOptions())
        _PideOperator(grid, hp, STD_M, STD_C, SolverOptions(jump_interp=True))

    @pytest.mark.parametrize("upwind", [False, True])
    def test_h_stage_jacobian_matches_finite_differences(self, upwind):
        # the Newton system of the h stage is G(y) = y - c * h_part(y)
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C, SolverOptions(upwind=upwind))
        rng = np.random.default_rng(0)
        y = np.sqrt(SMALL.hs)[None, :] * SMALL.lambdas[:, None] / 9.0 + 0.1 * rng.standard_normal(op.shape)
        c = 0.0025
        ab = op.h_jacobian(y, c)
        n = y.size
        jac = sp.dia_matrix((ab, [1, 0, -1]), shape=(n, n)).tocsr()
        assert 0.2 < (op.policy(y) > 0).mean() < 0.8  # both branches of the max occur
        for _ in range(4):
            d = rng.standard_normal(op.shape)
            eps = 1e-6
            fd = ((y + eps * d - c * op.h_part(y + eps * d)) - (y - eps * d - c * op.h_part(y - eps * d))) / (2 * eps)
            np.testing.assert_allclose(jac @ d.ravel(), fd.ravel(), rtol=1e-6, atol=1e-8)


class TestSolve:
    def test_terminal_condition_exact(self, small_solution):
        grid = small_solution.value.grid
        target = np.sqrt(grid.hs)[None, :]
        assert np.max(np.abs(small_solution.value.terminal_values() - target)) == 0.0

    def test_monotone_in_lambda_and_h(self, small_solution):
        q = small_solution.quality
        assert q["monotone_lambda"]["fraction"] < 0.001
        assert q["monotone_h"]["fraction"] < 0.001

    def test_policy_consistency_identity(self, small_solution):
        # stored controls equal ((discrete dV/dh - delta)^+)/gamma node for node
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C, SolverOptions())
        for k in (0, 10, 25, 50):
            expected = op.policy(small_solution.value.values[k])
            np.testing.assert_array_equal(small_solution.policy.controls[k], expected)

    def test_controls_nonnegative(self, small_solution):
        assert np.all(small_solution.policy.controls >= 0.0)

    def test_zero_problem_stays_zero(self):
        model0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        costs0 = dataclasses.replace(STD_C, terminal_utility="zero")
        res = solve(SMALL, STD_H, model0, costs0)
        assert np.max(np.abs(res.value.values)) == 0.0
        assert np.max(np.abs(res.policy.controls)) == 0.0

    def test_horizon_mismatch_rejected(self):
        bad = dataclasses.replace(STD_C, horizon=2.0)
        with pytest.raises(ValueError):
            solve(SMALL, STD_H, STD_M, bad)

    def test_node_guard(self):
        opts = SolverOptions(max_nodes=10)
        with pytest.raises(SolverError):
            solve(SMALL, STD_H, STD_M, STD_C, opts)

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(hjb, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(SolverError, match="did not converge") as err:
            solve(SMALL, STD_H, STD_M, STD_C)
        assert err.value.diagnostics["step"] == 1 and err.value.diagnostics["update_norm"] > 0

    def test_non_finite_stage_raises(self):
        # the running reward overflows to inf, so the first explicit stage does
        huge = dataclasses.replace(STD_C, eta_mean=1e308)
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="non-finite"):
            solve(SMALL, STD_H, STD_M, huge)

    def test_counters_reported(self, small_solution):
        q = small_solution.quality["integrator"]
        assert q["method"] == "douglas-adi"
        steps = SMALL.t_snapshots.size - 1 + hjb._RANNACHER_INTERVALS
        assert q["nfev"] == steps == len(q["newton_iterations"])
        assert q["njev"] == sum(q["newton_iterations"])
        assert q["nlu"] == 1  # theta * dt is dt/2 for the half steps and the Douglas steps alike
        assert 1 <= q["newton_max"] < hjb._NEWTON_MAX_ITER

    def test_matches_radau_oracle(self, narrow_family):
        adi = narrow_family[1]
        ref = radau_values(adi.value.grid, STD_H, STD_M, STD_C)
        gap = np.abs(adi.value.values - ref)
        assert gap[-1].max() <= 1e-3  # t = 0; the value scale is about 390
        assert gap.max() <= 0.2  # every snapshot, including the first-order start near T

    def test_deterministic_resolve(self, small_solution):
        again = solve(SMALL, STD_H, STD_M, STD_C)
        np.testing.assert_array_equal(small_solution.value.values, again.value.values)
        np.testing.assert_array_equal(small_solution.policy.controls, again.policy.controls)

    def test_upwind_option_close_to_central(self, small_solution):
        up = solve(SMALL, STD_H, STD_M, STD_C, SolverOptions(upwind=True))
        v0 = small_solution.value.values[-1][0, 0]
        assert up.value.values[-1][0, 0] == pytest.approx(v0, rel=0.05)

    def test_jump_interp_option_close(self, small_solution):
        ji = solve(SMALL, STD_H, STD_M, STD_C, SolverOptions(jump_interp=True))
        v0 = small_solution.value.values[-1][0, 0]
        assert ji.value.values[-1][0, 0] == pytest.approx(v0, rel=0.02)


class TestQuery:
    def test_exact_node(self, small_solution):
        vf = small_solution.value
        assert query(vf, 0.0, 27.0, 5.0) == vf.values[-1, 0, 5]

    def test_lambda_extrapolation_clamps(self, small_solution):
        vf = small_solution.value
        assert query(vf, 0.0, 2 * 120.0, 5.0) == query(vf, 0.0, 120.0, 5.0)

    def test_midpoint_interpolation_between_neighbors(self, small_solution):
        vf = small_solution.value
        lo = query(vf, 0.0, 27.0, 5.0)
        hi = query(vf, 0.0, 27.0, 6.0)
        mid = query(vf, 0.0, 27.0, 5.5, mode="linear")
        assert min(lo, hi) <= mid <= max(lo, hi)
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    def test_h_outside_warns_and_clamps(self, small_solution):
        vf = small_solution.value
        with pytest.warns(RuntimeWarning):
            v = query(vf, 0.0, 27.0, 60.0)
        assert v == query(vf, 0.0, 27.0, 50.0)

    def test_t_outside_rejected(self, small_solution):
        with pytest.raises(ValueError):
            query(small_solution.value, 1.5, 27.0, 5.0)


class TestResidual:
    def test_zero_problem_zero_residual(self):
        model0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        costs0 = dataclasses.replace(STD_C, terminal_utility="zero")
        res = solve(SMALL, STD_H, model0, costs0)
        assert hjb_residual(res.value, 25) == 0.0

    def test_reported_and_bounded(self, small_solution):
        r = hjb_residual(small_solution.value, 25)
        scale = np.max(np.abs(small_solution.value.values))
        assert 0 <= r < 1e-3 * scale

    def test_decreases_under_simultaneous_refinement(self, small_solution):
        fine_grid = SolverGrid.regular(27.0, 120.0, 1.5, 0.0, 50.0, 0.5, 1.0, 100)
        fine = solve(fine_grid, STD_H, STD_M, STD_C)
        assert hjb_residual(fine.value, 50) < hjb_residual(small_solution.value, 25)

    def test_needs_interior_snapshot(self, small_solution):
        with pytest.raises(ValueError):
            hjb_residual(small_solution.value, 0)
        with pytest.raises(ValueError):
            hjb_residual(small_solution.value, 50)
