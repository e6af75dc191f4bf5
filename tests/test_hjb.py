import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs, solve_banded
from scipy.sparse.linalg import splu

from cyberinvest import (
    BreachFamily,
    BreachModel,
    CostParams,
    HawkesParams,
    SolverError,
    SolverGrid,
    breach_prob,
    hjb_residual,
    query,
    solve,
)
from conftest import radau_values
from cyberinvest import hjb
from cyberinvest.hjb import _THETA, _PideOperator

STD_H = HawkesParams(27.0, 27.0, 15.0, 9.0)
STD_M = BreachModel(BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
STD_C = CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)

SMALL = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50)


@pytest.fixture(scope="module")
def small_solution():
    return solve(SMALL, STD_H, STD_M, STD_C)


def full_field_monotonicity(values, axis, tol):
    """Oracle: _monotonicity_stats from one whole-field difference array."""
    diffs = np.diff(values, axis=axis)
    violations = int(np.count_nonzero(diffs < -tol))
    return {
        "violations": violations,
        "fraction": violations / max(values.size, 1),
        "worst": float(max(0.0, -diffs.min())) if diffs.size else 0.0,
    }


class TestSolverGrid:
    def test_node_counts(self):
        assert SMALL.n_lambda == 32 and SMALL.n_h == 51
        assert SMALL.lambdas[0] == 27.0 and SMALL.lambdas[-1] == 120.0
        assert SMALL.hs[-1] == 50.0

    def test_non_integer_multiple_rejected(self):
        with pytest.raises(ValueError):
            SolverGrid(27.0, 100.0, 3.0, 0.0, 50.0, 1.0, 1.0, 10)

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            SolverGrid(27.0, 120.0, -1.0, 0.0, 50.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            SolverGrid(27.0, 120.0, 3.0, -1.0, 50.0, 1.0, 1.0, 10)

    def test_refined(self):
        r = SMALL.refined(2)
        assert r.d_lambda == 1.5 and r.d_h == 0.5
        assert r.n_lambda == 63 and r.n_h == 101

    def test_snapshots_decreasing(self):
        assert SMALL.t_snapshots[0] == 1.0 and SMALL.t_snapshots[-1] == 0.0
        assert np.all(np.diff(SMALL.t_snapshots) < 0)

    def test_equal_and_hashed_by_value(self):
        same = SolverGrid(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50)
        assert same == SMALL and hash(same) == hash(SMALL) and len({same, SMALL}) == 1
        assert SolverGrid.regular(27.0, 120.0, 3.0, 0.0, 50.0, 1.0, 1.0, 50) == SMALL  # the former name
        assert dataclasses.replace(SMALL, time_steps=51) != SMALL
        assert dataclasses.replace(SMALL, horizon=2.0) != SMALL

    def test_replace_time_steps(self):
        halved = dataclasses.replace(SMALL, time_steps=SMALL.time_steps // 2)
        assert halved.time_steps == 25 and halved.horizon == SMALL.horizon
        np.testing.assert_array_equal(halved.t_snapshots, SMALL.t_snapshots[::2])
        np.testing.assert_array_equal(halved.t_snapshots, np.linspace(1.0, 0.0, 26))
        assert halved.shape == (26, SMALL.n_lambda, SMALL.n_h)

    @pytest.mark.parametrize("time_steps", [0, -1, 2.5, 50.0])
    def test_time_steps_must_be_a_positive_int(self, time_steps):
        with pytest.raises(ValueError, match="time_steps must be a positive int"):
            dataclasses.replace(SMALL, time_steps=time_steps)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            dataclasses.replace(SMALL, horizon=horizon)


def onesided_central_1d(n, step):
    """Oracle: central differences with one-sided first/last rows, entry by entry; zero when n = 1."""
    if n == 1:
        return sp.csr_matrix((1, 1))
    rows, cols, vals = [], [], []
    inv = 1.0 / step
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i + 1, i - 1]
        vals += [0.5 * inv, -0.5 * inv]
    rows += [0, 0, n - 1, n - 1]
    cols += [1, 0, n - 1, n - 2]
    vals += [inv, -inv, inv, -inv]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def reference_matrices(grid, hawkes=STD_H, costs=STD_C):
    """Oracle: the operator's (A_lambda, A_h, D_h) as sparse matrices assembled entry by entry,
    with A_h = -diag(rho h) D_h the obsolescence drift."""
    lam, hs = grid.lambdas, grid.hs
    clam, ch = hawkes.xi * (lam - hawkes.alpha), costs.rho * hs
    dlam, dh = onesided_central_1d(lam.size, grid.d_lambda), onesided_central_1d(hs.size, grid.d_h)
    jump = sp.csr_matrix(hjb._jump_shift_1d(lam.size, grid.d_lambda, hawkes.beta))
    a_lam = (sp.diags(lam) @ (jump - sp.identity(lam.size)) - sp.diags(clam) @ dlam).tocsr()
    return a_lam, (-sp.diags(ch) @ dh).tocsr(), dh


def stencil_rows(mat):
    """(3, n) coefficients of nodes i-1, i, i+1 in row i of a tridiagonal matrix (0 past the ends)."""
    return np.stack([np.r_[0.0, mat.diagonal(-1)], mat.diagonal(), np.r_[mat.diagonal(1), 0.0]])


def reference_policy(op, d_h, x):
    return np.maximum((d_h @ x.T).T - op.delta, 0.0) / op.gamma


def banded_reference_step(op, matrices, w, dt, theta, correction=0.0):
    """One Douglas step on the sparse matrices of reference_matrices: SuperLU
    for the lambda stage, and the Newton h stage as first written, with the
    policy recomputed from W for the Jacobian, which is packed into
    solve_banded's (1, 1) layout. Newton starts from Y1 + correction, the
    previous step's Y2 - Y1, and stops once the residual is within
    _NEWTON_RTOL of max(1, max |Y|). Returns the new state, its number of
    banded solves and its correction Y2 - Y1."""
    a_lam, a_h, d_h = matrices
    c = float(f"{theta * dt:.12g}")

    def h_part(x):
        excess = np.maximum((d_h @ x.T).T - op.delta, 0.0)
        return (a_h @ x.T).T + excess * excess / (2.0 * op.gamma)

    def jacobian(x):
        coef = stencil_rows(a_h)[:, None, :] + reference_policy(op, d_h, x)[None] * stencil_rows(d_h)[:, None, :]
        rows = -c * coef.reshape(3, -1)
        rows[1] += 1.0
        ab = np.zeros_like(rows)
        ab[0, 1:] = rows[2, :-1]
        ab[1] = rows[1]
        ab[2, :-1] = rows[0, 1:]
        return ab

    lu = splu((sp.identity(op.shape[0], format="csc") - c * a_lam).tocsc())
    f_lam, f_h = a_lam @ w, h_part(w)
    y1 = lu.solve(np.asfortranarray(w + dt * (f_lam + f_h + op.reward) - c * f_lam))
    target, y = y1 - c * f_h, y1 + correction
    for it in range(hjb._NEWTON_MAX_ITER + 1):
        resid = y - c * h_part(y) - target
        if float(np.max(np.abs(resid))) <= hjb._NEWTON_RTOL * max(1.0, float(np.max(np.abs(y)))):
            return y, it, y - y1
        y = y - solve_banded((1, 1), jacobian(y), resid.ravel(), check_finite=False).reshape(y.shape)
    raise AssertionError("reference Newton did not converge")


def rhs(state, model, costs):
    """Time derivative of a surface flattened in (lambda, h) row-major order."""
    out = _PideOperator(SMALL, STD_H, model, costs).rhs(0.0, state)
    assert out.shape == state.shape
    return out


class TestAssembleRhs:
    def test_zero_problem_gives_zero_rhs(self):
        model0 = BreachModel(BreachFamily.CLASS_I, 0.0, 0.1, 1.0)
        costs0 = dataclasses.replace(STD_C, terminal_utility="zero")
        state = np.zeros(SMALL.n_lambda * SMALL.n_h)
        out = rhs(state, model0, costs0)
        assert np.all(out == 0.0)

    def test_running_reward_formula(self):
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C)
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
        out_big = rhs(state, STD_M, big)
        op = _PideOperator(SMALL, STD_H, STD_M, big)
        a_lam, a_h, _ = reference_matrices(SMALL, costs=big)
        w = state.reshape(op.shape)
        linear_only = -(a_lam @ w + (a_h @ w.T).T + op.reward).ravel()
        np.testing.assert_allclose(out_big, linear_only, atol=1e-10)

    def test_nan_state_rejected(self):
        state = np.zeros(SMALL.n_lambda * SMALL.n_h)
        state[5] = np.nan
        with pytest.raises(FloatingPointError):
            rhs(state, STD_M, STD_C)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            rhs(np.zeros(7), STD_M, STD_C)

    @pytest.mark.parametrize(
        "n, d_lambda, beta, off_lattice",
        [
            (12, 3.0, 9.0, False),  # the coarse preset's whole-node shift
            (5, 1.0, 9.0, False),  # every target past the last node
            (12, 2.0, 9.0, True),  # half a node off the lattice
            (12, 0.75, 1.0, True),
            (1, 3.0, 0.0, False),  # the Poisson solve's single node
            (12, 3.0, 8.0, True),  # the coarse preset at beta = 8
            (12, 10.0, 9.0, True),  # d_lambda > beta: a fraction of one node
            (60, 0.3, 9.0, False),  # 9 / 0.3 = 30.000000000000004, rounded onto the lattice
        ],
    )
    def test_jump_shift_exact_on_linear_functions(self, n, d_lambda, beta, off_lattice):
        shift = hjb._jump_shift_1d(n, d_lambda, beta)
        # a whole-node shift has whole weights: a selector inside the domain, the linear extension past it
        assert np.array_equal(shift, np.round(shift)) != off_lattice
        np.testing.assert_allclose(shift.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        lam = 27.0 + d_lambda * np.arange(n)
        for a, b in [(1.0, 0.0), (0.0, 1.0), (-2.5, 7.0)]:
            np.testing.assert_allclose(shift @ (a + b * lam), a + b * (lam + beta), rtol=1e-13)

    @pytest.mark.parametrize("off_lattice", [False, True])
    def test_operator_matches_sparse_assembly(self, off_lattice):
        # the dense A_lambda and the h terms hold the entry-by-entry matrices' values,
        # with the jump shift on SMALL's lattice (beta = 9) and off it (beta = 8)
        hawkes = dataclasses.replace(STD_H, beta=8.0) if off_lattice else STD_H
        op = _PideOperator(SMALL, hawkes, STD_M, STD_C)
        a_lam, a_h, d_h = reference_matrices(SMALL, hawkes=hawkes)
        np.testing.assert_array_equal(op.a_lam, a_lam.toarray())
        np.testing.assert_array_equal(-op.ch * op.d_h, stencil_rows(a_h))
        np.testing.assert_array_equal(op.d_h, stencil_rows(d_h))
        w = np.random.default_rng(1).standard_normal(op.shape)
        np.testing.assert_allclose(op.gradient(w), (d_h @ w.T).T, rtol=1e-14, atol=1e-14)
        excess = np.maximum((d_h @ w.T).T - op.delta, 0.0)
        expected = (a_h @ w.T).T + excess * excess / (2.0 * op.gamma)
        np.testing.assert_allclose(op.h_part(op.gradient(w), excess), expected, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stencil_matches_oracle(self, n):
        np.testing.assert_array_equal(hjb._stencil(n, 0.3), stencil_rows(onesided_central_1d(n, 0.3)))

    @pytest.mark.parametrize("frozen", [False, True])
    def test_h_stage_jacobian_matches_finite_differences(self, frozen):
        # the h stage solves G(y) = y - c F_h(y): Newton's F_h = h_part, or the frozen step's
        # (z - rho h) D_h y at a fixed rate z; at z = excess / gamma both Jacobians are
        # transport at the level velocity z - rho h
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C)
        rng = np.random.default_rng(0)
        y = np.sqrt(SMALL.hs)[None, :] * SMALL.lambdas[:, None] / 9.0 + 0.1 * rng.standard_normal(op.shape)
        c, z = 0.0025, op.policy(y)
        lower, main, upper = hjb._DouglasADI(op).h_jacobian(z - op.ch, c)
        n = y.size
        assert lower.size == upper.size == n - 1 and main.size == n
        jac = sp.diags([lower, main, upper], [-1, 0, 1], shape=(n, n)).tocsr()
        assert 0.2 < (z > 0).mean() < 0.8  # both branches of the max occur

        def newton_map(x):
            grad = op.gradient(x)
            return x - c * ((z - op.ch) * grad if frozen else op.h_part(grad, op.excess(grad)))

        for _ in range(4):
            d = rng.standard_normal(op.shape)
            eps = 1e-6
            fd = (newton_map(y + eps * d) - newton_map(y - eps * d)) / (2 * eps)
            np.testing.assert_allclose(jac @ d.ravel(), fd.ravel(), rtol=1e-6, atol=1e-8)


def random_tridiagonal(rng, n):
    lower, upper = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    main = np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0]) + rng.uniform(0.5, 2.0, n)  # dominant by rows
    return lower, main * rng.choice([-1.0, 1.0], n), upper, rng.standard_normal(n)


class TestGtsvBinding:
    N = 64 * 51  # the unknowns of one h stage on the coarse grid

    def test_matches_scipy_linalg(self):
        # the binding, called as the h stage calls it, against scipy.linalg's own lookup
        system = random_tridiagonal(np.random.default_rng(21), self.N)
        ours = hjb._gtsv()(*(a.copy() for a in system), True, True, True, True)
        ref = get_lapack_funcs("gtsv", dtype=np.float64)(*(a.copy() for a in system), True, True, True, True)
        assert ours[-1] == ref[-1] == 0
        assert all(np.array_equal(a, b) for a, b in zip(ours[:-1], ref[:-1]))
        x = ours[-2]
        lower, main, upper, rhs = system
        residual = main * x + np.r_[0.0, lower * x[:-1]] + np.r_[upper * x[1:], 0.0] - rhs
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rhs))

    def test_singular_system_reports_info(self):
        lower, main, upper, rhs = random_tridiagonal(np.random.default_rng(22), self.N)
        lower[6] = main[7] = upper[7] = 0.0  # row 7 vanishes
        *_, info = hjb._gtsv()(lower, main, upper, rhs, True, True, True, True)
        assert info > 0

    def test_solve_clock_excludes_the_binding(self, monkeypatch):
        # a clock that jumps on the first bind: wall_time_s reads 0 only if the bind precedes t0
        gtsv, clock = hjb._gtsv(), [0.0]

        def bind():
            clock[0] = 1000.0
            return gtsv

        monkeypatch.setattr(hjb, "_gtsv", bind)
        monkeypatch.setattr(hjb, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        assert solve(SMALL, STD_H, STD_M, STD_C).quality["wall_time_s"] == 0.0


class TestDouglasStep:
    @pytest.mark.parametrize("off_lattice", [False, True])
    def test_matches_banded_reference(self, off_lattice):
        # with the jump shift on SMALL's lattice (beta = 9) and off it (beta = 8)
        hawkes = dataclasses.replace(STD_H, beta=8.0) if off_lattice else STD_H
        op = _PideOperator(SMALL, hawkes, STD_M, STD_C)
        matrices = reference_matrices(SMALL, hawkes=hawkes)
        adi = hjb._DouglasADI(op)
        w = ref = np.broadcast_to(np.sqrt(SMALL.hs), op.shape).copy()
        grad = op.gradient(w)
        excess, correction = op.excess(grad), 0.0
        dt = SMALL.d_t
        # the Rannacher half steps, then Douglas steps
        for theta, step in [(1.0, 0.5 * dt)] * 4 + [(_THETA, dt)] * 4:
            w, grad, excess = adi.step(w, grad, excess, step, theta * step, 1.0)
            ref, iterations, correction = banded_reference_step(op, matrices, ref, step, theta, correction)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(excess / op.gamma - reference_policy(op, matrices[2], ref))) <= 1e-9
            assert adi.newton[-1] == iterations

    def test_frozen_step_matches_sparse_reference(self, small_solution):
        # the linear step under a frozen rate z, against the same Douglas step on the entry-by-entry
        # matrices: SuperLU for I - c L and for the h stage's I - c (A_h + diag(z) D_h). Uncoupled, L is
        # A_lambda on one state; coupled, the stack (u, B) has L = [[A_lambda, 0], [P C, A_lambda]], with
        # C = diag(lambda) J and P the breach probability p(h) on each level line
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C)
        a_lam, a_h, d_h = reference_matrices(SMALL)
        nl, nh = op.shape
        values, z = small_solution.value.values, small_solution.policy.controls[25]
        rows = sp.identity(nl)
        f_h_one = sp.kron(rows, a_h) + sp.diags(z.ravel()) @ sp.kron(rows, d_h)
        lam_one = sp.kron(a_lam, sp.identity(nh))
        p = breach_prob(STD_M, SMALL.hs)
        jump = sp.diags(SMALL.lambdas) @ sp.csr_matrix(hjb._jump_shift_1d(nl, SMALL.d_lambda, STD_H.beta))
        cases = [
            (None, values[25][None], op.reward[None], lam_one, f_h_one),
            (
                p,
                values[[25, 30]],
                np.stack([op.reward, np.zeros(op.shape)]),
                sp.bmat([[lam_one, None], [sp.kron(jump, sp.diags(p)), lam_one]]),
                sp.block_diag([f_h_one, f_h_one]),
            ),
        ]
        adi = hjb._DouglasADI(op)
        for coupling, w, source, lam_matrix, f_h_matrix in cases:
            lam_matrix, f_h_matrix = lam_matrix.tocsc(), f_h_matrix.tocsc()
            identity = sp.identity(w.size, format="csc")
            for theta, dt in [(1.0, 0.5 * SMALL.d_t), (_THETA, SMALL.d_t)]:
                c = float(f"{theta * dt:.12g}")
                f_lam, f_h = lam_matrix @ w.ravel(), f_h_matrix @ w.ravel()
                y1 = splu(identity - c * lam_matrix).solve(w.ravel() + dt * (f_lam + f_h + source.ravel()) - c * f_lam)
                ref = splu(identity - c * f_h_matrix).solve(y1 - c * f_h).reshape(w.shape)
                got = adi.frozen_step(w, z - op.ch, source, dt, c, coupling)
                assert got.shape == w.shape
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_accepted_states_meet_the_residual_bound(self):
        # every state a step returns solves its h stage to _NEWTON_RTOL of max(1, max |Y2|),
        # and comes with its own gradient and excess
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C)
        adi = hjb._DouglasADI(op)
        w = np.broadcast_to(np.sqrt(SMALL.hs), op.shape).copy()
        grad = op.gradient(w)
        excess = op.excess(grad)
        for _, dt, _, c, t in hjb._schedule(SMALL.t_snapshots):
            f_lam, f_h = op.a_lam @ w, op.h_part(grad, excess)
            y1 = adi._factor(c)[0] @ (w + dt * (f_lam + f_h + op.reward) - c * f_lam)
            w, grad, excess = adi.step(w, grad, excess, dt, c, t)
            np.testing.assert_array_equal(grad, op.gradient(w))
            np.testing.assert_array_equal(excess, op.excess(grad))
            resid = w - c * op.h_part(grad, excess) - (y1 - c * f_h)
            assert np.max(np.abs(resid)) <= hjb._NEWTON_RTOL * max(1.0, np.max(np.abs(w)))
        assert len(adi.newton) == SMALL.t_snapshots.size - 1 + hjb._RANNACHER_INTERVALS

    def test_singular_h_stage_raises(self, monkeypatch):
        jacobian = hjb._DouglasADI.h_jacobian

        def singular(self, velocity, c):
            lower, main, upper = jacobian(self, velocity, c)
            lower[6] = main[7] = upper[7] = 0.0  # row 7 of the Jacobian vanishes
            return lower, main, upper

        monkeypatch.setattr(hjb._DouglasADI, "h_jacobian", singular)
        with pytest.raises(SolverError, match="singular h-stage Jacobian") as err:
            solve(SMALL, STD_H, STD_M, STD_C)
        assert err.value.diagnostics["step"] == 1 and err.value.diagnostics["t"] == SMALL.horizon


class TestSolve:
    def test_terminal_condition_exact(self, small_solution):
        grid = small_solution.value.grid
        target = np.sqrt(grid.hs)[None, :]
        assert np.max(np.abs(small_solution.value.terminal_values() - target)) == 0.0

    def test_monotone_in_lambda_and_h(self, small_solution):
        q = small_solution.quality
        assert q["monotone_lambda"]["fraction"] < 0.001
        assert q["monotone_h"]["fraction"] < 0.001

    def test_quality_report_matches_full_field_formulas(self, small_solution):
        # the report's per-snapshot statistics against whole-field temporaries
        values = small_solution.value.values
        q = small_solution.quality
        assert q["scale"] == max(1.0, float(np.max(np.abs(values))))
        for key, axis in (("monotone_lambda", 1), ("monotone_h", 2)):
            assert repr(q[key]) == repr(full_field_monotonicity(values, axis, q["monotonicity_tolerance"]))

    def test_worst_decrease_of_a_monotone_field_is_positive_zero(self, small_solution):
        for key in ("monotone_lambda", "monotone_h"):
            worst = small_solution.quality[key]["worst"]
            assert worst == 0.0 and math.copysign(1.0, worst) == 1.0

    # (40, 30, 40) is differenced in four blocks of at most 13 snapshots; (3, 400, 400) holds 1.3 MB
    # of differences per snapshot, so each block is one snapshot
    @pytest.mark.parametrize("shape", [(7, 5, 4), (7, 1, 4), (3, 5, 1), (40, 30, 40), (3, 400, 400)])
    def test_monotonicity_stats_count_decreases(self, shape):
        values = np.random.default_rng(3).normal(size=shape).cumsum(axis=1).cumsum(axis=2)
        for axis in (1, 2):
            got = hjb._monotonicity_stats(values, axis, 0.1)
            assert repr(got) == repr(full_field_monotonicity(values, axis, 0.1))

    def test_solve_peaks_within_1mb_of_its_fields(self, coarse_grid, std_hawkes, std_model, std_costs):
        # the coarse solve allocates little beyond its value and policy fields: the operator, the
        # steps' arrays and the quality report's difference blocks
        hjb._gtsv()  # bound before tracing, so the peak is the solve's alone
        tracemalloc.start()
        try:
            result = solve(coarse_grid, std_hawkes, std_model, std_costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= result.value.values.nbytes + result.policy.controls.nbytes + 2**20

    def test_policy_consistency_identity(self, small_solution):
        # stored controls equal ((discrete dV/dh - delta)^+)/gamma node for node
        op = _PideOperator(SMALL, STD_H, STD_M, STD_C)
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

    def test_node_guard(self, monkeypatch):
        monkeypatch.setattr(hjb, "_MAX_NODES", 10)
        with pytest.raises(SolverError, match="in-memory limit 10"):
            solve(SMALL, STD_H, STD_M, STD_C)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_h_stage_raises(self, monkeypatch, bad):
        # one non-finite lambda-stage entry: the residual's max-norm is then nan or inf
        factor = hjb._DouglasADI._factor

        def poisoned(self, c):
            inverse, *tiles = factor(self, c)
            inverse = inverse.copy()
            inverse[3, 3] = bad
            return (inverse, *tiles)

        monkeypatch.setattr(hjb._DouglasADI, "_factor", poisoned)
        with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="non-finite h stage") as err:
            solve(SMALL, STD_H, STD_M, STD_C)
        assert err.value.diagnostics["step"] == 1 and not math.isfinite(err.value.diagnostics["update_norm"])

    def test_counters_reported(self, small_solution, narrow_family):
        q = small_solution.quality["integrator"]
        assert q["method"] == "douglas-adi"
        steps = SMALL.t_snapshots.size - 1 + hjb._RANNACHER_INTERVALS
        assert q["nfev"] == steps == len(q["newton_iterations"])
        assert q["njev"] == sum(q["newton_iterations"])
        assert q["njev"] <= 2 * q["nfev"]
        # about one tridiagonal solve per step at 200 steps, as on the configured grids
        q200 = narrow_family[1].quality["integrator"]
        assert q200["njev"] <= 1.5 * q200["nfev"]
        assert q["nlu"] == 1  # theta * dt is dt/2 for the half steps and the Douglas steps alike
        assert 1 <= q["newton_max"] < hjb._NEWTON_MAX_ITER

    def test_matches_radau_oracle(self, narrow_family):
        adi = narrow_family[1]
        ref = radau_values(adi.value.grid, STD_H, STD_M, STD_C)
        gap = np.abs(adi.value.values - ref)
        assert gap[-1].max() <= 1e-3  # t = 0; the value scale is about 390
        assert gap.max() <= 0.2  # every snapshot, including the first-order start near T

    def test_small_domain_matches_a_wide_one(self, small_solution):
        # the linear closure past lambda_max = 120 against a domain 180 units wider;
        # clamping the jump target at lambda_max put the two 20 apart
        wide = solve(dataclasses.replace(SMALL, lambda_max=300.0), STD_H, STD_M, STD_C)
        gap = np.abs(small_solution.value.values - wide.value.values[:, : SMALL.n_lambda])
        assert gap.max() <= 0.2  # every snapshot and node; the value scale is about 390

    def test_residual_stop_matches_a_tight_newton(self, small_solution, monkeypatch):
        # Newton stopped on a residual of 1e-10 of scale against one run to 1e-14
        monkeypatch.setattr(hjb, "_NEWTON_RTOL", 1e-14)
        tight = solve(SMALL, STD_H, STD_M, STD_C)
        values = small_solution.value.values
        assert np.max(np.abs(values - tight.value.values)) <= 1e-9 * np.max(np.abs(values))
        assert np.max(np.abs(small_solution.policy.controls - tight.policy.controls)) <= 1e-6

    def test_deterministic_resolve(self, small_solution):
        again = solve(SMALL, STD_H, STD_M, STD_C)
        np.testing.assert_array_equal(small_solution.value.values, again.value.values)
        np.testing.assert_array_equal(small_solution.policy.controls, again.policy.controls)

    def test_off_lattice_jump_matches_whole_node_solve(self):
        # beta = 8 is 8/3 nodes at d_lambda = 3 and 8 nodes at d_lambda = 1; on SMALL's nodes the two
        # solves differ by 0.006 (0.002 for beta = 9, whole at both), the value scale being about 360,
        # while a shift floored to 2 nodes (beta = 6) would move V by tens
        hawkes = dataclasses.replace(STD_H, beta=8.0)
        coarse = solve(SMALL, hawkes, STD_M, STD_C).value.values
        fine = solve(dataclasses.replace(SMALL, d_lambda=1.0), hawkes, STD_M, STD_C).value.values
        assert np.abs(coarse - fine[:, ::3]).max() <= 0.02


class TestQuery:
    def test_exact_node(self, small_solution):
        vf = small_solution.value
        assert query(vf, 0.0, 27.0, 5.0) == vf.values[-1, 0, 5]

    def test_midpoint_interpolation_between_neighbors(self, small_solution):
        vf = small_solution.value
        lo = query(vf, 0.0, 27.0, 5.0)
        hi = query(vf, 0.0, 27.0, 6.0)
        mid = query(vf, 0.0, 27.0, 5.5)
        assert min(lo, hi) <= mid <= max(lo, hi)
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    def test_exact_at_snapshot_times(self, small_solution):
        vf = small_solution.value
        for k in (0, 1, 25, 49, 50):
            assert query(vf, float(SMALL.t_snapshots[k]), 27.0, 5.0) == vf.values[k, 0, 5]
            assert query(vf, float(SMALL.t_snapshots[k]), 40.5, 7.25) == hjb._lookup(SMALL, vf.values[k], 40.5, 7.25)

    def test_linear_in_t_between_snapshots(self, small_solution):
        # the average of the bracketing snapshots' lookups at an interval's midpoint, and the
        # weighted one a quarter of the way in
        vf, snaps = small_solution.value, SMALL.t_snapshots
        for k in (0, 10, 48, 49):
            a, b = (query(vf, float(snaps[j]), 40.5, 7.25) for j in (k, k + 1))
            mid = query(vf, 0.5 * (snaps[k] + snaps[k + 1]), 40.5, 7.25)
            assert mid == pytest.approx(0.5 * (a + b), rel=1e-12)
            quarter = query(vf, 0.75 * snaps[k] + 0.25 * snaps[k + 1], 40.5, 7.25)
            assert quarter == pytest.approx(0.75 * a + 0.25 * b, rel=1e-12)
            assert a != b

    def test_t_outside_rejected(self, small_solution):
        with pytest.raises(ValueError):
            query(small_solution.value, 1.5, 27.0, 5.0)

    @pytest.mark.parametrize("lam,h", [(np.nan, 5.0), (np.inf, 5.0), (27.0, np.nan), (27.0, -np.inf)])
    def test_non_finite_point_rejected(self, small_solution, lam, h):
        with pytest.raises(ValueError, match="outside the field's box"):
            query(small_solution.value, 0.0, lam, h)

    @pytest.mark.parametrize(
        "lam,h", [(240.0, 5.0), (120.001, 5.0), (26.0, 5.0), (27.0, 60.0), (27.0, 50.001), (27.0, -0.5)]
    )
    def test_state_outside_the_box_rejected(self, small_solution, lam, h):
        """A state off the (lambda, h) box raises, naming the box, instead of
        reading the nearest edge."""
        with pytest.raises(ValueError, match=r"lies outside the field's box \[27, 120\] x \[0, 50\]"):
            query(small_solution.value, 0.0, lam, h)


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
        fine_grid = SolverGrid(27.0, 120.0, 1.5, 0.0, 50.0, 0.5, 1.0, 100)
        fine = solve(fine_grid, STD_H, STD_M, STD_C)
        assert hjb_residual(fine.value, 50) < hjb_residual(small_solution.value, 25)

    def test_needs_interior_snapshot(self, small_solution):
        with pytest.raises(ValueError):
            hjb_residual(small_solution.value, 0)
        with pytest.raises(ValueError):
            hjb_residual(small_solution.value, 50)
