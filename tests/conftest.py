import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from cyberinvest import (
    BreachFamily,
    BreachModel,
    CostParams,
    HawkesParams,
    SolverGrid,
    simulate_paths,
    solve,
    solve_poisson,
)
from cyberinvest.config import COARSE_PRESET
from cyberinvest.hjb import SolverOptions, _PideOperator
from cyberinvest.poisson import lambda_baseline, lambda_expectation_matched


def exact_moments(params, t):
    """Oracle: joint moment ODEs for (E[lam], E[lam^2], E[N], E[N lam], E[N^2]).

    Returns (E[N_t], Var(N_t), Var(lambda_t)) for the Hawkes process `params`.
    """
    a, xi, b = params.alpha, params.xi, params.beta

    def rhs(_, y):
        m1, m2, u, w, q = y
        return [
            xi * (a - m1) + b * m1,
            2 * xi * a * m1 + b * b * m1 - 2 * (xi - b) * m2,
            m1,
            xi * a * u - (xi - b) * w + m2 + b * m1,
            2 * w + m1,
        ]

    y0 = [params.lambda0, params.lambda0**2, 0.0, 0.0, 0.0]
    sol = solve_ivp(rhs, (0, t), y0, method="Radau", rtol=1e-12, atol=1e-12)
    m1, m2, u, w, q = sol.y[:, -1]
    return u, q - u * u, m2 - m1 * m1


def radau_values(grid, hawkes, model, costs, options=None):
    """Oracle: the semi-discrete equation integrated by Radau at tight tolerances.

    Returns V as (snapshot, lambda, h). The Jacobian sparsity pattern is built
    here from the operator's 1-d factors, so Radau can difference columns in
    groups instead of one at a time.
    """
    op = _PideOperator(grid, hawkes, model, costs, options or SolverOptions())
    nl, nh = op.shape
    eye_l, eye_h = sp.identity(nl), sp.identity(nh)
    pattern = sp.kron(abs(op.a_lam), eye_h) + sp.kron(eye_l, abs(op.a_h) + abs(op.d_h)) + sp.identity(nl * nh)
    y0 = np.broadcast_to(np.asarray(costs.utility(grid.hs), dtype=float), op.shape).ravel()
    snaps = grid.t_snapshots
    sol = solve_ivp(
        op.rhs, (snaps[0], snaps[-1]), y0, method="Radau", t_eval=snaps, jac_sparsity=pattern, rtol=1e-8, atol=1e-8
    )
    assert sol.success, sol.message
    return sol.y.T.reshape((snaps.size,) + op.shape)


@pytest.fixture(scope="session")
def std_hawkes():
    return HawkesParams(alpha=27.0, lambda0=27.0, xi=15.0, beta=9.0)


@pytest.fixture(scope="session")
def std_count_moments(std_hawkes, std_costs):
    """Exact (E[N_T], Var(N_T)) of the standard Hawkes process over the standard horizon."""
    return exact_moments(std_hawkes, std_costs.horizon)[:2]


@pytest.fixture(scope="session")
def std_model():
    return BreachModel(BreachFamily.CLASS_I, v=0.65, a=0.1, b=1.0)


@pytest.fixture(scope="session")
def std_costs():
    return CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)


@pytest.fixture(scope="session")
def coarse_grid(std_costs):
    return SolverGrid.regular(
        27.0,
        COARSE_PRESET["lambda_max"],
        COARSE_PRESET["d_lambda"],
        0.0,
        50.0,
        COARSE_PRESET["d_h"],
        std_costs.horizon,
        200,
    )


@pytest.fixture(scope="session")
def coarse_solution(coarse_grid, std_hawkes, std_model, std_costs):
    """Desk-scale solve on the wide intensity domain; shared by many tests."""
    return solve(coarse_grid, std_hawkes, std_model, std_costs)


@pytest.fixture(scope="session")
def narrow_family(std_hawkes, std_model, std_costs):
    """Three refinement levels on a fixed narrow domain.

    Keeping lambda_max fixed makes the domain-truncation error identical
    across levels, so level differences isolate the mesh error.
    """
    out = {}
    for factor in (1, 2, 4):
        grid = SolverGrid.regular(27.0, 120.0, 3.0 / factor, 0.0, 50.0, 1.0 / factor, 1.0, 200)
        out[factor] = solve(grid, std_hawkes, std_model, std_costs)
    return out


@pytest.fixture(scope="session")
def poisson_pair(coarse_grid, std_hawkes, std_model, std_costs):
    """Benchmark fields for both constant-intensity choices."""
    pb = solve_poisson(coarse_grid, lambda_baseline(std_hawkes), std_model, std_costs)
    pe = solve_poisson(
        coarse_grid, lambda_expectation_matched(std_hawkes, std_costs.horizon), std_model, std_costs
    )
    return pb, pe


@pytest.fixture(scope="session")
def std_batch_100k(std_hawkes):
    return simulate_paths(std_hawkes, 1.0, 100_000, seed=0)
