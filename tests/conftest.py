import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings
from scipy.integrate import quad, solve_ivp

from cyberinvest import (
    BreachFamily,
    BreachModel,
    CostParams,
    HawkesParams,
    SolverGrid,
    breach_prob,
    simulate_paths,
    solve,
    solve_poisson,
)
from cyberinvest._rng import generator_from
from cyberinvest.config import COARSE_PRESET
from cyberinvest.hjb import _PideOperator
from cyberinvest.poisson import lambda_baseline, lambda_expectation_matched

# Quadrature- and solver-backed properties vary too much in run time for a
# per-example deadline.
settings.register_profile("cyberinvest", deadline=None)
settings.load_profile("cyberinvest")


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


def radau_values(grid, hawkes, model, costs):
    """Oracle: the semi-discrete equation integrated by Radau at tight tolerances.

    Returns V as (snapshot, lambda, h). The Jacobian sparsity pattern is built
    here from the operator's 1-d factors (the nonzeros of the dense A_lambda,
    the tridiagonal band of the h stencil), so Radau can difference columns
    in groups instead of one at a time.
    """
    op = _PideOperator(grid, hawkes, model, costs)
    nl, nh = op.shape
    along_h = np.abs(op.d_h)
    band_h = sp.diags([along_h[0, 1:], along_h[1], along_h[2, :-1]], [-1, 0, 1])
    pattern = sp.kron(sp.csr_matrix(op.a_lam), sp.identity(nh)) + sp.kron(sp.identity(nl), band_h) + sp.identity(nl * nh)
    y0 = np.broadcast_to(np.asarray(costs.utility(grid.hs), dtype=float), op.shape).ravel()
    snaps = grid.t_snapshots
    sol = solve_ivp(
        op.rhs, (snaps[0], snaps[-1]), y0, method="Radau", t_eval=snaps, jac_sparsity=pattern, rtol=1e-8, atol=1e-8
    )
    assert sol.success, sol.message
    return sol.y.T.reshape((snaps.size,) + op.shape)


def reward_scale(model, costs, hawkes, span):
    """Size of the reward integral over a span, for absolute quadrature tolerances."""
    return max(1.0, costs.eta_mean * model.v * hawkes.stationary_mean * max(span, 1.0))


def deterministic_oracle(t, lam, h, rate, hawkes, model, costs):
    """Oracle: net benefit of a rate path s -> rate(s) from state (t, lam, h).

    The level ODE is integrated by solve_ivp at tight tolerances and the
    running reward minus cost by adaptive quadrature.
    """
    T = costs.horizon
    k, lstar = hawkes.reversion_rate, hawkes.stationary_mean
    sol = solve_ivp(lambda s, y: rate(s) - costs.rho * y[0], (t, T), [h], rtol=1e-10, atol=1e-12, dense_output=True)
    assert sol.success, sol.message

    def integrand(s):
        z = rate(s)
        mean_lam = lstar + (lam - lstar) * math.exp(-k * (s - t))
        breach = breach_prob(model, float(sol.sol(s)[0]))
        return costs.eta_mean * (model.v - breach) * mean_lam - costs.delta * z - 0.5 * costs.gamma * z**2

    epsabs = 1e-8 * reward_scale(model, costs, hawkes, T - t)
    total, _ = quad(integrand, t, T, epsabs=epsabs, epsrel=1e-10, limit=400)
    return total + float(costs.utility(float(sol.sol(T)[0])))


def thinning_oracle(params, horizon, n, seedseq):
    """Oracle: the chunk sampler's thinning rounds, with every path's events
    put in order by an explicit (path id, time) lexsort.

    Returns the flat (times, offsets) of the n paths.
    """
    rng = generator_from(seedseq)
    alpha, lam0, xi, beta = params.alpha, params.lambda0, params.xi, params.beta
    t = np.zeros(n)
    lam = np.full(n, lam0)
    active = np.arange(n)
    ev_pid, ev_t = [], []
    while active.size:
        k = active.size
        bound = np.maximum(lam, alpha)
        wait = rng.exponential(1.0, k) / bound
        t_new = t + wait
        lam_at = alpha + (lam - alpha) * np.exp(-xi * wait)
        u = rng.random(k) * bound
        alive = t_new <= horizon
        acc = alive & (u <= lam_at)
        if acc.any():
            ev_pid.append(active[acc])
            ev_t.append(t_new[acc])
        lam = np.where(acc, lam_at + beta, lam_at)
        t, lam, active = t_new[alive], lam[alive], active[alive]
    pid = np.concatenate(ev_pid) if ev_pid else np.zeros(0, dtype=np.int64)
    times = np.concatenate(ev_t) if ev_t else np.zeros(0)
    order = np.lexsort((times, pid))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pid, minlength=n), out=offsets[1:])
    return times[order], offsets


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
    """The coarse preset's steps on the standard domain, as `RunConfig.coarse` gives them."""
    return SolverGrid(
        27.0,
        216.0,
        COARSE_PRESET["d_lambda"],
        0.0,
        50.0,
        COARSE_PRESET["d_h"],
        std_costs.horizon,
        200,
    )


@pytest.fixture(scope="session")
def coarse_solution(coarse_grid, std_hawkes, std_model, std_costs):
    """Desk-scale solve of the standard problem; shared by many tests."""
    return solve(coarse_grid, std_hawkes, std_model, std_costs)


@pytest.fixture(scope="session")
def narrow_family(std_hawkes, std_model, std_costs):
    """Three refinement levels on a fixed narrow domain.

    Keeping lambda_max fixed makes the domain-truncation error identical
    across levels, so level differences isolate the mesh error.
    """
    out = {}
    for factor in (1, 2, 4):
        grid = SolverGrid(27.0, 120.0, 3.0 / factor, 0.0, 50.0, 1.0 / factor, 1.0, 200)
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
