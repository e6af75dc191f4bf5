import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from conftest import exact_moments, path_intensity, thinning_oracle

from cyberinvest import (
    AttackPath,
    HawkesParams,
    StabilityError,
    count_variance,
    expected_count,
    expected_intensity,
    intensity_variance,
    lambda_max_heuristic,
    simulate_path,
    simulate_paths,
)
from cyberinvest._rng import CHUNK_PATHS
from cyberinvest.hawkes import _central_moments, _chunk_jobs, _simulate_chunk

STD = HawkesParams(27.0, 27.0, 15.0, 9.0)


stable_params = st.builds(
    HawkesParams,
    alpha=st.floats(1.0, 80.0),
    lambda0=st.floats(1.0, 80.0),
    xi=st.floats(2.0, 40.0),
    beta=st.floats(0.0, 1.0),
).map(lambda p: HawkesParams(p.alpha, p.lambda0, p.xi, p.beta * 0.9 * p.xi))


class TestParams:
    def test_standard_values(self):
        assert STD.stationary_mean == pytest.approx(67.5)
        assert STD.reversion_rate == 6.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, lambda0=27, xi=15, beta=9),
            dict(alpha=27, lambda0=-1, xi=15, beta=9),
            dict(alpha=27, lambda0=27, xi=0, beta=0),
            dict(alpha=27, lambda0=27, xi=15, beta=-0.1),
            dict(alpha=27, lambda0=27, xi=15, beta=float("nan")),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            HawkesParams(**kwargs)

    def test_supercritical_rejected(self):
        with pytest.raises(StabilityError):
            HawkesParams(27, 27, 15, 15)
        with pytest.raises(StabilityError):
            HawkesParams(27, 27, 15, 20)


class TestMoments:
    def test_intensity_at_zero_is_lambda0(self):
        assert expected_intensity(STD, 0.0) == pytest.approx(27.0)

    def test_intensity_long_run(self):
        assert expected_intensity(STD, 50.0) == pytest.approx(67.5)

    def test_intensity_at_one(self):
        # 67.5 - 40.5 e^{-6}
        assert expected_intensity(STD, 1.0) == pytest.approx(67.39961053684502, rel=1e-12)

    def test_count_at_zero(self):
        assert expected_count(STD, 0.0) == 0.0

    def test_count_quadrature_oracle(self):
        val, err = quad(lambda s: expected_intensity(STD, s), 0.0, 1.0, epsabs=1e-12)
        assert expected_count(STD, 1.0) == pytest.approx(val, abs=1e-9)
        assert expected_count(STD, 1.0) == pytest.approx(60.7667315771925, rel=1e-12)

    def test_poisson_limit_count(self):
        p = HawkesParams(27, 27, 15, 0)
        assert expected_count(p, 0.7) == pytest.approx(27 * 0.7, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            expected_intensity(STD, -0.1)
        with pytest.raises(ValueError):
            expected_count(STD, -1.0)

    @settings(max_examples=30)
    @given(stable_params, st.floats(0.01, 3.0), st.floats(0.01, 2.0))
    def test_count_nondecreasing_in_t(self, p, t, dt):
        assert expected_count(p, t + dt) >= expected_count(p, t) - 1e-9

    @settings(max_examples=30)
    @given(stable_params, st.floats(0.1, 2.0))
    def test_count_nondecreasing_in_beta(self, p, t):
        bigger = HawkesParams(p.alpha, p.lambda0, p.xi, min(p.beta + 0.05 * p.xi, 0.95 * p.xi))
        assert expected_count(bigger, t) >= expected_count(p, t) - 1e-9


class TestIntensityVariance:
    def test_zero_cases(self):
        assert intensity_variance(STD, 0.0) == 0.0
        assert intensity_variance(HawkesParams(27, 27, 15, 0), 1.0) == 0.0

    def test_lambda_max_heuristic_standard(self):
        assert lambda_max_heuristic(STD, 1.0) == pytest.approx(216.0, abs=5.0)

    def test_lambda_max_poisson_limit(self):
        p = HawkesParams(27, 27, 15, 0)
        assert lambda_max_heuristic(p, 1.0) == expected_intensity(p, 1.0)

    def test_faster_decay_shrinks_bound(self):
        fast = HawkesParams(27, 27, 50, 9)
        assert lambda_max_heuristic(fast, 1.0) < lambda_max_heuristic(STD, 1.0)

    def test_variance_nonnegative(self):
        for t in (0.1, 0.5, 2.0):
            assert intensity_variance(STD, t) >= 0.0


class TestCountVariance:
    def test_validation(self):
        assert count_variance(STD, 0.0) == 0.0
        with pytest.raises(ValueError):
            count_variance(STD, -0.1)

    def test_poisson_limit(self):
        assert count_variance(HawkesParams(27, 27, 15, 0), 1.0) == pytest.approx(27.0, rel=1e-12)

    def test_rejects_infinite_horizon(self):
        with pytest.raises(ValueError):
            count_variance(STD, math.inf)

    def test_against_moment_ode_oracle(self, std_count_moments, std_batch_100k):
        _, var_exact = std_count_moments
        assert var_exact == pytest.approx(309.0, abs=0.5)
        assert count_variance(STD, 1.0) == pytest.approx(var_exact, rel=1e-10)
        # The sampler's counts have the exact dispersion.
        counts = std_batch_100k.counts().astype(float)
        var = float(np.var(counts, ddof=1))
        centered = counts - counts.mean()
        stderr = math.sqrt(max(float(np.mean(centered**4)) - var**2, 0.0) / counts.size)
        assert abs(var - var_exact) <= 4 * stderr

    @settings(max_examples=25)
    @given(stable_params, st.floats(0.05, 5.0))
    def test_exact_moments_match_ode_oracle(self, p, t):
        _, var_n, var_lam = exact_moments(p, t)
        assert count_variance(p, t) == pytest.approx(var_n, rel=1e-8)
        # The oracle's E[lam^2] - E[lam]^2 cancels: its error scales with E[lam]^2.
        assert intensity_variance(p, t) == pytest.approx(var_lam, rel=1e-8, abs=1e-9 * expected_intensity(p, t) ** 2)


def expm_moments(p, t):
    """Oracle: the moment ODE of _central_moments as y' = A y, y_t = expm(A t) y_0."""
    k = p.xi - p.beta
    A = np.zeros((6, 6))
    A[1, 0], A[1, 1] = p.xi * p.alpha, -k
    A[2, 1] = 1.0
    A[3, 1], A[3, 3] = p.beta * p.beta, -2.0 * k
    A[4, 1], A[4, 3], A[4, 4] = p.beta, 1.0, -k
    A[5, 1], A[5, 4] = 1.0, 2.0
    return expm(A * t) @ np.array([1.0, p.lambda0, 0.0, 0.0, 0.0, 0.0])


class TestClosedFormMoments:
    @pytest.mark.parametrize("beta", [0.0, 0.99 * 15.0])
    @pytest.mark.parametrize("lambda0", [27.0, 2.0, 400.0])
    def test_matches_matrix_exponential(self, beta, lambda0):
        p = HawkesParams(27.0, lambda0, 15.0, beta)
        for t in np.geomspace(1e-3, 5.0, 40):
            np.testing.assert_allclose(_central_moments(p, t), expm_moments(p, t), rtol=1e-11, atol=0)

    @pytest.mark.parametrize("p", [STD, HawkesParams(27.0, 27.0, 15.0, 0.0), HawkesParams(27.0, 2.0, 15.0, 14.85)])
    def test_small_time_is_poisson(self, p):
        # Var(N_t) = lambda0 t (1 + O(t)): no cancellation leaves a negative or garbled value
        assert count_variance(p, 1e-9) / (p.lambda0 * 1e-9) == pytest.approx(1.0, abs=1e-6)
        for t in np.geomspace(1e-300, 1e-3, 60):
            assert count_variance(p, t) > 0.0 and intensity_variance(p, t) >= 0.0


class TestSimulatePath:
    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize(
        "draw",
        [lambda h: simulate_path(STD, h, 0), lambda h: simulate_paths(STD, h, 1, 0)],
        ids=["simulate_path", "simulate_paths"],
    )
    def test_horizon_validation(self, draw, horizon):
        # both samplers hold the horizon to one check
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            draw(horizon)

    def test_deterministic_given_seed(self):
        a = simulate_path(STD, 1.0, seed=42)
        b = simulate_path(STD, 1.0, seed=42)
        assert np.array_equal(a.event_times, b.event_times)

    def test_event_times_in_range(self):
        p = simulate_path(STD, 1.0, seed=7)
        assert np.all(np.diff(p.event_times) > 0)
        assert p.event_times[0] > 0 and p.event_times[-1] <= 1.0

    def test_intensity_matches_closed_form_at_events(self):
        path, trace = simulate_path(STD, 1.0, seed=11, return_trace=True)
        accepted = trace.candidate_times[trace.accepted]
        # sampler's running intensity equals the kernel sum at machine precision
        recomputed = path_intensity(path, accepted, before=True)
        np.testing.assert_allclose(trace.intensities[trace.accepted], recomputed, rtol=1e-10)

    def test_thinning_bound_dominates(self):
        for seed in range(5):
            _, trace = simulate_path(STD, 1.0, seed=seed, return_trace=True)
            assert np.all(trace.intensities <= trace.bounds + 1e-12)

    def test_intensity_floor_when_started_at_mean(self):
        path = simulate_path(STD, 1.0, seed=3)
        ts = np.linspace(0, 1, 101)
        assert np.all(path_intensity(path, ts) >= STD.lambda0 - 1e-12)

    def test_tiny_horizon_mostly_empty(self):
        counts = [simulate_path(STD, 1e-6, seed=s).n_events for s in range(200)]
        assert np.mean(counts) < 0.01


class TestSimulatePaths:
    def test_mean_count_standard(self):
        batch = simulate_paths(STD, 1.0, 30_000, seed=5)
        c = batch.counts()
        se = c.std(ddof=1) / math.sqrt(c.size)
        assert abs(c.mean() - expected_count(STD, 1.0)) <= 4 * se

    @pytest.mark.parametrize("seed", [101, 202, 303, 404, 505])
    def test_mean_count_random_stable_draws(self, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(5, 60)
        lam0 = rng.uniform(5, 60)
        xi = rng.uniform(3, 30)
        beta = rng.uniform(0, 0.8) * xi
        p = HawkesParams(alpha, lam0, xi, beta)
        batch = simulate_paths(p, 1.0, 30_000, seed=seed)
        c = batch.counts()
        se = max(c.std(ddof=1) / math.sqrt(c.size), 1e-9)
        assert abs(c.mean() - expected_count(p, 1.0)) <= 4 * se

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "params, horizon, n",
        [
            (STD, 1.0, 1000),
            (HawkesParams(27.0, 27.0, 15.0, 0.0), 1.0, 1000),
            (STD, 0.01, 1000),
            (STD, 1.0, 1),
            (STD, 1.0, CHUNK_PATHS),
        ],
        ids=["standard", "beta0", "short-horizon", "one-path", "full-chunk"],
    )
    def test_chunk_order_matches_lexsort_oracle(self, params, horizon, n, seed):
        _, seedseq = _chunk_jobs(seed, n)[0]
        pid, times, candidates = _simulate_chunk(params, horizon, n, seedseq)
        assert pid.dtype == np.min_scalar_type(n - 1) and pid.dtype.kind == "u"
        # sorted as simulate_paths sorts, generation order gives the oracle's paths
        order = np.argsort(pid, kind="stable")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pid, minlength=n), out=offsets[1:])
        want_times, want_offsets = thinning_oracle(params, horizon, n, seedseq)
        assert np.array_equal(times[order], want_times)
        assert np.array_equal(offsets, want_offsets)
        # and in generation order each path's events are strictly increasing
        same_path = pid[order][1:] == pid[order][:-1]
        assert np.all(np.diff(times[order])[same_path] > 0)
        assert times.size <= candidates
        if horizon < 1.0:
            assert np.any(np.diff(offsets) == 0)  # the case must include empty paths

    def test_batch_paths_match_closed_form_intensity(self):
        batch = simulate_paths(STD, 1.0, 50, seed=2)
        grid = np.linspace(0.0, 1.0, 41)
        lam = batch.intensity_on_grid(grid)
        for i in (0, 7, 23):
            np.testing.assert_allclose(lam[i], path_intensity(batch.path(i), grid), rtol=1e-9, atol=1e-9)

    def test_eventless_batch_gives_deterministic_intensity(self):
        p = HawkesParams(27.0, 60.0, 15.0, 9.0)
        batch = simulate_paths(p, 1e-4, 3, seed=0)
        assert batch.times.size == 0
        grid = np.linspace(0.0, 1e-4, 5)
        lam = batch.intensity_on_grid(grid)
        assert lam.dtype == np.float64 and lam.shape == (3, grid.size)
        want = p.alpha + (p.lambda0 - p.alpha) * np.exp(-p.xi * grid)
        np.testing.assert_array_equal(lam, np.broadcast_to(want, lam.shape))

    def test_terminal_intensity_matches(self):
        batch = simulate_paths(STD, 1.0, 20, seed=4)
        lt = batch.terminal_intensity()
        for i in range(20):
            assert lt[i] == pytest.approx(path_intensity(batch.path(i), 1.0), rel=1e-10)
