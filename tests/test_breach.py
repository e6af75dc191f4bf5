import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from cyberinvest import BreachFamily, BreachModel, breach_prob, breach_prob_derivative, enbis, static_optimum

STD = BreachModel(BreachFamily.CLASS_I, v=0.65, a=0.1, b=1.0)

models = st.one_of(
    st.builds(
        BreachModel,
        family=st.just(BreachFamily.CLASS_I),
        v=st.floats(0.05, 1.0),
        a=st.floats(0.01, 2.0),
        b=st.floats(0.2, 4.0),
    ),
    st.builds(
        BreachModel,
        family=st.just(BreachFamily.CLASS_II),
        v=st.floats(0.05, 0.95),
        a=st.floats(0.01, 2.0),
    ),
)


class TestBreachProb:
    def test_no_investment_keeps_vulnerability(self):
        assert breach_prob(STD, 0.0) == pytest.approx(0.65)

    def test_invulnerable_stays_invulnerable(self):
        for fam in BreachFamily:
            m = BreachModel(fam, v=0.0, a=0.1, b=1.0)
            assert breach_prob(m, 0.0) == 0.0
            assert breach_prob(m, 123.0) == 0.0

    def test_halving_point(self):
        assert breach_prob(STD, 10.0) == pytest.approx(0.325)

    def test_negative_investment_rejected(self):
        with pytest.raises(ValueError):
            breach_prob(STD, -1.0)

    @pytest.mark.parametrize("z", [-1.0, math.nan, math.inf])
    def test_invalid_level_rejected(self, z):
        for fn in (breach_prob, breach_prob_derivative):
            for levels in (z, np.array([1.0, z])):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    fn(STD, levels)

    @settings(max_examples=50)
    @given(models, st.floats(0.0, 50.0), st.floats(0.01, 50.0))
    def test_decreasing(self, m, z, dz):
        if m.v > 0:
            assert breach_prob(m, z + dz) < breach_prob(m, z)

    @settings(max_examples=50)
    @given(models, st.floats(0.0, 40.0), st.floats(0.1, 10.0))
    def test_convex_second_difference(self, m, z, step):
        s0, s1, s2 = breach_prob(m, [z, z + step, z + 2 * step])
        if m.v > 0:
            assert s0 - 2 * s1 + s2 > -1e-12

    def test_result_bounded_by_v(self):
        zs = np.linspace(0, 100, 50)
        probs = breach_prob(STD, zs)
        assert np.all(probs >= 0) and np.all(probs <= STD.v)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(v=-0.1, a=0.1), dict(v=1.1, a=0.1), dict(v=0.5, a=0.0), dict(v=0.5, a=0.1, b=0.0)],
    )
    def test_invalid_model(self, kwargs):
        with pytest.raises(ValueError):
            BreachModel(BreachFamily.CLASS_I, **kwargs)


class TestDerivative:
    def test_at_zero(self):
        assert breach_prob_derivative(STD, 0.0) == pytest.approx(-0.065)

    def test_invulnerable_is_flat(self):
        m = BreachModel(BreachFamily.CLASS_I, v=0.0, a=0.1, b=1.0)
        assert breach_prob_derivative(m, 3.0) == 0.0

    @settings(max_examples=50)
    @given(models, st.floats(0.01, 30.0))
    def test_finite_difference_oracle(self, m, z):
        h = 1e-5
        central = (breach_prob(m, z + h) - breach_prob(m, z - h)) / (2 * h)
        assert breach_prob_derivative(m, z) == pytest.approx(central, abs=1e-6)

    def test_finite_difference_at_five(self):
        h = 1e-5
        central = (breach_prob(STD, 5 + h) - breach_prob(STD, 5 - h)) / (2 * h)
        assert abs(breach_prob_derivative(STD, 5.0) - central) < 1e-6


class TestEnbis:
    def test_zero_investment_zero_benefit(self):
        assert enbis(STD, 0.7, 100.0, 0.0) == 0.0

    def test_invulnerable_pays_cost(self):
        m = BreachModel(BreachFamily.CLASS_I, v=0.0, a=0.1, b=1.0)
        assert enbis(m, 1.0, 400.0, 7.0) == pytest.approx(-7.0)

    def test_positive_at_optimum(self):
        z = static_optimum(STD, 1.0, 400.0)
        assert enbis(STD, 1.0, 400.0, z) > 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            enbis(STD, 1.5, 100.0, 1.0)
        with pytest.raises(ValueError):
            enbis(STD, 0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            enbis(STD, 0.5, 100.0, -1.0)


@pytest.mark.parametrize("loss", [math.inf, math.nan])
@pytest.mark.parametrize("family", list(BreachFamily))
def test_non_finite_loss_rejected(family, loss):
    # named as the loss, not as the non-finite investment level it would give
    m = BreachModel(family, v=0.65, a=0.1)
    for call in (lambda: static_optimum(m, 1.0, loss), lambda: enbis(m, 1.0, loss, 1.0)):
        with pytest.raises(ValueError, match="loss must be finite and nonnegative"):
            call()


class TestStaticOptimum:
    def test_closed_form_standard(self):
        z = static_optimum(STD, 1.0, 400.0)
        assert z == pytest.approx((math.sqrt(26.0) - 1.0) / 0.1, rel=1e-12)
        assert z == pytest.approx(40.99, abs=0.01)

    def test_golden_section_oracle(self):
        z = static_optimum(STD, 1.0, 400.0)
        res = minimize_scalar(lambda x: -enbis(STD, 1.0, 400.0, x), bracket=(0.0, 30.0, 90.0), method="golden")
        assert z == pytest.approx(res.x, abs=1e-4)

    def test_corner_solution(self):
        # marginal benefit at zero: v*a*b*p*loss = 0.065 * p * loss <= 1
        assert static_optimum(STD, 1.0, 10.0) == 0.0
        assert static_optimum(STD, 0.01, 100.0) == 0.0

    def test_class_two_first_order_condition(self):
        m = BreachModel(BreachFamily.CLASS_II, v=0.65, a=0.1)
        z = static_optimum(m, 1.0, 400.0)
        assert z > 0
        assert -breach_prob_derivative(m, z) * 400.0 - 1.0 == pytest.approx(0.0, abs=1e-10)

    def test_one_over_e_bound_and_optimality_random_models(self):
        rng = np.random.default_rng(12345)
        for _ in range(100):
            fam = BreachFamily.CLASS_I if rng.random() < 0.5 else BreachFamily.CLASS_II
            v = rng.uniform(0.1, 0.95)
            a = rng.uniform(0.02, 1.0)
            b = rng.uniform(0.3, 3.0)
            m = BreachModel(fam, v=v, a=a, b=b)
            p = rng.uniform(0.2, 1.0)
            loss = rng.uniform(10.0, 2000.0)
            z = static_optimum(m, p, loss)
            assert z < v * p * loss / math.e + 1e-12
            if z > 0:
                resid = -breach_prob_derivative(m, z) * p * loss - 1.0
                assert abs(resid) < 1e-8
            zs = np.linspace(0.0, v * p * loss / math.e, 200)
            assert enbis(m, p, loss, z) >= enbis(m, p, loss, zs).max() - 1e-6

    # the closed form against the root search it replaced; the worst gap
    # measured over 20,000 draws was 6.4e-14 relative (1.1e-13 absolute)
    @settings(max_examples=300)
    @given(models, st.floats(0.0, 1.0), st.floats(0.0, 5000.0))
    def test_closed_form_matches_brentq(self, m, p, loss):
        z = static_optimum(m, p, loss)
        pl = p * loss
        if -breach_prob_derivative(m, 0.0) * pl <= 1.0:
            assert z == 0.0
            return
        ref = brentq(lambda x: -breach_prob_derivative(m, x) * pl - 1.0, 0.0, m.v * pl / math.e, xtol=1e-14, rtol=8.9e-16)
        assert z == pytest.approx(ref, rel=1e-12, abs=1e-12)
