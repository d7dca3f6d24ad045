"""Tests for the failure inter-arrival time distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures.distributions import (
    ExponentialFailure,
    LogNormalFailure,
    WeibullFailure,
    superposed_rate,
)


class TestExponentialFailure:
    def test_mean_is_inverse_rate(self):
        law = ExponentialFailure(rate=0.25)
        assert law.mean() == pytest.approx(4.0)

    def test_mtbf_alias(self):
        law = ExponentialFailure(rate=2.0)
        assert law.mtbf() == law.mean()

    def test_cdf_at_zero(self):
        assert ExponentialFailure(rate=1.0).cdf(0.0) == 0.0

    def test_cdf_matches_closed_form(self):
        law = ExponentialFailure(rate=0.5)
        assert law.cdf(2.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_survival_complements_cdf(self):
        law = ExponentialFailure(rate=0.3)
        for t in (0.1, 1.0, 10.0):
            assert law.survival(t) + law.cdf(t) == pytest.approx(1.0)

    def test_hazard_is_constant(self):
        law = ExponentialFailure(rate=0.7)
        assert law.hazard(0.1) == pytest.approx(0.7)
        assert law.hazard(100.0) == pytest.approx(0.7)

    def test_pdf_integrates_to_cdf(self):
        law = ExponentialFailure(rate=0.2)
        ts = np.linspace(0, 20, 20001)
        integral = np.trapezoid([law.pdf(t) for t in ts], ts)
        assert integral == pytest.approx(law.cdf(20.0), rel=1e-4)

    def test_sample_mean(self, rng):
        law = ExponentialFailure(rate=0.1)
        samples = law.sample(rng, size=20000)
        assert np.mean(samples) == pytest.approx(10.0, rel=0.05)

    def test_sample_scalar(self, rng):
        value = ExponentialFailure(rate=1.0).sample(rng)
        assert isinstance(value, float)
        assert value >= 0.0

    def test_memoryless_flag(self):
        assert ExponentialFailure(rate=1.0).memoryless is True

    def test_scaled_superposition(self):
        law = ExponentialFailure(rate=1e-5)
        assert law.scaled(100).rate == pytest.approx(1e-3)

    def test_from_mtbf(self):
        assert ExponentialFailure.from_mtbf(50.0).rate == pytest.approx(0.02)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            ExponentialFailure(rate=0.0)
        with pytest.raises(ValueError):
            ExponentialFailure(rate=-1.0)


class TestWeibullFailure:
    def test_shape_one_matches_exponential(self):
        weibull = WeibullFailure(shape=1.0, scale=5.0)
        expo = ExponentialFailure(rate=0.2)
        for t in (0.5, 2.0, 10.0):
            assert weibull.cdf(t) == pytest.approx(expo.cdf(t))
            assert weibull.pdf(t) == pytest.approx(expo.pdf(t))

    def test_mean_uses_gamma_function(self):
        law = WeibullFailure(shape=2.0, scale=3.0)
        assert law.mean() == pytest.approx(3.0 * math.gamma(1.5))

    def test_hazard_decreasing_for_shape_below_one(self):
        law = WeibullFailure(shape=0.7, scale=10.0)
        assert law.hazard(1.0) > law.hazard(5.0) > law.hazard(20.0)

    def test_hazard_increasing_for_shape_above_one(self):
        law = WeibullFailure(shape=2.0, scale=10.0)
        assert law.hazard(1.0) < law.hazard(5.0) < law.hazard(20.0)

    def test_from_mtbf_gives_requested_mean(self):
        law = WeibullFailure.from_mtbf(100.0, shape=0.7)
        assert law.mean() == pytest.approx(100.0)

    def test_sample_mean(self, rng):
        law = WeibullFailure.from_mtbf(10.0, shape=1.5)
        samples = law.sample(rng, size=20000)
        assert np.mean(samples) == pytest.approx(10.0, rel=0.05)

    def test_not_memoryless(self):
        assert WeibullFailure(shape=0.5, scale=1.0).memoryless is False

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            WeibullFailure(shape=0.0, scale=1.0)
        with pytest.raises(ValueError):
            WeibullFailure(shape=1.0, scale=-2.0)

    def test_pdf_at_zero_special_cases(self):
        assert WeibullFailure(shape=0.5, scale=1.0).pdf(0.0) == math.inf
        assert WeibullFailure(shape=1.0, scale=2.0).pdf(0.0) == pytest.approx(0.5)
        assert WeibullFailure(shape=2.0, scale=1.0).pdf(0.0) == 0.0


class TestLogNormalFailure:
    def test_mean_closed_form(self):
        law = LogNormalFailure(mu=1.0, sigma=0.5)
        assert law.mean() == pytest.approx(math.exp(1.0 + 0.125))

    def test_from_mtbf(self):
        law = LogNormalFailure.from_mtbf(200.0, sigma=1.0)
        assert law.mean() == pytest.approx(200.0)

    def test_cdf_monotone(self):
        law = LogNormalFailure(mu=0.0, sigma=1.0)
        values = [law.cdf(t) for t in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_cdf_median(self):
        # The median of a log-normal is exp(mu).
        law = LogNormalFailure(mu=2.0, sigma=0.7)
        assert law.cdf(math.exp(2.0)) == pytest.approx(0.5)

    def test_pdf_zero_for_non_positive_times(self):
        law = LogNormalFailure(mu=0.0, sigma=1.0)
        assert law.pdf(0.0) == 0.0
        assert law.pdf(-1.0) == 0.0

    def test_sample_mean(self, rng):
        law = LogNormalFailure.from_mtbf(20.0, sigma=0.5)
        samples = law.sample(rng, size=50000)
        assert np.mean(samples) == pytest.approx(20.0, rel=0.05)

    def test_rejects_invalid_sigma(self):
        with pytest.raises(ValueError):
            LogNormalFailure(mu=0.0, sigma=0.0)

    def test_rejects_non_finite_mu(self):
        with pytest.raises(ValueError):
            LogNormalFailure(mu=math.inf, sigma=1.0)


class TestSuperposedRate:
    def test_scales_linearly(self):
        assert superposed_rate(1e-6, 1000) == pytest.approx(1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            superposed_rate(-1.0, 2)
        with pytest.raises(TypeError):
            superposed_rate(1.0, 2.5)


class TestDistributionProperties:
    @given(
        rate=st.floats(min_value=1e-6, max_value=10.0),
        t=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_exponential_cdf_in_unit_interval(self, rate, t):
        law = ExponentialFailure(rate=rate)
        assert 0.0 <= law.cdf(t) <= 1.0

    @given(
        shape=st.floats(min_value=0.2, max_value=5.0),
        scale=st.floats(min_value=0.1, max_value=100.0),
        t1=st.floats(min_value=0.0, max_value=50.0),
        t2=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_weibull_cdf_monotone(self, shape, scale, t1, t2):
        law = WeibullFailure(shape=shape, scale=scale)
        lo, hi = sorted((t1, t2))
        assert law.cdf(lo) <= law.cdf(hi) + 1e-12

    @given(
        shape=st.floats(min_value=0.3, max_value=4.0),
        mtbf=st.floats(min_value=0.5, max_value=1e4),
    )
    @settings(max_examples=50, deadline=None)
    def test_weibull_from_mtbf_round_trip(self, shape, mtbf):
        law = WeibullFailure.from_mtbf(mtbf, shape=shape)
        assert law.mean() == pytest.approx(mtbf, rel=1e-9)
