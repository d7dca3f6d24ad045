"""Tests for the platform model."""


import numpy as np
import pytest

from repro.failures.distributions import ExponentialFailure, WeibullFailure
from repro.failures.platform import Platform


class TestPlatformConstruction:
    def test_defaults(self):
        platform = Platform()
        assert platform.num_processors == 1
        assert platform.downtime == 0.0
        assert platform.is_exponential

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            Platform(num_processors=0)

    def test_rejects_negative_downtime(self):
        with pytest.raises(ValueError):
            Platform(downtime=-1.0)

    def test_rejects_non_distribution_law(self):
        with pytest.raises(TypeError):
            Platform(failure_law=0.5)  # type: ignore[arg-type]


class TestExponentialPlatform:
    def test_platform_rate_scales_with_p(self):
        platform = Platform(num_processors=100, failure_law=ExponentialFailure(rate=1e-4))
        assert platform.platform_rate() == pytest.approx(1e-2)

    def test_platform_failure_law(self):
        platform = Platform(num_processors=10, failure_law=ExponentialFailure(rate=0.01))
        law = platform.platform_failure_law()
        assert isinstance(law, ExponentialFailure)
        assert law.rate == pytest.approx(0.1)

    def test_platform_mtbf(self):
        platform = Platform(num_processors=4, failure_law=ExponentialFailure(rate=0.25))
        assert platform.platform_mtbf() == pytest.approx(1.0)

    def test_describe_mentions_platform_size(self):
        platform = Platform(num_processors=8, failure_law=ExponentialFailure(rate=0.1))
        assert "p=8" in platform.describe()


class TestNonExponentialPlatform:
    def test_platform_rate_raises(self):
        platform = Platform(num_processors=4, failure_law=WeibullFailure(shape=0.7, scale=10.0))
        with pytest.raises(ValueError, match="Exponential"):
            platform.platform_rate()

    def test_platform_mtbf_approximation(self):
        law = WeibullFailure.from_mtbf(100.0, shape=0.7)
        platform = Platform(num_processors=10, failure_law=law)
        assert platform.platform_mtbf() == pytest.approx(10.0)

    def test_is_exponential_false(self):
        platform = Platform(failure_law=WeibullFailure(shape=0.7, scale=10.0))
        assert not platform.is_exponential


class TestDowntimeBounds:
    def test_expected_downtime_is_lower_bound(self):
        platform = Platform(
            num_processors=16, failure_law=ExponentialFailure(rate=1e-3), downtime=5.0
        )
        assert platform.expected_downtime() == 5.0

    def test_upper_bound_exceeds_lower_bound(self):
        platform = Platform(
            num_processors=16, failure_law=ExponentialFailure(rate=1e-3), downtime=5.0
        )
        assert platform.downtime_upper_bound() > platform.expected_downtime()

    def test_upper_bound_equals_d_for_single_processor(self):
        platform = Platform(
            num_processors=1, failure_law=ExponentialFailure(rate=1e-3), downtime=5.0
        )
        assert platform.downtime_upper_bound() == 5.0

    def test_upper_bound_zero_downtime(self):
        platform = Platform(num_processors=4, failure_law=ExponentialFailure(rate=1e-3))
        assert platform.downtime_upper_bound() == 0.0

    def test_upper_bound_close_to_d_when_failures_rare(self):
        platform = Platform(
            num_processors=10, failure_law=ExponentialFailure(rate=1e-8), downtime=2.0
        )
        assert platform.downtime_upper_bound() == pytest.approx(2.0, rel=1e-5)


class TestPlatformSimulation:
    def test_initial_states_count(self, rng):
        platform = Platform(num_processors=5, failure_law=ExponentialFailure(rate=0.1))
        states = platform.initial_states(rng)
        assert len(states) == 5
        assert all(s.next_failure > 0 for s in states)

    def test_failure_times_sorted_and_bounded(self, rng):
        platform = Platform(num_processors=3, failure_law=ExponentialFailure(rate=0.05))
        times = platform.platform_failure_times(rng, horizon=500.0)
        assert times == sorted(times)
        assert all(0 < t < 500.0 for t in times)

    def test_failure_count_matches_rate(self, rng):
        # With platform rate 0.1 over a horizon of 10000, expect ~1000 failures.
        platform = Platform(num_processors=10, failure_law=ExponentialFailure(rate=0.01))
        times = platform.platform_failure_times(rng, horizon=10_000.0)
        assert 850 <= len(times) <= 1150

    def test_rejuvenation_flag_runs(self, rng):
        platform = Platform(
            num_processors=3,
            failure_law=WeibullFailure(shape=0.7, scale=20.0),
            rejuvenate_all_on_failure=True,
        )
        times = platform.platform_failure_times(rng, horizon=200.0)
        assert times == sorted(times)

    def test_sample_time_to_next_failure_exponential(self, rng):
        platform = Platform(num_processors=10, failure_law=ExponentialFailure(rate=0.01))
        samples = [platform.sample_time_to_next_failure(rng) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.1)

    def test_sample_time_to_next_failure_weibull_without_state(self, rng):
        platform = Platform(num_processors=4, failure_law=WeibullFailure(shape=0.7, scale=10.0))
        value = platform.sample_time_to_next_failure(rng)
        assert value >= 0.0
