"""Tests for the failure sources feeding the simulator."""

import math

import numpy as np
import pytest

from repro.failures.distributions import ExponentialFailure, WeibullFailure
from repro.failures.platform import Platform
from repro.failures.traces import FailureEvent, FailureTrace
from repro.simulation.engine import (
    PoissonFailureSource,
    RenewalPlatformFailureSource,
    TraceFailureSource,
    failure_source_for,
)


class TestPoissonFailureSource:
    def test_mean_delay_matches_rate(self, rng):
        source = PoissonFailureSource(rate=0.1, rng=rng)
        delays = [source.time_to_next_failure(0.0) for _ in range(20000)]
        assert np.mean(delays) == pytest.approx(10.0, rel=0.05)

    def test_register_failure_is_noop(self, rng):
        source = PoissonFailureSource(rate=0.1, rng=rng)
        source.register_failure(5.0)
        assert source.time_to_next_failure(5.0) >= 0.0

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            PoissonFailureSource(rate=0.0)


class TestRenewalPlatformFailureSource:
    def test_delays_non_negative(self, rng):
        platform = Platform(num_processors=4, failure_law=WeibullFailure(shape=0.7, scale=50.0))
        source = RenewalPlatformFailureSource(platform, rng)
        t = 0.0
        for _ in range(100):
            delay = source.time_to_next_failure(t)
            assert delay >= 0.0
            t += delay
            source.register_failure(t)

    def test_exponential_platform_statistics(self, rng):
        # For an exponential law the renewal superposition must look like a
        # Poisson process of rate p * lambda_proc.
        platform = Platform(num_processors=5, failure_law=ExponentialFailure(rate=0.02))
        source = RenewalPlatformFailureSource(platform, rng)
        t = 0.0
        gaps = []
        for _ in range(5000):
            delay = source.time_to_next_failure(t)
            gaps.append(delay)
            t += delay
            source.register_failure(t)
        assert np.mean(gaps) == pytest.approx(1.0 / 0.1, rel=0.1)

    def test_reset_redraws_state(self, rng):
        platform = Platform(num_processors=2, failure_law=WeibullFailure(shape=0.9, scale=30.0))
        source = RenewalPlatformFailureSource(platform, rng)
        first = source.time_to_next_failure(0.0)
        source.reset()
        second = source.time_to_next_failure(0.0)
        assert first != second  # astronomically unlikely to collide

    def test_rejuvenate_all_flag(self, rng):
        platform = Platform(
            num_processors=3,
            failure_law=WeibullFailure(shape=0.7, scale=30.0),
            rejuvenate_all_on_failure=True,
        )
        source = RenewalPlatformFailureSource(platform, rng)
        t = source.time_to_next_failure(0.0)
        source.register_failure(t)
        assert all(nf > t for nf in source._next_failures)


class TestTraceFailureSource:
    def _trace(self):
        events = tuple(FailureEvent(t) for t in (5.0, 12.0, 30.0))
        return FailureTrace(events=events, horizon=100.0)

    def test_replays_trace_in_order(self):
        source = TraceFailureSource(self._trace())
        assert source.time_to_next_failure(0.0) == pytest.approx(5.0)
        source.register_failure(5.0)
        assert source.time_to_next_failure(5.0) == pytest.approx(7.0)

    def test_exhausted_trace_returns_inf(self):
        source = TraceFailureSource(self._trace())
        assert source.time_to_next_failure(50.0) == math.inf

    def test_reset_restarts_cursor(self):
        source = TraceFailureSource(self._trace())
        source.register_failure(12.0)
        source.reset()
        assert source.time_to_next_failure(0.0) == pytest.approx(5.0)

    def test_deterministic_replay(self):
        source = TraceFailureSource(self._trace())
        a = [source.time_to_next_failure(t) for t in (0.0, 6.0, 13.0)]
        source.reset()
        b = [source.time_to_next_failure(t) for t in (0.0, 6.0, 13.0)]
        assert a == b


class TestFailureSourceFor:
    def test_float_becomes_poisson(self, rng):
        source = failure_source_for(0.05, rng)
        assert isinstance(source, PoissonFailureSource)
        assert source.rate == 0.05

    def test_exponential_law_becomes_poisson(self, rng):
        source = failure_source_for(ExponentialFailure(rate=0.1), rng)
        assert isinstance(source, PoissonFailureSource)

    def test_weibull_law_becomes_renewal(self, rng):
        source = failure_source_for(WeibullFailure(shape=0.7, scale=10.0), rng)
        assert isinstance(source, RenewalPlatformFailureSource)

    def test_exponential_platform_becomes_poisson(self, rng):
        platform = Platform(num_processors=10, failure_law=ExponentialFailure(rate=0.01))
        source = failure_source_for(platform, rng)
        assert isinstance(source, PoissonFailureSource)
        assert source.rate == pytest.approx(0.1)

    def test_weibull_platform_becomes_renewal(self, rng):
        platform = Platform(num_processors=4, failure_law=WeibullFailure(shape=0.7, scale=10.0))
        source = failure_source_for(platform, rng)
        assert isinstance(source, RenewalPlatformFailureSource)

    def test_trace_becomes_trace_source(self, rng):
        trace = FailureTrace(events=(FailureEvent(1.0),), horizon=10.0)
        assert isinstance(failure_source_for(trace, rng), TraceFailureSource)

    def test_existing_source_passthrough(self, rng):
        source = PoissonFailureSource(0.1, rng)
        assert failure_source_for(source, rng) is source

    def test_bool_rejected(self, rng):
        with pytest.raises(TypeError):
            failure_source_for(True, rng)

    def test_unknown_type_rejected(self, rng):
        with pytest.raises(TypeError):
            failure_source_for("not a model", rng)
