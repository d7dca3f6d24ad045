"""Tests for synthetic failure traces."""

import math

import pytest

from repro.failures.distributions import ExponentialFailure, WeibullFailure
from repro.failures.traces import FailureEvent, FailureTrace, generate_trace


class TestFailureEvent:
    def test_ordering_by_time(self):
        assert FailureEvent(1.0) < FailureEvent(2.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FailureEvent(-1.0)

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError):
            FailureEvent(math.nan)


class TestFailureTrace:
    def _trace(self):
        events = (FailureEvent(5.0, 0), FailureEvent(2.0, 1), FailureEvent(9.0, 0))
        return FailureTrace(events=events, horizon=10.0, num_processors=2)

    def test_events_sorted_on_construction(self):
        trace = self._trace()
        assert trace.times == [2.0, 5.0, 9.0]

    def test_len_and_iter(self):
        trace = self._trace()
        assert len(trace) == 3
        assert [e.time for e in trace] == [2.0, 5.0, 9.0]

    def test_inter_arrival_times(self):
        trace = self._trace()
        assert trace.inter_arrival_times() == [2.0, 3.0, 4.0]

    def test_inter_arrival_empty_trace(self):
        trace = FailureTrace(events=(), horizon=10.0)
        assert trace.inter_arrival_times() == []

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            FailureTrace(events=(FailureEvent(20.0),), horizon=10.0)

class TestGenerateTrace:
    def test_respects_horizon(self, rng):
        law = ExponentialFailure(rate=0.1)
        trace = generate_trace(law, horizon=100.0, rng=rng)
        assert all(0 < t < 100.0 for t in trace.times)

    def test_event_count_scales_with_processors(self, rng):
        law = ExponentialFailure(rate=0.01)
        single = generate_trace(law, horizon=5000.0, num_processors=1, rng=rng)
        multi = generate_trace(law, horizon=5000.0, num_processors=8, rng=rng)
        assert len(multi) > 4 * len(single)

    def test_seed_reproducibility(self):
        law = WeibullFailure(shape=0.7, scale=50.0)
        a = generate_trace(law, horizon=1000.0, seed=7)
        b = generate_trace(law, horizon=1000.0, seed=7)
        assert a.times == b.times

    def test_processor_indices_assigned(self, rng):
        law = ExponentialFailure(rate=0.05)
        trace = generate_trace(law, horizon=500.0, num_processors=3, rng=rng)
        assert set(e.processor for e in trace) <= {0, 1, 2}


class TestTraceStatistics:
    def test_empty_trace(self):
        stats = FailureTrace(events=(), horizon=10.0).statistics()
        assert stats.count == 0
        assert stats.mtbf == math.inf

    def test_exponential_cv_close_to_one(self, rng):
        law = ExponentialFailure(rate=0.02)
        trace = generate_trace(law, horizon=200_000.0, rng=rng)
        stats = trace.statistics()
        assert stats.mtbf == pytest.approx(50.0, rel=0.1)
        assert stats.cv == pytest.approx(1.0, abs=0.1)

    def test_weibull_low_shape_has_high_cv(self, rng):
        law = WeibullFailure.from_mtbf(50.0, shape=0.6)
        trace = generate_trace(law, horizon=200_000.0, rng=rng)
        assert trace.statistics().cv > 1.2
