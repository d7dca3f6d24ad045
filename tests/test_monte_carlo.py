"""Tests for the Monte-Carlo estimator."""


import numpy as np
import pytest

from repro.core.expected_time import expected_completion_time
from repro.core.schedule import Schedule, Segment
from repro.failures.distributions import WeibullFailure
from repro.failures.platform import Platform
from repro.failures.traces import FailureEvent, FailureTrace, generate_trace
from repro.simulation.monte_carlo import (
    MonteCarloEstimate,
    MonteCarloEstimator,
    estimate_expected_completion_time,
)
from repro.workflows.generators import uniform_random_chain


def _from_makespans(makespans):
    zeros = np.zeros(len(makespans))
    return MonteCarloEstimate.from_samples(np.asarray(makespans, dtype=float), zeros, zeros)


class TestMonteCarloEstimate:
    def test_from_results(self):
        estimate = _from_makespans([10.0, 12.0, 11.0, 13.0])
        assert estimate.mean == pytest.approx(11.5)
        assert estimate.num_runs == 4
        assert estimate.ci95_low < estimate.mean < estimate.ci95_high

    def test_single_run_has_zero_sem(self):
        estimate = MonteCarloEstimate.from_samples([5.0], [1.0], [1.0])
        assert estimate.sem == 0.0
        assert estimate.ci95_low == estimate.ci95_high == 5.0
        assert estimate.mean_failures == estimate.mean_wasted == 1.0

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate.from_samples([], [], [])

    def test_contains_and_relative_error(self):
        estimate = _from_makespans(np.linspace(9.0, 11.0, 50))
        assert estimate.contains(10.0)
        assert not estimate.contains(100.0)
        assert estimate.relative_error(10.0) == pytest.approx(0.0, abs=0.05)

    def test_ci99_wider_than_ci95(self):
        estimate = _from_makespans(np.linspace(9.0, 11.0, 50))
        low99, high99 = estimate.ci99()
        assert low99 <= estimate.ci95_low
        assert high99 >= estimate.ci95_high

    def test_unsupported_level_rejected(self):
        with pytest.raises(ValueError):
            _from_makespans([1.0]).contains(1.0, level=0.5)


class TestMonteCarloEstimator:
    def test_estimates_prop1_for_single_segment(self):
        estimate = estimate_expected_completion_time(
            10.0, 1.0, 0.5, 2.0, 0.05, num_runs=20000, seed=12345
        )
        analytic = expected_completion_time(10.0, 1.0, 0.5, 2.0, 0.05)
        assert estimate.relative_error(analytic) < 0.03
        assert estimate.contains(analytic, level=0.99)

    def test_estimates_schedule_makespan(self):
        chain = uniform_random_chain(6, seed=41)
        schedule = Schedule.for_chain(chain, [1, 3, 5])
        estimator = MonteCarloEstimator(schedule, 0.02, 0.5)
        estimate = estimator.estimate(5000, seed=12345)
        analytic = schedule.expected_makespan(0.5, 0.02)
        assert estimate.relative_error(analytic) < 0.05

    def test_accepts_raw_segments(self):
        segment = Segment(tasks=("T",), work=5.0, checkpoint_cost=0.5,
                          recovery_cost=0.5, checkpointed=True)
        estimator = MonteCarloEstimator([segment], 0.05, 0.0)
        estimate = estimator.estimate(500, seed=12345)
        assert estimate.mean > 5.0

    def test_requires_some_failure_model(self):
        segment = Segment(tasks=("T",), work=5.0, checkpoint_cost=0.0,
                          recovery_cost=0.0, checkpointed=False)
        with pytest.raises(ValueError):
            MonteCarloEstimator([segment])

    def test_rejects_empty_segment_list(self):
        with pytest.raises(ValueError):
            MonteCarloEstimator([], 0.1)

    @pytest.mark.parametrize(
        "model",
        [
            FailureTrace(events=(FailureEvent(4.0),), horizon=100.0),
            [FailureTrace(events=(FailureEvent(4.0),), horizon=100.0)],
            True,
            "x",
        ],
        ids=["trace", "trace_list", "bool", "str"],
    )
    def test_rejects_models_without_a_failure_source(self, model):
        segment = Segment(tasks=("T",), work=5.0, checkpoint_cost=0.5,
                          recovery_cost=0.5, checkpointed=True)
        # Raised by the constructor, before any chunk runs; the message names
        # the accepted kinds.
        with pytest.raises(TypeError, match="a rate, a FailureDistribution, a Platform"):
            MonteCarloEstimator([segment], model, 0.5)

    def test_seeded_estimates_reproducible(self):
        chain = uniform_random_chain(4, seed=42)
        schedule = Schedule.for_chain(chain, [3])
        a = MonteCarloEstimator(schedule, 0.05, 0.1).estimate(200, seed=5)
        b = MonteCarloEstimator(schedule, 0.05, 0.1).estimate(200, seed=5)
        assert a.mean == b.mean

    def test_weibull_platform_model(self):
        chain = uniform_random_chain(4, seed=43)
        schedule = Schedule.for_chain(chain, [1, 3])
        platform = Platform(
            num_processors=2, failure_law=WeibullFailure.from_mtbf(200.0, shape=0.7), downtime=0.5
        )
        estimator = MonteCarloEstimator(schedule, platform, 0.5)
        estimate = estimator.estimate(300, seed=12345)
        assert estimate.mean >= chain.total_work()

    def test_failure_model_factory(self):
        chain = uniform_random_chain(3, seed=44)
        schedule = Schedule.for_chain(chain, [2])
        law = WeibullFailure.from_mtbf(500.0, shape=0.8)

        def factory(generator):
            return generate_trace(law, horizon=100_000.0, rng=generator)

        estimator = MonteCarloEstimator(schedule, failure_model_factory=factory, downtime=0.2)
        estimate = estimator.estimate(100, seed=12345)
        assert estimate.num_runs == 100
        assert estimate.mean >= chain.total_work()

    def test_rejects_non_positive_run_count(self, rng):
        chain = uniform_random_chain(3, seed=45)
        schedule = Schedule.for_chain(chain, [2])
        estimator = MonteCarloEstimator(schedule, 0.01, 0.0)
        with pytest.raises(ValueError):
            estimator.estimate(0)
