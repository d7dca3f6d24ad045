"""Tests for the discrete-event executor."""


import numpy as np
import pytest

from repro.core.schedule import Schedule, Segment
from repro.failures.traces import FailureEvent, FailureTrace
from repro.simulation.executor import simulate_schedule, simulate_segments
from repro.workflows.generators import uniform_random_chain


def single_segment(work=10.0, ckpt=1.0, recovery=2.0):
    return Segment(
        tasks=("T1",), work=work, checkpoint_cost=ckpt, recovery_cost=recovery, checkpointed=True
    )


class TestFailureFreeExecution:
    def test_no_failures_makespan_is_deterministic(self):
        # A trace with no failure events: the run is exactly work + checkpoint.
        trace = FailureTrace(events=(), horizon=1e9)
        result = simulate_segments([single_segment()], trace, downtime=1.0)
        assert result.makespan == pytest.approx(11.0)
        assert result.num_failures == 0
        assert result.wasted_time == 0.0
        assert result.useful_time == pytest.approx(11.0)

    def test_multiple_segments_failure_free(self):
        trace = FailureTrace(events=(), horizon=1e9)
        segments = [single_segment(5.0, 1.0), single_segment(3.0, 0.5)]
        result = simulate_segments(segments, trace, downtime=0.0)
        assert result.makespan == pytest.approx(9.5)


class TestDeterministicFailureScenarios:
    def test_single_failure_then_success(self):
        # Failure at t=4 interrupts the first attempt (needs 11); after
        # downtime 1 and recovery 2 the segment restarts at t=7 and finishes
        # at t=18 (no more failures).
        trace = FailureTrace(events=(FailureEvent(4.0),), horizon=1e9)
        result = simulate_segments([single_segment()], trace, downtime=1.0)
        assert result.num_failures == 1
        assert result.makespan == pytest.approx(4.0 + 1.0 + 2.0 + 11.0)
        assert result.wasted_time == pytest.approx(4.0 + 1.0 + 2.0)
        assert result.useful_time == pytest.approx(11.0)

    def test_failure_during_recovery(self):
        # First failure at t=4; recovery needs 2 but a second failure strikes
        # at t=6 (exactly at the end of downtime + 1 into recovery).
        trace = FailureTrace(events=(FailureEvent(4.0), FailureEvent(6.0)), horizon=1e9)
        result = simulate_segments([single_segment()], trace, downtime=1.0)
        assert result.num_failures == 2
        # Timeline: fail@4, downtime->5, recovery interrupted@6, downtime->7,
        # recovery 2 -> 9, segment 11 -> 20.
        assert result.makespan == pytest.approx(20.0)
        assert result.num_recovery_attempts == 2

    def test_failure_exactly_at_completion_does_not_interrupt(self):
        # delay == duration counts as success (failure strikes at the instant
        # the checkpoint commits).
        trace = FailureTrace(events=(FailureEvent(11.0),), horizon=1e9)
        result = simulate_segments([single_segment()], trace, downtime=1.0)
        assert result.num_failures == 0
        assert result.makespan == pytest.approx(11.0)

    def test_makespan_decomposition_invariant(self):
        trace = FailureTrace(
            events=(FailureEvent(2.0), FailureEvent(9.0), FailureEvent(25.0)), horizon=1e9
        )
        segments = [single_segment(6.0, 1.0, 1.5), single_segment(4.0, 0.5, 1.0)]
        result = simulate_segments(segments, trace, downtime=0.5)
        assert result.makespan == pytest.approx(result.useful_time + result.wasted_time)
        assert result.useful_time == pytest.approx(6.0 + 1.0 + 4.0 + 0.5)


class TestStochasticExecution:
    def test_simulated_mean_matches_prop1(self, rng):
        from repro.core.expected_time import expected_completion_time

        work, ckpt, downtime, recovery, rate = 10.0, 1.0, 0.5, 2.0, 0.05
        segment = Segment(
            tasks=("T",), work=work, checkpoint_cost=ckpt, recovery_cost=recovery,
            checkpointed=True,
        )
        makespans = [
            simulate_segments([segment], rate, downtime, rng=rng).makespan
            for _ in range(20000)
        ]
        analytic = expected_completion_time(work, ckpt, downtime, recovery, rate)
        assert np.mean(makespans) == pytest.approx(analytic, rel=0.03)

    def test_schedule_wrapper(self, rng):
        chain = uniform_random_chain(5, seed=31)
        schedule = Schedule.for_chain(chain, [2, 4])
        result = simulate_schedule(schedule, 0.01, 0.5, rng=rng)
        assert result.makespan >= chain.total_work()

    def test_seed_reproducibility(self):
        chain = uniform_random_chain(5, seed=32)
        schedule = Schedule.for_chain(chain, [4])
        a = simulate_schedule(schedule, 0.05, 0.5, seed=7)
        b = simulate_schedule(schedule, 0.05, 0.5, seed=7)
        assert a.makespan == b.makespan
        assert a.num_failures == b.num_failures

    def test_rejects_negative_downtime(self):
        with pytest.raises(ValueError):
            simulate_segments([single_segment()], 0.1, -1.0)

    def test_pathological_instance_aborts(self):
        # MTBF of 0.01 against a segment of length 1000: no run can ever finish.
        segment = Segment(
            tasks=("T",), work=1000.0, checkpoint_cost=0.0, recovery_cost=0.0, checkpointed=False
        )
        with pytest.raises(RuntimeError, match="failures"):
            simulate_segments([segment], 100.0, 0.0, seed=1)
