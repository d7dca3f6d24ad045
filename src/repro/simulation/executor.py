"""The execution engine: replay a schedule against injected failures.

The executor applies the paper's execution model (Section 2) literally:

* the tasks of a segment are executed in order; when the segment's final
  checkpoint (if any) commits, progress is saved;
* if a failure strikes at any point during the segment's work, its checkpoint,
  or a recovery, all progress since the last committed checkpoint is lost;
* each failure incurs a downtime ``D`` (during which no further failure
  strikes) followed by a recovery of duration equal to the segment's recovery
  cost; recoveries themselves may be interrupted by failures;
* the makespan is the time at which the last segment (and its checkpoint, if
  any) completes.

The executor works at the granularity of the :class:`~repro.core.schedule.Segment`
decomposition, which is exact: within a segment every failure rolls back to
the same point, so the internal task boundaries never matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import check_non_negative
from repro.core.schedule import Schedule, Segment
from repro.simulation.engine import FailureSource, PoissonFailureSource, failure_source_for

__all__ = ["SimulationResult", "replay_trace", "simulate_schedule", "simulate_segments"]

# A run that suffers this many failures is aborted: with sane parameters the
# expected number of failures per segment is small, so hitting the cap almost
# certainly indicates an instance whose expected makespan is astronomically
# large (the analytic formula would overflow on it too).
_MAX_FAILURES_PER_RUN = 10_000_000
# A Poisson segment of length d needs e^{lambda d} attempts on average.  One
# whose expectation exceeds 1e6 times the cap is refused before the run: it
# finishes within the cap with probability below 1e-6, after ~1e7 attempts.
_MAX_LOG_EXPECTED_ATTEMPTS = math.log(1e6 * _MAX_FAILURES_PER_RUN)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    makespan:
        Total time from start to the completion of the last segment.
    num_failures:
        Number of failures that struck during the run.
    wasted_time:
        Time spent on work/checkpoint/recovery attempts that were lost to
        failures, plus downtimes.  ``makespan = useful_time + wasted_time``.
    useful_time:
        Time spent on work and checkpoints that were eventually committed.
    num_recovery_attempts:
        Number of recovery attempts (a single failure can trigger several if
        recoveries themselves fail).
    """

    makespan: float
    num_failures: int
    wasted_time: float
    useful_time: float
    num_recovery_attempts: int

    def __post_init__(self) -> None:
        if self.makespan < 0 or self.wasted_time < 0 or self.useful_time < 0:
            raise ValueError("simulation times must be non-negative")


def simulate_segments(
    segments: Sequence[Segment],
    failure_model: Union[float, FailureSource, object],
    downtime: float,
    *,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """Simulate the execution of a sequence of segments under failures.

    Parameters
    ----------
    segments:
        The segment decomposition of a schedule (see
        :meth:`repro.core.schedule.Schedule.segments`).
    failure_model:
        Anything :func:`repro.simulation.engine.failure_source_for` accepts:
        a platform rate, a failure distribution, a :class:`Platform`, a
        :class:`FailureTrace`, or a ready-made :class:`FailureSource`.
    downtime:
        Downtime ``D`` after each failure.
    rng, seed:
        Randomness used both to build stochastic failure sources and by those
        sources; ``seed`` is ignored when ``rng`` is given.

    A run that suffers more than ``_MAX_FAILURES_PER_RUN`` failures raises
    ``RuntimeError``.  Under a :class:`PoissonFailureSource` the error comes
    before any draw when a segment's expected number of attempts,
    ``e^{rate (work + checkpoint_cost)}``, exceeds 1e6 times that cap.
    """
    check_non_negative("downtime", downtime)
    if rng is None:
        rng = np.random.default_rng(seed)
    source = failure_source_for(failure_model, rng)
    if isinstance(source, PoissonFailureSource):
        _refuse_hopeless_segments(segments, source.rate)

    now = 0.0
    wasted = 0.0
    useful = 0.0
    failures = 0
    recovery_attempts = 0

    for segment in segments:
        duration = segment.work + segment.checkpoint_cost
        while True:
            delay = source.time_to_next_failure(now)
            if delay >= duration:
                # The whole segment (work + checkpoint) completes before the
                # next failure.
                now += duration
                useful += duration
                break

            # A failure interrupts the attempt.
            failures += 1
            if failures > _MAX_FAILURES_PER_RUN:
                raise RuntimeError(
                    "simulation aborted after "
                    f"{_MAX_FAILURES_PER_RUN} failures; the instance parameters make "
                    "completion astronomically unlikely"
                )
            now += delay
            wasted += delay
            source.register_failure(now)

            # Downtime: failures cannot strike during it (Section 2).
            now += downtime
            wasted += downtime

            # Recovery attempts, which may themselves be interrupted.
            while True:
                recovery_attempts += 1
                recovery_delay = source.time_to_next_failure(now)
                if recovery_delay >= segment.recovery_cost:
                    now += segment.recovery_cost
                    wasted += segment.recovery_cost
                    break
                failures += 1
                if failures > _MAX_FAILURES_PER_RUN:
                    raise RuntimeError(
                        "simulation aborted after "
                        f"{_MAX_FAILURES_PER_RUN} failures; the instance parameters make "
                        "completion astronomically unlikely"
                    )
                now += recovery_delay
                wasted += recovery_delay
                source.register_failure(now)
                now += downtime
                wasted += downtime

    return SimulationResult(
        makespan=now,
        num_failures=failures,
        wasted_time=wasted,
        useful_time=useful,
        num_recovery_attempts=recovery_attempts,
    )


def replay_trace(
    durations: Sequence[Tuple[float, float]],
    times: Sequence[float],
    downtime: float,
) -> float:
    """Makespan of one run against a trace's event times, as plain floats.

    ``durations`` holds one ``(segment.work + segment.checkpoint_cost,
    segment.recovery_cost)`` pair per segment, ``times`` a trace's sorted
    event times ending in a ``math.inf`` sentinel (a row of
    :func:`~repro.failures.traces.iter_trace_times`), and ``downtime`` is
    non-negative.  The result equals ``simulate_segments(segments,
    TraceFailureSource(trace), downtime).makespan`` bit for bit: the loop
    performs the same floating-point operations in the same order (skip the
    events at or before ``now``, ``delay = t - now``, test ``delay >=
    duration``; on a failure ``now += delay`` then ``now += downtime``), and
    skips the source calls and the :class:`SimulationResult`.

    It keeps no failure count.  A failure consumes its trace event, or
    leaves ``now`` within rounding of it so that the next failure does, and
    a generated trace holds at most 5e6 events: the executor's cap of 1e7
    failures cannot be passed.
    """
    now = 0.0
    index = 0
    t = times[0]
    for duration, recovery in durations:
        while True:
            while t <= now:
                index += 1
                t = times[index]
            delay = t - now
            if delay >= duration:
                now += duration
                break
            now += delay
            now += downtime
            while True:
                while t <= now:
                    index += 1
                    t = times[index]
                delay = t - now
                if delay >= recovery:
                    now += recovery
                    break
                now += delay
                now += downtime
    return now


def _refuse_hopeless_segments(segments: Sequence[Segment], rate: float) -> None:
    """Raise the failure-cap ``RuntimeError`` up front for a segment no run can finish."""
    for segment in segments:
        length = segment.work + segment.checkpoint_cost
        if rate * length > _MAX_LOG_EXPECTED_ATTEMPTS:
            raise RuntimeError(
                f"simulation refused: a segment of length {length:g} at failure rate "
                f"{rate:g} expects e^{rate * length:.6g} attempts, more than 1e6 times "
                f"the cap of {_MAX_FAILURES_PER_RUN} failures per run; the instance "
                "parameters make completion astronomically unlikely"
            )


def simulate_schedule(
    schedule: Schedule,
    failure_model: Union[float, FailureSource, object],
    downtime: float,
    *,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """Simulate one execution of a :class:`~repro.core.schedule.Schedule`.

    Convenience wrapper around :func:`simulate_segments` using the schedule's
    own segment decomposition.
    """
    return simulate_segments(schedule.segments(), failure_model, downtime, rng=rng, seed=seed)
