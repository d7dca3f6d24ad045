"""Synthetic failure traces and trace statistics.

The paper's companion work [13] evaluates heuristics "using either synthetic
traces or failure logs of production clusters" from the Failure Trace Archive
[21].  Production logs are not redistributable here, so every trace the
simulators replay is generated from a
:class:`~repro.failures.distributions.FailureDistribution` (Exponential,
Weibull with shape < 1 as reported by Schroeder & Gibson, or log-normal as
advocated by Heien et al.) and replayed deterministically by the
discrete-event simulator.

A :class:`FailureTrace` is simply a sorted sequence of absolute failure
timestamps for a whole platform, together with per-event metadata (which
processor failed).  :class:`TraceStatistics` computes the usual summary
statistics (MTBF, coefficient of variation, extreme gaps) used to
sanity-check that generated traces have the intended characteristics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro._validation import check_positive, check_positive_int
from repro.failures.distributions import FailureDistribution

__all__ = [
    "FailureEvent",
    "FailureTrace",
    "TraceStatistics",
    "generate_trace",
    "iter_trace_times",
]

#: Most events one generated trace may hold.
_MAX_TRACE_EVENTS = 5_000_000
#: Most variates :func:`iter_trace_times` draws in one block (512 KiB).
_MAX_BLOCK_DRAWS = 65_536


@dataclass(frozen=True, order=True)
class FailureEvent:
    """A single failure event in a trace.

    Attributes
    ----------
    time:
        Absolute timestamp of the failure (same unit as task durations).
    processor:
        Index of the processor that failed (0-based); ``-1`` when unknown.
    """

    time: float
    processor: int = -1

    def __post_init__(self) -> None:
        if self.time < 0.0 or not math.isfinite(self.time):
            raise ValueError(f"failure time must be finite and >= 0, got {self.time!r}")


@dataclass(frozen=True)
class FailureTrace:
    """An immutable, time-sorted sequence of platform failure events."""

    events: Tuple[FailureEvent, ...]
    horizon: float
    num_processors: int = 1

    def __post_init__(self) -> None:
        check_positive("horizon", self.horizon)
        check_positive_int("num_processors", self.num_processors)
        events = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", events)
        for event in events:
            if event.time > self.horizon:
                raise ValueError(
                    f"event at t={event.time} exceeds trace horizon {self.horizon}"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def times(self) -> List[float]:
        """Absolute failure timestamps, sorted increasingly."""
        return [e.time for e in self.events]

    def inter_arrival_times(self) -> List[float]:
        """Delays between consecutive platform failures (first delay from t=0)."""
        times = self.times
        if not times:
            return []
        deltas = [times[0]]
        deltas.extend(b - a for a, b in zip(times, times[1:]))
        return deltas

    def statistics(self) -> "TraceStatistics":
        """Summary statistics of the trace."""
        return TraceStatistics.from_trace(self)


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a failure trace.

    Attributes
    ----------
    count:
        Number of failures in the trace.
    mtbf:
        Empirical mean inter-arrival time (platform level).
    std:
        Empirical standard deviation of inter-arrival times.
    cv:
        Coefficient of variation (std / mean); 1 for Exponential, > 1 for
        Weibull shapes below one, typically < 1 for shapes above one.
    min_gap, max_gap:
        Extreme inter-arrival times.
    """

    count: int
    mtbf: float
    std: float
    cv: float
    min_gap: float
    max_gap: float

    @classmethod
    def from_trace(cls, trace: FailureTrace) -> "TraceStatistics":
        gaps = trace.inter_arrival_times()
        if not gaps:
            return cls(count=0, mtbf=math.inf, std=0.0, cv=0.0, min_gap=math.inf, max_gap=0.0)
        arr = np.asarray(gaps, dtype=float)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        cv = std / mean if mean > 0 else 0.0
        return cls(
            count=len(gaps),
            mtbf=mean,
            std=std,
            cv=cv,
            min_gap=float(arr.min()),
            max_gap=float(arr.max()),
        )


def generate_trace(
    law: FailureDistribution,
    horizon: float,
    *,
    num_processors: int = 1,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> FailureTrace:
    """Generate a synthetic platform failure trace.

    Each of the ``num_processors`` processors fails according to an
    independent renewal process with inter-arrival law ``law``; the platform
    trace is the superposition of the per-processor traces (any single
    processor failure interrupts the coordinated application).

    Parameters
    ----------
    law:
        Per-processor failure inter-arrival law.
    horizon:
        Length of the trace (absolute time).
    num_processors:
        Platform size ``p``.
    rng, seed:
        Randomness source; ``seed`` is ignored when ``rng`` is given.
    """
    check_positive("horizon", horizon)
    check_positive_int("num_processors", num_processors)
    if rng is None:
        rng = np.random.default_rng(seed)
    events: List[FailureEvent] = []
    for proc in range(num_processors):
        t = 0.0
        while True:
            t += float(law.sample(rng))
            if t >= horizon:
                break
            events.append(FailureEvent(time=t, processor=proc))
            if len(events) > _MAX_TRACE_EVENTS:
                raise _too_many_events()
    return FailureTrace(events=tuple(events), horizon=horizon, num_processors=num_processors)


def _too_many_events() -> RuntimeError:
    return RuntimeError(
        "generate_trace produced more than 5e6 events; "
        "reduce the horizon or the failure rate"
    )


def iter_trace_times(
    law: FailureDistribution,
    horizon: float,
    count: int,
    *,
    num_processors: int,
    rng: np.random.Generator,
) -> Iterator[List[float]]:
    """Yield the event times of ``count`` successive traces, drawn in blocks.

    Row ``i`` is ``generate_trace(law, horizon, num_processors=num_processors,
    rng=rng).times`` of the ``i``-th of ``count`` successive calls on ``rng``,
    followed by a ``math.inf`` sentinel: the same floats, with no
    :class:`FailureEvent` built.  The variates come from
    ``law.sample(rng, size=k)`` blocks, which hold the same values as one
    scalar draw at a time (NumPy's ``Generator`` is batch-invariant), and
    they are folded by ``generate_trace``'s own rule: per processor
    ``t += x`` until ``t >= horizon``, then the processors' times are merged
    in order.  Only ``rng``'s state after the last row differs: it has drawn
    the rest of the last block.

    ``k`` is the expected number of draws of all ``count`` traces,
    ``count * num_processors * (horizon / law.mean() + 1)``, capped at
    :data:`_MAX_BLOCK_DRAWS`, so one trace and one block are held in memory.  A trace of more than 5e6 events
    raises ``generate_trace``'s ``RuntimeError``.
    """
    check_positive("horizon", horizon)
    check_positive_int("num_processors", num_processors)
    check_positive_int("count", count)
    try:
        renewals = horizon / law.mean()
    except OverflowError:  # a mean beyond float range: about one draw each
        renewals = 0.0
    size = math.ceil(min(_MAX_BLOCK_DRAWS, count * num_processors * (renewals + 1.0)))
    # An endless stream of draws, one block at a time; a `for` loop that
    # breaks out of it resumes where it stopped on the next pass.
    draws = itertools.chain.from_iterable(
        iter(lambda: law.sample(rng, size=size).tolist(), None)
    )
    for _ in range(count):
        times: List[float] = []
        append = times.append
        for _ in range(num_processors):
            t = 0.0
            # Running out of these draws means the trace passed the cap.
            for x in itertools.islice(draws, _MAX_TRACE_EVENTS + 1 - len(times)):
                t += x
                if t >= horizon:
                    break
                append(t)
            else:
                raise _too_many_events()
        if num_processors > 1:
            times.sort()
        append(math.inf)
        yield times
