"""Failure sources: where the simulator gets its failure times from.

The executor (:mod:`repro.simulation.executor`) is agnostic to how failures
are produced; it only asks a :class:`FailureSource` for the delay until the
next platform failure, given the current simulation time.  Three sources are
provided:

* :class:`PoissonFailureSource` -- the paper's core model: platform failures
  form a Poisson process of rate ``lambda``.  Thanks to memorylessness the
  delay to the next failure is simply an Exponential draw, whatever happened
  before.
* :class:`RenewalPlatformFailureSource` -- the superposition of ``p``
  independent per-processor renewal processes with an arbitrary law (Weibull,
  log-normal).  This is the model of Section 6's third extension; each
  processor keeps its own age, and only the processor that failed is renewed
  (the paper criticises the "rejuvenate everybody" assumption of [12], which
  a platform with ``rejuvenate_all_on_failure=True`` reproduces).
* :class:`TraceFailureSource` -- deterministic replay of a generated
  :class:`~repro.failures.traces.FailureTrace` (synthetic stand-in for the
  Failure Trace Archive logs the paper's companion work uses).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Optional, Union

import numpy as np

from repro._validation import check_positive
from repro.failures.distributions import ExponentialFailure, FailureDistribution
from repro.failures.platform import Platform
from repro.failures.traces import FailureTrace

__all__ = [
    "FailureSource",
    "PoissonFailureSource",
    "RenewalPlatformFailureSource",
    "TraceFailureSource",
    "failure_source_for",
]


class FailureSource(ABC):
    """Produces the delay until the next platform failure.

    The executor calls :meth:`time_to_next_failure` with the current absolute
    time whenever it starts (or restarts) a work/checkpoint/recovery attempt,
    and calls :meth:`register_failure` when a failure has struck so the source
    can update its internal state (renew the failed processor, advance the
    trace cursor, ...).
    """

    @abstractmethod
    def time_to_next_failure(self, now: float) -> float:
        """Delay (>= 0, possibly ``inf``) until the next failure after time ``now``."""

    @abstractmethod
    def register_failure(self, time: float) -> None:
        """Inform the source that the failure it announced has struck at ``time``."""

    def reset(self) -> None:
        """Reset mutable state so the source can be reused for a fresh run."""


class PoissonFailureSource(FailureSource):
    """Platform failures as a Poisson process of rate ``rate`` (the paper's model).

    Memorylessness makes the implementation trivial: the delay to the next
    failure is always a fresh Exponential draw, and no state needs updating
    when a failure strikes.
    """

    def __init__(
        self,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[Union[int, np.random.SeedSequence]] = None,
    ) -> None:
        self.rate = check_positive("rate", rate)
        # The RNG is threaded, never created ad hoc: pass the caller's
        # generator, or a seed to derive one (seed=None keeps the historical
        # fresh-entropy behaviour, but as an explicit caller choice).
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._pending: Optional[float] = None

    def time_to_next_failure(self, now: float) -> float:
        # A fresh draw per query is correct for a Poisson process *because*
        # the executor only queries at the start of an attempt and the
        # remaining time to the next event is Exponential regardless of the
        # elapsed time (memorylessness).  (The chunked/vectorized execution
        # paths use repro.simulation.vectorized.PlannedPoissonSource instead,
        # which reads the same one-draw-per-attempt pattern from an
        # engine-neutral delay plan so the scalar event loop and the
        # segment-jumping batch kernel stay bit-identical.)
        return float(self._rng.exponential(1.0 / self.rate))

    def register_failure(self, time: float) -> None:
        # Nothing to update: the process is memoryless.
        return

    def reset(self) -> None:
        return


class RenewalPlatformFailureSource(FailureSource):
    """Superposition of per-processor renewal processes with an arbitrary law.

    Each of the ``p`` processors has an absolute next-failure time; the
    platform's next failure is the minimum of them.  When a failure strikes,
    only the failed processor is renewed (its next failure is redrawn from
    the failure time), unless the platform's ``rejuvenate_all_on_failure``
    field is set, in which case every processor restarts its clock -- the
    assumption of [12] the paper argues against, kept for comparison
    experiments.
    """

    def __init__(
        self,
        platform: Platform,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[Union[int, np.random.SeedSequence]] = None,
    ) -> None:
        self.platform = platform
        # Threaded RNG, same contract as PoissonFailureSource: an explicit
        # generator wins, otherwise one is derived from the explicit seed.
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._next_failures: List[float] = []
        self.reset()

    def reset(self) -> None:
        law = self.platform.failure_law
        self._next_failures = [
            float(law.sample(self._rng)) for _ in range(self.platform.num_processors)
        ]

    def time_to_next_failure(self, now: float) -> float:
        # Processors whose scheduled failure is already in the past (it fell
        # inside a downtime window, during which the paper says failures do
        # not occur) are renewed from their scheduled time until they point to
        # the future.
        law = self.platform.failure_law
        for index, t in enumerate(self._next_failures):
            while self._next_failures[index] <= now:
                self._next_failures[index] += float(law.sample(self._rng))
        return min(self._next_failures) - now

    def register_failure(self, time: float) -> None:
        law = self.platform.failure_law
        if self.platform.rejuvenate_all_on_failure:
            self._next_failures = [
                time + float(law.sample(self._rng)) for _ in self._next_failures
            ]
            return
        failed = min(range(len(self._next_failures)), key=lambda i: self._next_failures[i])
        self._next_failures[failed] = time + float(law.sample(self._rng))


class TraceFailureSource(FailureSource):
    """Deterministic replay of a synthetic failure trace.

    Once the trace is exhausted, no further failure ever strikes
    (``time_to_next_failure`` returns ``inf``); experiments should use traces
    whose horizon comfortably exceeds the expected makespan.
    """

    def __init__(self, trace: FailureTrace) -> None:
        self.trace = trace
        self._times = list(trace.times)
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def time_to_next_failure(self, now: float) -> float:
        while self._cursor < len(self._times) and self._times[self._cursor] <= now:
            self._cursor += 1
        if self._cursor >= len(self._times):
            return math.inf
        return self._times[self._cursor] - now

    def register_failure(self, time: float) -> None:
        while self._cursor < len(self._times) and self._times[self._cursor] <= time:
            self._cursor += 1


def failure_source_for(
    model: Union[float, FailureDistribution, Platform, FailureTrace, FailureSource],
    rng: Optional[np.random.Generator] = None,
) -> FailureSource:
    """Build the appropriate :class:`FailureSource` for a variety of model inputs.

    Accepted inputs:

    * a plain ``float`` -- interpreted as a platform failure rate ``lambda``
      (Poisson process);
    * an :class:`ExponentialFailure` -- Poisson process with that rate;
    * any other :class:`FailureDistribution` -- single-processor renewal
      process with that law;
    * a :class:`Platform` -- superposition of its per-processor laws (Poisson
      source when the law is Exponential, renewal source otherwise);
    * a :class:`FailureTrace` -- deterministic replay;
    * an existing :class:`FailureSource` -- returned unchanged.
    """
    if isinstance(model, FailureSource):
        return model
    if isinstance(model, (int, float)) and not isinstance(model, bool):
        return PoissonFailureSource(float(model), rng)
    if isinstance(model, ExponentialFailure):
        return PoissonFailureSource(model.rate, rng)
    if isinstance(model, FailureDistribution):
        platform = Platform(num_processors=1, failure_law=model)
        return RenewalPlatformFailureSource(platform, rng)
    if isinstance(model, Platform):
        if model.is_exponential:
            return PoissonFailureSource(model.platform_rate(), rng)
        return RenewalPlatformFailureSource(model, rng)
    if isinstance(model, FailureTrace):
        return TraceFailureSource(model)
    raise TypeError(
        "cannot build a failure source from "
        f"{type(model).__name__}; pass a rate, a distribution, a Platform, a "
        "FailureTrace or a FailureSource"
    )
