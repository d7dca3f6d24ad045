"""Platform model: ``p`` identical processors subject to failures.

The paper (Section 2) executes the whole application on ``p`` identical
processors under *full parallelism* (every task uses all processors), with a
coordinated checkpoint/rollback-recovery protocol at the system level.  A
failure of any single processor therefore interrupts the whole platform, which
is why the platform-level failure process is the superposition of the ``p``
per-processor processes.

This module provides:

* :class:`Platform` -- the static description (number of processors,
  per-processor failure law, downtime), able to produce the platform-level
  failure law (exact for Exponential, simulated for other laws) and to act as
  a failure-time source for the discrete-event simulator;
* :class:`ProcessorState` -- bookkeeping of a single processor's age, used
  when the failure law is not memoryless;
* the cascading-downtime upper bound discussed at the end of Section 3
  (a processor may fail while another one is down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro._validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)
from repro.failures.distributions import (
    ExponentialFailure,
    FailureDistribution,
)

__all__ = ["Platform", "ProcessorState"]


@dataclass
class ProcessorState:
    """Dynamic state of one processor inside a simulated platform.

    Attributes
    ----------
    index:
        Processor index in ``0..p-1``.
    next_failure:
        Absolute time of this processor's next failure.
    age:
        Time elapsed since this processor's last failure (or since the start
        of the simulation).  Only meaningful for non-memoryless laws.
    """

    index: int
    next_failure: float
    age: float = 0.0


@dataclass(frozen=True)
class Platform:
    """A platform of ``num_processors`` identical, individually failing processors.

    Parameters
    ----------
    num_processors:
        Number of processors ``p >= 1``.  The paper is agnostic to the
        granularity: a "processor" may be a core, a socket, or a cluster node.
    failure_law:
        Inter-arrival law of failures of a *single* processor.
    downtime:
        Downtime ``D >= 0`` incurred after each failure before recovery can
        start (rejuvenation/reboot or replacement by a spare).  Failures may
        strike during recovery but not during downtime (Section 2).
    rejuvenate_all_on_failure:
        When True, *all* processors restart their failure clocks after any
        platform failure -- the assumption the paper attributes to Bouguerra
        et al. [12] and criticises as unreasonable for Weibull laws.  Making
        it a platform field (rather than a per-call flag) lets every consumer
        of the platform -- the scalar
        :class:`~repro.simulation.engine.RenewalPlatformFailureSource`, the
        vectorized :func:`~repro.simulation.vectorized.simulate_renewal_batch`
        and :meth:`platform_failure_times` -- honour the same semantics, so
        experiments can quantify the difference on either engine.  For
        Exponential laws the flag has no observable effect (memorylessness).
    """

    num_processors: int = 1
    failure_law: FailureDistribution = field(
        default_factory=lambda: ExponentialFailure(rate=1e-5)
    )
    downtime: float = 0.0
    rejuvenate_all_on_failure: bool = False

    def __post_init__(self) -> None:
        check_positive_int("num_processors", self.num_processors)
        check_non_negative("downtime", self.downtime)
        if not isinstance(self.failure_law, FailureDistribution):
            raise TypeError(
                "failure_law must be a FailureDistribution, got "
                f"{type(self.failure_law).__name__}"
            )
        if not isinstance(self.rejuvenate_all_on_failure, bool):
            raise TypeError(
                "rejuvenate_all_on_failure must be a bool, got "
                f"{type(self.rejuvenate_all_on_failure).__name__}"
            )
        object.__setattr__(self, "downtime", float(self.downtime))

    # ------------------------------------------------------------------
    # Analytic view (Exponential platforms)
    # ------------------------------------------------------------------

    @property
    def is_exponential(self) -> bool:
        """True when the per-processor failure law is Exponential."""
        return isinstance(self.failure_law, ExponentialFailure)

    def platform_rate(self) -> float:
        """Platform failure rate ``lambda = p * lambda_proc`` (Exponential only).

        Raises
        ------
        ValueError
            If the per-processor law is not Exponential: for Weibull or
            log-normal laws the superposition is not a renewal process with a
            single scalar rate, and the paper (Section 6) resorts to
            simulation in that case.
        """
        if not self.is_exponential:
            raise ValueError(
                "platform_rate() is only defined for Exponential failure laws; "
                "use platform_failure_times() / the simulator for other laws"
            )
        law: ExponentialFailure = self.failure_law  # type: ignore[assignment]
        return law.rate * self.num_processors

    def platform_failure_law(self) -> ExponentialFailure:
        """Return the Exponential law of platform-level failures (Exponential only)."""
        return ExponentialFailure(rate=self.platform_rate())

    def platform_mtbf(self) -> float:
        """Mean time between *platform* failures.

        Exact (``1 / (p * lambda_proc)``) for Exponential laws; for other laws
        the per-processor MTBF divided by ``p`` is returned as the standard
        approximation used throughout the resilience literature.
        """
        if self.is_exponential:
            return 1.0 / self.platform_rate()
        return self.failure_law.mean() / self.num_processors

    def expected_downtime(self) -> float:
        """Expected downtime per failure, accounting for cascading downtimes.

        With a single processor the downtime has the constant value ``D``.
        With several processors a processor can fail while another one is
        down, leading to cascading downtimes; the exact expectation is
        unknown, but the paper (end of Section 3, citing RR-7876) notes that
        the lower bound ``D(p) = D(1) = D`` is very accurate in practice and
        that an upper bound can be computed.  We return the lower bound ``D``
        here and expose the upper bound separately.
        """
        return self.downtime

    def downtime_upper_bound(self) -> float:
        """Upper bound on the expected downtime per failure with cascades.

        While the platform is down (for ``D`` time units) each of the other
        ``p - 1`` processors may fail; each such failure can prolong the
        outage by at most another ``D``.  Iterating the argument gives the
        geometric bound ``D / (1 - q)`` where ``q`` is the probability that at
        least one of the remaining processors fails during a window of length
        ``D``.  The bound is only meaningful when ``q < 1``; otherwise
        ``inf`` is returned.
        """
        if self.downtime == 0.0 or self.num_processors == 1:
            return self.downtime
        # Probability that at least one of the other p-1 processors fails
        # during a window of length D.
        survive_one = self.failure_law.survival(self.downtime)
        q = 1.0 - survive_one ** (self.num_processors - 1)
        if q >= 1.0:
            return math.inf
        return self.downtime / (1.0 - q)

    # ------------------------------------------------------------------
    # Simulation view (any law)
    # ------------------------------------------------------------------

    def initial_states(self, rng: np.random.Generator) -> List[ProcessorState]:
        """Draw the initial next-failure time of every processor."""
        return [
            ProcessorState(index=i, next_failure=float(self.failure_law.sample(rng)))
            for i in range(self.num_processors)
        ]

    def platform_failure_times(
        self,
        rng: np.random.Generator,
        horizon: float,
    ) -> List[float]:
        """Generate the absolute platform-level failure times up to ``horizon``.

        The platform process is the superposition of the ``p`` per-processor
        renewal processes: each processor independently fails and is renewed
        (its clock restarts) after its own failures, or every processor after
        any failure when :attr:`rejuvenate_all_on_failure` is set.

        Parameters
        ----------
        rng:
            Source of randomness.
        horizon:
            Generate failures strictly before this absolute time.
        """
        check_positive("horizon", horizon)
        states = self.initial_states(rng)
        failures: List[float] = []
        guard = 0
        max_events = 10_000_000
        while True:
            nxt = min(states, key=lambda s: s.next_failure)
            t = nxt.next_failure
            if t >= horizon:
                break
            failures.append(t)
            if self.rejuvenate_all_on_failure:
                for s in states:
                    s.next_failure = t + float(self.failure_law.sample(rng))
            else:
                nxt.next_failure = t + float(self.failure_law.sample(rng))
            guard += 1
            if guard > max_events:
                raise RuntimeError(
                    "platform_failure_times generated more than "
                    f"{max_events} events; horizon={horizon} is probably too large "
                    "for the given failure law"
                )
        return failures

    def sample_time_to_next_failure(
        self,
        rng: np.random.Generator,
        states: Optional[List[ProcessorState]] = None,
        now: float = 0.0,
    ) -> float:
        """Sample the delay until the next platform failure.

        For Exponential laws this is a single draw from the superposed law;
        for other laws it requires per-processor state, which the caller can
        maintain via :meth:`initial_states` and update itself, or omit to get
        a fresh (stationary-ignored) superposition draw.
        """
        if self.is_exponential:
            return float(self.platform_failure_law().sample(rng))
        if states is None:
            draws = [float(self.failure_law.sample(rng)) for _ in range(self.num_processors)]
            return min(draws)
        return min(s.next_failure for s in states) - now

    def describe(self) -> str:
        """Human-readable one-line description of the platform."""
        law = type(self.failure_law).__name__
        return (
            f"Platform(p={self.num_processors}, law={law}, "
            f"MTBF_platform={self.platform_mtbf():.6g}, D={self.downtime})"
        )
