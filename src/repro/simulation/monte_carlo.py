"""Monte-Carlo estimation of expected makespans.

Averaging many independent simulated runs gives an unbiased estimator of the
expected makespan of a schedule, together with a confidence interval.  This is
the machinery behind experiment E1 (validating the Proposition 1 closed form
against simulation) and behind every experiment involving non-Exponential
failure laws, for which no closed form exists (Section 6).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import check_non_negative, check_positive, check_positive_int
from repro.obs import tracing as _tracing
from repro.core.schedule import Schedule, Segment
from repro.failures.distributions import ExponentialFailure, FailureDistribution
from repro.failures.platform import Platform
from repro.runtime.backends import ExecutionBackend, backend_scope, resolve_engine
from repro.runtime.cache import ResultCache
from repro.runtime.chunking import plan_chunks
from repro.simulation._obs import observe_chunk
from repro.simulation.engine import FailureSource, failure_source_for
from repro.simulation.executor import SimulationResult, simulate_segments
from repro.simulation.vectorized import (
    PlannedExponentialDelays,
    PlannedPoissonSource,
    simulate_poisson_batch,
    simulate_renewal_batch,
)

__all__ = [
    "MonteCarloEstimate",
    "MonteCarloEstimator",
    "estimate_expected_completion_time",
]

# Two-sided 95% and 99% normal quantiles, used for confidence intervals.
_Z95 = 1.959963984540054
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Summary of a Monte-Carlo estimation run.

    Attributes
    ----------
    mean:
        Sample mean of the makespans (the estimate of the expectation).
    std:
        Sample standard deviation (ddof=1).
    sem:
        Standard error of the mean.
    num_runs:
        Number of simulated runs.
    ci95_low, ci95_high:
        95% normal-approximation confidence interval for the expectation.
    mean_failures:
        Average number of failures per run.
    mean_wasted:
        Average wasted time per run.
    """

    mean: float
    std: float
    sem: float
    num_runs: int
    ci95_low: float
    ci95_high: float
    mean_failures: float
    mean_wasted: float

    def ci99(self) -> tuple:
        """99% normal-approximation confidence interval."""
        return (self.mean - _Z99 * self.sem, self.mean + _Z99 * self.sem)

    def contains(self, value: float, *, level: float = 0.95) -> bool:
        """True when ``value`` lies inside the requested confidence interval."""
        if level == 0.95:
            return self.ci95_low <= value <= self.ci95_high
        if level == 0.99:
            low, high = self.ci99()
            return low <= value <= high
        raise ValueError(f"unsupported confidence level {level}; use 0.95 or 0.99")

    def relative_error(self, reference: float) -> float:
        """Relative deviation of the estimate from a reference value."""
        if reference == 0.0:
            return math.inf if self.mean != 0.0 else 0.0
        return abs(self.mean - reference) / abs(reference)

    @classmethod
    def from_samples(
        cls,
        makespans: np.ndarray,
        num_failures: np.ndarray,
        wasted_times: np.ndarray,
    ) -> "MonteCarloEstimate":
        """Aggregate per-run sample arrays into an estimate."""
        makespans = np.asarray(makespans, dtype=float)
        if makespans.size == 0:
            raise ValueError("cannot build an estimate from zero runs")
        mean = float(makespans.mean())
        std = float(makespans.std(ddof=1)) if len(makespans) > 1 else 0.0
        sem = std / math.sqrt(len(makespans)) if len(makespans) > 1 else 0.0
        return cls(
            mean=mean,
            std=std,
            sem=sem,
            num_runs=len(makespans),
            ci95_low=mean - _Z95 * sem,
            ci95_high=mean + _Z95 * sem,
            mean_failures=float(np.mean(np.asarray(num_failures, dtype=float))),
            mean_wasted=float(np.mean(np.asarray(wasted_times, dtype=float))),
        )


class MonteCarloEstimator:
    """Estimate the expected makespan of a schedule (or raw segments) by simulation.

    Parameters
    ----------
    target:
        Either a :class:`~repro.core.schedule.Schedule` or an explicit list of
        :class:`~repro.core.schedule.Segment` objects.
    failure_model:
        A platform failure rate, a
        :class:`~repro.failures.distributions.FailureDistribution`, a
        :class:`~repro.failures.platform.Platform` or a ready-made
        :class:`~repro.simulation.engine.FailureSource`; anything else raises
        :class:`TypeError`.  Stochastic sources are re-created per run from
        the chunk's RNG stream so runs are independent.
    downtime:
        Downtime ``D`` applied after each failure.
    failure_model_factory:
        Optional callable ``rng -> failure model`` used instead of
        ``failure_model`` to build an independent model per run (e.g. a fresh
        synthetic trace from :func:`~repro.failures.traces.generate_trace`).
    """

    def __init__(
        self,
        target: Union[Schedule, Sequence[Segment]],
        failure_model: Union[float, FailureDistribution, Platform, FailureSource, None] = None,
        downtime: float = 0.0,
        *,
        failure_model_factory: Optional[Callable[[np.random.Generator], object]] = None,
    ) -> None:
        if isinstance(target, Schedule):
            self._segments = target.segments()
        else:
            self._segments = list(target)
            if not self._segments:
                raise ValueError("target must contain at least one segment")
        if failure_model is None and failure_model_factory is None:
            raise ValueError("provide failure_model or failure_model_factory")
        if failure_model is not None and (
            isinstance(failure_model, bool)
            or not isinstance(
                failure_model, (int, float, FailureDistribution, Platform, FailureSource)
            )
        ):
            raise TypeError(
                f"cannot use {type(failure_model).__name__} as a failure_model; pass "
                "a rate, a FailureDistribution, a Platform or a FailureSource"
            )
        self._failure_model = failure_model
        self._failure_model_factory = failure_model_factory
        self.downtime = check_non_negative("downtime", downtime)

    def run_once(
        self,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate a single run."""
        if rng is None:
            rng = np.random.default_rng(seed)
        model = (
            self._failure_model_factory(rng)
            if self._failure_model_factory is not None
            else self._failure_model
        )
        source = failure_source_for(model, rng)
        source.reset()
        return simulate_segments(self._segments, source, self.downtime, rng=rng)

    def _vector_mode(self) -> Tuple[Optional[str], object]:
        """How the vectorized engine can treat this estimator's failure model.

        Returns ``("poisson", rate)`` for memoryless models (the exact array
        fast path), ``("renewal", platform)`` for non-memoryless renewal
        platforms (the statistical batch path), and ``(None, None)`` for
        models the vectorized engine cannot batch (ready-made sources,
        factories) -- those fall back to the scalar event loop and therefore
        produce results identical to ``engine="scalar"``.
        """
        if self._failure_model_factory is not None:
            return None, None
        model = self._failure_model
        if isinstance(model, (int, float)):
            return "poisson", float(model)
        if isinstance(model, ExponentialFailure):
            return "poisson", model.rate
        if isinstance(model, Platform):
            if model.is_exponential:
                return "poisson", model.platform_rate()
            return "renewal", model
        if isinstance(model, FailureDistribution):
            return "renewal", Platform(num_processors=1, failure_law=model)
        return None, None

    def estimate(
        self,
        num_runs: int,
        *,
        seed: Optional[int] = None,
        backend: Union[None, int, str, ExecutionBackend] = None,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        engine: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> MonteCarloEstimate:
        """Simulate ``num_runs`` independent runs and aggregate them.

        The budget is cut into deterministic chunks with independent spawned
        RNG streams (:mod:`repro.runtime.chunking`), so the samples are
        defined by ``(seed, chunk plan, engine)`` alone: bit-identical
        *whatever the backend or worker count* (serial by default), and a
        warm :class:`~repro.runtime.cache.ResultCache` replays them without
        simulating.

        ``engine`` selects how each chunk executes: ``"scalar"`` (the Python
        event loop, the default) or ``"vectorized"`` (the NumPy array
        program of :mod:`repro.simulation.vectorized`, which simulates the
        whole chunk at once -- jumping whole runs of successful segments per
        round on the memoryless fast path).  For memoryless failure models the two
        engines consume an engine-neutral delay plan and are **bit-identical**
        for the same ``(seed, chunk_size)`` -- they even share cache entries;
        for renewal laws (Weibull, log-normal) the vectorized engine batches
        its draws and is statistically equivalent instead.  The backend only
        places the chunks; it never changes the engine.

        ``progress`` is an optional ``callback(done, total)`` reporting how
        many of the estimate's deterministic chunks have completed, with the
        same contract as :meth:`~repro.simulation.campaign.CampaignRunner.run`:
        it fires once with ``(0, total)`` before execution, then after every
        chunk (a cache hit reports ``(total, total)`` immediately), and
        exceptions it raises abort the estimation -- which is how the
        scenario service implements cooperative cancellation.
        """
        check_positive_int("num_runs", num_runs)
        engine = resolve_engine(engine)
        plan = plan_chunks(num_runs, chunk_size)
        if progress is not None:
            progress(0, plan.num_chunks)
        store = None
        key = None
        if cache is not None:
            if seed is None:
                raise ValueError("caching requires an explicit seed (the key includes it)")
            if self._failure_model_factory is not None:
                raise ValueError(
                    "cannot cache estimates built from a failure_model_factory "
                    "(arbitrary callables have no stable content hash); pass a "
                    "failure model instead"
                )
            payload = {
                "kind": "monte_carlo_estimate",
                "segments": self._segments,
                "failure_model": self._failure_model,
                "downtime": self.downtime,
                "num_runs": num_runs,
                "seed": seed,
                "chunk_size": plan.chunk_size,
            }
            # The engine is part of the key only when it can change the
            # samples: on the memoryless fast path both engines consume the
            # same delay plan and share entries (a cache warmed by one engine
            # replays through the other); models the vectorized engine cannot
            # batch fall back to the scalar loop and share entries too.
            # Renewal batching reorders its draws, so that mode keys per
            # engine.
            if engine == "vectorized" and self._vector_mode()[0] == "renewal":
                payload["engine"] = "vectorized"
            store = cache.with_namespace("monte_carlo")
            key = store.key_for(payload)
            entry = store.get(key)
            if entry is not None:
                _, arrays = entry
                if progress is not None:
                    progress(plan.num_chunks, plan.num_chunks)
                return MonteCarloEstimate.from_samples(
                    arrays["makespans"], arrays["num_failures"], arrays["wasted_times"]
                )
        # Each task carries a trace-context snapshot so chunk spans executed
        # in pool workers keep the submitting request's correlation id.  It
        # never rides into the cache key (keys hash the payload dict above,
        # never the task tuple), so instrumentation cannot perturb replay.
        obs_context = _tracing.context_snapshot()
        tasks = [
            (self, chunk_seed, size, engine, obs_context)
            for chunk_seed, size in zip(plan.seeds(seed), plan.sizes)
        ]
        with backend_scope(backend) as executor:
            if progress is None:
                chunks = executor.map(_estimate_chunk, tasks)
            else:
                chunks = []
                for chunk in executor.imap(_estimate_chunk, tasks):
                    chunks.append(chunk)
                    progress(len(chunks), plan.num_chunks)
        # Chunk spans recorded in pool workers ride back as the 4th element;
        # folding them in here (while the job's trace is still open) is what
        # puts worker chunks into the persisted per-job trace tree.
        for chunk in chunks:
            _tracing.absorb_spans(chunk[3])
        makespans = np.concatenate([c[0] for c in chunks])
        num_failures = np.concatenate([c[1] for c in chunks])
        wasted_times = np.concatenate([c[2] for c in chunks])
        estimate = MonteCarloEstimate.from_samples(makespans, num_failures, wasted_times)
        if store is not None and key is not None:
            store.put(
                key,
                {"kind": "monte_carlo_estimate", "num_runs": num_runs, "seed": seed,
                 "chunk_size": plan.chunk_size, "mean": estimate.mean},
                {"makespans": makespans, "num_failures": num_failures,
                 "wasted_times": wasted_times},
            )
        return estimate


def _estimate_chunk(
    args: Tuple[
        "MonteCarloEstimator", np.random.SeedSequence, int, str, Optional[Dict[str, Any]],
    ],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
    """Simulate one chunk of replications (runs in a worker process).

    Module-level so process pools can pickle it; the estimator itself travels
    with the task (its segments, failure model and factory must therefore be
    picklable -- lambdas as ``failure_model_factory`` only work serially).
    The trailing ``obs`` element is the submitting context's trace snapshot
    (or None): the chunk's span and metrics carry the originating request's
    correlation id even when executing in another thread or process, and the
    span records it produces ride back as the result's 4th element (empty when
    the chunk ran inside the originating trace's own context).  The sample
    arrays are untouched by instrumentation, so bit-identity is preserved.
    """
    estimator, chunk_seed, count, engine, obs = args
    start = time.perf_counter()
    with _tracing.shipping_trace(obs) as shipped:
        with _tracing.span("mc.chunk", engine=engine, runs=count):
            samples = _estimate_chunk_samples(estimator, chunk_seed, count, engine)
    observe_chunk("monte_carlo", engine, count, time.perf_counter() - start)
    return samples + (shipped,)


def _estimate_chunk_samples(
    estimator: "MonteCarloEstimator",
    chunk_seed: np.random.SeedSequence,
    count: int,
    engine: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The actual chunk simulation (see :func:`_estimate_chunk`).

    For memoryless failure models, both engines draw their attempt delays
    from one engine-neutral :class:`PlannedExponentialDelays` built from the
    chunk's RNG stream: the scalar engine reads it replication by replication
    through the event loop, the vectorized engine in windowed jumps over each
    replication's delay row (falling back to lock-step rounds when failures
    are dense), and the two are bit-identical by construction.  Renewal
    models batch their draws on the vectorized engine (statistically
    equivalent); models the vectorized engine cannot batch always take the
    scalar loop.
    """
    rng = np.random.default_rng(chunk_seed)
    mode, resolved = estimator._vector_mode()
    segments = estimator._segments
    if mode == "poisson":
        plan = PlannedExponentialDelays(
            rng, 1.0 / resolved, count, first_rounds=len(segments) + 4
        )
        if engine == "vectorized":
            batch = simulate_poisson_batch(
                segments, resolved, estimator.downtime, rng, count, plan=plan
            )
            return batch.makespans, batch.num_failures, batch.wasted_times
        makespans = np.empty(count, dtype=float)
        num_failures = np.empty(count, dtype=float)
        wasted_times = np.empty(count, dtype=float)
        for index in range(count):
            source = PlannedPoissonSource(plan, index)
            result = simulate_segments(
                segments, source, estimator.downtime, rng=rng
            )
            makespans[index] = result.makespan
            num_failures[index] = result.num_failures
            wasted_times[index] = result.wasted_time
        return makespans, num_failures, wasted_times
    if engine == "vectorized" and mode == "renewal":
        batch = simulate_renewal_batch(
            segments, resolved, estimator.downtime, rng, count
        )
        return batch.makespans, batch.num_failures, batch.wasted_times
    makespans = np.empty(count, dtype=float)
    num_failures = np.empty(count, dtype=float)
    wasted_times = np.empty(count, dtype=float)
    for index in range(count):
        result = estimator.run_once(rng)
        makespans[index] = result.makespan
        num_failures[index] = result.num_failures
        wasted_times[index] = result.wasted_time
    return makespans, num_failures, wasted_times


def estimate_expected_completion_time(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    rate: float,
    *,
    num_runs: int = 10_000,
    seed: Optional[int] = None,
    backend: Union[None, int, str, ExecutionBackend] = None,
    cache: Optional[ResultCache] = None,
    chunk_size: Optional[int] = None,
    engine: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of ``E[T(W, C, D, R, lambda)]`` (experiment E1).

    Simulates the exact scenario of Proposition 1 -- one work segment of
    duration ``work`` followed by a checkpoint of duration ``checkpoint``,
    under Poisson failures of rate ``rate`` with downtime ``downtime`` and
    recovery ``recovery`` -- and averages the completion times.  The estimate
    should agree with
    :func:`repro.core.expected_time.expected_completion_time` to within
    sampling error; the property-based tests and experiment E1 assert this.
    """
    check_non_negative("work", work)
    check_non_negative("checkpoint", checkpoint)
    check_non_negative("downtime", downtime)
    check_non_negative("recovery", recovery)
    check_positive("rate", rate)
    segment = Segment(
        tasks=("single",),
        work=work,
        checkpoint_cost=checkpoint,
        recovery_cost=recovery,
        checkpointed=checkpoint > 0.0,
    )
    estimator = MonteCarloEstimator([segment], rate, downtime)
    return estimator.estimate(
        num_runs, seed=seed, backend=backend, cache=cache,
        chunk_size=chunk_size, engine=engine, progress=progress,
    )
