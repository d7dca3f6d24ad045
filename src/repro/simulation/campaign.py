"""Paired comparison of several schedules under common random failures.

When comparing checkpoint strategies by simulation (experiments E6/E8, the
Weibull example), estimating each strategy's expected makespan independently
wastes most of the statistical budget: the run-to-run variance of the failure
process dwarfs the difference between two good strategies.  The standard fix
is *common random numbers*: replay every candidate schedule against the same
sampled failure trace, run after run, and compare the paired makespans.

:class:`CampaignRunner` implements that protocol on top of the trace
generator and the executor:

* for each of ``num_runs`` rounds it draws one platform failure trace from the
  configured law;
* every candidate schedule is executed against that same trace;
* the result is a :class:`CampaignResult` holding the per-strategy makespan
  samples, their summary statistics, and paired-difference statistics against
  a chosen baseline strategy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import check_non_negative, check_positive, check_positive_int
from repro.obs import tracing as _tracing
from repro.core.schedule import Schedule, Segment
from repro.experiments.reporting import ResultTable
from repro.failures.distributions import FailureDistribution
from repro.failures.traces import generate_trace
from repro.runtime.backends import ExecutionBackend, backend_scope, resolve_engine
from repro.runtime.cache import ResultCache
from repro.runtime.chunking import plan_chunks
from repro.simulation._obs import observe_chunk
from repro.simulation.engine import TraceFailureSource
from repro.simulation.executor import simulate_segments
from repro.simulation.vectorized import generate_trace_times_batch, replay_traces_batch

__all__ = ["CampaignResult", "CampaignRunner"]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a paired simulation campaign.

    Attributes
    ----------
    makespans:
        Mapping from strategy name to the list of simulated makespans, one per
        round; all lists have the same length and index ``i`` of every list
        was produced against the same failure trace.
    num_runs:
        Number of rounds (shared traces).
    """

    makespans: Mapping[str, Sequence[float]]
    num_runs: int

    def mean(self, strategy: str) -> float:
        """Mean simulated makespan of one strategy."""
        return float(np.mean(self._samples(strategy)))

    def std(self, strategy: str) -> float:
        """Sample standard deviation of one strategy's makespans."""
        samples = self._samples(strategy)
        return float(np.std(samples, ddof=1)) if len(samples) > 1 else 0.0

    def _samples(self, strategy: str) -> np.ndarray:
        try:
            return np.asarray(self.makespans[strategy], dtype=float)
        except KeyError as exc:
            raise KeyError(
                f"no strategy named {strategy!r}; available: {sorted(self.makespans)}"
            ) from exc

    def paired_difference(self, strategy: str, baseline: str) -> Dict[str, float]:
        """Paired statistics of ``strategy - baseline`` makespans.

        Returns the mean difference, its standard error, and a 95% normal
        confidence interval.  A negative mean difference means ``strategy``
        finished earlier than ``baseline`` on the shared traces.
        """
        a = self._samples(strategy)
        b = self._samples(baseline)
        diffs = a - b
        mean = float(diffs.mean())
        sem = float(diffs.std(ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
        return {
            "mean_difference": mean,
            "sem": sem,
            "ci95_low": mean - _Z95 * sem,
            "ci95_high": mean + _Z95 * sem,
        }

    def ranking(self) -> List[str]:
        """Strategies sorted by mean makespan, best first."""
        return sorted(self.makespans, key=self.mean)

    def to_table(self, *, baseline: Optional[str] = None) -> ResultTable:
        """Summarise the campaign as a :class:`ResultTable`."""
        table = ResultTable(
            title=f"Simulation campaign ({self.num_runs} shared traces)",
            columns=["strategy", "mean_makespan", "std", "vs_baseline_mean_diff",
                     "vs_baseline_ci95_low", "vs_baseline_ci95_high"],
        )
        reference = baseline if baseline is not None else self.ranking()[0]
        for strategy in self.ranking():
            row = {
                "strategy": strategy,
                "mean_makespan": self.mean(strategy),
                "std": self.std(strategy),
            }
            if strategy != reference:
                paired = self.paired_difference(strategy, reference)
                row["vs_baseline_mean_diff"] = paired["mean_difference"]
                row["vs_baseline_ci95_low"] = paired["ci95_low"]
                row["vs_baseline_ci95_high"] = paired["ci95_high"]
            table.add_row(**row)
        return table


class CampaignRunner:
    """Run several schedules against shared failure traces (common random numbers).

    Parameters
    ----------
    schedules:
        Mapping from strategy name to the :class:`Schedule` it produces.  All
        schedules are replayed against the same traces.
    failure_law:
        Per-processor failure inter-arrival law used to generate the shared
        traces.
    num_processors:
        Platform size used for trace generation.
    downtime:
        Downtime applied after every failure.
    horizon_factor:
        Each generated trace covers ``horizon_factor`` times the largest
        failure-free makespan among the schedules (default 10).  A run that
        outlives its trace sees no further failures, so in high-failure
        regimes its makespan is biased low; such truncated runs are neither
        counted nor reported.
    """

    def __init__(
        self,
        schedules: Mapping[str, Schedule],
        failure_law: FailureDistribution,
        *,
        num_processors: int = 1,
        downtime: float = 0.0,
        horizon_factor: float = 10.0,
    ) -> None:
        if not schedules:
            raise ValueError("schedules must not be empty")
        self.schedules = dict(schedules)
        self.failure_law = failure_law
        self.num_processors = check_positive_int("num_processors", num_processors)
        self.downtime = check_non_negative("downtime", downtime)
        self.horizon_factor = check_positive("horizon_factor", horizon_factor)
        self._segments = {name: sched.segments() for name, sched in self.schedules.items()}
        self._horizon = self.horizon_factor * max(
            sched.failure_free_time() for sched in self.schedules.values()
        )

    def run(
        self,
        num_runs: int,
        *,
        seed: Optional[int] = None,
        backend: Union[None, int, str, ExecutionBackend] = None,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        engine: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> CampaignResult:
        """Execute the campaign.

        The ``num_runs`` rounds are cut into deterministic chunks, each of
        which draws its shared traces from an independently spawned RNG
        stream (see :mod:`repro.runtime.chunking`), and fanned out over
        ``backend`` (serial by default).  The per-strategy makespans are
        defined by ``(seed, chunk plan, engine)`` alone: bit-identical for a
        given ``seed`` whatever the backend or worker count, and a warm
        cache replays the whole campaign from disk.

        ``engine="vectorized"`` generates and replays each chunk's shared
        traces as one NumPy array program
        (:mod:`repro.simulation.vectorized`) instead of one Python event loop
        per round and strategy -- typically an order of magnitude faster on a
        single core.  Its traces come from batched draws, so its samples are
        statistically equivalent to (not bit-identical with) the scalar
        engine's; for a given ``seed`` they remain bit-identical across
        backends and worker counts, and cached entries are keyed per engine.

        ``progress`` is an optional ``callback(done, total)`` reporting how
        many of the campaign's deterministic chunks have completed; it fires
        once with ``(0, total)`` before execution, then after every chunk (a
        cache hit reports ``(total, total)`` immediately).  Exceptions raised
        by the callback abort the campaign -- which is how the scenario
        service implements cooperative cancellation.
        """
        check_positive_int("num_runs", num_runs)
        engine = resolve_engine(engine)
        plan = plan_chunks(num_runs, chunk_size)
        if progress is not None:
            progress(0, plan.num_chunks)
        names = list(self._segments)
        store = None
        key = None
        if cache is not None:
            if seed is None:
                raise ValueError("caching requires an explicit seed (the key includes it)")
            payload = {
                "kind": "paired_campaign",
                "segments": {name: self._segments[name] for name in sorted(names)},
                "failure_law": self.failure_law,
                "num_processors": self.num_processors,
                "downtime": self.downtime,
                "horizon": self._horizon,
                "num_runs": num_runs,
                "seed": seed,
                "chunk_size": plan.chunk_size,
            }
            # Campaign traces come from differently ordered draws on the two
            # engines, so their samples can differ: the engine is part of the
            # key (the scalar spelling is omitted to keep legacy keys valid).
            if engine == "vectorized":
                payload["engine"] = "vectorized"
            store = cache.with_namespace("campaign")
            key = store.key_for(payload)
            entry = store.get(key)
            if entry is not None:
                meta, arrays = entry
                makespans = {
                    name: arrays[f"s{index}"].tolist()
                    for index, name in enumerate(meta["strategies"])
                }
                if progress is not None:
                    progress(plan.num_chunks, plan.num_chunks)
                return CampaignResult(makespans=makespans, num_runs=meta["num_runs"])
        # The trailing trace-context snapshot keeps the submitting request's
        # correlation id on chunk spans even in pool workers; it never enters
        # the cache key (keys hash the payload dict above, not task tuples).
        obs_context = _tracing.context_snapshot()
        tasks = [
            (
                self._segments,
                self.failure_law,
                self._horizon,
                self.num_processors,
                self.downtime,
                chunk_seed,
                size,
                obs_context,
            )
            for chunk_seed, size in zip(plan.seeds(seed), plan.sizes)
        ]
        worker = _campaign_chunk_vectorized if engine == "vectorized" else _campaign_chunk
        with backend_scope(backend) as executor:
            if progress is None:
                chunks = executor.map(worker, tasks)
            else:
                chunks = []
                for chunk in executor.imap(worker, tasks):
                    chunks.append(chunk)
                    progress(len(chunks), plan.num_chunks)
        merged: Dict[str, List[float]] = {name: [] for name in names}
        for makespans_chunk, shipped in chunks:
            # Chunk spans recorded in pool workers ride back beside the
            # samples; folding them in here (job.run is still open) is what
            # puts worker chunks into the job's persisted trace tree.
            _tracing.absorb_spans(shipped)
            for name in names:
                merged[name].extend(makespans_chunk[name])
        if store is not None and key is not None:
            store.put(
                key,
                {"kind": "paired_campaign", "strategies": names, "num_runs": num_runs,
                 "seed": seed, "chunk_size": plan.chunk_size},
                {f"s{index}": np.asarray(merged[name], dtype=float)
                 for index, name in enumerate(names)},
            )
        return CampaignResult(makespans=merged, num_runs=num_runs)


_CampaignTask = Tuple[
    Mapping[str, Sequence[Segment]], FailureDistribution, float, int, float,
    np.random.SeedSequence, int, Optional[Dict[str, Any]],
]

#: What a campaign chunk worker returns: the per-strategy makespans plus the
#: span records to ship back to the submitting process (empty when the chunk
#: ran inside the originating trace's own context).
_CampaignChunkResult = Tuple[Dict[str, List[float]], List[Dict[str, Any]]]


def _campaign_chunk(args: _CampaignTask) -> _CampaignChunkResult:
    """Run one chunk of paired rounds (runs in a worker process).

    Each round draws a fresh shared trace from the chunk's own RNG stream and
    replays every strategy against it, preserving the common-random-numbers
    pairing within the chunk and across backends.  The trailing ``obs``
    element re-activates the submitting context's correlation id around the
    chunk's span; the span records it collects travel back in the result (the
    samples themselves are untouched, so bit-identity is preserved).
    """
    segments, law, horizon, num_processors, downtime, chunk_seed, count, obs = args
    start = time.perf_counter()
    with _tracing.shipping_trace(obs) as shipped:
        with _tracing.span("campaign.chunk", engine="scalar", runs=count):
            rng = np.random.default_rng(chunk_seed)
            makespans: Dict[str, List[float]] = {name: [] for name in segments}
            for _ in range(count):
                trace = generate_trace(
                    law, horizon=horizon, num_processors=num_processors, rng=rng
                )
                for name, segs in segments.items():
                    source = TraceFailureSource(trace)
                    result = simulate_segments(segs, source, downtime, rng=rng)
                    makespans[name].append(result.makespan)
    observe_chunk("campaign", "scalar", count, time.perf_counter() - start)
    return makespans, shipped


def _campaign_chunk_vectorized(args: _CampaignTask) -> _CampaignChunkResult:
    """Run one chunk of paired rounds as a NumPy array program.

    Same work item as :func:`_campaign_chunk`, executed batch-wise: the
    chunk's shared traces are generated in one batched pass and every
    strategy is replayed against every trace in one stacked lock-step loop.
    The common-random-numbers pairing is preserved (strategies on the same
    row index share a trace), and the chunk is deterministic for its seed --
    but the trace draws are ordered differently from the scalar chunk's, so
    the two engines agree statistically rather than bit-for-bit.
    """
    segments, law, horizon, num_processors, downtime, chunk_seed, count, obs = args
    start = time.perf_counter()
    with _tracing.shipping_trace(obs) as shipped:
        with _tracing.span("campaign.chunk", engine="vectorized", runs=count):
            rng = np.random.default_rng(chunk_seed)
            times = generate_trace_times_batch(law, horizon, num_processors, rng, count)
            names = list(segments)
            stacked = replay_traces_batch(
                [segments[name] for name in names], times, downtime
            )
            result = {name: stacked[index].tolist() for index, name in enumerate(names)}
    observe_chunk("campaign", "vectorized", count, time.perf_counter() - start)
    return result, shipped
