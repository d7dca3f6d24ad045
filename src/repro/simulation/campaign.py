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
from repro.core.schedule import Schedule
from repro.experiments.reporting import ResultTable
from repro.failures.distributions import FailureDistribution
from repro.failures.traces import iter_trace_times
from repro.runtime.backends import ExecutionBackend, backend_scope, resolve_engine
from repro.runtime.cache import ResultCache
from repro.runtime.chunking import plan_chunks
from repro.simulation._obs import observe_chunk
from repro.simulation.executor import replay_trace
from repro.simulation.vectorized import _replay_batch, _replay_tables, generate_trace_times_batch

__all__ = ["CampaignResult", "CampaignRunner"]

_Z95 = 1.959963984540054

#: Most runs a vectorized campaign task replays in one kernel call.  Every
#: call ends in a tail of lock-step rounds that hold a row or two; stacking
#: chunks pays that tail once per task instead of once per chunk.  Replay
#: time falls steeply up to about 2,000 runs and is flat beyond, while the
#: stacked trace matrix keeps growing (see docs/performance.md).
_MAX_TASK_RUNS = 2_000


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

        The default scalar engine draws each chunk's traces in blocks
        (:func:`~repro.failures.traces.iter_trace_times`) and replays every
        strategy against each one in a plain-float loop
        (:func:`~repro.simulation.executor.replay_trace`); its samples equal,
        bit for bit, a ``generate_trace`` + ``simulate_segments`` event loop
        per round and strategy.  ``engine="vectorized"`` generates and
        replays each chunk's shared traces as one NumPy array program
        (:mod:`repro.simulation.vectorized`) -- about 2x faster on a
        single core.  Its traces come from batched draws in another order,
        so its samples are statistically equivalent to (not bit-identical
        with) the scalar engine's; for a given ``seed`` they remain
        bit-identical across backends and worker counts, and cached entries
        are keyed per engine.

        The backend runs *tasks*.  A scalar task is one chunk.  A vectorized
        task is a run of consecutive whole chunks holding at most 2,000 runs
        (a chunk larger than that is a task of its own): each chunk draws
        its traces from its own seed, and the task replays them all in one
        kernel call, so it pays the kernel's tail of nearly empty rounds
        once.  A pool still gets at least one task per worker when the plan
        has that many chunks.  Samples depend on the chunk plan alone, not
        on how chunks are grouped into tasks.

        ``progress`` is an optional ``callback(done, total)`` reporting how
        many of the campaign's deterministic chunks have completed; it fires
        once with ``(0, total)`` before execution, then after every task
        with the cumulative chunk count (a cache hit reports
        ``(total, total)`` immediately).  Exceptions raised by the callback
        abort the campaign between tasks -- which is how the scenario
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
        seeds = plan.seeds(seed)
        with backend_scope(backend) as executor:
            if engine == "vectorized":
                # The replay tables are built once per run, so pool workers
                # receive flat arrays instead of Segment lists.  Consecutive
                # whole chunks share a task and its one kernel call: at most
                # _MAX_TASK_RUNS runs, yet one task per worker when the plan
                # has that many chunks.
                replay = (names, _replay_tables([self._segments[name] for name in names]))
                worker = _campaign_chunk_vectorized
                per_task = max(1, min(_MAX_TASK_RUNS // plan.chunk_size,
                                      plan.num_chunks // executor.num_workers))
                work = [
                    (tuple(seeds[start : start + per_task]), plan.sizes[start : start + per_task])
                    for start in range(0, plan.num_chunks, per_task)
                ]
            else:
                replay, worker, per_task = self._segments, _campaign_chunk, 1
                work = list(zip(seeds, plan.sizes))
            tasks = [
                (replay, self.failure_law, self._horizon, self.num_processors,
                 self.downtime, task_seeds, task_sizes, obs_context)
                for task_seeds, task_sizes in work
            ]
            if progress is None:
                results = executor.map(worker, tasks)
            else:
                results = []
                for result in executor.imap(worker, tasks):
                    results.append(result)
                    progress(min(len(results) * per_task, plan.num_chunks), plan.num_chunks)
        merged: Dict[str, List[float]] = {name: [] for name in names}
        for makespans_task, shipped in results:
            # Chunk spans recorded in pool workers ride back beside the
            # samples; folding them in here (job.run is still open) is what
            # puts worker chunks into the job's persisted trace tree.
            _tracing.absorb_spans(shipped)
            for name in names:
                merged[name].extend(makespans_task[name])
        if store is not None and key is not None:
            store.put(
                key,
                {"kind": "paired_campaign", "strategies": names, "num_runs": num_runs,
                 "seed": seed, "chunk_size": plan.chunk_size},
                {f"s{index}": np.asarray(merged[name], dtype=float)
                 for index, name in enumerate(names)},
            )
        return CampaignResult(makespans=merged, num_runs=num_runs)


#: A campaign task's work item.  Its first element is what the engine
#: replays: each strategy's segments for the scalar engine, and the strategy
#: names with their replay tables for the vectorized engine.  A scalar task
#: is one chunk: its seed and run count.  A vectorized task is a run of
#: consecutive chunks: a tuple of their seeds and a tuple of their run counts.
_CampaignTask = Tuple[
    Any, FailureDistribution, float, int, float,
    Union[np.random.SeedSequence, Tuple[np.random.SeedSequence, ...]],
    Union[int, Tuple[int, ...]], Optional[Dict[str, Any]],
]

#: What a campaign task worker returns: the per-strategy makespans plus the
#: span records to ship back to the submitting process (empty when the task
#: ran inside the originating trace's own context).
_CampaignChunkResult = Tuple[Dict[str, List[float]], List[Dict[str, Any]]]


def _campaign_chunk(args: _CampaignTask) -> _CampaignChunkResult:
    """Run one chunk of paired rounds (runs in a worker process).

    Each round takes the next shared trace drawn from the chunk's own RNG
    stream and replays every strategy against it, preserving the
    common-random-numbers pairing within the chunk and across backends.
    Each strategy's segment durations are summed once per chunk.  The
    samples equal those of one ``generate_trace`` per round and one
    ``simulate_segments`` per strategy on the same stream.  The trailing ``obs``
    element re-activates the submitting context's correlation id around the
    chunk's span; the span records it collects travel back in the result (the
    samples themselves are untouched, so bit-identity is preserved).
    """
    segments, law, horizon, num_processors, downtime, chunk_seed, count, obs = args
    start = time.perf_counter()
    with _tracing.shipping_trace(obs) as shipped:
        with _tracing.span("campaign.chunk", engine="scalar", runs=count):
            rng = np.random.default_rng(chunk_seed)
            durations = {
                name: [(s.work + s.checkpoint_cost, s.recovery_cost) for s in segs]
                for name, segs in segments.items()
            }
            makespans: Dict[str, List[float]] = {name: [] for name in segments}
            for times in iter_trace_times(
                law, horizon, count, num_processors=num_processors, rng=rng
            ):
                for name, pairs in durations.items():
                    makespans[name].append(replay_trace(pairs, times, downtime))
    observe_chunk("campaign", "scalar", count, time.perf_counter() - start)
    return makespans, shipped


def _campaign_chunk_vectorized(args: _CampaignTask) -> _CampaignChunkResult:
    """Run a task of consecutive chunks as one NumPy array program.

    Each chunk draws its shared traces in one batched pass from its own
    seed; the task stacks them into one ``+inf``-padded matrix and replays
    every strategy against every row in one lock-step kernel call, from the
    replay tables the runner built once for the whole campaign.  The kernel
    replays each row independently of the rows batched with it, and the
    padding lies past each row's own sentinel, so the samples equal those of
    one kernel call per chunk.  The common-random-numbers pairing is
    preserved (strategies on the same row index share a trace) -- but the
    trace draws are ordered differently from the scalar chunk's, so the two
    engines agree statistically rather than bit-for-bit.
    """
    (names, tables), law, horizon, num_processors, downtime, chunk_seeds, sizes, obs = args
    count = sum(sizes)
    start = time.perf_counter()
    with _tracing.shipping_trace(obs) as shipped:
        with _tracing.span("campaign.chunk", engine="vectorized", runs=count,
                           chunks=len(sizes)):
            blocks = [
                generate_trace_times_batch(
                    law, horizon, num_processors, np.random.default_rng(chunk_seed), size
                )
                for chunk_seed, size in zip(chunk_seeds, sizes)
            ]
            times = np.full((count, max(block.shape[1] for block in blocks)), np.inf)
            row = 0
            for block in blocks:
                times[row : row + block.shape[0], : block.shape[1]] = block
                row += block.shape[0]
            del blocks, block  # the replay needs only the stacked copy
            # Generated rows always end in +inf: no input check is needed.
            stacked = _replay_batch(tables, times, downtime)
            result = dict(zip(names, stacked.tolist()))
    observe_chunk("campaign", "vectorized", count, time.perf_counter() - start)
    return result, shipped
