"""Scheduler: drains the job queue onto the execution runtime.

The :class:`JobScheduler` is the compute half of the scenario service (the
HTTP half lives in :mod:`repro.service.gateway`).  It owns

* validation -- submitted payloads are materialised into
  :class:`~repro.runtime.scenario.ScenarioSpec` objects or checked against
  the experiment registry *at submission time*, so malformed requests are
  rejected before they ever enter the queue;
* deduplication -- a campaign submission is content-hashed (the scenario's
  own :meth:`~repro.runtime.scenario.ScenarioSpec.cache_key` plus the chunk
  plan; an experiment by its id and parameters), and a queued, running or
  completed job with the same hash is returned instead of re-enqueuing the
  work.  Together with the shared
  :class:`~repro.runtime.cache.ResultCache` this makes submission idempotent
  end to end: identical requests cost one simulation, ever;
* execution -- a small pool of worker threads claims queued jobs and runs
  them through the existing runtime (:meth:`ScenarioSpec.run` /
  :func:`~repro.experiments.registry.run_experiment`) on the scheduler's
  backend.  Threads, not processes, because a job's real parallelism lives
  inside the backend (a :class:`~repro.runtime.backends.ProcessPoolBackend`
  fans each job's chunks out) -- the workers only coordinate;
* progress and cancellation -- each campaign's ``progress(done, total)``
  callback fires after every backend task (one chunk, or on the vectorized
  engine a run of consecutive whole chunks of at most 2,000 runs), updates
  the store's in-memory record of the running job with the chunks done and
  polls its ``cancel_requested`` flag, raising :class:`JobCancelled`
  between tasks when an abort was requested.  Only the job's terminal
  write reaches sqlite.
"""

from __future__ import annotations

import base64
import logging
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.expected_time import ANALYTIC_NUMERICS
from repro.devtools.lockwatch import tracked_condition
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.logging import get_logger, log_event
from repro.runtime.backends import ExecutionBackend, resolve_backend
from repro.runtime.cache import ResultCache
from repro.runtime.hashing import stable_hash
from repro.runtime.scenario import ScenarioSpec
from repro.service.jobs import JobRecord, JobStore

_logger = get_logger("service.queue")

__all__ = ["JobCancelled", "JobScheduler", "campaign_result_payload", "table_payload"]


class JobCancelled(RuntimeError):
    """Raised inside a worker when a running job's cancellation is requested."""


def campaign_result_payload(result) -> Dict[str, Any]:
    """JSON-compatible form of a :class:`~repro.simulation.campaign.CampaignResult`.

    Each strategy's full makespan samples travel under ``makespans`` as one
    string: base64 of their little-endian float64 bytes.  The bytes are the
    doubles themselves, so :meth:`ServiceClient.campaign_result
    <repro.service.client.ServiceClient.campaign_result>` rebuilds a
    bit-identical ``CampaignResult`` (the acceptance test of the service
    pins this down), and every JSON pass over the payload handles one string
    per strategy instead of ``num_runs`` floats.  ``num_runs``, ``summary``,
    ``ranking`` (and the scheduler's ``scenario_key``) stay plain JSON.

    Each strategy's samples are converted to one array, which gives all four
    outputs; ``summary`` and ``ranking`` equal the result's own ``mean``,
    ``std`` and ``ranking()`` bit for bit.
    """
    arrays = {
        name: np.asarray(samples, dtype="<f8") for name, samples in result.makespans.items()
    }
    summary = {
        name: {
            "mean": float(array.mean()),
            "std": float(array.std(ddof=1)) if len(array) > 1 else 0.0,
        }
        for name, array in arrays.items()
    }
    return {
        "type": "campaign",
        "num_runs": result.num_runs,
        "makespans": {
            name: base64.b64encode(array.tobytes()).decode("ascii")
            for name, array in arrays.items()
        },
        "summary": summary,
        "ranking": sorted(summary, key=lambda name: summary[name]["mean"]),
    }


def table_payload(table) -> Dict[str, Any]:
    """JSON-compatible form of a :class:`~repro.experiments.reporting.ResultTable`."""
    return {
        "type": "table",
        "title": table.title,
        "columns": list(table.columns),
        "rows": [
            {key: _json_value(value) for key, value in row.items()}
            for row in table.rows
        ],
    }


def _json_value(value: Any) -> Any:
    """Coerce numpy scalars (and anything with ``item()``) to plain JSON values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class JobScheduler:
    """Executes queued jobs from a :class:`JobStore` on worker threads.

    Parameters
    ----------
    store:
        The persistent job store.  Jobs left ``running`` by a previous
        process are re-queued immediately (restart recovery).
    num_workers:
        Worker threads draining the queue; each runs one job at a time.
    backend:
        Backend spec shared by every job's chunk fan-out (``None``, a worker
        count, ``"processes"``, or an instance); owned and closed by the
        scheduler when it materialised the spec itself.
    cache:
        Optional shared result cache: jobs and direct library calls that
        describe the same scenario replay each other's entries.
    chunk_size:
        Default chunk size for campaign jobs (a job may override it).

    Example::

        >>> from repro.service import JobScheduler, JobStore
        >>> scheduler = JobScheduler(JobStore(), num_workers=2)
        >>> scheduler.start()
        >>> record, reused = scheduler.submit_campaign(spec.to_dict())  # doctest: +SKIP
        >>> scheduler.stop()

    Submissions validate the spec before any row exists and deduplicate by
    scenario content hash (``reused`` is True when an equivalent job --
    queued, running or done -- already answered the submission).  The HTTP
    gateway is a thin shell over this class.
    """

    #: Upper bound on a single chunk, in replications.  Running jobs cancel
    #: cooperatively *between* tasks: one chunk, or on the vectorized engine
    #: consecutive whole chunks of at most 2,000 runs (a larger chunk is a
    #: task of its own).  So the largest chunk bounds the service's
    #: cancellation latency (25k replications is seconds at scalar
    #: event-loop speed, not minutes).  Oversized requests are *rejected*
    #: (a clean HTTP 400), never silently shrunk: the chunk plan is part of
    #: a scenario's sample identity, and a server that altered it would
    #: serve different samples than a direct run of the same spec.
    MAX_CHUNK_SIZE = 25_000

    def __init__(
        self,
        store: JobStore,
        *,
        num_workers: int = 1,
        backend=None,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.store = store
        self.num_workers = num_workers
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend)
        self.cache = cache
        # The server-wide default is validated at construction, not first
        # use: a misconfigured deployment (chunk_size > MAX_CHUNK_SIZE, or
        # not an integer) must fail at startup with a clear error instead of
        # failing every campaign it later serves.
        self.chunk_size = self._validated_chunk_size(chunk_size)
        self._threads: list = []
        self._stop = threading.Event()
        self._wake = tracked_condition("service.queue.wake")
        self._abandoned_workers = False
        self.recovered = store.recover_interrupted()

    # ------------------------------------------------------------------
    # Submission (validation + dedupe)
    # ------------------------------------------------------------------

    def submit_campaign(
        self,
        scenario: Dict[str, Any],
        *,
        chunk_size: Optional[int] = None,
    ) -> Tuple[JobRecord, bool]:
        """Enqueue a :class:`ScenarioSpec` campaign (or reuse an equivalent job).

        ``scenario`` is the spec's plain-dict form; it is validated here so a
        bad submission fails fast with a :exc:`ValueError`/:exc:`TypeError`/
        :exc:`KeyError` instead of a failed job.  Returns ``(record, reused)``
        where ``reused`` is True when an existing queued/running/done job
        with the same scenario hash (and chunk plan) was returned instead of
        a new one.
        """
        spec = ScenarioSpec.from_dict(scenario)
        chunk_size = self._validated_chunk_size(chunk_size, num_runs=spec.num_runs)
        effective_chunk = chunk_size if chunk_size is not None else self.chunk_size
        dedupe_key = stable_hash({
            "service_job": "campaign",
            "scenario": spec.cache_key(),
            "num_runs": spec.num_runs,
            "chunk_size": effective_chunk,
        })
        payload = {"scenario": spec.to_dict()}
        if chunk_size is not None:
            payload["chunk_size"] = chunk_size
        return self._submit("campaign", payload, dedupe_key)

    def submit_experiment(
        self,
        experiment: str,
        *,
        engine: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> Tuple[JobRecord, bool]:
        """Enqueue a registry experiment (E1-E10) run.

        ``params`` are forwarded to the experiment function as keyword
        arguments (e.g. ``{"num_runs": 500, "seed": 3}``).
        """
        key = experiment.upper()
        if key not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {experiment!r}; available: {sorted(EXPERIMENTS)}"
            )
        params = dict(params or {})
        if "chunk_size" in params:
            # The Monte-Carlo-heavy experiments accept a chunk_size; bound it
            # like a campaign's (their num_runs defaults differ per
            # experiment, so only the type and cap checks apply).
            params["chunk_size"] = self._validated_chunk_size(params["chunk_size"])
        # Experiment tables embed *analytic* values, so their dedupe key
        # carries the analytic-numerics generation: jobs persisted before a
        # libm switch (math.* -> NumPy ufuncs in PR 5, <= 1 ulp) re-run
        # instead of replaying stale bits.  Campaign/scenario jobs do not
        # need the tag -- their samples come from the simulation engines,
        # whose numerics are unchanged.
        dedupe_key = stable_hash({
            "service_job": "experiment",
            "experiment": key,
            "engine": engine,
            "params": params,
            "analytic_numerics": ANALYTIC_NUMERICS,
        })
        payload: Dict[str, Any] = {"experiment": key, "params": params}
        if engine is not None:
            payload["engine"] = engine
        return self._submit("experiment", payload, dedupe_key)

    def _validated_chunk_size(
        self, chunk_size: Optional[int], num_runs: Optional[int] = None
    ) -> Optional[int]:
        """Validate (and canonicalise) a submission's chunk size.

        * non-integers and values below 1 raise (the HTTP layer turns the
          :exc:`TypeError`/:exc:`ValueError` into a 400);
        * a chunk size above ``num_runs`` is clamped *down to* ``num_runs``
          -- a sample-preserving rewrite, because every chunk size at or
          above the budget yields the very same single-chunk plan (same
          sizes, same spawned RNG streams), so the clamped job serves
          bit-identical samples and deduplicates with the canonical
          spelling;
        * anything still above :attr:`MAX_CHUNK_SIZE` is rejected: chunks
          are the unit of progress and cooperative cancellation, and one
          absurdly long chunk would make a running job uninterruptible.
        """
        if chunk_size is None:
            return None
        if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
            raise TypeError(
                f"chunk_size must be an integer, got {type(chunk_size).__name__}"
            )
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if num_runs is not None and chunk_size > num_runs:
            chunk_size = num_runs
        if chunk_size > self.MAX_CHUNK_SIZE:
            raise ValueError(
                f"chunk_size {chunk_size} exceeds the service cap of "
                f"{self.MAX_CHUNK_SIZE} replications; running jobs cancel "
                "cooperatively between chunks, so oversized chunks would make "
                "cancellation unresponsive"
            )
        return chunk_size

    def _submit(
        self, kind: str, payload: Dict[str, Any], dedupe_key: str
    ) -> Tuple[JobRecord, bool]:
        record, reused = self.store.submit_or_reuse(kind, payload, dedupe_key)
        registry = _metrics.get_registry()
        if reused:
            registry.counter(
                "repro_jobs_deduplicated_total",
                "Submissions answered by an existing equivalent job.",
                labelnames=("kind",),
            ).inc(kind=kind)
        else:
            registry.counter(
                "repro_jobs_submitted_total",
                "Jobs newly enqueued, by kind.",
                labelnames=("kind",),
            ).inc(kind=kind)
            self._update_queue_depth()
            with self._wake:
                self._wake.notify_all()
        log_event(
            _logger, "job.submitted",
            job_id=record.id, kind=kind, reused=reused, state=record.state,
        )
        return record, reused

    def _update_queue_depth(self) -> None:
        _metrics.get_registry().gauge(
            "repro_job_queue_depth", "Jobs currently waiting in the queue."
        ).set(self.store.count("queued"))

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    @property
    def abandoned_workers(self) -> bool:
        """True when :meth:`stop` timed out and left a worker mid-job."""
        return self._abandoned_workers

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, *, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the workers after their current job; close owned resources.

        ``timeout`` bounds the per-worker join: a worker still executing a
        long job after the timeout is *abandoned* (the threads are daemons,
        so they die with the process) instead of blocking shutdown -- the job
        it was running is re-queued by restart recovery on the next start.
        An owned backend is only closed when every worker actually exited
        (closing a process pool out from under a running job would block on
        it all the same).
        """
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout)
        if any(thread.is_alive() for thread in self._threads):
            self._abandoned_workers = True
            log_event(
                _logger, "scheduler.workers_abandoned", level=logging.WARNING,
                still_running=[t.name for t in self._threads if t.is_alive()],
            )
        self._threads = []
        if self._owns_backend and not self._abandoned_workers:
            self.backend.close()

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.store.claim_next()
            if job is None:
                with self._wake:
                    # A submit that lands between claim_next and this wait
                    # notifies before we sleep and is simply picked up by the
                    # timeout; the notification only shortens the idle wait.
                    self._wake.wait(timeout=0.1)
                continue
            self.execute(job)

    def run_pending(self, *, max_jobs: Optional[int] = None) -> int:
        """Synchronously drain the queue in the calling thread.

        The threadless twin of :meth:`start` -- used by tests and one-shot
        tooling that want deterministic scheduling.  Returns the number of
        jobs executed.
        """
        executed = 0
        while max_jobs is None or executed < max_jobs:
            job = self.store.claim_next()
            if job is None:
                break
            self.execute(job)
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, job: JobRecord) -> None:
        """Run one claimed job to a terminal state (never raises).

        The execution runs under a trace whose correlation id *is* the job
        id, so every span (cache lookups, chunks -- even in pool workers) and
        log line it produces can be grepped by the id a client already
        holds.  On completion the wall-time is decomposed into the
        queue-wait / compute / cache phases, which the terminal write
        persists with the outcome and the span tree in one transaction.
        """
        registry = _metrics.get_registry()
        queue_wait = max((job.started_at or time.time()) - job.submitted_at, 0.0)
        registry.histogram(
            "repro_job_claim_seconds",
            "Delay between job submission and a worker claiming it.",
        ).observe(queue_wait)
        self._update_queue_depth()
        outcome = "done"
        error: Optional[BaseException] = None
        result: Optional[Dict[str, Any]] = None
        start = time.perf_counter()
        with _tracing.start_trace(job.id) as trace:
            try:
                if self.store.cancel_requested(job.id):
                    raise JobCancelled(job.id)
                with _tracing.span("job.run", kind=job.kind):
                    if job.kind == "campaign":
                        result = self._execute_campaign(job)
                    elif job.kind == "experiment":
                        result = self._execute_experiment(job)
                    else:
                        raise ValueError(f"unknown job kind {job.kind!r}")
            except JobCancelled:
                outcome = "cancelled"
            except Exception as exc:  # noqa: BLE001  # repro: noqa[broad-except] - the failure is persisted on the job record just below, not swallowed
                outcome = "failed"
                error = exc
        run_s = time.perf_counter() - start
        # Cache get/put run in this thread (chunk workers never touch the
        # cache), so the trace's cache.* spans account the job's cache time
        # exactly; the remainder of the wall-time is compute.
        cache_s = min(trace.durations("cache."), run_s)
        phases = {
            "queue_wait_s": queue_wait,
            "compute_s": max(run_s - cache_s, 0.0),
            "cache_s": cache_s,
        }
        # Persist the span tree whatever the outcome -- a failed job's trace
        # is the one an operator most wants to read.  Chunk spans recorded in
        # pool workers were absorbed into this trace during the merge, so the
        # stored tree covers the whole execution.
        span_tree = None
        if trace.spans or trace.dropped:
            span_tree = {
                "correlation_id": trace.correlation_id,
                "dropped": trace.dropped,
                "spans": trace.spans,
            }
        if outcome == "cancelled":
            self.store.mark_cancelled(job.id, phases=phases, trace=span_tree)
            registry.counter(
                "repro_jobs_cancelled_total",
                "Jobs cancelled, by kind.",
                labelnames=("kind",),
            ).inc(kind=job.kind)
            log_event(
                _logger, "job.cancelled",
                job_id=job.id, kind=job.kind, correlation_id=job.id,
            )
        elif outcome == "failed":
            message = f"{type(error).__name__}: {error}"
            self.store.fail(job.id, message, phases=phases, trace=span_tree)
            log_event(
                _logger, "job.failed", level=logging.ERROR,
                job_id=job.id, kind=job.kind, error=message,
                exc_info=error, correlation_id=job.id,
            )
        else:
            self.store.finish(job.id, result, phases=phases, trace=span_tree)
            log_event(
                _logger, "job.completed",
                job_id=job.id, kind=job.kind, duration_s=round(run_s, 6),
                correlation_id=job.id,
            )
        registry.counter(
            "repro_jobs_completed_total",
            "Executed jobs by kind and terminal outcome.",
            labelnames=("kind", "outcome"),
        ).inc(kind=job.kind, outcome=outcome)
        registry.histogram(
            "repro_job_run_seconds",
            "Wall-time of executed jobs, by kind.",
            labelnames=("kind",),
        ).observe(run_s, kind=job.kind)
        self._update_queue_depth()

    def _progress_hook(self, job_id: str):
        def hook(done: int, total: int) -> None:
            if self.store.cancel_requested(job_id):
                raise JobCancelled(job_id)
            self.store.update_progress(job_id, done, total)

        return hook

    def _execute_campaign(self, job: JobRecord) -> Dict[str, Any]:
        spec = ScenarioSpec.from_dict(job.spec["scenario"])
        chunk_size = job.spec.get("chunk_size", self.chunk_size)
        result = spec.run(
            backend=self.backend,
            cache=self.cache,
            chunk_size=chunk_size,
            progress=self._progress_hook(job.id),
        )
        payload = campaign_result_payload(result)
        payload["scenario_key"] = spec.cache_key()
        return payload

    def _execute_experiment(self, job: JobRecord) -> Dict[str, Any]:
        # Monte-Carlo-heavy experiments (E1, E8) report real per-chunk
        # counts through the hook -- and therefore also honour cooperative
        # cancellation mid-experiment; run_experiment itself provides the
        # 0/1 -> 1/1 fallback for experiments without progress support.
        table = run_experiment(
            job.spec["experiment"],
            backend=self.backend,
            cache=self.cache,
            engine=job.spec.get("engine"),
            progress=self._progress_hook(job.id),
            **job.spec.get("params", {}),
        )
        return table_payload(table)
