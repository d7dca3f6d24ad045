"""Persistent job store: the state of every campaign the service has seen.

The scenario service must remember submitted jobs across process restarts --
a coordinator that forgets its queue on redeploy cannot serve long-running
campaigns.  :class:`JobStore` persists every job (its submitted spec, state,
timings, result and error) in a single-file sqlite3 database, the stdlib's
crash-safe embedded store; passing no path keeps the same schema in a
private in-memory database for tests and throwaway servers.

sqlite is written only when a job changes state: submit, claim, a cancel
request and the terminal write.  While a job runs, its chunk progress and
cancel flag live in the store's in-memory record of that job, which
:meth:`JobStore.get` and the listeners see; the terminal write persists the
final progress together with the state, the result or error, the phase
breakdown and the span tree, in one transaction.

The store is deliberately dumb: it knows nothing about scenarios, engines or
HTTP.  It offers the five primitives the scheduler needs --

* :meth:`JobStore.submit` to append a ``queued`` job, and
  :meth:`JobStore.submit_or_reuse` -- its atomic find-or-submit twin keyed by
  a ``dedupe_key`` (the scenario content hash), which is what makes
  submission idempotent even under concurrent identical requests,
* :meth:`JobStore.claim_next` to atomically move the oldest ``queued`` job to
  ``running`` (safe against concurrent worker threads),
* :meth:`JobStore.update_progress` (in memory) and :meth:`JobStore.finish` /
  :meth:`JobStore.fail` / :meth:`JobStore.mark_cancelled` (one commit each)
  to record outcomes,
* :meth:`JobStore.request_cancel` for cooperative cancellation (queued jobs
  cancel immediately; running jobs get a flag their progress hook polls),
* :meth:`JobStore.recover_interrupted` to re-queue jobs that were ``running``
  when a previous server process died.

Job states form a small machine::

    queued --> running --> done | failed | cancelled
       |
       +-----------------> cancelled
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.devtools.lockwatch import tracked_lock
from repro.obs import metrics as _metrics

__all__ = ["JOB_STATES", "JobRecord", "JobStore"]

#: Every state a job can be in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    spec             TEXT NOT NULL,
    dedupe_key       TEXT,
    state            TEXT NOT NULL,
    chunks_done      INTEGER NOT NULL DEFAULT 0,
    chunks_total     INTEGER NOT NULL DEFAULT 0,
    result           TEXT,
    error            TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    phases           TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, submitted_at);
CREATE INDEX IF NOT EXISTS jobs_dedupe ON jobs (dedupe_key);
CREATE TABLE IF NOT EXISTS traces (
    job_id      TEXT PRIMARY KEY REFERENCES jobs (id),
    trace       TEXT NOT NULL,
    recorded_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class JobRecord:
    """Immutable snapshot of one job row.

    ``spec`` is the submitted request payload (plain JSON data) and
    ``result`` the execution outcome (also plain JSON data), so a record
    round-trips through the HTTP API without further conversion.
    """

    id: str
    kind: str
    spec: Dict[str, Any]
    state: str
    dedupe_key: Optional[str] = None
    chunks_done: int = 0
    chunks_total: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Per-phase wall-time breakdown recorded at completion (seconds):
    #: ``queue_wait_s`` / ``compute_s`` / ``cache_s`` (see JobScheduler).
    phases: Optional[Dict[str, float]] = None

    @property
    def is_terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in ("done", "failed", "cancelled")

    def to_dict(self, *, include_result: bool = True) -> Dict[str, Any]:
        """JSON-compatible form (the HTTP representation of a job)."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "spec": self.spec,
            "state": self.state,
            "progress": {"chunks_done": self.chunks_done, "chunks_total": self.chunks_total},
            "cancel_requested": self.cancel_requested,
            "timings": {
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "phases": self.phases,
            },
            "error": self.error,
        }
        if include_result:
            payload["result"] = self.result
        return payload


class JobStore:
    """sqlite3-backed store of service jobs, usable from many threads.

    Parameters
    ----------
    path:
        Database file, created on first use.  ``None`` keeps the store in
        memory (same schema and semantics, gone when the store is closed) --
        the fallback for tests and ephemeral servers.

    One connection is shared across threads behind a lock: the store's
    operations are short transactions, and a single writer sidesteps
    sqlite's writer-starvation corner cases.  A file-backed store journals
    in WAL mode, where a commit appends to the log instead of rewriting a
    rollback journal; ``synchronous`` keeps sqlite's default (FULL), so a
    committed job is as durable as in the default journal mode.

    The store keeps the record of every job it claimed while that job runs
    (at most one per worker): progress and the cancel flag change there,
    not in sqlite.  This assumes one process owns a database file, which
    ``repro serve`` guarantees and restart recovery already relies on.

    Every mutation notifies listeners registered with :meth:`subscribe`
    (the gateway's read snapshot and SSE hub are both fed this way), with
    the fresh :class:`JobRecord`, on the mutating thread.

    Example::

        >>> store = JobStore()                  # JobStore("jobs.db") persists
        >>> record = store.submit("campaign", {"scenario": {}})
        >>> record.state
        'queued'
        >>> store.get(record.id).id == record.id
        True
        >>> store.close()
    """

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = None if path is None else os.fspath(path)
        if self.path is not None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._lock = tracked_lock("service.jobs.store", threading.RLock)
        self._listeners: List[Callable[[JobRecord], None]] = []
        self._running: Dict[str, JobRecord] = {}
        self._conn = sqlite3.connect(
            self.path if self.path is not None else ":memory:",
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        if self.path is not None:
            self._conn.execute("PRAGMA journal_mode=WAL")
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            # Schema migration for databases created before the per-job
            # phase breakdown existed (pre-observability PRs).
            columns = {
                row["name"]
                for row in self._conn.execute("PRAGMA table_info(jobs)").fetchall()
            }
            if "phases" not in columns:
                self._conn.execute("ALTER TABLE jobs ADD COLUMN phases TEXT")

    @contextmanager
    def _timed_op(self, op: str) -> Iterator[None]:
        """Time one store operation into ``repro_jobstore_op_seconds{op}``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            _metrics.get_registry().histogram(
                "repro_jobstore_op_seconds",
                "Duration of JobStore sqlite operations.",
                labelnames=("op",),
            ).observe(time.perf_counter() - start, op=op)

    # ------------------------------------------------------------------
    # Change listeners
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[JobRecord], None]) -> None:
        """Register a callback invoked with the fresh record after every change.

        This is the seam the asyncio gateway's in-memory snapshot and its SSE
        progress streams hang off: instead of polling sqlite, read models are
        *pushed* every state transition (submit, claim, progress, finalize,
        cancel, recovery).  Listeners run synchronously, with the store lock
        held, on whichever thread performed the mutation -- they must be
        fast, must not raise, and must never call back into the store
        (deadlock by re-entrancy).

        Example::

            >>> store = JobStore()
            >>> seen = []
            >>> store.subscribe(lambda record: seen.append(record.state))
            >>> job = store.submit("campaign", {})
            >>> store.claim_next() is not None
            True
            >>> seen
            ['queued', 'running']
        """
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[JobRecord], None]) -> None:
        """Remove a previously registered listener (no-op when unknown)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _publish(self, record: JobRecord) -> JobRecord:
        """Push ``record`` to every listener (called with the store lock held).

        Holding the lock keeps listeners in step with the store: two threads
        changing one job can never deliver their records out of order.
        """
        for listener in list(self._listeners):
            try:
                listener(record)
            except Exception:  # noqa: BLE001 - a read model must not kill writers
                logging.getLogger("repro.service.jobs").exception(
                    "job-store listener failed for job %s", record.id
                )
        return record

    def _notify(self, job_id: str) -> Optional[JobRecord]:
        """Push the current record for ``job_id`` to every listener."""
        record = self.get(job_id)
        return self._publish(record) if record is not None else None

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        spec: Dict[str, Any],
        *,
        dedupe_key: Optional[str] = None,
    ) -> JobRecord:
        """Append a new ``queued`` job and return its record.

        The record holds the spec as it reads back from the stored JSON, so
        it equals what :meth:`get` returns.
        """
        job_id = uuid.uuid4().hex[:16]
        now = time.time()
        spec_json = json.dumps(spec)
        with self._lock:
            with self._timed_op("submit"), self._conn:
                self._conn.execute(
                    "INSERT INTO jobs (id, kind, spec, dedupe_key, state, submitted_at)"
                    " VALUES (?, ?, ?, ?, 'queued', ?)",
                    (job_id, kind, spec_json, dedupe_key, now),
                )
            return self._publish(JobRecord(
                id=job_id, kind=kind, spec=json.loads(spec_json), state="queued",
                dedupe_key=dedupe_key, submitted_at=now,
            ))

    def submit_or_reuse(
        self, kind: str, spec: Dict[str, Any], dedupe_key: str
    ) -> "Tuple[JobRecord, bool]":
        """Atomic find-or-submit: the deduplication primitive.

        Returns ``(record, reused)``.  The lookup and the insert happen under
        the store lock, so two threads submitting the same content
        concurrently can never both enqueue it -- the idempotency guarantee
        ('identical requests cost one simulation, ever') holds under the
        gateway's concurrent write pool, not just sequentially.
        """
        with self._lock:
            existing = self.find_reusable(dedupe_key)
            if existing is not None:
                return existing, True
            return self.submit(kind, spec, dedupe_key=dedupe_key), False

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id``, or None when unknown.

        A job this store is running is answered from memory, with its live
        progress and cancel flag.
        """
        with self._lock:
            running = self._running.get(job_id)
            if running is not None:
                return running
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return self._record(row) if row is not None else None

    def find_reusable(self, dedupe_key: str) -> Optional[JobRecord]:
        """The newest queued/running/done job with this dedupe key, if any.

        Failed and cancelled jobs are never reused: resubmitting after a
        failure must produce a fresh attempt.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE dedupe_key = ? AND state IN"
                " ('queued', 'running', 'done')"
                " ORDER BY submitted_at DESC LIMIT 1",
                (dedupe_key,),
            ).fetchone()
            if row is None:
                return None
            return self._running.get(row["id"]) or self._record(row)

    def list_jobs(self) -> List[JobRecord]:
        """Every job, newest first.

        The bulk read that primes :class:`~repro.service.snapshot.ServiceSnapshot`;
        filtered listings are served from the snapshot.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY submitted_at DESC"
            ).fetchall()
            return [self._running.get(row["id"]) or self._record(row) for row in rows]

    def count(self, state: str) -> int:
        """Number of jobs in ``state`` (an index search: its cost does not grow with history)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = ?", (state,)
            ).fetchone()
        return row[0]

    # ------------------------------------------------------------------
    # Scheduler primitives
    # ------------------------------------------------------------------

    def claim_next(self) -> Optional[JobRecord]:
        """Atomically move the oldest ``queued`` job to ``running``.

        Returns the claimed record, or None when the queue is empty.  The
        select-then-update pair runs under the store lock and in one sqlite
        transaction, so two worker threads can never claim the same job.
        The store keeps the claimed record in memory until the job's
        terminal write.
        """
        with self._lock:
            with self._timed_op("claim_next"), self._conn:
                row = self._conn.execute(
                    "SELECT * FROM jobs WHERE state = 'queued'"
                    " ORDER BY submitted_at LIMIT 1"
                ).fetchone()
                if row is None:
                    return None
                now = time.time()
                claimed = self._conn.execute(
                    "UPDATE jobs SET state = 'running', started_at = ?"
                    " WHERE id = ? AND state = 'queued'",
                    (now, row["id"]),
                ).rowcount
                if not claimed:  # pragma: no cover - only under external writers
                    return None
            record = replace(self._record(row), state="running", started_at=now)
            self._running[record.id] = record
            return self._publish(record)

    def update_progress(self, job_id: str, done: int, total: int) -> None:
        """Record chunk progress for a job this store is running (others are ignored).

        Only the in-memory record changes -- no sqlite write or read -- and
        listeners get it; the terminal write persists the final counts.
        """
        with self._lock:
            record = self._running.get(job_id)
            if record is None:
                return
            record = replace(record, chunks_done=int(done), chunks_total=int(total))
            self._running[job_id] = record
            self._publish(record)

    def get_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The persisted trace payload for ``job_id``, or None when absent."""
        with self._timed_op("get_trace"), self._lock:
            row = self._conn.execute(
                "SELECT trace FROM traces WHERE job_id = ?", (job_id,)
            ).fetchone()
        return json.loads(row["trace"]) if row is not None else None

    def finish(
        self,
        job_id: str,
        result: Dict[str, Any],
        *,
        phases: Optional[Dict[str, float]] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Mark a job ``done`` with its result payload: the terminal write.

        One transaction stores the state, the result (or error), the final
        progress of a job this store runs, the wall-time ``phases`` (seconds
        per phase, shown by ``repro jobs --stats``) and the span-tree
        ``trace`` (``{"correlation_id", "dropped", "spans": [...]}``, read
        back with :meth:`get_trace`; a second write replaces it); listeners
        are notified once.  ``phases`` or ``trace`` None keeps the stored value.
        """
        self._finalize(job_id, "done", result=result, phases=phases, trace=trace)

    def fail(
        self,
        job_id: str,
        error: str,
        *,
        phases: Optional[Dict[str, float]] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Mark a job ``failed`` with an error (a terminal write like :meth:`finish`)."""
        self._finalize(job_id, "failed", error=error, phases=phases, trace=trace)

    def mark_cancelled(
        self,
        job_id: str,
        *,
        phases: Optional[Dict[str, float]] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Mark a job ``cancelled`` (a terminal write like :meth:`finish`)."""
        self._finalize(job_id, "cancelled", phases=phases, trace=trace)

    def _finalize(
        self,
        job_id: str,
        state: str,
        *,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        phases: Optional[Dict[str, float]] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        result_json = json.dumps(result) if result is not None else None
        if phases is not None:
            phases = {key: float(value) for key, value in phases.items()}
        with self._lock:
            now = time.time()
            running = self._running.get(job_id)
            with self._timed_op("finalize"), self._conn:
                self._conn.execute(
                    "UPDATE jobs SET state = ?, result = ?, error = ?, finished_at = ?,"
                    " chunks_done = COALESCE(?, chunks_done),"
                    " chunks_total = COALESCE(?, chunks_total),"
                    " phases = COALESCE(?, phases) WHERE id = ?",
                    (
                        state,
                        result_json,
                        error,
                        now,
                        running.chunks_done if running is not None else None,
                        running.chunks_total if running is not None else None,
                        json.dumps(phases) if phases is not None else None,
                        job_id,
                    ),
                )
                if trace is not None:
                    self._conn.execute(
                        "INSERT INTO traces (job_id, trace, recorded_at) VALUES (?, ?, ?)"
                        " ON CONFLICT (job_id) DO UPDATE SET trace = excluded.trace,"
                        " recorded_at = excluded.recorded_at",
                        (job_id, json.dumps(trace), time.time()),
                    )
            if running is None:
                self._notify(job_id)  # not run here: read back what the row holds
                return
            del self._running[job_id]
            # The result is parsed back from the text just stored (0.15 ms
            # for a 5000-run campaign).  Publishing the caller's payload
            # instead kept its sample strings where the run's transient
            # buffers had been, and a served process held 4-6 MiB more at
            # 200 jobs.
            self._publish(replace(
                running, state=state, error=error, finished_at=now,
                result=json.loads(result_json) if result_json is not None else None,
                phases=phases if phases is not None else running.phases,
            ))

    def request_cancel(self, job_id: str) -> Optional[JobRecord]:
        """Ask for a job to be cancelled; returns the updated record.

        A ``queued`` job is cancelled on the spot.  A ``running`` job gets
        its ``cancel_requested`` flag set and keeps running until its
        progress hook notices (cooperative cancellation between tasks).
        The flag is committed, so a job re-queued by restart recovery stays
        cancelled.  Terminal jobs are returned unchanged; unknown ids return
        None.
        """
        with self._lock:
            record = self.get(job_id)
            if record is None or record.is_terminal:
                return record
            with self._conn:
                if record.state == "queued":
                    self._conn.execute(
                        "UPDATE jobs SET state = 'cancelled', cancel_requested = 1,"
                        " finished_at = ? WHERE id = ? AND state = 'queued'",
                        (time.time(), job_id),
                    )
                else:
                    self._conn.execute(
                        "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
                    )
            if job_id in self._running:
                record = replace(record, cancel_requested=True)
                self._running[job_id] = record
                return self._publish(record)
            return self._notify(job_id)

    def cancel_requested(self, job_id: str) -> bool:
        """True when cancellation was requested (from memory while this store runs the job)."""
        record = self.get(job_id)
        return record is not None and record.cancel_requested

    def recover_interrupted(self) -> int:
        """Re-queue jobs left ``running`` by a dead server process.

        Called once at scheduler start-up: any job still marked running
        cannot actually be running (this process just started), so it is
        returned to the queue with its progress reset.  Returns the number of
        recovered jobs.
        """
        with self._lock:
            with self._conn:
                interrupted = [
                    row["id"]
                    for row in self._conn.execute(
                        "SELECT id FROM jobs WHERE state = 'running'"
                    ).fetchall()
                ]
                self._conn.execute(
                    "UPDATE jobs SET state = 'queued', started_at = NULL,"
                    " chunks_done = 0, chunks_total = 0 WHERE state = 'running'"
                )
            for job_id in interrupted:
                self._running.pop(job_id, None)
                self._notify(job_id)
        return len(interrupted)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (in-memory stores lose their data)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        where = self.path if self.path is not None else ":memory:"
        return f"JobStore(path={where!r})"

    @staticmethod
    def _record(row: sqlite3.Row) -> JobRecord:
        return JobRecord(
            id=row["id"],
            kind=row["kind"],
            spec=json.loads(row["spec"]),
            state=row["state"],
            dedupe_key=row["dedupe_key"],
            chunks_done=row["chunks_done"],
            chunks_total=row["chunks_total"],
            result=json.loads(row["result"]) if row["result"] is not None else None,
            error=row["error"],
            cancel_requested=bool(row["cancel_requested"]),
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            phases=json.loads(row["phases"]) if row["phases"] is not None else None,
        )
