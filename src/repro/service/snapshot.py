"""In-memory read model of the job store for the serving hot path.

Status traffic ("is my job done yet?") outnumbers every other request the
service sees, and at gateway throughput it must never queue behind sqlite or
starve the compute workers.  :class:`ServiceSnapshot` keeps a live copy of
every job record in plain dictionaries, refreshed *push-style*: it
subscribes to :meth:`JobStore.subscribe`, so each state transition (submit,
claim, per-chunk progress, finalize, cancel, restart recovery) lands in the
snapshot on the mutating thread, and the read endpoints
(``GET /v1/jobs``, ``GET /v1/jobs/{id}``, ``/v1/healthz``) are answered
entirely from memory.  The hottest representations -- the serialized JSON
body of ``GET /v1/jobs/{id}`` and each job's summary in ``GET /v1/jobs`` --
are cached per job and invalidated on transition, so steady-state polling
costs one dict lookup, zero serialization and zero sqlite, and a listing
joins cached summaries.  Listings walk an index kept in submission order, so
``limit=20`` costs the same whatever the job history.

The snapshot is a *cache of truth, not truth*: the sqlite store remains the
system of record (durability, restart recovery), the snapshot is rebuilt
from it with :meth:`prime` at gateway start.

Example::

    >>> from repro.service.jobs import JobStore
    >>> store = JobStore()
    >>> snapshot = ServiceSnapshot(store)
    >>> snapshot.attach()                 # prime + subscribe
    >>> job = store.submit("campaign", {})
    >>> snapshot.get(job.id)["state"]     # no store read involved
    'queued'
    >>> snapshot.counts()["queued"]
    1
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.devtools.lockwatch import tracked_lock
from repro.obs import metrics as _metrics
from repro.service.jobs import JOB_STATES, JobRecord, JobStore

__all__ = ["ServiceSnapshot"]


class ServiceSnapshot:
    """Push-refreshed in-memory view of every job in a :class:`JobStore`.

    Parameters
    ----------
    store:
        The job store to mirror.  :meth:`attach` primes the snapshot from it
        and subscribes for transitions; :meth:`detach` unsubscribes.

    Thread-safety: transitions arrive on scheduler/HTTP threads while the
    gateway's event loop reads concurrently; every access takes the
    snapshot's lock (all operations are dict updates or shallow copies, so
    the critical sections are tiny).

    Example::

        >>> from repro.service import JobStore, ServiceSnapshot
        >>> store = JobStore()
        >>> snapshot = ServiceSnapshot(store)
        >>> snapshot.attach()            # prime + subscribe for transitions
        >>> len(snapshot)
        0
        >>> snapshot.job_bytes("nope") is None   # pre-serialized hot path
        True
        >>> snapshot.detach()
        >>> store.close()
    """

    def __init__(self, store: JobStore) -> None:
        self._store = store
        self._lock = tracked_lock("service.snapshot")
        self._records: Dict[str, JobRecord] = {}
        self._body_cache: Dict[str, bytes] = {}
        self._summary_cache: Dict[str, bytes] = {}
        # (submitted_at, -arrival, id), ascending: walked backwards it lists
        # newest first, ties in the order the snapshot first saw them.
        self._order: List[Tuple[float, int, str]] = []
        self._counts: Dict[str, int] = dict.fromkeys(JOB_STATES, 0)
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Prime from the store and start receiving transitions (idempotent)."""
        if self._attached:
            return
        self._store.subscribe(self.on_record)
        self._attached = True
        self.prime()

    def detach(self) -> None:
        """Stop receiving transitions (the snapshot keeps its last state)."""
        if self._attached:
            self._store.unsubscribe(self.on_record)
            self._attached = False

    def prime(self) -> None:
        """(Re)load every job from the store -- the one bulk sqlite read."""
        records = self._store.list_jobs()
        with self._lock:
            self._records, self._order = {}, []
            self._counts = dict.fromkeys(JOB_STATES, 0)
            self._body_cache.clear()
            self._summary_cache.clear()
            for record in records:
                self._fold(record)
        self._refresh_gauges()

    def on_record(self, record: JobRecord) -> None:
        """Store listener: fold one fresh record into the snapshot."""
        with self._lock:
            self._fold(record)
        _metrics.get_registry().counter(
            "repro_snapshot_refreshes_total",
            "Job-state transitions folded into the in-memory snapshot.",
        ).inc()
        self._refresh_gauges()

    def _fold(self, record: JobRecord) -> None:
        """Store ``record`` and drop its cached bytes (call with the lock held).

        A job enters the order index the first time the snapshot sees it:
        its ``submitted_at`` never changes afterwards.  The per-state counts
        move the job from its previous state to its new one.
        """
        previous = self._records.get(record.id)
        if previous is None:
            arrival = len(self._order)
            bisect.insort(self._order, (record.submitted_at, -arrival, record.id))
        else:
            self._counts[previous.state] -= 1
        self._counts[record.state] += 1
        self._records[record.id] = record
        self._body_cache.pop(record.id, None)
        self._summary_cache.pop(record.id, None)

    # ------------------------------------------------------------------
    # Read API (what the gateway serves from)
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Full job dict (including result) or None -- memory only."""
        with self._lock:
            record = self._records.get(job_id)
        return record.to_dict() if record is not None else None

    def record(self, job_id: str) -> Optional[JobRecord]:
        """The raw :class:`JobRecord`, or None when unknown."""
        with self._lock:
            return self._records.get(job_id)

    def job_bytes(self, job_id: str) -> Optional[bytes]:
        """Serialized ``{"job": {...}}`` response body for one job.

        Cached until the job's next transition: the steady-state status poll
        costs a dict lookup, not a ``json.dumps``.
        """
        with self._lock:
            body = self._body_cache.get(job_id)
            if body is not None:
                return body
            record = self._records.get(job_id)
            if record is None:
                return None
            body = json.dumps({"job": record.to_dict()}).encode("utf-8")
            self._body_cache[job_id] = body
            return body

    def list_jobs(
        self,
        *,
        state: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Job summaries (no result payloads), newest first -- memory only.

        Jobs are filtered by ``state``, ``kind`` and at most ``limit``
        entries (``0`` lists none).  An unknown ``state`` or a ``limit``
        that is not a non-negative integer raises :exc:`ValueError` (the
        HTTP 400 contract).
        """
        with self._lock:
            records = self._select(state, kind, limit)
        return [record.to_dict(include_result=False) for record in records]

    def list_bytes(
        self,
        *,
        state: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> bytes:
        """The ``GET /v1/jobs`` body: ``json.dumps({"jobs": list_jobs(...)})`` as bytes.

        Built from each job's cached summary bytes, which are encoded once
        per transition; raises like :meth:`list_jobs`.
        """
        with self._lock:
            parts = []
            for record in self._select(state, kind, limit):
                summary = self._summary_cache.get(record.id)
                if summary is None:
                    summary = json.dumps(record.to_dict(include_result=False)).encode("utf-8")
                    self._summary_cache[record.id] = summary
                parts.append(summary)
        return b'{"jobs": [' + b", ".join(parts) + b"]}"

    def _select(
        self, state: Optional[str], kind: Optional[str], limit: Optional[int]
    ) -> List[JobRecord]:
        """The one selection of a listing: checks, order, filters and limit (lock held)."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown state {state!r}; expected one of {JOB_STATES}")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise ValueError(f"limit must be a non-negative integer, got {limit!r}")
        selected: List[JobRecord] = []
        for _, _, job_id in reversed(self._order):
            if limit is not None and len(selected) >= limit:
                break
            record = self._records[job_id]
            if state is not None and record.state != state:
                continue
            if kind is not None and record.kind != kind:
                continue
            selected.append(record)
        return selected

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (all states present) -- kept up to date by each fold."""
        with self._lock:
            return dict(self._counts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def _refresh_gauges(self) -> None:
        _metrics.get_registry().gauge(
            "repro_snapshot_jobs", "Jobs held by the in-memory snapshot."
        ).set(len(self))

    def __repr__(self) -> str:
        return f"ServiceSnapshot(jobs={len(self)}, attached={self._attached})"
