"""Monotonic-clock timing spans with correlation-id propagation.

A *span* times one named unit of work (an HTTP request, a job execution, a
simulation chunk) with ``time.perf_counter`` and always feeds a
``repro_span_seconds{span=...}`` histogram in the active metrics registry.
When a :class:`Trace` is active in the current context, finished spans are
additionally appended to it as structured records carrying the trace's
correlation id -- that is how a single id follows a request from the HTTP
handler, through the scheduler's worker thread, down to individual chunks.

Crossing process boundaries (``ProcessPoolBackend``) cannot share a
``contextvars`` context, so the chunk-task payload carries a plain-dict
:func:`context_snapshot` which the worker re-activates with
:func:`shipping_trace`: the spans a chunk produces in a child process are
collected there and travel back to the submitting process inside the chunk
result payload, where :func:`absorb_spans` folds them into the live trace
(re-parented under the span that fanned the chunks out).  That is how a
job's *persisted* trace tree contains its pool workers' chunk spans.

Finished span records also flow through a process-wide *sink* seam
(:func:`add_span_sink`): the always-on flight recorder hangs off it without
the span path knowing it exists.

Everything here is pay-for-what-you-use: with no active trace, no sinks
beyond the flight recorder and DEBUG logging off, a span costs three clock
reads, one histogram observation and one ring-buffer append.
"""

from __future__ import annotations

import contextvars
import logging
import os
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger, log_event

__all__ = [
    "Trace",
    "absorb_spans",
    "activate",
    "add_span_sink",
    "context_snapshot",
    "current_correlation_id",
    "current_trace",
    "new_correlation_id",
    "remove_span_sink",
    "render_span_tree",
    "shipping_trace",
    "span",
    "span_tree",
    "start_trace",
]

_trace_logger = get_logger("trace")

#: Hard cap on retained span records per trace: a runaway job cannot grow an
#: unbounded list in the scheduler's memory.  Overflow is counted, not kept.
MAX_SPANS_PER_TRACE = 10_000


class Trace:
    """A correlation id plus the span records collected under it."""

    def __init__(self, correlation_id: str, *, collect: bool = True) -> None:
        self.correlation_id = correlation_id
        self.collect = collect
        self.spans: List[Dict[str, Any]] = []
        self.dropped = 0
        self._stack: List[str] = []  # names of open spans (parent linkage)
        # Owning process: a fork-started pool worker inherits the parent's
        # contextvars, so the active trace it sees is a dead copy -- the pid
        # mismatch is how shipping_trace() tells that apart from genuine
        # serial in-context execution.
        self.pid = os.getpid()

    def add(self, record: Dict[str, Any]) -> None:
        if not self.collect:
            return
        if len(self.spans) >= MAX_SPANS_PER_TRACE:
            self.dropped += 1
            _metrics.get_registry().counter(
                "repro_trace_spans_dropped_total",
                "Span records discarded past MAX_SPANS_PER_TRACE.",
            ).inc()
            return
        self.spans.append(record)

    def durations(self, prefix: str = "") -> float:
        """Total seconds spent in spans whose name starts with ``prefix``."""
        return sum(
            record["duration_s"]
            for record in self.spans
            if record["name"].startswith(prefix)
        )


_ACTIVE: contextvars.ContextVar[Optional[Trace]] = contextvars.ContextVar(
    "repro_trace", default=None
)

#: Process-wide observers of finished span records.  Sinks receive every
#: record (traced or not) on the thread that closed the span; they must be
#: fast and must never raise into the instrumented code path.
_SPAN_SINKS: List[Any] = []  # repro: noqa[module-state] - append-only at process setup; the hot path iterates a list() snapshot


def add_span_sink(sink) -> None:
    """Register ``sink(record)`` to observe every finished span record.

    This is the seam the always-on flight recorder attaches through, so the
    span path stays ignorant of it.  Records absorbed from pool workers via
    :func:`absorb_spans` flow through the sinks of the *absorbing* process,
    so a sink sees chunk spans even though they finished in a child.
    """
    if sink not in _SPAN_SINKS:
        _SPAN_SINKS.append(sink)


def remove_span_sink(sink) -> None:
    """Unregister a sink added with :func:`add_span_sink` (no-op if absent)."""
    if sink in _SPAN_SINKS:
        _SPAN_SINKS.remove(sink)


def _emit_to_sinks(record: Dict[str, Any]) -> None:
    for sink in list(_SPAN_SINKS):
        try:
            sink(record)
        except Exception:  # noqa: BLE001  # repro: noqa[broad-except] - observers must never raise into the instrumented path; a logging sink here could itself be the failing sink
            pass


def new_correlation_id() -> str:
    """A short random id, unique enough to grep a fleet's logs by."""
    return uuid.uuid4().hex[:16]


def current_trace() -> Optional[Trace]:
    return _ACTIVE.get()


def current_correlation_id() -> Optional[str]:
    trace = _ACTIVE.get()
    return trace.correlation_id if trace is not None else None


@contextmanager
def start_trace(
    correlation_id: Optional[str] = None, *, collect: bool = True
) -> Iterator[Trace]:
    """Activate a new trace in this context; yields the :class:`Trace`.

    The trace object stays readable after the block exits (the scheduler
    inspects ``trace.spans`` for the per-job phase breakdown even when the
    job raised).

    Example::

        >>> with start_trace() as trace:
        ...     with span("job.compute"):
        ...         pass
        >>> len(trace.spans), trace.spans[0]["name"]
        (1, 'job.compute')
    """
    trace = Trace(correlation_id or new_correlation_id(), collect=collect)
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


def context_snapshot() -> Optional[Dict[str, str]]:
    """Picklable capture of the active trace context (or None).

    Small by design: it rides in every chunk-task payload sent to pool
    workers, so it must never grow state that varies between runs (cache
    keys hash spec payloads, not task tuples -- but keep it lean anyway).
    """
    correlation_id = current_correlation_id()
    if correlation_id is None:
        return None
    return {"correlation_id": correlation_id}


@contextmanager
def activate(snapshot: Optional[Dict[str, str]]) -> Iterator[Optional[Trace]]:
    """Re-enter a snapshotted context inside a worker (no-op for None).

    Spans run under the snapshotted correlation id for logs and metrics but
    their records are not collected -- use :func:`shipping_trace` when the
    records must travel back to the submitting process.
    """
    if not snapshot:
        yield None
        return
    current = _ACTIVE.get()
    if current is not None and current.correlation_id == snapshot["correlation_id"]:
        # Already in the originating context (serial in-thread execution):
        # keep collecting into it so the parent trace sees the chunk spans.
        yield current
        return
    with start_trace(snapshot["correlation_id"], collect=False) as trace:
        yield trace


@contextmanager
def shipping_trace(snapshot: Optional[Dict[str, str]]) -> Iterator[List[Dict[str, Any]]]:
    """Activate a snapshotted context around a chunk; collect shippable spans.

    Yields a list that, *after the block exits*, holds the span records the
    chunk produced and that must be shipped back to the submitting process
    (inside the chunk's result payload -- plain dicts, picklable).  Three
    cases:

    * no snapshot: spans are untraced, nothing to ship (empty list);
    * the chunk runs inside the originating trace's own context (serial
      in-thread execution): records were collected *directly* into the live
      parent trace, so shipping them again would double-count -- the list
      stays empty;
    * the chunk runs in another process or thread: a fresh collecting trace
      captures the records and the list is filled on exit.

    The submitting side folds shipped records into its live trace with
    :func:`absorb_spans`.
    """
    shipped: List[Dict[str, Any]] = []
    if not snapshot:
        yield shipped
        return
    current = _ACTIVE.get()
    if (
        current is not None
        and current.correlation_id == snapshot["correlation_id"]
        and current.pid == os.getpid()
    ):
        # Genuinely inside the originating trace (serial in-thread): records
        # already land in the live trace.  A fork-started worker fails the
        # pid check -- its inherited trace is a copy the parent never sees.
        yield shipped
        return
    with start_trace(snapshot["correlation_id"]) as trace:
        yield shipped
    shipped.extend(trace.spans)


def absorb_spans(records: Optional[List[Dict[str, Any]]]) -> None:
    """Fold span records shipped from a worker back into the active trace.

    Records with no parent (a chunk's root span) are re-parented under the
    currently open span of the absorbing context -- typically ``job.run`` --
    so the persisted tree shows chunks where they logically ran.  Absorbed
    records also flow through the span sinks (the worker's sinks fired in
    the worker process, invisible here).  No active trace: records are still
    sinked, then discarded.
    """
    if not records:
        return
    trace = _ACTIVE.get()
    parent = trace._stack[-1] if trace is not None and trace._stack else None
    for record in records:
        if record.get("parent") is None and parent is not None:
            record["parent"] = parent
        if trace is not None:
            trace.add(record)
        _emit_to_sinks(record)


@contextmanager
def span(
    name: str,
    *,
    registry: Optional[_metrics.MetricsRegistry] = None,
    **attrs: Any,
) -> Iterator[Dict[str, Any]]:
    """Time a block; yields a mutable record the body may annotate.

    Always observes ``repro_span_seconds{span=name}``.  When a trace is
    active the finished record (name, duration, parent span, attributes,
    correlation id) is appended to it; when DEBUG logging is on for
    ``repro.trace`` the record is also emitted as a JSON event.

    Example::

        >>> with span("cache.read", namespace="campaign") as record:
        ...     record["hit"] = True   # annotate the span from the body
    """
    trace = _ACTIVE.get()
    record: Dict[str, Any] = {"name": name}
    if attrs:
        record["attrs"] = attrs
    if trace is not None:
        trace._stack.append(name)
    start = time.perf_counter()
    try:
        yield record
    finally:
        duration = time.perf_counter() - start
        record["duration_s"] = duration
        # Wall-clock end time: perf_counter has no epoch, and the flight
        # recorder needs one.
        record["ts"] = time.time()
        if trace is not None:
            trace._stack.pop()
            record["parent"] = trace._stack[-1] if trace._stack else None
            record["correlation_id"] = trace.correlation_id
            trace.add(record)
        _emit_to_sinks(record)
        reg = registry if registry is not None else _metrics.get_registry()
        reg.histogram(
            "repro_span_seconds",
            "Duration of named timing spans.",
            labelnames=("span",),
        ).observe(duration, span=name)
        if _trace_logger.isEnabledFor(logging.DEBUG):
            log_event(
                _trace_logger,
                "span",
                level=logging.DEBUG,
                span=name,
                duration_s=round(duration, 6),
                parent=record.get("parent"),
                **attrs,
            )


# ----------------------------------------------------------------------
# Trace-tree reconstruction (for persisted per-job traces)
# ----------------------------------------------------------------------


def span_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rebuild the parent/child structure of a trace's span records.

    Records are appended in *completion* order (a child span closes before
    the parent that opened it) and carry the parent's *name*, so a finishing
    span adopts every so-far-unparented record that names it.  Identically
    named spans at different depths could in principle misbind, but the
    instrumented names (``job.run``, ``mc.chunk``, ``cache.get``...) never
    nest under themselves.

    Returns a list of root nodes ``{"record", "children", "self_s"}`` in
    completion order, where ``self_s`` is the span's own time: its duration
    minus its direct children's (clamped at zero -- absorbed pool chunks
    overlap their parent wall-clock when they ran concurrently).
    """
    pending: List[Dict[str, Any]] = []
    for record in records:
        node = {"record": record, "children": [], "self_s": 0.0}
        adopted = [n for n in pending if n["record"].get("parent") == record["name"]]
        if adopted:
            node["children"] = adopted
            pending = [n for n in pending if n not in adopted]
        child_time = sum(c["record"].get("duration_s", 0.0) for c in node["children"])
        node["self_s"] = max(record.get("duration_s", 0.0) - child_time, 0.0)
        pending.append(node)
    return pending


def render_span_tree(records: List[Dict[str, Any]], *, indent: int = 2) -> str:
    """Human-readable indented tree of a trace's spans.

    One line per span -- name, duration, self time and attributes -- nested
    by parentage (the ``repro jobs --trace`` rendering)::

        job.run                  0.1530s  self 0.0021s  kind=campaign
          campaign.chunk         0.0724s  self 0.0724s  engine=scalar runs=50
          campaign.chunk         0.0713s  self 0.0713s  engine=scalar runs=50
          cache.put              0.0072s  self 0.0072s  namespace=campaign
    """
    lines: List[str] = []

    def _walk(nodes: List[Dict[str, Any]], depth: int) -> None:
        for node in nodes:
            record = node["record"]
            name = " " * (indent * depth) + record.get("name", "?")
            attrs = record.get("attrs") or {}
            suffix = "".join(f"  {k}={v}" for k, v in attrs.items())
            lines.append(
                f"{name:<28s} {record.get('duration_s', 0.0):9.4f}s"
                f"  self {node['self_s']:.4f}s{suffix}"
            )
            _walk(node["children"], depth + 1)

    _walk(span_tree(records), 0)
    return "\n".join(lines)
