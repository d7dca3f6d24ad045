"""Asyncio serving gateway: the scenario service's HTTP front end.

A job service's dominant request is a status poll, so the front end's cost
per request must be a dict lookup, not a thread context switch plus a
sqlite read.  This module is that front end, on nothing but the stdlib:

* **asyncio transport** -- :func:`asyncio.start_server` with a small
  HTTP/1.1 parser (keep-alive and pipelining, request-body size limits,
  graceful shutdown).  One event loop serves every connection;
* **snapshot reads** -- the read-heavy endpoints (``GET /v1/jobs``,
  ``GET /v1/jobs/{id}``, ``/v1/scenarios``, ``/v1/healthz``,
  ``/v1/metrics``) are answered from a
  :class:`~repro.service.snapshot.ServiceSnapshot` refreshed push-style on
  job-state transitions, so status traffic never touches sqlite and never
  starves the compute workers;
* **thread-pool seam** -- the few write paths (``POST /v1/jobs``,
  ``DELETE /v1/jobs/{id}``, ``POST /v1/scenarios/preview``) run on a small
  :class:`~concurrent.futures.ThreadPoolExecutor` against the *existing*
  :class:`~repro.service.queue.JobScheduler`/:class:`~repro.service.jobs.JobStore`,
  which own validation, dedupe and bit-identical execution.  Submissions
  and cancellations each open a correlation-id trace, so their
  ``job.submitted`` / ``job.cancel_requested`` log events are the
  control-plane record;
* **SSE progress** -- ``GET /v1/jobs/{id}/events`` streams server-sent
  events (``progress`` per observed transition, a terminal ``end``), fed by
  the same store-listener seam as the snapshot, so
  ``ServiceClient.wait(stream=True)`` and ``repro submit --wait`` follow a
  job without polling.

Results served through the gateway are bit-identical to direct runs: the
gateway never touches specs, chunk plans or RNG streams -- it is purely a
faster door to the same scheduler.

Example::

    >>> from repro.service import GatewayServer, JobScheduler, JobStore
    >>> scheduler = JobScheduler(JobStore())
    >>> with GatewayServer(scheduler, port=0) as gateway:   # doctest: +SKIP
    ...     print(gateway.url)
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.devtools.lockwatch import tracked_lock
from repro.experiments.registry import experiment_descriptions
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.logging import get_logger, log_event
from repro.runtime.backends import ENGINES
from repro.runtime.scenario import ScenarioSpec, expand_scenarios
from repro.service.jobs import JobRecord
from repro.service.queue import JobScheduler
from repro.service.snapshot import ServiceSnapshot

__all__ = ["GatewayServer", "catalog_payload", "sweep_preview_payload"]

_logger = get_logger("service.gateway")

_REASONS = {  # repro: noqa[module-state] - read-only HTTP reason table, never mutated after import
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _route_label(path: str) -> str:
    """Metric label for a path (templated, so ids cannot explode cardinality)."""
    if path in ("/v1/healthz", "/v1/metrics", "/v1/scenarios",
                "/v1/scenarios/preview", "/v1/jobs", "/v1/debug/flight"):
        return path
    if path.startswith("/v1/jobs/"):
        if path.endswith("/events"):
            return "/v1/jobs/{id}/events"
        if path.endswith("/trace"):
            return "/v1/jobs/{id}/trace"
        return "/v1/jobs/{id}"
    return "other"


def catalog_payload() -> Dict[str, Any]:
    """The ``GET /v1/scenarios`` response body (static per process)."""
    sweepable = sorted(
        f.name for f in dataclasses.fields(ScenarioSpec) if f.name != "name"
    )
    return {
        "experiments": experiment_descriptions(),
        "engines": list(ENGINES),
        "sweepable_fields": sweepable,
        "preview": "POST {scenario, axes} to /v1/scenarios/preview to expand "
                   "a sweep without running it",
    }


def sweep_preview_payload(body: Dict[str, Any]) -> Dict[str, Any]:
    """Expand a ``{scenario, axes}`` preview request into its response payload.

    Raises :exc:`ValueError` / :exc:`TypeError` / :exc:`KeyError` for
    malformed requests (the HTTP layer renders those as a 400): an unknown
    top-level field, a missing ``scenario`` object or an invalid sweep.

    Example::

        >>> payload = sweep_preview_payload({
        ...     "scenario": {"name": "s", "chain": {"n": 3, "seed": 1},
        ...                  "failure": {"kind": "exponential", "mtbf": 10.0},
        ...                  "strategies": ["optimal_dp"], "num_runs": 10},
        ...     "axes": {"num_runs": [10, 20]},
        ... })
        >>> payload["count"]
        2
    """
    unknown = sorted(set(body) - {"scenario", "axes"})
    if unknown:
        raise ValueError(
            f"unknown preview field(s) {unknown}; accepted fields: 'scenario', 'axes'"
        )
    if not isinstance(body.get("scenario"), dict):
        raise ValueError('a sweep preview needs a "scenario" object')
    base = ScenarioSpec.from_dict(body["scenario"])
    axes = body.get("axes", {})
    if not isinstance(axes, dict):
        raise ValueError('"axes" must map field names to value lists')
    if "failure" in axes:
        axes = dict(axes)
        axes["failure"] = [
            spec if not isinstance(spec, dict) else base.failure.__class__(**spec)
            for spec in axes["failure"]
        ]
    if "chain" in axes:
        axes = dict(axes)
        axes["chain"] = [
            spec if not isinstance(spec, dict) else base.chain.__class__(**spec)
            for spec in axes["chain"]
        ]
    expanded = expand_scenarios(base, **axes)
    return {
        "count": len(expanded),
        "scenarios": [
            {
                "name": spec.name,
                "cache_key": spec.cache_key(),
                "num_runs": spec.num_runs,
                "engine": spec.engine,
                "scenario": spec.to_dict(),
            }
            for spec in expanded
        ],
    }


def _sse_frame(event: str, data: Dict[str, Any]) -> bytes:
    """One server-sent-events frame: ``event:`` + ``data:`` + blank line."""
    return f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")


def _progress_payload(record: JobRecord) -> Dict[str, Any]:
    """The compact job-state dict SSE events carry (no result payload)."""
    return {
        "id": record.id,
        "state": record.state,
        "chunks_done": record.chunks_done,
        "chunks_total": record.chunks_total,
        "error": record.error,
    }


class _JobEventHub:
    """Fans job-store transitions out to per-job SSE subscriber queues.

    The store listener side runs on whatever thread mutated the store
    (scheduler workers, gateway write pool); delivery hops onto the event
    loop via ``call_soon_threadsafe``.  Subscription management happens on
    the loop only.
    """

    def __init__(self) -> None:
        self._lock = tracked_lock("service.gateway.event_hub")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queues: Dict[str, List[asyncio.Queue]] = {}

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def on_record(self, record: JobRecord) -> None:
        """Store listener (any thread): push the transition to subscribers."""
        with self._lock:
            loop = self._loop
            if loop is None or record.id not in self._queues:
                return
        payload = _progress_payload(record)
        try:
            loop.call_soon_threadsafe(self._push, record.id, payload)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _push(self, job_id: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            queues = list(self._queues.get(job_id, ()))
        for queue in queues:
            queue.put_nowait(payload)

    def subscribe(self, job_id: str) -> "asyncio.Queue[Dict[str, Any]]":
        queue: asyncio.Queue = asyncio.Queue()
        with self._lock:
            self._queues.setdefault(job_id, []).append(queue)
        return queue

    def unsubscribe(self, job_id: str, queue: "asyncio.Queue") -> None:
        with self._lock:
            queues = self._queues.get(job_id)
            if queues and queue in queues:
                queues.remove(queue)
                if not queues:
                    del self._queues[job_id]

    def subscriber_count(self, job_id: Optional[str] = None) -> int:
        """Open SSE subscriptions (for one job, or in total)."""
        with self._lock:
            if job_id is not None:
                return len(self._queues.get(job_id, ()))
            return sum(len(queues) for queues in self._queues.values())


class GatewayServer:
    """The asyncio HTTP front end of the scenario service.

    Serves the ``/v1`` surface of ``docs/api.md`` against one
    :class:`JobScheduler`; ``repro serve`` runs it in the foreground.

    Parameters
    ----------
    scheduler:
        The :class:`JobScheduler` that validates, dedupes and executes jobs.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read :attr:`port`
        after :meth:`start`).
    max_body_bytes:
        Largest accepted request body; larger submissions get ``413`` and
        the connection is closed.
    keepalive_timeout:
        Idle seconds after which a keep-alive connection is dropped.
    sse_heartbeat:
        Seconds between ``: keep-alive`` comment frames on quiet SSE
        streams (also bounds how quickly a dead client is detected).

    Example::

        >>> from repro.service import GatewayServer, JobScheduler, JobStore
        >>> scheduler = JobScheduler(JobStore())
        >>> gateway = GatewayServer(scheduler, port=0)
        >>> gateway.start()                    # binds + starts workers
        >>> gateway.url                        # doctest: +ELLIPSIS
        'http://127.0.0.1:...'
        >>> gateway.shutdown()
    """

    def __init__(
        self,
        scheduler: JobScheduler,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_body_bytes: int = 8 * 1024 * 1024,
        keepalive_timeout: float = 75.0,
        sse_heartbeat: float = 15.0,
        verbose: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.snapshot = ServiceSnapshot(scheduler.store)
        self.max_body_bytes = int(max_body_bytes)
        self.keepalive_timeout = float(keepalive_timeout)
        self.sse_heartbeat = float(sse_heartbeat)
        self.verbose = verbose
        self.started_at = time.time()
        self._configured_host = host
        self._configured_port = port
        self._bound_addr: Optional[Tuple[str, int]] = None
        self._hub = _JobEventHub()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._closing = False
        self._conn_tasks: "set[asyncio.Task]" = set()
        # Connections waiting for their next request: shutdown closes them at once.
        self._idle_tasks: "set[asyncio.Task]" = set()
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        # Writes are rare and short (a validation + a sqlite insert); a small
        # pool keeps them off the event loop without meaningful overhead.
        self._pool = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-gateway-write"
        )
        self._catalog_bytes: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._bound_addr[0] if self._bound_addr else self._configured_host

    @property
    def port(self) -> int:
        return self._bound_addr[1] if self._bound_addr else self._configured_port

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Serve in a background thread (returns once the socket is bound)."""
        if self._thread is not None:
            return
        self._attach()
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready,), name="repro-gateway", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=10.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join()
            self._thread = None
            self._detach()
            self.scheduler.stop()  # the workers started in _attach
            raise error
        if self._bound_addr is None:
            raise RuntimeError("gateway failed to bind within 10s")

    def shutdown(self) -> None:
        """Graceful stop: close the listener, drain connections, stop workers."""
        self._request_stop()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._detach()
        self.scheduler.stop()

    def serve_forever(self, on_ready: Optional[Callable[[], None]] = None) -> None:
        """Run in the calling thread until :meth:`shutdown` (or Ctrl-C).

        ``on_ready`` is called once the socket is bound, when :attr:`url`
        holds the real port (``port=0`` binds an ephemeral one).

        On the way out the scheduler's workers get a bounded grace period to
        finish their current job, then are abandoned: a foreground server
        must stop when asked, and a job cut short mid-run is exactly what
        restart recovery re-queues on the next start.
        """
        self._attach()
        try:
            asyncio.run(self._amain(on_ready))
        finally:
            self._detach()
            self.scheduler.stop(timeout=2.0)

    def __enter__(self) -> "GatewayServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _attach(self) -> None:
        self.scheduler.start()
        self.snapshot.attach()
        self.scheduler.store.subscribe(self._hub.on_record)

    def _detach(self) -> None:
        self.scheduler.store.unsubscribe(self._hub.on_record)
        self.snapshot.detach()
        self._pool.shutdown(wait=False)

    def _request_stop(self) -> None:
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    def _run_loop(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._amain(ready.set))
        except BaseException as exc:  # noqa: BLE001  # repro: noqa[broad-except] - stored as _startup_error and re-raised by start()
            self._startup_error = exc
        finally:
            ready.set()

    async def _amain(self, on_ready: Optional[Callable[[], None]]) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._closing = False
        self._hub.bind(self._loop)
        server = await asyncio.start_server(
            self._handle_connection,
            self._configured_host,
            self._configured_port,
            limit=65536,
        )
        self._bound_addr = server.sockets[0].getsockname()[:2]
        log_event(
            _logger, "gateway.started",
            host=self.host, port=self.port, workers=self.scheduler.num_workers,
        )
        if on_ready is not None:
            on_ready()
        try:
            await self._stop_event.wait()
        finally:
            self._closing = True
            server.close()
            # Connections idle between requests close at once.  In-flight
            # requests get a short grace period; whatever is still open
            # after it (SSE streams, slow requests) is cancelled.
            for task in self._idle_tasks:
                task.cancel()
            pending = {task for task in self._conn_tasks if not task.done()}
            in_flight = pending - self._idle_tasks
            if in_flight:
                await asyncio.wait(in_flight, timeout=0.5)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            await server.wait_closed()
            log_event(_logger, "gateway.stopped", host=self.host, port=self.port)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        registry = _metrics.get_registry()
        registry.counter(
            "repro_gateway_connections_total", "TCP connections accepted."
        ).inc()
        gauge = registry.gauge(
            "repro_gateway_open_connections", "Currently open gateway connections."
        )
        gauge.inc()
        peer = writer.get_extra_info("peername")
        client_host = peer[0] if isinstance(peer, tuple) else "?"
        try:
            await self._connection_loop(reader, writer, client_host)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away, or shutdown cancelled us mid-request
        finally:
            gauge.dec()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_host: str,
    ) -> None:
        task = asyncio.current_task()
        while not self._closing:
            self._idle_tasks.add(task)
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=self.keepalive_timeout
                )
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return  # clean close (or mid-header hangup) between requests
            except asyncio.TimeoutError:
                return  # idle keep-alive expired
            except asyncio.LimitOverrunError:
                await self._write_simple(
                    writer, 431, {"error": "request headers too large"}, close=True
                )
                return
            finally:
                self._idle_tasks.discard(task)
            try:
                method, target, version, headers = _parse_head(head)
            except ValueError as exc:
                await self._write_simple(
                    writer, 400, {"error": f"malformed request: {exc}"}, close=True
                )
                return
            length_text = headers.get("content-length") or "0"
            if not (length_text.isascii() and length_text.isdigit()):
                await self._write_simple(
                    writer, 400, {"error": "invalid Content-Length"}, close=True
                )
                return
            length = int(length_text)
            if length > self.max_body_bytes:
                # The body is not read: closing is the only safe resync.
                await self._write_simple(
                    writer, 413,
                    {"error": f"request body exceeds {self.max_body_bytes} bytes"},
                    close=True,
                )
                return
            body = await reader.readexactly(length) if length else b""
            keep_alive = self._keep_alive(version, headers)
            close = await self._handle_request(
                writer, method, target, body, client_host, keep_alive
            )
            if close or not keep_alive:
                return

    @staticmethod
    def _keep_alive(version: str, headers: Dict[str, str]) -> bool:
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    async def _handle_request(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        body: bytes,
        client_host: str,
        keep_alive: bool,
    ) -> bool:
        """Serve one parsed request; returns True when the connection must close."""
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        route = _route_label(path)
        start = time.perf_counter()
        status = 500
        close = False
        try:
            if route == "/v1/jobs/{id}/events" and method == "GET":
                status = await self._serve_events(
                    writer, unquote(path[len("/v1/jobs/"):-len("/events")])
                )
                close = True  # an event stream uses up its connection
            else:
                status, payload, content_type = await self._respond(
                    method, path, query, body
                )
                await self._write_payload(
                    writer, status, payload, content_type, keep_alive=keep_alive
                )
        except (ConnectionResetError, BrokenPipeError):
            close = True
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - boundary of the event loop
            log_event(
                _logger, "http.request_error", level=logging.ERROR,
                method=method, path=path,
                error=f"{type(exc).__name__}: {exc}", exc_info=exc,
            )
            status = 500
            try:
                await self._write_json(
                    writer, 500, {"error": "internal server error"},
                    keep_alive=False,
                )
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            close = True
        duration = time.perf_counter() - start
        registry = _metrics.get_registry()
        registry.counter(
            "repro_http_requests_total",
            "HTTP requests by method, route template and status code.",
            labelnames=("method", "route", "status"),
        ).inc(method=method, route=route, status=str(status))
        registry.histogram(
            "repro_http_request_seconds",
            "HTTP request latency by route template.",
            labelnames=("route",),
        ).observe(duration, route=route)
        if self.verbose:
            log_event(
                _logger, "http.request", level=logging.DEBUG,
                method=method, path=path, status=status,
                duration_s=round(duration, 6), client=client_host,
            )
        return close

    async def _respond(
        self,
        method: str,
        path: str,
        query: Dict[str, list],
        body: bytes,
    ) -> Tuple[int, bytes, str]:
        """Route one non-streaming request to (status, body bytes, content type)."""
        if method == "GET":
            if path.startswith("/v1/jobs/") and path.endswith("/trace"):
                # Traces are fetched on demand from sqlite (they are not part
                # of the push-refreshed snapshot: span trees are post-mortem
                # data, not hot status), so the read hops onto the pool.
                return await self._run_write(
                    self._do_trace, unquote(path[len("/v1/jobs/"):-len("/trace")])
                )
            if path == "/v1/debug/flight":
                return self._serve_flight(query)
            if path.startswith("/v1/jobs/"):
                job_id = unquote(path[len("/v1/jobs/"):])
                job_bytes = self.snapshot.job_bytes(job_id)
                if job_bytes is None:
                    return _json_response(404, {"error": f"no such job: {job_id}"})
                return 200, job_bytes, "application/json"
            if path == "/v1/jobs":
                return self._list_jobs(query)
            if path == "/v1/healthz":
                return _json_response(200, self.health())
            if path == "/v1/metrics":
                return self._serve_metrics(query)
            if path == "/v1/scenarios":
                return 200, self._catalog(), "application/json"
            return _json_response(404, {"error": f"no such path: {path}"})
        if method == "POST":
            payload = _decode_json_body(body)
            if isinstance(payload, str):  # decode error message
                return _json_response(400, {"error": payload})
            if path == "/v1/jobs":
                return await self._run_write(self._do_submit, payload)
            if path == "/v1/scenarios/preview":
                return await self._run_write(self._do_preview, payload)
            return _json_response(404, {"error": f"no such path: {path}"})
        if method == "DELETE":
            if path.startswith("/v1/jobs/"):
                return await self._run_write(
                    self._do_cancel, unquote(path[len("/v1/jobs/"):])
                )
            return _json_response(404, {"error": f"no such path: {path}"})
        return _json_response(405, {"error": f"method {method} not allowed"})

    # ------------------------------------------------------------------
    # Read endpoints (snapshot-only)
    # ------------------------------------------------------------------

    def _list_jobs(self, query: Dict[str, list]) -> Tuple[int, bytes, str]:
        try:
            body = self.snapshot.list_bytes(
                state=query.get("state", [None])[0],
                kind=query.get("kind", [None])[0],
                limit=int(query["limit"][0]) if "limit" in query else None,
            )
        except ValueError as exc:
            return _json_response(400, {"error": str(exc)})
        return 200, body, "application/json"

    def _serve_metrics(self, query: Dict[str, list]) -> Tuple[int, bytes, str]:
        registry = _metrics.get_registry()
        if query.get("format", [None])[0] == "json":
            return _json_response(200, {"metrics": registry.snapshot()})
        return (
            200,
            registry.render_prometheus().encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _serve_flight(self, query: Dict[str, list]) -> Tuple[int, bytes, str]:
        from repro.obs.flight import get_flight_recorder

        payload = get_flight_recorder().snapshot()
        kind = query.get("kind", [None])[0]
        if kind is not None:
            payload["events"] = [e for e in payload["events"] if e["kind"] == kind]
        return _json_response(200, {"flight": payload})

    def _do_trace(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        store = self.scheduler.store
        if store.get(job_id) is None:
            return 404, {"error": f"no such job: {job_id}"}
        trace = store.get_trace(job_id)
        if trace is None:
            return 404, {"error": f"no trace recorded for job: {job_id}"}
        return 200, {"job_id": job_id, "trace": trace}

    def _catalog(self) -> bytes:
        if self._catalog_bytes is None:
            self._catalog_bytes = json.dumps(catalog_payload()).encode("utf-8")
        return self._catalog_bytes

    def health(self) -> Dict[str, Any]:
        """Liveness payload; job counts come from the snapshot, not sqlite."""
        counts = self.snapshot.counts()
        registry = _metrics.get_registry()
        cache = self.scheduler.cache
        return {
            "status": "ok",
            "server": "asyncio-gateway",
            "jobs": counts,
            "workers": self.scheduler.num_workers,
            "backend": repr(self.scheduler.backend),
            "cache": repr(cache) if cache is not None else None,
            "uptime_seconds": time.time() - self.started_at,
            "stats": {
                "http_requests": registry.total("repro_http_requests_total"),
                "jobs_submitted": registry.total("repro_jobs_submitted_total"),
                "jobs_deduplicated": registry.total("repro_jobs_deduplicated_total"),
                "jobs_executed": registry.total("repro_jobs_completed_total"),
                "queue_depth": counts["queued"],
                "open_sse_streams": self._hub.subscriber_count(),
                "cache_hits": cache.hits if cache is not None else 0,
                "cache_misses": cache.misses if cache is not None else 0,
            },
        }

    # ------------------------------------------------------------------
    # Write endpoints (thread-pool seam onto the scheduler)
    # ------------------------------------------------------------------

    async def _run_write(self, fn, *args) -> Tuple[int, bytes, str]:
        loop = asyncio.get_running_loop()
        status, payload = await loop.run_in_executor(self._pool, fn, *args)
        return _json_response(status, payload)

    def _do_submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        with _tracing.start_trace(_tracing.new_correlation_id(), collect=False):
            kind = body.get("kind", "campaign")
            try:
                if kind == "campaign":
                    if "scenario" not in body:
                        raise ValueError('a campaign submission needs a "scenario" object')
                    record, reused = self.scheduler.submit_campaign(
                        body["scenario"], chunk_size=body.get("chunk_size")
                    )
                elif kind == "experiment":
                    if "experiment" not in body:
                        raise ValueError('an experiment submission needs an "experiment" id')
                    record, reused = self.scheduler.submit_experiment(
                        body["experiment"],
                        engine=body.get("engine"),
                        params=body.get("params"),
                    )
                else:
                    raise ValueError(
                        f"unknown job kind {kind!r}; expected 'campaign' or 'experiment'"
                    )
            except (KeyError, TypeError, ValueError) as exc:
                return 400, {"error": str(exc)}
            return (
                200 if reused else 201,
                {"job": record.to_dict(include_result=False), "deduplicated": reused},
            )

    def _do_preview(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, sweep_preview_payload(body)
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}

    def _do_cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        with _tracing.start_trace(_tracing.new_correlation_id(), collect=False):
            store = self.scheduler.store
            record = store.get(job_id)
            if record is None:
                return 404, {"error": f"no such job: {job_id}"}
            updated = store.request_cancel(job_id)
            if record.state == "queued" and updated.state == "cancelled":
                _metrics.get_registry().counter(
                    "repro_jobs_cancelled_total",
                    "Jobs cancelled, by kind.",
                    labelnames=("kind",),
                ).inc(kind=record.kind)
                self.scheduler._update_queue_depth()
            log_event(
                _logger, "job.cancel_requested",
                job_id=job_id, kind=record.kind, state=updated.state,
            )
            return 200, {"job": updated.to_dict(include_result=False)}

    # ------------------------------------------------------------------
    # Server-sent events
    # ------------------------------------------------------------------

    async def _serve_events(self, writer: asyncio.StreamWriter, job_id: str) -> int:
        """Stream ``progress`` events until the job is terminal; returns status.

        The subscription is registered *before* the initial state is read,
        so a transition landing in between is delivered, never lost
        (duplicates are possible and harmless -- progress is monotone).
        """
        queue = self._hub.subscribe(job_id)
        registry = _metrics.get_registry()
        events = registry.counter(
            "repro_sse_events_total",
            "Server-sent events emitted, by event name.",
            labelnames=("event",),
        )
        try:
            record = self.snapshot.record(job_id)
            if record is None:
                await self._write_json(
                    writer, 404, {"error": f"no such job: {job_id}"}, keep_alive=False
                )
                return 404
            registry.counter(
                "repro_sse_streams_total", "SSE progress streams opened."
            ).inc()
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1"))
            payload = _progress_payload(record)
            terminal = payload["state"] in ("done", "failed", "cancelled")
            writer.write(_sse_frame("end" if terminal else "progress", payload))
            events.inc(event="end" if terminal else "progress")
            await writer.drain()
            while not terminal:
                try:
                    payload = await asyncio.wait_for(
                        queue.get(), timeout=self.sse_heartbeat
                    )
                except asyncio.TimeoutError:
                    # Heartbeat comment: keeps proxies open and surfaces dead
                    # clients (the write raises once the socket is gone).
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    continue
                terminal = payload["state"] in ("done", "failed", "cancelled")
                writer.write(_sse_frame("end" if terminal else "progress", payload))
                events.inc(event="end" if terminal else "progress")
                await writer.drain()
            return 200
        finally:
            self._hub.unsubscribe(job_id, queue)

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------

    async def _write_payload(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        *,
        keep_alive: bool,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        await self._write_payload(
            writer, status, body, "application/json", keep_alive=keep_alive
        )

    async def _write_simple(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        close: bool,
    ) -> None:
        try:
            await self._write_json(writer, status, payload, keep_alive=not close)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    def __repr__(self) -> str:
        return f"GatewayServer(url={self.url!r}, jobs={len(self.snapshot)})"


def _json_response(status: int, payload: Dict[str, Any]) -> Tuple[int, bytes, str]:
    return status, json.dumps(payload).encode("utf-8"), "application/json"


def _decode_json_body(body: bytes):
    """Decoded JSON object, or an error *string* for the 400 response."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"invalid JSON body: {exc}"
    if not isinstance(payload, dict):
        return "the request body must be a JSON object"
    return payload


def _parse_head(head: bytes) -> Tuple[str, str, str, Dict[str, str]]:
    """Parse request line + headers from one ``\\r\\n\\r\\n``-terminated block."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 never fails
        raise ValueError(str(exc)) from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"bad request line: {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ValueError(f"unsupported protocol version: {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip() or " " in name:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.lower()] = value.strip()
    return method, target, version, headers
