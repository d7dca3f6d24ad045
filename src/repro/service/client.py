"""Python client for the scenario service.

A thin, dependency-free (``http.client``) wrapper over the HTTP API of
:mod:`repro.service.gateway`, plus the one non-trivial conversion: rebuilding
a :class:`~repro.simulation.campaign.CampaignResult` from a finished job's
payload.  The server ships each strategy's samples as base64 of their
little-endian float64 bytes, so the rebuilt samples are bit-identical to the
ones it computed.

>>> client = ServiceClient("http://127.0.0.1:8765")   # doctest: +SKIP
>>> job = client.submit_campaign(spec)                # doctest: +SKIP
>>> done = client.wait(job["id"])                     # doctest: +SKIP
>>> result = client.campaign_result(done)             # doctest: +SKIP
"""

from __future__ import annotations

import base64
import http.client
import json
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Union
from urllib.parse import quote, urlencode, urlsplit

import numpy as np

from repro.runtime.scenario import ScenarioSpec
from repro.simulation.campaign import CampaignResult

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP request the service rejected (or could not complete).

    Attributes
    ----------
    status:
        HTTP status code, or None for transport-level failures.
    payload:
        Decoded JSON error body when the server provided one.
    """

    def __init__(self, message: str, *, status: Optional[int] = None, payload=None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload


class _Connection(http.client.HTTPConnection):
    """A keep-alive connection that closes its socket when collected.

    A thread's connection is dropped when the thread ends, and a client's
    when it is dropped without :meth:`ServiceClient.close`.
    """

    def __del__(self) -> None:
        self.close()


class ServiceClient:
    """Talks to a running scenario service.

    Parameters
    ----------
    base_url:
        Server address, e.g. ``"http://127.0.0.1:8765"``.
    timeout:
        Per-request socket timeout in seconds.

    Example::

        >>> client = ServiceClient("http://127.0.0.1:8765")
        >>> job = client.submit_campaign(spec)            # doctest: +SKIP
        >>> done = client.wait(job["id"], stream=True)    # doctest: +SKIP
        >>> result = ServiceClient.campaign_result(done)  # doctest: +SKIP

    ``wait(stream=True)`` follows the gateway's SSE event stream instead of
    polling.

    Each thread keeps one keep-alive connection, opened on its first
    request; :meth:`events` opens its own, because the gateway closes a
    stream's connection.  A request that finds its reused connection closed
    by the server (no response byte arrived) is sent once more on a fresh
    one; a request that fails on a fresh connection is never resent, so a
    submission is never sent twice.  :meth:`close` (or leaving a ``with``
    block) closes every connection; a later request reconnects.
    """

    def __init__(
        self, base_url: str = "http://127.0.0.1:8765", *, timeout: float = 30.0
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._prefix = urlsplit(self.base_url).path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()

    def close(self) -> None:
        """Close the keep-alive connection of every thread (call with no request in flight)."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Raw transport
    # ------------------------------------------------------------------

    def _new_connection(self, timeout: float) -> _Connection:
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServiceError(
                f"cannot reach the scenario service at {self.base_url}: not an http:// URL"
            )
        return _Connection(parts.hostname, parts.port, timeout=timeout)

    def _connection(self) -> _Connection:
        """The calling thread's keep-alive connection (made on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._new_connection(self.timeout)
            with self._lock:
                self._connections.add(connection)
        return connection

    def _unreachable(self, exc: BaseException) -> ServiceError:
        return ServiceError(f"cannot reach the scenario service at {self.base_url}: {exc}")

    def _fetch(
        self,
        method: str,
        path: str,
        *,
        data: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> bytes:
        """Send one request on this thread's connection and return the response body.

        Every endpoint but :meth:`events` goes through here, so every HTTP
        error becomes the same :class:`ServiceError`: an error status
        carries the server's ``error`` message and payload, an unreachable
        server or a timeout has ``status`` None.
        """
        connection = self._connection()
        target, headers = self._prefix + path, headers or {}
        fresh = connection.sock is None
        try:
            try:
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # The server closed the reused connection while it was idle
                # (http.client.RemoteDisconnected is a ConnectionResetError):
                # no response byte came, so the request never ran.
                connection.close()
                if fresh:
                    raise
                connection.request(method, target, body=data, headers=headers)
                response = connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise self._unreachable(exc) from exc
        if not 200 <= response.status < 300:
            raise _status_error(method, path, response, body)
        return body

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if data else None
        return json.loads(self._fetch(method, path, data=data, headers=headers))

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics?format=json`` -- the server's metric snapshot."""
        return self._request("GET", "/v1/metrics?format=json")["metrics"]

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` -- raw Prometheus text exposition."""
        return self._fetch("GET", "/v1/metrics").decode("utf-8")

    def job_stats(self, job_id: str) -> Optional[Dict[str, float]]:
        """The per-phase timing breakdown of one job (None until executed).

        Phases are ``queue_wait_s`` / ``compute_s`` / ``cache_s``, recorded
        by the scheduler when the job reaches a terminal state.
        """
        return self.job(job_id)["timings"].get("phases")

    def job_trace(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}/trace`` -- the job's persisted span-tree payload.

        Returns ``{"correlation_id", "dropped", "spans": [...]}``.  Raises
        :class:`ServiceError` with status 404 while the job has not executed
        yet (or predates trace persistence).  Render the spans with
        :func:`repro.obs.render_span_tree` -- that is what
        ``repro jobs --trace ID`` does.
        """
        return self._request("GET", f"/v1/jobs/{quote(job_id, safe='')}/trace")["trace"]

    def debug_flight(self, *, kind: Optional[str] = None) -> Dict[str, Any]:
        """``GET /v1/debug/flight`` -- the server's flight-recorder dump.

        Returns ``{"capacity", "recorded_total", "dropped", "events": [...]}``,
        optionally filtered to one event ``kind`` (``span``, ``log``,
        ``error``).
        """
        return self._request("GET", "/v1/debug/flight" + _query(kind=kind))["flight"]

    def scenarios(self) -> Dict[str, Any]:
        """``GET /v1/scenarios`` -- the experiment/engine catalog."""
        return self._request("GET", "/v1/scenarios")

    def preview_sweep(
        self, scenario: Union[ScenarioSpec, Dict[str, Any]], axes: Dict[str, List[Any]]
    ) -> Dict[str, Any]:
        """``POST /v1/scenarios/preview`` -- expand a sweep without running it."""
        if isinstance(scenario, ScenarioSpec):
            scenario = scenario.to_dict()
        return self._request(
            "POST", "/v1/scenarios/preview", {"scenario": scenario, "axes": axes}
        )

    def submit_campaign(
        self,
        scenario: Union[ScenarioSpec, Dict[str, Any]],
        *,
        chunk_size: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Submit a campaign; returns the job dict (``job["deduplicated"]`` set).

        Accepts a :class:`ScenarioSpec` or its plain-dict form.
        """
        if isinstance(scenario, ScenarioSpec):
            scenario = scenario.to_dict()
        body: Dict[str, Any] = {"kind": "campaign", "scenario": scenario}
        if chunk_size is not None:
            body["chunk_size"] = chunk_size
        reply = self._request("POST", "/v1/jobs", body)
        job = reply["job"]
        job["deduplicated"] = reply.get("deduplicated", False)
        return job

    def submit_experiment(
        self,
        experiment: str,
        *,
        engine: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit a registry experiment (E1-E10) run."""
        body: Dict[str, Any] = {"kind": "experiment", "experiment": experiment}
        if engine is not None:
            body["engine"] = engine
        if params:
            body["params"] = params
        reply = self._request("POST", "/v1/jobs", body)
        job = reply["job"]
        job["deduplicated"] = reply.get("deduplicated", False)
        return job

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}`` -- full record including any result."""
        return self._request("GET", f"/v1/jobs/{quote(job_id, safe='')}")["job"]

    def jobs(
        self,
        *,
        state: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """``GET /v1/jobs`` -- job summaries, newest first."""
        return self._request(
            "GET", "/v1/jobs" + _query(state=state, kind=kind, limit=limit)
        )["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /v1/jobs/{id}`` -- request cancellation."""
        return self._request("DELETE", f"/v1/jobs/{quote(job_id, safe='')}")["job"]

    def events(self, job_id: str, *, timeout: Optional[float] = None):
        """``GET /v1/jobs/{id}/events`` -- yield ``(event, data)`` SSE pairs.

        A generator over the server-sent-events progress stream the
        gateway serves: ``("progress", {...})`` per observed transition, a
        terminal ``("end", {...})``, and ``("heartbeat", None)`` for the
        keep-alive comments quiet streams carry.  ``data`` is the decoded
        JSON payload (job id, state, chunk progress -- never the result;
        fetch that with :meth:`job` after the ``end`` event).

        Raises :class:`ServiceError` on HTTP errors (404 for an unknown job).

        Example::

            >>> for event, data in client.events(job["id"]):   # doctest: +SKIP
            ...     if event == "end":
            ...         break
        """
        path = f"/v1/jobs/{quote(job_id, safe='')}/events"
        connection = self._new_connection(self.timeout if timeout is None else timeout)
        try:
            try:
                connection.request(
                    "GET", self._prefix + path, headers={"Accept": "text/event-stream"}
                )
                response = connection.getresponse()
                if not 200 <= response.status < 300:
                    raise _status_error("GET", path, response, response.read())
            except (OSError, http.client.HTTPException) as exc:
                raise self._unreachable(exc) from exc
            event_name: str = "message"
            data_lines: List[str] = []
            while True:
                try:
                    raw = response.readline()
                except OSError as exc:
                    raise ServiceError(
                        f"event stream for job {job_id} interrupted: {exc}"
                    ) from exc
                if not raw:
                    return  # server closed the stream
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:  # blank line terminates one frame
                    if data_lines:
                        data = "\n".join(data_lines)
                        try:
                            payload: Any = json.loads(data)
                        except json.JSONDecodeError:
                            payload = data
                        yield event_name, payload
                    event_name, data_lines = "message", []
                    continue
                if line.startswith(":"):
                    yield "heartbeat", None
                    continue
                field, _, value = line.partition(":")
                if value.startswith(" "):
                    value = value[1:]
                if field == "event":
                    event_name = value
                elif field == "data":
                    data_lines.append(value)
        finally:
            connection.close()

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        poll_interval: float = 0.2,
        max_poll_interval: float = 2.0,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        stream: bool = False,
    ) -> Dict[str, Any]:
        """Wait until the job reaches a terminal state; returns its record.

        Raises :class:`ServiceError` when ``timeout`` elapses first.  The
        returned job may be ``done``, ``failed`` or ``cancelled`` -- the
        caller decides what failure means for it.

        With ``stream=True`` the client follows the gateway's SSE progress
        stream (:meth:`events`) instead of polling: each transition arrives
        pushed, and the terminal record is fetched once at the end.  Either
        way an unknown job raises :class:`ServiceError` with status 404.

        ``on_progress`` is called with the freshly observed record whenever
        its observable state changes (job state, chunk progress, or the
        first observation), which is how ``repro submit --wait`` renders a
        live progress line.  When polling, the interval starts at
        ``poll_interval`` and backs off by half its value per unchanged poll
        up to ``max_poll_interval``, so short jobs return promptly while
        long jobs do not hammer the service; any observed change resets the
        interval to ``poll_interval``.
        """
        if stream:
            return self._wait_streaming(job_id, timeout=timeout, on_progress=on_progress)
        deadline = time.monotonic() + timeout
        interval = poll_interval
        last_seen: Optional[tuple] = None
        while True:
            record = self.job(job_id)
            observed = (record["state"], record["progress"]["chunks_done"],
                        record["progress"]["chunks_total"])
            if observed != last_seen:
                interval = poll_interval
                if on_progress is not None:
                    on_progress(record)
                last_seen = observed
            else:
                interval = min(interval + poll_interval / 2, max_poll_interval)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} still {record['state']!r} after {timeout:g}s"
                )
            # Never sleep past the caller's deadline: a backed-off interval
            # must not stretch the effective timeout.
            time.sleep(min(interval, remaining))

    def _wait_streaming(
        self,
        job_id: str,
        *,
        timeout: float,
        on_progress: Optional[Callable[[Dict[str, Any]], None]],
    ) -> Dict[str, Any]:
        """SSE-driven wait: consume events until terminal, then fetch the record.

        SSE frames carry a compact flat payload; it is reshaped into the
        record form the polling path delivers (``progress`` sub-dict) so
        ``on_progress`` callbacks work identically either way.  The deadline
        is enforced at every event *and* heartbeat, so a stalled job cannot
        outlive ``timeout`` by more than one heartbeat interval.
        """
        deadline = time.monotonic() + timeout
        last_seen: Optional[tuple] = None
        last_state = "unknown"
        for event, payload in self.events(job_id):
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {last_state!r} after {timeout:g}s"
                )
            if event == "heartbeat" or not isinstance(payload, dict):
                continue
            record_view = {
                "id": payload.get("id", job_id),
                "state": payload.get("state"),
                "error": payload.get("error"),
                "progress": {
                    "chunks_done": payload.get("chunks_done", 0),
                    "chunks_total": payload.get("chunks_total", 0),
                },
            }
            last_state = record_view["state"]
            observed = (record_view["state"],
                        record_view["progress"]["chunks_done"],
                        record_view["progress"]["chunks_total"])
            if observed != last_seen:
                if on_progress is not None:
                    on_progress(record_view)
                last_seen = observed
            if event == "end" or last_state in ("done", "failed", "cancelled"):
                # The stream never carries result payloads (they can be
                # megabytes); one final fetch has the full record.
                return self.job(job_id)
        raise ServiceError(
            f"event stream for job {job_id} ended before the job finished"
        )

    # ------------------------------------------------------------------
    # Result reconstruction
    # ------------------------------------------------------------------

    @staticmethod
    def campaign_result(job: Dict[str, Any]) -> CampaignResult:
        """Rebuild the :class:`CampaignResult` of a finished campaign job.

        The makespan samples are bit-identical to what a direct
        :meth:`ScenarioSpec.run` with the same spec produces: the server
        ships each strategy's raw doubles as base64 of their little-endian
        float64 bytes, decoded here with ``np.frombuffer``.  The payload
        comes from outside the process, so a sample string that is not valid
        base64, whose length is not a whole number of float64 values, or
        that does not hold ``num_runs`` values raises :exc:`ValueError`.  A
        plain float list -- a ``done`` row stored before the byte encoding,
        which dedupe can still answer with on a ``--db`` server -- is
        accepted as it is.
        """
        if job.get("state") != "done":
            raise ValueError(
                f"job {job.get('id')!r} is {job.get('state')!r}, not done"
                + (f": {job['error']}" if job.get("error") else "")
            )
        result = job["result"]
        if not result or result.get("type") != "campaign":
            raise ValueError(f"job {job.get('id')!r} did not produce a campaign result")
        num_runs = int(result["num_runs"])
        return CampaignResult(
            makespans={
                name: _decode_samples(name, samples, num_runs)
                for name, samples in result["makespans"].items()
            },
            num_runs=num_runs,
        )


def _query(**params: Any) -> str:
    """``?key=value&...`` of the parameters that are not None, escaped ("" when none)."""
    query = urlencode({key: value for key, value in params.items() if value is not None})
    return f"?{query}" if query else ""


def _status_error(
    method: str, path: str, response: http.client.HTTPResponse, body: bytes
) -> ServiceError:
    """The :class:`ServiceError` of an error status, with the server's ``error`` message."""
    fallback = f"HTTP Error {response.status}: {response.reason}"
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:  # not UTF-8 or not JSON
        payload = None
    if not isinstance(payload, dict):
        payload = None
    message = payload.get("error", fallback) if payload is not None else fallback
    return ServiceError(
        f"{method} {path} failed ({response.status}): {message}",
        status=response.status, payload=payload,
    )


def _decode_samples(name: str, samples: Any, num_runs: int) -> List[float]:
    """One strategy's makespans from a campaign payload, checked against ``num_runs``."""
    if isinstance(samples, list):
        values = list(samples)
    else:
        try:
            raw = base64.b64decode(samples, validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ValueError(f"samples of {name!r} are not valid base64: {exc}") from None
        if len(raw) % 8:
            raise ValueError(
                f"samples of {name!r} hold {len(raw)} bytes, not a whole number of float64 values"
            )
        values = np.frombuffer(raw, dtype="<f8").tolist()
    if len(values) != num_runs:
        raise ValueError(
            f"samples of {name!r} hold {len(values)} values, expected num_runs = {num_runs}"
        )
    return values
