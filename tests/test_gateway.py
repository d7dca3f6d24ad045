"""Tests for the asyncio serving gateway and its support layers.

The load-bearing guarantees:

* **fidelity** -- a campaign submitted through the gateway returns samples
  bit-identical to a direct run (the gateway is a faster door, not a
  different computation);
* **freshness** -- the in-memory snapshot answering read endpoints reflects
  every job-state transition (push-refreshed, no polling, no stale cache);
* **streaming** -- SSE progress events arrive in monotone order and end with
  a terminal event, frames survive being split across TCP segments, and a
  client that disconnects mid-stream is cleaned up server-side.
"""

import io
import json
import logging
import socket
import threading
import time

import pytest

from repro.obs.logging import configure_logging
from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayServer
from repro.service.jobs import JOB_STATES, JobStore
from repro.service.queue import JobScheduler
from repro.service.snapshot import ServiceSnapshot


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="gw-test",
        chain=ChainSpec(n=5, seed=2),
        failure=FailureSpec(kind="weibull", mtbf=40.0, shape=0.7),
        strategies=("optimal_dp",),
        num_runs=120,
        downtime=0.2,
        seed=3,
        engine="vectorized",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------


class TestServiceSnapshot:
    def test_prime_and_push_refresh(self):
        with JobStore() as store:
            before = store.submit("campaign", {"n": 0})
            snapshot = ServiceSnapshot(store)
            snapshot.attach()
            assert snapshot.get(before.id)["state"] == "queued"  # primed
            after = store.submit("campaign", {"n": 1})
            assert snapshot.get(after.id)["state"] == "queued"  # pushed
            store.claim_next()
            assert snapshot.get(before.id)["state"] == "running"
            assert snapshot.counts()["running"] == 1
            snapshot.detach()

    def test_job_bytes_cached_until_transition(self):
        with JobStore() as store:
            snapshot = ServiceSnapshot(store)
            snapshot.attach()
            job = store.submit("campaign", {})
            first = snapshot.job_bytes(job.id)
            assert snapshot.job_bytes(job.id) is first  # cached object reused
            store.claim_next()
            second = snapshot.job_bytes(job.id)
            assert second is not first
            assert json.loads(second)["job"]["state"] == "running"
            assert snapshot.job_bytes("nope") is None

    def test_list_jobs_mirrors_store_filters(self):
        # The snapshot is the one place listings are filtered.
        with JobStore() as store:
            snapshot = ServiceSnapshot(store)
            snapshot.attach()
            store.submit("campaign", {"n": 1})
            store.submit("experiment", {"experiment": "E2"})
            assert len(snapshot.list_jobs()) == 2
            assert [j["kind"] for j in snapshot.list_jobs(kind="experiment")] == [
                "experiment"
            ]
            assert len(snapshot.list_jobs(limit=1)) == 1
            assert snapshot.list_jobs(limit=0) == []
            with pytest.raises(ValueError, match="unknown state"):
                snapshot.list_jobs(state="bogus")
            for bad in (-1, 1.5, "2"):
                with pytest.raises(ValueError, match="non-negative integer"):
                    snapshot.list_jobs(limit=bad)

    def test_detach_stops_updates(self):
        with JobStore() as store:
            snapshot = ServiceSnapshot(store)
            snapshot.attach()
            snapshot.detach()
            job = store.submit("campaign", {})
            assert snapshot.get(job.id) is None

    def test_counts_follow_every_transition(self):
        def check():
            expected = dict.fromkeys(JOB_STATES, 0)
            for record in store.list_jobs():
                expected[record.state] += 1
            assert snapshot.counts() == expected
            assert sum(expected.values()) == len(snapshot)

        with JobStore() as store:
            store.submit("campaign", {"n": 0})
            snapshot = ServiceSnapshot(store)
            snapshot.attach()  # primes one queued job
            check()
            queued = [store.submit("campaign", {"n": k}) for k in range(1, 6)]
            check()
            store.finish(store.claim_next().id, {"type": "campaign"})
            check()
            store.fail(store.claim_next().id, "boom")
            check()
            store.request_cancel(queued[-1].id)  # queued -> cancelled at once
            check()
            running = store.claim_next()
            store.request_cancel(running.id)  # flag only: still running
            check()
            store.mark_cancelled(running.id)
            check()
            store.claim_next()
            assert snapshot.counts()["running"] == 1
            assert store.recover_interrupted() == 1  # restart: running -> queued
            check()
            snapshot.prime()
            check()
            assert snapshot.counts() == {
                "queued": 2, "running": 0, "done": 1, "failed": 1, "cancelled": 2,
            }
            snapshot.detach()


class TestJobStoreListeners:
    def test_listener_sees_every_transition(self):
        states = []
        with JobStore() as store:
            store.subscribe(lambda record: states.append(record.state))
            job = store.submit("campaign", {})
            store.claim_next()
            store.update_progress(job.id, 1, 2)
            store.finish(job.id, {"type": "campaign"})
        assert states == ["queued", "running", "running", "done"]

    def test_failing_listener_does_not_break_the_store(self):
        def bad(record):
            raise RuntimeError("listener bug")

        seen = []
        with JobStore() as store:
            store.subscribe(bad)
            store.subscribe(lambda record: seen.append(record.id))
            job = store.submit("campaign", {})
            assert store.get(job.id) is not None  # store still works
            assert seen == [job.id]  # later listeners still ran
            store.unsubscribe(bad)
            store.unsubscribe(bad)  # unsubscribing twice is harmless


# ----------------------------------------------------------------------
# Gateway HTTP surface
# ----------------------------------------------------------------------


@pytest.fixture()
def gateway():
    store = JobStore()
    scheduler = JobScheduler(store, num_workers=1)
    server = GatewayServer(scheduler, port=0, sse_heartbeat=0.1)
    server.start()
    yield server
    server.shutdown()
    store.close()


@pytest.fixture()
def restore_repro_logging():
    """Undo ``configure_logging`` afterwards, so later tests keep a quiet stderr."""
    root = logging.getLogger("repro")
    propagate = root.propagate
    yield
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    root.propagate = propagate


def _raw_exchange(host, port, payload: bytes, *, expect: int = 1) -> bytes:
    """Send raw bytes, read until the peer closes or `expect` responses seen."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(payload)
        sock.settimeout(10)
        chunks = []
        while sum(chunk.count(b"HTTP/1.1 ") for chunk in chunks) < expect:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:  # pragma: no cover - diagnosing hangs
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


class TestGatewayHTTP:
    def test_campaign_is_bit_identical_to_direct_run(self, gateway):
        spec = small_spec()
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(spec)
        assert not job["deduplicated"]
        done = client.wait(job["id"], timeout=60)
        via_gateway = ServiceClient.campaign_result(done)
        direct = spec.run()
        assert via_gateway.makespans == direct.makespans

    def test_resubmit_deduplicates(self, gateway):
        client = ServiceClient(gateway.url)
        first = client.submit_campaign(small_spec())
        client.wait(first["id"], timeout=60)
        again = client.submit_campaign(small_spec())
        assert again["deduplicated"] and again["id"] == first["id"]

    def test_health_and_catalog_shapes(self, gateway):
        client = ServiceClient(gateway.url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["server"] == "asyncio-gateway"
        assert set(health["jobs"]) == {"queued", "running", "done", "failed",
                                       "cancelled"}
        assert "queue_depth" in health["stats"]
        catalog = client.scenarios()
        assert "engines" in catalog and "experiments" in catalog

    def test_keep_alive_and_pipelining(self, gateway):
        request = (b"GET /v1/healthz HTTP/1.1\r\n"
                   b"Host: t\r\n\r\n")
        # Two requests in one write: both answered, in order, one connection.
        raw = _raw_exchange(gateway.host, gateway.port, request * 2, expect=2)
        assert raw.count(b"HTTP/1.1 200 OK") == 2
        assert b'"status": "ok"' in raw

    def test_header_split_across_tcp_segments(self, gateway):
        with socket.create_connection((gateway.host, gateway.port), timeout=10) as sock:
            sock.sendall(b"GET /v1/healthz HTT")
            time.sleep(0.05)
            sock.sendall(b"P/1.1\r\nHost: t\r\n\r\n")
            sock.settimeout(10)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")

    def test_malformed_request_line_is_400(self, gateway):
        raw = _raw_exchange(gateway.host, gateway.port, b"NONSENSE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_unsupported_version_is_400(self, gateway):
        raw = _raw_exchange(
            gateway.host, gateway.port, b"GET /v1/healthz HTTP/0.9\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_unknown_path_404_and_method_405(self, gateway):
        client = ServiceClient(gateway.url)
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/v1/nope")
        assert exc_info.value.status == 404
        raw = _raw_exchange(
            gateway.host, gateway.port, b"PUT /v1/jobs HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 405 ")

    def test_oversized_body_is_413_and_closes(self, gateway):
        gateway.max_body_bytes = 64
        try:
            head = (b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 1000\r\n\r\n")
            raw = _raw_exchange(gateway.host, gateway.port, head)
            assert raw.startswith(b"HTTP/1.1 413 ")
            assert b"Connection: close" in raw
        finally:
            gateway.max_body_bytes = 8 * 1024 * 1024

    def test_oversized_headers_are_431(self, gateway):
        huge = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n"
        raw = _raw_exchange(gateway.host, gateway.port, huge)
        assert raw.startswith(b"HTTP/1.1 431 ")

    def test_negative_content_length_is_400_and_closes(self, gateway):
        head = (b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: -5\r\n\r\n")
        raw = _raw_exchange(gateway.host, gateway.port, head)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"invalid Content-Length" in raw
        assert b"Connection: close" in raw

    def test_bad_submit_is_400(self, gateway):
        client = ServiceClient(gateway.url)
        with pytest.raises(ServiceError) as exc_info:
            client._request("POST", "/v1/jobs", {"kind": "campaign"})
        assert exc_info.value.status == 400
        assert "scenario" in str(exc_info.value)

    def test_cancel_queued_job_is_logged(self, gateway, restore_repro_logging):
        gateway.scheduler.stop()  # park the workers: the job stays queued
        stream = io.StringIO()
        configure_logging(stream=stream)
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(small_spec(num_runs=130))
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        # The JSON log is the control-plane record: each write is one event
        # carrying the correlation id of the request that made it.
        events = {
            event["event"]: event
            for event in map(json.loads, stream.getvalue().splitlines())
            if event.get("job_id") == job["id"]
        }
        submitted = events["job.submitted"]
        cancel = events["job.cancel_requested"]
        assert submitted["correlation_id"] and cancel["correlation_id"]
        assert not submitted["reused"]
        assert cancel["state"] == "cancelled"

    def test_list_limit_is_validated(self, gateway):
        gateway.scheduler.stop()  # park the workers: listing needs no results
        client = ServiceClient(gateway.url)
        for seed in (1, 2):
            client.submit_campaign(small_spec(seed=seed))
        assert len(client.jobs(limit=1)) == 1
        assert client.jobs(limit=0) == []
        for bad in ("-1", "1.5", "x"):
            with pytest.raises(ServiceError) as exc_info:
                client._request("GET", f"/v1/jobs?limit={bad}")
            assert exc_info.value.status == 400
            assert set(exc_info.value.payload) == {"error"}

    def test_preview_sweep(self, gateway):
        client = ServiceClient(gateway.url)
        preview = client.preview_sweep(small_spec(), {"num_runs": [10, 20]})
        assert preview["count"] == 2

    def test_preview_rejects_unknown_fields_and_a_missing_scenario(self, gateway):
        client = ServiceClient(gateway.url)
        with pytest.raises(ServiceError) as exc_info:
            client._request("POST", "/v1/scenarios/preview", {
                "scenario": small_spec().to_dict(), "sweep": {"num_runs": [10, 20, 30]},
            })
        assert exc_info.value.status == 400
        message = exc_info.value.payload["error"]
        assert "'sweep'" in message and "'scenario'" in message and "'axes'" in message
        with pytest.raises(ServiceError) as exc_info:
            client._request("POST", "/v1/scenarios/preview", {"axes": {"seed": [1, 2]}})
        assert exc_info.value.status == 400
        assert exc_info.value.payload["error"] == 'a sweep preview needs a "scenario" object'

    def test_port_conflict_raises_on_start(self, gateway):
        store = JobStore()
        other = GatewayServer(
            JobScheduler(store, num_workers=1), host=gateway.host, port=gateway.port
        )
        with pytest.raises(OSError):
            other.start()
        store.close()


# ----------------------------------------------------------------------
# Server-sent events
# ----------------------------------------------------------------------


class TestServerSentEvents:
    def test_progress_is_monotone_and_ends_terminal(self, gateway):
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(small_spec(num_runs=150), chunk_size=50)
        seen = []
        for event, data in client.events(job["id"]):
            if event == "heartbeat":
                continue
            seen.append((event, data["state"], data["chunks_done"]))
            if event == "end":
                break
        names = [name for name, _, _ in seen]
        assert names[-1] == "end" and set(names[:-1]) <= {"progress"}
        done_counts = [done for _, _, done in seen]
        assert done_counts == sorted(done_counts)  # monotone, never regresses
        assert seen[-1][1] == "done"

    def test_wait_stream_true_needs_no_polling(self, gateway):
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(small_spec(num_runs=140), chunk_size=70)
        polls = []
        original_job = client.job
        client.job = lambda job_id: polls.append(job_id) or original_job(job_id)
        states = []
        record = client.wait(
            job["id"], timeout=60, stream=True,
            on_progress=lambda r: states.append(r["state"]),
        )
        assert record["state"] == "done"
        assert record["result"]["type"] == "campaign"  # final fetch has it
        assert polls == [job["id"]]  # exactly one GET: the terminal fetch
        assert states[-1] == "done"

    def test_events_for_finished_job_is_single_end(self, gateway):
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(small_spec(num_runs=110))
        client.wait(job["id"], timeout=60)
        events = list(client.events(job["id"]))
        assert [name for name, _ in events] == ["end"]
        assert events[0][1]["state"] == "done"

    def test_events_unknown_job_is_404(self, gateway):
        client = ServiceClient(gateway.url)
        with pytest.raises(ServiceError) as exc_info:
            next(iter(client.events("nope")))
        assert exc_info.value.status == 404
        # The streaming wait raises the same 404 for an unknown job.
        with pytest.raises(ServiceError) as exc_info:
            client.wait("nope", timeout=5, stream=True)
        assert exc_info.value.status == 404

    def test_heartbeats_then_cancellation_event(self, gateway):
        gateway.scheduler.stop()  # park the workers: the job never starts
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(small_spec(num_runs=160))
        seen = []

        def consume():
            for event, data in client.events(job["id"]):
                seen.append((event, data))
                if event == "end":
                    return

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if any(name == "heartbeat" for name, _ in seen):
                break
            time.sleep(0.02)
        assert any(name == "heartbeat" for name, _ in seen)  # quiet stream beats
        client.cancel(job["id"])
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert seen[-1][0] == "end" and seen[-1][1]["state"] == "cancelled"

    def test_client_disconnect_mid_stream_is_cleaned_up(self, gateway):
        gateway.scheduler.stop()  # keep the job queued so the stream stays open
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(small_spec(num_runs=170))
        stream = client.events(job["id"])
        assert next(stream)[0] == "progress"  # stream is live
        deadline = time.monotonic() + 10
        while gateway._hub.subscriber_count(job["id"]) != 1:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        stream.close()  # hang up mid-stream without reading the rest
        # The server notices at the next write (heartbeat every 0.1 s here)
        # and drops the subscription.
        while gateway._hub.subscriber_count(job["id"]) != 0:
            assert time.monotonic() < deadline, "subscriber leaked after disconnect"
            time.sleep(0.02)

    def test_client_parser_survives_partial_reads(self):
        """SSE frames split at arbitrary byte boundaries parse identically."""
        frames = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
            b"Connection: close\r\n\r\n"
            b": keep-alive\n\n"
            b"event: progress\ndata: {\"state\": \"running\", \"chunks_done\": 1}\n\n"
            b"event: end\ndata: {\"state\": \"done\", \"chunks_done\": 2}\n\n"
        )

        def serve_dribble(listener):
            conn, _ = listener.accept()
            conn.recv(65536)  # the request; content irrelevant
            for index in range(0, len(frames), 7):  # 7-byte TCP segments
                conn.sendall(frames[index:index + 7])
                time.sleep(0.001)
            conn.close()

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        thread = threading.Thread(target=serve_dribble, args=(listener,), daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            events = list(client.events("any"))
        finally:
            thread.join(timeout=10)
            listener.close()
        assert [name for name, _ in events if name != "heartbeat"] == [
            "progress", "end",
        ]
        assert any(name == "heartbeat" for name, _ in events)
        assert events[-1][1] == {"state": "done", "chunks_done": 2}


# ----------------------------------------------------------------------
# Client error reporting
# ----------------------------------------------------------------------


class TestServiceClientErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda client: client.health(),
            lambda client: client.metrics_text(),
            lambda client: next(client.events("x")),
            lambda client: client.job("x"),
            lambda client: client.submit_campaign(small_spec()),
            lambda client: client.jobs(),
        ],
        ids=["health", "metrics_text", "events", "job", "submit", "jobs"],
    )
    def test_unreachable_service_is_service_error(self, call):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]  # closed on exit: nothing listens
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5)
        with pytest.raises(ServiceError, match="cannot reach") as exc_info:
            call(client)
        assert exc_info.value.status is None


# _cmd_serve configures the structured log stream before its validation fires.
@pytest.mark.usefixtures("restore_repro_logging")
class TestGatewayCLI:
    def test_serve_validation_error_exits_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="chunk_size"):
            main(["serve", "--chunk-size", "999999999"])
