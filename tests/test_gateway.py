"""Tests for the asyncio serving gateway and its support layers.

The load-bearing guarantees:

* **fidelity** -- a campaign submitted through the gateway returns samples
  bit-identical to a direct run (the gateway is a faster door, not a
  different computation);
* **freshness** -- the in-memory snapshot answering read endpoints reflects
  every job-state transition (push-refreshed, no polling, no stale cache);
* **admission** -- the token-bucket limiter enforces its rolling window
  per client key, reports exact ``Retry-After`` values, and a throttled
  client that backs off as told succeeds;
* **streaming** -- SSE progress events arrive in monotone order and end with
  a terminal event, frames survive being split across TCP segments, and a
  client that disconnects mid-stream is cleaned up server-side.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.service.audit import AuditTrail
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayServer
from repro.service.jobs import JobStore
from repro.service.queue import JobScheduler
from repro.service.ratelimit import TokenBucketLimiter
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


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# Rate limiter
# ----------------------------------------------------------------------


class TestTokenBucketLimiter:
    def test_burst_then_drain(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=3, clock=clock)
        decisions = [limiter.check("k") for _ in range(4)]
        assert [d.allowed for d in decisions] == [True, True, True, False]
        assert [d.remaining for d in decisions[:3]] == [2, 1, 0]

    def test_window_boundary_refill_is_exact(self):
        """A token exists exactly when the rolling window says it should."""
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=2.0, burst=1, clock=clock)
        assert limiter.check("k").allowed
        # One token every 0.5 s: just before the boundary there is none...
        clock.advance(0.498)
        blocked = limiter.check("k")
        assert not blocked.allowed
        # 0.996 tokens accumulated; the missing 0.004 arrive in 2 ms.
        assert blocked.retry_after == pytest.approx(0.002)
        # ...and exactly at the boundary there is one.
        clock.advance(0.002)
        assert limiter.check("k").allowed

    def test_retry_after_math(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=0.5, burst=1, clock=clock)
        assert limiter.check("k").allowed
        blocked = limiter.check("k")
        assert blocked.retry_after == pytest.approx(2.0)  # one token per 2 s
        clock.advance(1.0)  # half a token accumulated
        assert limiter.check("k").retry_after == pytest.approx(1.0)

    def test_rejections_do_not_consume(self):
        """Hammering while empty never pushes the client further into debt."""
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.check("k").allowed
        for _ in range(50):
            assert limiter.check("k").retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        assert limiter.check("k").allowed

    def test_per_key_isolation(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.check("alice").allowed
        assert not limiter.check("alice").allowed
        assert limiter.check("bob").allowed  # alice's drain never hits bob

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=10.0, burst=2, clock=clock)
        assert limiter.check("k").allowed
        clock.advance(3600.0)  # an hour idle does not bank an hour of tokens
        results = [limiter.check("k").allowed for _ in range(3)]
        assert results == [True, True, False]

    def test_default_burst_is_one_second(self):
        assert TokenBucketLimiter(rate=7.0).burst == 7
        assert TokenBucketLimiter(rate=0.25).burst == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucketLimiter(rate=0.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucketLimiter(rate=1.0, burst=0)

    def test_prune_drops_only_full_buckets(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=2, clock=clock, max_keys=2)
        limiter.check("a")
        clock.advance(5.0)  # "a" is full again -> prunable
        limiter.check("b")
        limiter.check("c")  # hits max_keys, prunes "a", keeps active "b"
        assert len(limiter) == 2
        # "b" kept its spent-token state through the prune.
        assert limiter.check("b").remaining == 0


# ----------------------------------------------------------------------
# Audit trail
# ----------------------------------------------------------------------


class TestAuditTrail:
    def test_in_memory_records_and_drops_none(self):
        trail = AuditTrail()
        entry = trail.record("job.submit", client="c1", job_id="j1", spec_hash=None)
        assert entry["action"] == "job.submit"
        assert "spec_hash" not in entry
        assert entry["ts"] > 0
        assert trail.entries() == [entry]
        assert trail.path is None

    def test_file_backed_jsonl_appends_across_reopen(self, tmp_path):
        path = tmp_path / "audit" / "trail.jsonl"  # parent dir gets created
        with AuditTrail(path) as trail:
            trail.record("job.submit", job_id="a")
        with AuditTrail(path) as trail:
            trail.record("job.cancel", job_id="a")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["action"] for line in lines] == ["job.submit", "job.cancel"]

    def test_retention_cap(self):
        trail = AuditTrail(keep_in_memory=3)
        for index in range(10):
            trail.record("job.submit", job_id=str(index))
        assert [entry["job_id"] for entry in trail.entries()] == ["7", "8", "9"]
        assert [entry["job_id"] for entry in trail.tail(2)] == ["8", "9"]
        assert len(trail) == 3


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

    def test_bad_submit_is_400(self, gateway):
        client = ServiceClient(gateway.url)
        with pytest.raises(ServiceError) as exc_info:
            client._request("POST", "/v1/jobs", {"kind": "campaign"})
        assert exc_info.value.status == 400
        assert "scenario" in str(exc_info.value)

    def test_cancel_queued_job_and_audit_trail(self, gateway):
        gateway.scheduler.stop()  # park the workers: the job stays queued
        client = ServiceClient(gateway.url)
        job = client.submit_campaign(small_spec(num_runs=130))
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        actions = [entry["action"] for entry in gateway.audit.entries()]
        assert actions == ["job.submit", "job.cancel"]
        by_action = {entry["action"]: entry for entry in gateway.audit.entries()}
        assert by_action["job.cancel"]["job_id"] == job["id"]
        assert by_action["job.submit"]["correlation_id"]

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

    def test_port_conflict_raises_on_start(self, gateway):
        store = JobStore()
        other = GatewayServer(
            JobScheduler(store, num_workers=1), host=gateway.host, port=gateway.port
        )
        with pytest.raises(OSError):
            other.start()
        store.close()


class TestGatewayRateLimit:
    @pytest.fixture()
    def limited(self):
        store = JobStore()
        scheduler = JobScheduler(store, num_workers=1)
        server = GatewayServer(scheduler, port=0, rate_limit=5.0, burst=2)
        server.start()
        yield server
        server.shutdown()
        store.close()

    def test_429_retry_after_then_success_after_backoff(self, limited):
        """The e2e contract: throttled, told how long, obeying works."""
        client = ServiceClient(limited.url)
        assert client.scenarios() and client.scenarios()  # burst of 2
        with pytest.raises(ServiceError) as exc_info:
            client.scenarios()
        error = exc_info.value
        assert error.status == 429
        retry_after = error.payload["retry_after"]
        assert 0.0 < retry_after <= 0.2 + 1e-6  # 5 req/s -> next token < 200 ms
        time.sleep(retry_after + 0.02)
        assert client.scenarios()  # backing off as told succeeds

    def test_retry_after_header_is_ceiled_seconds(self, limited):
        for _ in range(2):
            ServiceClient(limited.url).scenarios()
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(limited.url + "/v1/scenarios")
        assert exc_info.value.code == 429
        assert int(exc_info.value.headers["Retry-After"]) >= 1

    def test_per_client_key_isolation(self, limited):
        def hit(key):
            request = urllib.request.Request(
                limited.url + "/v1/scenarios", headers={"X-Client-Key": key}
            )
            return urllib.request.urlopen(request).status

        assert [hit("alice") for _ in range(2)] == [200, 200]
        with pytest.raises(urllib.error.HTTPError):
            hit("alice")
        assert hit("bob") == 200  # alice's exhaustion never throttles bob

    def test_health_and_metrics_are_exempt(self, limited):
        from repro.obs.metrics import get_registry

        client = ServiceClient(limited.url)
        for _ in range(2):
            client.scenarios()
        # The process-global registry is shared with the in-process server.
        throttled_before = get_registry().total("repro_ratelimit_throttled_total")
        for _ in range(5):  # far past the burst: still served
            assert client.health()["status"] == "ok"
        assert "repro_http_requests_total" in client.metrics_text()
        # Exempt routes never count a rejection.
        after = get_registry().total("repro_ratelimit_throttled_total")
        assert after == throttled_before


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


class TestGatewayCLI:
    @pytest.fixture(autouse=True)
    def _restore_log_handlers(self):
        # _cmd_serve configures the structured log stream before its
        # validation fires; undo it so later tests keep a quiet stderr.
        import logging

        yield
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_serve_validation_error_exits_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="chunk_size"):
            main(["serve", "--chunk-size", "999999999"])
