"""Tests for the served path doing each piece of work once.

The load-bearing guarantees:

* **one connection** -- a client thread sends every request but an event
  stream over one keep-alive connection; a request on a connection the
  server closed while idle is sent once more on a fresh one, and a request
  that fails on a fresh connection is never resent; every failure is the
  same :class:`ServiceError` as before;
* **prompt shutdown** -- an idle keep-alive connection does not hold the
  gateway's shutdown;
* **escaping** -- query values and job ids reach the server as the caller
  named them;
* **one encoding** -- a result payload's summary and ranking equal
  :class:`CampaignResult`'s own methods bit for bit; the listing bytes equal
  ``json.dumps`` of the listing; a record the store publishes equals what
  the file store reads back; the listing order equals the stable sort it
  replaced.
"""

import base64
import gc
import json
import socket
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayServer
from repro.service.jobs import JOB_STATES, JobRecord, JobStore
from repro.service.queue import JobScheduler, campaign_result_payload
from repro.service.snapshot import ServiceSnapshot
from repro.simulation.campaign import CampaignResult


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="hot-path",
        chain=ChainSpec(n=5, seed=2),
        failure=FailureSpec(kind="weibull", mtbf=40.0, shape=0.7),
        strategies=("optimal_dp", "checkpoint_all"),
        num_runs=100,
        downtime=0.2,
        seed=3,
        engine="vectorized",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _connections() -> float:
    return metrics.get_registry().total("repro_gateway_connections_total")


def _open_connections() -> float:
    return metrics.get_registry().total("repro_gateway_open_connections")


@pytest.fixture()
def gateway():
    store = JobStore()
    server = GatewayServer(JobScheduler(store, num_workers=1), port=0)
    server.start()
    yield server
    server.shutdown()
    store.close()


@pytest.fixture()
def done_job(gateway):
    with ServiceClient(gateway.url) as client:
        job = client.submit_campaign(small_spec())
        assert client.wait(job["id"], timeout=60, stream=True)["state"] == "done"
    return job["id"]


class _RecordingServer:
    """A socket server that records each request line and answers it.

    Every request gets a 200 JSON body that each client method accepts, on a
    keep-alive connection, except that the first ``drop`` requests are read
    and then answered by closing the connection without a response.
    """

    def __init__(self, *, drop: int = 0) -> None:
        self.lines = []
        self.accepted = 0
        self._drop = drop
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.02)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            conn.settimeout(10)
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        body = json.dumps({"job": {}, "jobs": [], "trace": {}, "flight": {}}).encode()
        with conn, conn.makefile("rb") as reader:
            while True:
                line = reader.readline()
                if not line:
                    break
                length = 0
                while True:
                    header = reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    if header.lower().startswith(b"content-length:"):
                        length = int(header.split(b":", 1)[1])
                reader.read(length)
                self.lines.append(line.decode("latin-1").rstrip("\r\n"))
                if self._drop:
                    self._drop -= 1
                    break
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------


class TestKeepAliveClient:
    def test_sequential_requests_share_one_connection(self, gateway, done_job):
        before = _connections()
        with ServiceClient(gateway.url) as client:
            for _ in range(8):
                assert client.job(done_job)["state"] == "done"
            client.health()
            client.jobs(limit=5)
            assert _connections() - before == 1
            for expected in (2, 3):  # each event stream opens one more
                assert [name for name, _ in client.events(done_job)] == ["end"]
                assert _connections() - before == expected
            client.job(done_job)
        assert _connections() - before == 3

    def test_submit_after_the_idle_connection_closed_runs_once(self):
        store = JobStore()
        server = GatewayServer(
            JobScheduler(store, num_workers=1), port=0, keepalive_timeout=0.05
        )
        server.start()
        try:
            baseline = _open_connections()
            before = _connections()
            client = ServiceClient(server.url)
            client.health()
            deadline = time.monotonic() + 10
            while _open_connections() > baseline:  # the server drops the idle connection
                assert time.monotonic() < deadline
                time.sleep(0.01)
            job = client.submit_campaign(small_spec(seed=11))
            assert job["deduplicated"] is False
            assert [record.id for record in store.list_jobs()] == [job["id"]]
            assert _connections() - before == 2  # the reused one, then a fresh one
            client.close()
        finally:
            server.shutdown()
            store.close()

    def test_a_request_that_fails_on_a_fresh_connection_is_not_resent(self):
        server = _RecordingServer(drop=1)
        try:
            client = ServiceClient(server.url, timeout=5)
            with pytest.raises(ServiceError, match="cannot reach") as exc_info:
                client.submit_campaign(small_spec())
            assert exc_info.value.status is None
            assert server.lines == ["POST /v1/jobs HTTP/1.1"]
            assert server.accepted == 1
            client.health()  # the next request reconnects
            assert server.accepted == 2
            client.close()
        finally:
            server.close()

    def test_connections_of_ended_threads_and_dropped_clients_close(self, gateway):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            client = ServiceClient(gateway.url)
            thread = threading.Thread(target=client.health)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            client.health()
            del client, thread  # never closed
            gc.collect()
        # No socket was left for the garbage collector to close.
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_threads_sharing_a_client_get_their_own_connection(self, gateway):
        gateway.scheduler.stop()  # park the workers: the jobs stay queued
        with ServiceClient(gateway.url) as submitter:
            ids = [submitter.submit_campaign(small_spec(seed=seed))["id"]
                   for seed in range(21, 27)]
        before = _connections()
        shared = ServiceClient(gateway.url)
        barrier = threading.Barrier(len(ids))
        answers = {job_id: [] for job_id in ids}

        def poll(job_id):
            barrier.wait(timeout=10)
            for _ in range(20):
                answers[job_id].append(shared.job(job_id)["id"])

        threads = [threading.Thread(target=poll, args=(job_id,)) for job_id in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        shared.close()
        assert answers == {job_id: [job_id] * 20 for job_id in ids}
        assert _connections() - before == len(ids)


class TestClientErrors:
    def test_error_status_keeps_status_and_payload(self, gateway):
        with ServiceClient(gateway.url) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.job("nope")
            assert exc_info.value.status == 404
            assert exc_info.value.payload == {"error": "no such job: nope"}
            assert str(exc_info.value) == "GET /v1/jobs/nope failed (404): no such job: nope"
            assert client.health()["status"] == "ok"  # the connection is still usable

    def test_timeout_has_no_status(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts, never answers
            client = ServiceClient(f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=0.2)
            with pytest.raises(ServiceError, match="cannot reach.*timed out") as exc_info:
                client.health()
            client.close()
        assert exc_info.value.status is None

    def test_a_request_after_a_connection_close_error_succeeds(self, gateway, monkeypatch):
        def boom():
            raise RuntimeError("boom")

        before = _connections()
        with ServiceClient(gateway.url) as client:
            assert client.health()["status"] == "ok"
            with monkeypatch.context() as patch:
                patch.setattr(gateway, "health", boom)  # a 500 closes the connection
                with pytest.raises(ServiceError) as exc_info:
                    client.health()
            assert exc_info.value.status == 500
            assert exc_info.value.payload == {"error": "internal server error"}
            assert client.health()["status"] == "ok"
        assert _connections() - before == 2


class TestGatewayShutdown:
    def test_an_idle_keep_alive_connection_does_not_delay_shutdown(self):
        store = JobStore()
        server = GatewayServer(JobScheduler(store, num_workers=1), port=0)
        server.start()
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")  # then sits idle
            start = time.perf_counter()
            server.shutdown()
            elapsed = time.perf_counter() - start
            assert sock.recv(65536) == b""  # the server closed it
        store.close()
        assert elapsed < 0.2


# ----------------------------------------------------------------------
# Escaping
# ----------------------------------------------------------------------


class TestEscaping:
    def test_ids_and_query_values_reach_the_server_as_named(self):
        server = _RecordingServer()
        try:
            with ServiceClient(server.url, timeout=5) as client:
                client.job("a b")
                client.cancel("a/b")
                client.job_trace("x/../abc")
                client.jobs(state="done&limit=0", kind="a b", limit=3)
                client.debug_flight(kind="span&x")
                list(client.events("a?b"))
        finally:
            server.close()
        assert server.lines == [
            "GET /v1/jobs/a%20b HTTP/1.1",
            "DELETE /v1/jobs/a%2Fb HTTP/1.1",
            "GET /v1/jobs/x%2F..%2Fabc/trace HTTP/1.1",
            "GET /v1/jobs?state=done%26limit%3D0&kind=a+b&limit=3 HTTP/1.1",
            "GET /v1/debug/flight?kind=span%26x HTTP/1.1",
            "GET /v1/jobs/a%3Fb/events HTTP/1.1",
        ]

    def test_an_injected_query_gets_the_servers_400(self, gateway, done_job):
        with ServiceClient(gateway.url) as client:
            assert len(client.jobs(state="done")) == 1
            for state in ("done&limit=0", "bad state"):
                with pytest.raises(ServiceError, match="unknown state") as exc_info:
                    client.jobs(state=state)
                assert exc_info.value.status == 400

    def test_odd_ids_are_404s_for_the_id_named(self, gateway, done_job):
        with ServiceClient(gateway.url) as client:
            for call, job_id in (
                (client.cancel, "a b"),
                (client.job, f"{done_job}/trace"),
                (client.job_trace, f"x/../{done_job}"),
            ):
                with pytest.raises(ServiceError) as exc_info:
                    call(job_id)
                assert exc_info.value.status == 404
                assert exc_info.value.payload == {"error": f"no such job: {job_id}"}
            with pytest.raises(ServiceError) as exc_info:
                next(iter(client.events("a b")))
            assert exc_info.value.payload == {"error": "no such job: a b"}


# ----------------------------------------------------------------------
# One encoding
# ----------------------------------------------------------------------

_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


@st.composite
def _makespans(draw):
    """Strategy -> samples, as lists or arrays; some strategies copy another's (tied means)."""
    base = draw(_samples)
    names = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5, unique=True))
    out = {}
    for name in names:
        samples = base if draw(st.booleans()) else draw(_samples)
        out[name] = np.asarray(samples) if draw(st.booleans()) else list(samples)
    return out


@given(makespans=_makespans())
@settings(max_examples=200, deadline=None)
def test_payload_summary_and_ranking_equal_the_results_own(makespans):
    result = CampaignResult(makespans=makespans, num_runs=len(next(iter(makespans.values()))))
    payload = campaign_result_payload(result)
    assert payload["summary"] == {
        name: {"mean": result.mean(name), "std": result.std(name)} for name in makespans
    }
    for stats in payload["summary"].values():
        assert type(stats["mean"]) is float and type(stats["std"]) is float
    assert payload["ranking"] == result.ranking()
    for name, samples in makespans.items():
        decoded = np.frombuffer(base64.b64decode(payload["makespans"][name]), dtype="<f8")
        assert decoded.tolist() == list(np.asarray(samples, dtype=float))


def _check_listing_bytes(snapshot: ServiceSnapshot) -> None:
    for state in (None,) + JOB_STATES:
        for kind in (None, "campaign", "experiment", "other"):
            for limit in (None, 0, 1, 2, 50):
                expected = json.dumps(
                    {"jobs": snapshot.list_jobs(state=state, kind=kind, limit=limit)}
                ).encode("utf-8")
                assert snapshot.list_bytes(state=state, kind=kind, limit=limit) == expected


class TestListing:
    def test_bytes_equal_the_encoded_listing_through_transitions(self):
        with JobStore() as store:
            snapshot = ServiceSnapshot(store)
            snapshot.attach()
            _check_listing_bytes(snapshot)  # empty
            jobs = [store.submit(kind, {"n": index})
                    for index, kind in enumerate(["campaign", "experiment"] * 3)]
            _check_listing_bytes(snapshot)
            store.claim_next()
            store.claim_next()
            store.update_progress(jobs[1].id, 1, 3)
            _check_listing_bytes(snapshot)
            store.finish(jobs[0].id, {"type": "campaign", "num_runs": 1})
            store.fail(jobs[1].id, "boom", phases={"compute_s": 0.5})
            store.request_cancel(jobs[2].id)
            _check_listing_bytes(snapshot)
            snapshot.prime()
            _check_listing_bytes(snapshot)
            for bad in ({"state": "bogus"}, {"limit": -1}):
                with pytest.raises(ValueError):
                    snapshot.list_bytes(**bad)
            snapshot.detach()

    def test_gateway_listing_is_the_snapshot_listing(self, gateway, done_job):
        with ServiceClient(gateway.url) as client:
            for query, kwargs in (("", {}), ("?limit=1&state=done", {"limit": 1, "state": "done"})):
                body = client._fetch("GET", "/v1/jobs" + query)
                assert body == json.dumps(
                    {"jobs": gateway.snapshot.list_jobs(**kwargs)}
                ).encode("utf-8")


class _ListedStore:
    """The one store method :meth:`ServiceSnapshot.prime` calls."""

    def __init__(self) -> None:
        self.records = []

    def list_jobs(self):
        return list(self.records)


@given(
    events=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.sampled_from([1.0, 2.0, 3.0]),
            st.sampled_from(JOB_STATES),
        ),
        max_size=40,
    ),
    prime_at=st.integers(0, 40),
    prime_order=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_listing_order_equals_the_stable_sort(events, prime_at, prime_order):
    """Newest ``submitted_at`` first, ties in the order the snapshot first saw them."""
    store = _ListedStore()
    snapshot = ServiceSnapshot(store)
    seen = {}  # the snapshot's view, in first-seen order

    def check():
        ordered = sorted(seen.values(), key=lambda record: record.submitted_at, reverse=True)
        assert [job["id"] for job in snapshot.list_jobs()] == [r.id for r in ordered]
        assert [job["id"] for job in snapshot.list_jobs(limit=3)] == [r.id for r in ordered][:3]
        for state in ("queued", "done"):
            assert [job["id"] for job in snapshot.list_jobs(state=state, limit=2)] == [
                r.id for r in ordered if r.state == state
            ][:2]

    for step, (job, submitted_at, state) in enumerate(events):
        if step == prime_at:
            store.records = list(seen.values())
            prime_order.shuffle(store.records)  # the store's tie order is its own
            snapshot.prime()
            seen = {record.id: record for record in store.records}
            check()
        job_id = f"job{job}"
        record = seen.get(job_id)
        if record is None:  # submitted_at never changes once seen
            record = JobRecord(id=job_id, kind="campaign", spec={}, state=state,
                               submitted_at=submitted_at)
        record = replace(record, state=state)
        snapshot.on_record(record)
        seen[job_id] = record
        check()


class TestPublishedRecords:
    """What the store publishes on each write equals what a reopened file store reads."""

    def test_published_records_equal_the_stored_rows(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        published = []
        store = JobStore(db)
        store.subscribe(published.append)
        scheduler = JobScheduler(store)

        def check(job_id):
            assert published[-1].id == job_id
            with JobStore(db) as reopened:
                stored = reopened.get(job_id)
            assert stored == published[-1]
            # Same key order too, so the served bodies are byte-identical.
            assert json.dumps(stored.to_dict()) == json.dumps(published[-1].to_dict())

        def submit_claim_execute(record, state):
            check(record.id)  # submit
            claimed = store.claim_next()
            assert claimed.id == record.id
            check(record.id)  # claim
            scheduler.execute(claimed)
            assert published[-1].state == state, published[-1].error
            check(record.id)  # terminal write

        campaign, _ = scheduler.submit_campaign(small_spec().to_dict(), chunk_size=25)
        submit_claim_execute(campaign, "done")
        experiment, _ = scheduler.submit_experiment("E2")
        submit_claim_execute(experiment, "done")
        # A valid key with a value the experiment rejects when it runs (an
        # unknown key is refused at submit).
        broken, _ = scheduler.submit_experiment("E2", params={"total_work": -1.0})
        submit_claim_execute(broken, "failed")

        cancelled, _ = scheduler.submit_campaign(small_spec(seed=4).to_dict())
        check(cancelled.id)
        claimed = store.claim_next()
        store.request_cancel(claimed.id)
        check(claimed.id)  # running, flag committed
        scheduler.execute(claimed)
        assert published[-1].state == "cancelled"
        check(claimed.id)

        queued, _ = scheduler.submit_experiment("E2", params={"total_work": 40.0})
        store.request_cancel(queued.id)
        assert published[-1].state == "cancelled"
        check(queued.id)
        store.close()
