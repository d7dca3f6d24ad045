"""Tests for the scenario service (job store, scheduler, HTTP API, client).

The load-bearing guarantees:

* **fidelity** -- a campaign submitted over HTTP returns makespan samples
  bit-identical to a direct :meth:`ScenarioSpec.run` with the same spec, and
  the two share disk-cache entries (same scenario hash);
* **durability** -- jobs survive a server restart via the sqlite store, and
  jobs interrupted mid-run are re-queued on recovery;
* **idempotence** -- resubmitting an equivalent scenario reuses the existing
  job instead of recomputing;
* **control** -- queued jobs cancel immediately, running jobs cancel
  cooperatively between chunks via the progress hook.
"""

import base64
import json
import sqlite3
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.obs import metrics
from repro.obs.flight import FlightRecorder, set_flight_recorder
from repro.runtime.cache import ResultCache
from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayServer
from repro.service.jobs import JobStore
from repro.service.queue import JobCancelled, JobScheduler, campaign_result_payload


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="svc-test",
        chain=ChainSpec(n=5, seed=2),
        failure=FailureSpec(kind="weibull", mtbf=40.0, shape=0.7),
        strategies=("optimal_dp", "checkpoint_all"),
        num_runs=120,
        downtime=0.2,
        seed=3,
        engine="vectorized",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestJobStore:
    def test_submit_get_list_counts(self):
        with JobStore() as store:
            a = store.submit("campaign", {"x": 1}, dedupe_key="k1")
            b = store.submit("experiment", {"experiment": "E2"})
            assert store.get(a.id).state == "queued"
            assert store.get("nope") is None
            assert {job.id for job in store.list_jobs()} == {a.id, b.id}
            assert store.count("queued") == 2

    def test_claim_next_is_fifo_and_exclusive(self):
        with JobStore() as store:
            first = store.submit("campaign", {"n": 1})
            store.submit("campaign", {"n": 2})
            claimed = store.claim_next()
            assert claimed.id == first.id and claimed.state == "running"
            assert claimed.started_at is not None
            second = store.claim_next()
            assert second is not None and second.id != first.id
            assert store.claim_next() is None

    def test_finish_fail_and_progress(self):
        with JobStore() as store:
            job = store.submit("campaign", {})
            store.claim_next()
            store.update_progress(job.id, 3, 8)
            record = store.get(job.id)
            assert (record.chunks_done, record.chunks_total) == (3, 8)
            store.finish(job.id, {"type": "campaign", "num_runs": 1})
            done = store.get(job.id)
            assert done.state == "done" and done.is_terminal
            assert done.result["num_runs"] == 1 and done.finished_at is not None

            other = store.submit("campaign", {})
            store.claim_next()
            store.fail(other.id, "boom")
            assert store.get(other.id).state == "failed"
            assert store.get(other.id).error == "boom"

    def test_cancel_queued_is_immediate_running_is_cooperative(self):
        with JobStore() as store:
            first = store.submit("campaign", {})
            second = store.submit("campaign", {})
            claimed = store.claim_next()  # FIFO: `first` is now running
            assert claimed.id == first.id
            cancelled = store.request_cancel(second.id)  # still queued
            assert cancelled.state == "cancelled"
            flagged = store.request_cancel(first.id)  # running: flag only
            assert flagged.state == "running" and flagged.cancel_requested
            assert store.cancel_requested(first.id)
            # Terminal jobs are unaffected; unknown ids return None.
            assert store.request_cancel(second.id).state == "cancelled"
            assert store.request_cancel("nope") is None

    def test_persistence_and_restart_recovery(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        store = JobStore(db)
        job = store.submit("campaign", {"scenario": {"answer": 42}}, dedupe_key="kk")
        store.claim_next()  # simulate a worker that dies mid-run
        store.update_progress(job.id, 1, 4)
        store.close()

        reopened = JobStore(db)
        record = reopened.get(job.id)
        assert record.state == "running"  # persisted as the crash left it
        assert record.spec == {"scenario": {"answer": 42}}
        recovered = reopened.recover_interrupted()
        assert recovered == 1
        requeued = reopened.get(job.id)
        assert requeued.state == "queued"
        assert (requeued.chunks_done, requeued.chunks_total) == (0, 0)
        assert reopened.find_reusable("kk").id == job.id
        reopened.close()

    def test_dedupe_ignores_failed_and_cancelled(self):
        with JobStore() as store:
            job = store.submit("campaign", {}, dedupe_key="k")
            store.claim_next()
            store.fail(job.id, "boom")
            assert store.find_reusable("k") is None
            other = store.submit("campaign", {}, dedupe_key="k")
            store.request_cancel(other.id)
            assert store.find_reusable("k") is None


class TestJobScheduler:
    def test_campaign_job_matches_direct_run(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        with JobStore() as store:
            scheduler = JobScheduler(store, cache=cache)
            record, reused = scheduler.submit_campaign(spec.to_dict())
            assert not reused
            assert scheduler.run_pending() == 1
            job = store.get(record.id)
            assert job.state == "done", job.error
            direct = spec.run()
            assert ServiceClient.campaign_result(job.to_dict()).makespans == {
                name: list(samples) for name, samples in direct.makespans.items()
            }
            assert job.result["scenario_key"] == spec.cache_key()
            assert job.chunks_done == job.chunks_total > 0

    def test_submission_validates_before_enqueuing(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            with pytest.raises((KeyError, TypeError, ValueError)):
                scheduler.submit_campaign({"name": "broken"})
            with pytest.raises(KeyError):
                scheduler.submit_experiment("E99")
            assert store.count("queued") == 0

    def test_dedupe_by_scenario_hash(self):
        spec = small_spec()
        with JobStore() as store:
            scheduler = JobScheduler(store)
            first, reused_first = scheduler.submit_campaign(spec.to_dict())
            again, reused_again = scheduler.submit_campaign(spec.to_dict())
            assert not reused_first and reused_again
            assert again.id == first.id
            # Renaming must still dedupe (the name is not part of the hash)...
            renamed, reused_renamed = scheduler.submit_campaign(
                small_spec(name="other-name").to_dict()
            )
            assert reused_renamed and renamed.id == first.id
            # ...while changing anything that affects samples must not.
            different, reused_different = scheduler.submit_campaign(
                small_spec(seed=99).to_dict()
            )
            assert not reused_different and different.id != first.id
            # A different chunk plan changes the samples too.
            chunked, reused_chunked = scheduler.submit_campaign(
                spec.to_dict(), chunk_size=17
            )
            assert not reused_chunked

    def test_cancel_requested_job_never_executes(self):
        spec = small_spec()
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_campaign(spec.to_dict())
            claimed = store.claim_next()  # what a worker thread would do
            store.request_cancel(record.id)
            scheduler.execute(claimed)
            assert store.get(record.id).state == "cancelled"
            assert store.get(record.id).result is None

    def test_progress_hook_raises_for_cancelled_jobs(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record = store.submit("campaign", {})
            store.claim_next()
            hook = scheduler._progress_hook(record.id)
            hook(1, 4)
            assert store.get(record.id).chunks_done == 1
            store.request_cancel(record.id)
            with pytest.raises(JobCancelled):
                hook(2, 4)

    def test_failed_jobs_record_the_error(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_experiment("E2", params={"total_work": -1.0})
            scheduler.run_pending()
            job = store.get(record.id)
            assert job.state == "failed"
            assert job.error and "total_work" in job.error

    def test_restart_recovery_reruns_interrupted_jobs(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        spec = small_spec()
        store = JobStore(db)
        scheduler = JobScheduler(store)
        record, _ = scheduler.submit_campaign(spec.to_dict())
        store.claim_next()  # the "old" process dies while running the job
        store.close()

        restarted = JobStore(db)
        recovered_scheduler = JobScheduler(restarted)  # recovery happens here
        assert recovered_scheduler.recovered == 1
        assert recovered_scheduler.run_pending() == 1
        job = restarted.get(record.id)
        assert job.state == "done", job.error
        direct = spec.run()
        assert ServiceClient.campaign_result(job.to_dict()).makespans == {
            name: list(samples) for name, samples in direct.makespans.items()
        }
        restarted.close()


@pytest.fixture(scope="class")
def live_service(tmp_path_factory):
    """A real HTTP gateway on an ephemeral port, with workers and a cache."""
    root = tmp_path_factory.mktemp("service")
    store = JobStore()
    cache = ResultCache(root / "cache")
    scheduler = JobScheduler(store, num_workers=2, cache=cache)
    server = GatewayServer(scheduler, port=0)
    server.start()
    client = ServiceClient(server.url, timeout=10.0)
    yield {"server": server, "client": client, "cache_root": root / "cache"}
    server.shutdown()
    store.close()


@pytest.mark.usefixtures("live_service")
class TestServiceEndToEnd:
    def test_healthz(self, live_service):
        health = live_service["client"].health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done", "failed", "cancelled"}
        assert health["workers"] == 2
        stats = health["stats"]
        assert set(stats) >= {
            "http_requests", "jobs_submitted", "jobs_deduplicated",
            "jobs_executed", "queue_depth", "cache_hits", "cache_misses",
        }
        # Requests count after the response goes out: a second poll must see
        # at least the first one.
        assert live_service["client"].health()["stats"]["http_requests"] >= 1

    def test_catalog_lists_experiments_and_engines(self, live_service):
        catalog = live_service["client"].scenarios()
        assert set(catalog["experiments"]) == {f"E{i}" for i in range(1, 11)}
        assert catalog["engines"] == ["scalar", "vectorized"]
        assert "engine" in catalog["sweepable_fields"]

    def test_submitted_campaign_is_bit_identical_to_direct_run(self, live_service):
        client = live_service["client"]
        spec = small_spec(name="e2e")
        job = client.submit_campaign(spec)
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done", done["error"]
        progress = done["progress"]
        assert progress["chunks_done"] == progress["chunks_total"] > 0

        served = ServiceClient.campaign_result(done)
        direct = spec.run()  # same spec, fresh process-local computation
        assert served.num_runs == direct.num_runs
        for name, samples in direct.makespans.items():
            assert list(served.makespans[name]) == list(samples)

        # The served run warmed the shared cache under the same scenario
        # hash: a direct run against the same root replays it (1 hit).
        replay_cache = ResultCache(live_service["cache_root"])
        replayed = spec.run(cache=replay_cache)
        assert replay_cache.hits == 1 and replay_cache.misses == 0
        assert replayed.makespans == direct.makespans

    def test_resubmission_is_deduplicated(self, live_service):
        client = live_service["client"]
        spec = small_spec(name="dedupe", seed=11)
        first = client.submit_campaign(spec)
        again = client.submit_campaign(spec)
        assert again["id"] == first["id"]
        assert again["deduplicated"]
        client.wait(first["id"], timeout=60.0)

    def test_experiment_job_round_trips_a_table(self, live_service):
        client = live_service["client"]
        job = client.submit_experiment("E2")
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done", done["error"]
        result = done["result"]
        assert result["type"] == "table"
        assert result["rows"] and set(result["columns"]) >= {"rate", "mtbf"}

    def test_sweep_preview_expands_without_running(self, live_service):
        client = live_service["client"]
        before = {job["id"] for job in client.jobs()}
        preview = client.preview_sweep(
            small_spec(name="sweep"), {"seed": [0, 1], "num_runs": [60, 120, 180]}
        )
        assert preview["count"] == 6
        names = [entry["name"] for entry in preview["scenarios"]]
        assert names[0] == "sweep[0]" and len(set(names)) == 6
        keys = {entry["cache_key"] for entry in preview["scenarios"]}
        assert len(keys) == 6  # every combination hashes differently
        assert {job["id"] for job in client.jobs()} == before  # nothing enqueued

    def test_bad_submissions_are_rejected_with_400(self, live_service):
        client = live_service["client"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign({"name": "broken"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit_experiment("E99")
        assert excinfo.value.status == 400

    def test_unknown_job_and_path_are_404(self, live_service):
        client = live_service["client"]
        with pytest.raises(ServiceError) as excinfo:
            client.job("does-not-exist")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_listing_filters_and_omits_results(self, live_service):
        client = live_service["client"]
        spec = small_spec(name="listing", seed=21)
        job = client.submit_campaign(spec)
        client.wait(job["id"], timeout=60.0)
        done_jobs = client.jobs(state="done")
        assert any(entry["id"] == job["id"] for entry in done_jobs)
        assert all("result" not in entry for entry in done_jobs)
        with pytest.raises(ServiceError) as excinfo:
            client.jobs(state="nonsense")
        assert excinfo.value.status == 400

    def test_http_cancel_of_a_queued_job(self, tmp_path):
        # A dedicated server whose workers have been stopped: submissions
        # stay queued, so DELETE observes the immediate-cancel path
        # deterministically.
        store = JobStore()
        scheduler = JobScheduler(store)
        server = GatewayServer(scheduler, port=0)
        server.start()
        try:
            scheduler.stop()  # keep serving HTTP, stop executing jobs
            client = ServiceClient(server.url, timeout=10.0)
            job = client.submit_campaign(small_spec(name="cancel-me"))
            assert job["state"] == "queued"
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            assert client.job(job["id"])["state"] == "cancelled"
        finally:
            server.shutdown()
            store.close()

    def test_concurrent_submissions_all_complete(self, live_service):
        client = live_service["client"]
        specs = [small_spec(name=f"burst-{i}", seed=100 + i, num_runs=60) for i in range(6)]
        ids = []
        errors = []

        def submit(spec):
            try:
                ids.append(client.submit_campaign(spec)["id"])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(spec,)) for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(ids)) == 6
        for job_id in ids:
            assert live_service["client"].wait(job_id, timeout=60.0)["state"] == "done"

    def test_plain_urllib_sees_json(self, live_service):
        # The API is consumable without the client class (curl parity).
        url = live_service["server"].url + "/v1/healthz"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            assert response.headers["Content-Type"] == "application/json"
            assert json.loads(response.read())["status"] == "ok"

    def test_metrics_endpoint_serves_prometheus_text(self, live_service):
        client = live_service["client"]
        # Guarantee at least one executed job and one cache write first.
        job = client.submit_campaign(small_spec(name="metrics-warmup", seed=31))
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"

        text = client.metrics_text()
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_jobs_submitted_total",
            "repro_jobs_completed_total",
            "repro_job_queue_depth",
            "repro_job_run_seconds",
            "repro_cache_requests_total",
            "repro_chunk_seconds",
            "repro_span_seconds",
        ):
            assert f"# TYPE {family}" in text, f"missing metric family {family}"
        assert 'repro_jobs_completed_total{kind="campaign",outcome="done"}' in text
        assert 'outcome="miss"' in text  # the warmup campaign missed its cache

        # curl parity: the raw endpoint speaks the Prometheus content type.
        url = live_service["server"].url + "/v1/metrics"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert b"repro_http_requests_total" in response.read()

    def test_metrics_endpoint_json_snapshot(self, live_service):
        client = live_service["client"]
        client.metrics_text()  # ensure at least one /v1/metrics request counted
        snapshot = client.metrics()
        assert snapshot["repro_http_requests_total"]["kind"] == "counter"
        values = snapshot["repro_http_requests_total"]["values"]
        assert any(entry["labels"]["route"] == "/v1/metrics" for entry in values)
        hist = snapshot["repro_http_request_seconds"]
        assert hist["kind"] == "histogram"
        assert all(len(v["bucket_counts"]) == len(hist["buckets"]) + 1
                   for v in hist["values"])

    def test_job_stats_expose_phase_breakdown(self, live_service):
        client = live_service["client"]
        job = client.submit_campaign(small_spec(name="phase-probe", seed=41))
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done"
        phases = client.job_stats(job["id"])
        assert set(phases) == {"queue_wait_s", "compute_s", "cache_s"}
        assert all(value >= 0.0 for value in phases.values())
        assert done["timings"]["phases"] == phases

    def test_internal_errors_return_500_with_json_body(self, live_service, monkeypatch):
        # Force a handler crash below the dispatch layer and confirm the
        # client sees a structured 500 (not a dropped connection), the error
        # is recorded, and the server keeps serving.
        def boom(job_id):
            raise RuntimeError("boom")

        client = live_service["client"]
        recorder = FlightRecorder(capacity=64)
        previous = set_flight_recorder(recorder)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(live_service["server"].snapshot, "job_bytes", boom)
                with pytest.raises(ServiceError) as excinfo:
                    client.job("whatever")
        finally:
            set_flight_recorder(previous)
        assert excinfo.value.status == 500
        assert excinfo.value.payload == {"error": "internal server error"}
        errors = recorder.events(kind="error")
        assert [event["event"] for event in errors] == ["http.request_error"]
        assert "RuntimeError: boom" in errors[0]["error"]
        assert client.health()["status"] == "ok"


class TestReviewRegressions:
    """Fixes from the pre-merge review, pinned."""

    def test_concurrent_identical_submissions_enqueue_one_job(self):
        # The dedupe check-then-insert must be atomic: N threads racing the
        # same scenario may create exactly one job between them.
        spec_dict = small_spec(name="race").to_dict()
        for _ in range(25):
            with JobStore() as store:
                scheduler = JobScheduler(store)
                results = []

                def submit():
                    results.append(scheduler.submit_campaign(spec_dict))

                threads = [threading.Thread(target=submit) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                ids = {record.id for record, _ in results}
                assert len(ids) == 1, f"duplicate jobs enqueued: {ids}"
                assert sum(1 for _, reused in results if not reused) == 1

    def test_stop_with_timeout_abandons_a_stuck_worker(self):
        # A worker wedged in a long job must not block shutdown forever.
        release = threading.Event()
        with JobStore() as store:
            scheduler = JobScheduler(store)
            store.submit("campaign", {})

            def stuck_worker():
                store.claim_next()
                release.wait(10.0)

            thread = threading.Thread(target=stuck_worker, daemon=True)
            thread.start()
            scheduler._threads = [thread]
            scheduler.stop(timeout=0.1)
            assert scheduler.abandoned_workers
            release.set()
            thread.join(5.0)

    def test_healthz_reports_an_attached_but_empty_cache(self, tmp_path):
        # ResultCache defines __len__, so an empty cache is falsy; health
        # must test identity, not truthiness.
        store = JobStore()
        scheduler = JobScheduler(store, cache=ResultCache(tmp_path / "cold"))
        server = GatewayServer(scheduler, port=0)
        try:
            assert server.health()["cache"] is not None
        finally:
            server.shutdown()
            store.close()


class TestChunkSizeBounds:
    """Submit-time chunk validation: cancellation latency stays bounded."""

    def test_scheduler_rejects_absurd_chunk_sizes(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            spec = small_spec().to_dict()
            # A budget large enough that the num_runs clamp cannot save the
            # oversized chunk (clamping only ever *shrinks* a chunk).
            big = small_spec(num_runs=JobScheduler.MAX_CHUNK_SIZE * 4).to_dict()
            with pytest.raises(ValueError, match="service cap"):
                scheduler.submit_campaign(
                    big, chunk_size=JobScheduler.MAX_CHUNK_SIZE * 2
                )
            with pytest.raises(ValueError, match=">= 1"):
                scheduler.submit_campaign(spec, chunk_size=0)
            with pytest.raises(TypeError, match="integer"):
                scheduler.submit_campaign(spec, chunk_size=2.5)
            with pytest.raises(TypeError, match="integer"):
                scheduler.submit_campaign(spec, chunk_size=True)
            assert store.count("queued") == 0  # nothing slipped in

    def test_oversized_chunk_is_clamped_to_num_runs(self):
        # chunk_size above the budget is a sample-preserving rewrite: every
        # value >= num_runs yields the same single-chunk plan, so the job is
        # stored (and deduplicated) under the canonical num_runs spelling.
        spec = small_spec(name="clamp", num_runs=40)
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, reused = scheduler.submit_campaign(
                spec.to_dict(), chunk_size=10_000
            )
            assert not reused
            assert record.spec["chunk_size"] == 40
            canonical, reused = scheduler.submit_campaign(
                spec.to_dict(), chunk_size=40
            )
            assert reused and canonical.id == record.id
            scheduler.run_pending()
            done = store.get(record.id)
            assert done.state == "done"
            direct = spec.run(chunk_size=10_000)
            served = ServiceClient.campaign_result(done.to_dict())
            for name, samples in direct.makespans.items():
                assert served.makespans[name] == list(samples)

    def test_experiment_chunk_size_params_are_validated(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            with pytest.raises(ValueError, match="service cap"):
                scheduler.submit_experiment(
                    "E1", params={"chunk_size": 10**9, "num_runs": 50}
                )
            record, _ = scheduler.submit_experiment(
                "E1", params={"chunk_size": 25, "num_runs": 50, "seed": 1}
            )
            assert record.spec["params"]["chunk_size"] == 25

    def test_http_submission_with_absurd_chunk_size_is_a_400(self, live_service):
        client = live_service["client"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(
                small_spec(name="huge-chunk", num_runs=100_000), chunk_size=10**9
            )
        assert excinfo.value.status == 400
        assert "service cap" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(small_spec(name="zero-chunk"), chunk_size=0)
        assert excinfo.value.status == 400


class TestSeedValidation:
    """A bad seed is a 400 at submit, not a failed job at run time."""

    BAD_SEEDS = [-1, 1.5, "3", True, None]

    @staticmethod
    def _with_seeds(scenario_seed=3, chain_seed=2):
        spec = small_spec(name="bad-seed").to_dict()
        spec["seed"] = scenario_seed
        spec["chain"]["seed"] = chain_seed
        return spec

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_scheduler_rejects_bad_seeds(self, seed):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            for spec in (self._with_seeds(scenario_seed=seed),
                         self._with_seeds(chain_seed=seed)):
                with pytest.raises((TypeError, ValueError), match="seed"):
                    scheduler.submit_campaign(spec)
            assert store.count("queued") == 0

    def test_bool_seed_cannot_split_the_dedupe(self):
        # True used to run under another cache key than 1.
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_campaign(self._with_seeds(scenario_seed=1))
            with pytest.raises(TypeError, match="seed"):
                scheduler.submit_campaign(self._with_seeds(scenario_seed=True))
            again, reused = scheduler.submit_campaign(self._with_seeds(scenario_seed=1))
            assert reused and again.id == record.id

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_http_submission_with_bad_seed_is_a_400(self, live_service, seed):
        client = live_service["client"]
        for spec in (self._with_seeds(scenario_seed=seed),
                     self._with_seeds(chain_seed=seed)):
            with pytest.raises(ServiceError) as excinfo:
                client.submit_campaign(spec)
            assert excinfo.value.status == 400
            assert "seed" in str(excinfo.value)


class TestExperimentProgress:
    """Experiment jobs report real chunk counts, not just 0/1 -> 1/1."""

    def test_e1_job_reports_per_chunk_progress(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_experiment(
                "E1",
                engine="vectorized",
                params={"num_runs": 120, "seed": 1, "chunk_size": 30},
            )
            scheduler.run_pending()
            done = store.get(record.id)
            assert done.state == "done"
            # 6 scenarios x 4 chunks each: the progress hook saw real chunk
            # counts and the final write is (total, total).
            assert done.chunks_total == 24
            assert done.chunks_done == 24

    def test_e8_job_reports_per_chunk_progress(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_experiment(
                "E8",
                engine="vectorized",
                params={"num_runs": 40, "seed": 6, "chunk_size": 20, "n": 6},
            )
            scheduler.run_pending()
            done = store.get(record.id)
            assert done.state == "done", done.error
            assert done.chunks_total == 32  # 16 estimates x 2 chunks
            assert done.chunks_done == 32

    def test_experiment_without_progress_support_keeps_the_0_1_contract(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_experiment("E2")
            scheduler.run_pending()
            done = store.get(record.id)
            assert done.state == "done"
            assert (done.chunks_done, done.chunks_total) == (1, 1)

    def test_running_experiment_cancels_mid_run(self):
        # The progress hook threads cancellation into the experiment's
        # chunk loop: a cancel requested after the job is claimed lands
        # before the first chunk completes.
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_experiment(
                "E1", params={"num_runs": 60, "seed": 2, "chunk_size": 30}
            )
            claimed = store.claim_next()
            assert claimed.id == record.id
            store.request_cancel(record.id)
            scheduler.execute(claimed)
            assert store.get(record.id).state == "cancelled"


class TestClientWaitProgress:
    """wait() surfaces progress changes and backs off while nothing moves."""

    @staticmethod
    def _record(state, done, total):
        return {
            "id": "j1",
            "state": state,
            "progress": {"chunks_done": done, "chunks_total": total},
        }

    def test_wait_notifies_on_change_and_backs_off_between(self, monkeypatch):
        records = iter([
            self._record("queued", 0, 0),
            self._record("running", 0, 4),
            self._record("running", 0, 4),
            self._record("running", 0, 4),
            self._record("running", 2, 4),
            self._record("done", 4, 4),
        ])

        class Scripted(ServiceClient):
            def job(self, job_id):
                return next(records)

        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        seen = []
        client = Scripted("http://scripted.invalid")
        final = client.wait("j1", timeout=30.0, poll_interval=0.2,
                            on_progress=seen.append)
        assert final["state"] == "done"
        # One notification per observable change: queued, running 0/4,
        # running 2/4, done 4/4 -- the two unchanged polls stay silent.
        assert [(r["state"], r["progress"]["chunks_done"]) for r in seen] == [
            ("queued", 0), ("running", 0), ("running", 2), ("done", 4),
        ]
        # Backoff: the interval grows by half the base per unchanged poll
        # and snaps back to the base on any change.
        assert sleeps == pytest.approx([0.2, 0.2, 0.3, 0.4, 0.2])

    def test_wait_backoff_is_capped(self, monkeypatch):
        states = iter(
            [self._record("running", 0, 4)] * 30 + [self._record("done", 4, 4)]
        )

        class Scripted(ServiceClient):
            def job(self, job_id):
                return next(states)

        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        Scripted("http://scripted.invalid").wait(
            "j1", timeout=300.0, poll_interval=0.2, max_poll_interval=1.0
        )
        assert max(sleeps) == pytest.approx(1.0)
        assert sleeps[-1] == pytest.approx(1.0)

    def test_wait_never_sleeps_past_the_deadline(self, monkeypatch):
        # Backed-off intervals must be clipped to the remaining timeout:
        # otherwise a 1s timeout could stretch by up to max_poll_interval.
        clock = {"t": 0.0}
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.monotonic", lambda: clock["t"])

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["t"] += seconds

        monkeypatch.setattr("repro.service.client.time.sleep", fake_sleep)
        stuck = self._record("running", 0, 4)

        class Scripted(ServiceClient):
            def job(self, job_id):
                return dict(stuck)

        with pytest.raises(ServiceError, match="still 'running'"):
            Scripted("http://scripted.invalid").wait(
                "j1", timeout=1.0, poll_interval=0.4, max_poll_interval=5.0
            )
        assert clock["t"] == pytest.approx(1.0)  # raised at the deadline
        assert max(sleeps) <= 1.0


def _begins(statements):
    """How many write transactions a list of traced SQL statements opened."""
    return sum(1 for sql in statements if sql.startswith("BEGIN"))


class TestStateChangeWrites:
    """sqlite is written when a job changes state, never per chunk."""

    def test_update_progress_writes_nothing_to_sqlite(self):
        seen = []
        with JobStore() as store:
            job = store.submit("campaign", {})
            store.claim_next()
            queued = store.submit("campaign", {})
            store.update_progress(queued.id, 1, 5)  # not running here: ignored
            assert store.get(queued.id).chunks_done == 0
            store.subscribe(seen.append)
            changes = store._conn.total_changes
            store.update_progress(job.id, 2, 5)
            assert store._conn.total_changes == changes
            assert (store.get(job.id).chunks_done, store.get(job.id).chunks_total) == (2, 5)
            assert [(r.chunks_done, r.chunks_total) for r in seen] == [(2, 5)]

    def test_campaign_job_commits_submit_claim_and_terminal_only(self):
        spec = small_spec(num_runs=120)
        with JobStore() as store:
            scheduler = JobScheduler(store, chunk_size=30)
            statements = []
            store._conn.set_trace_callback(statements.append)
            record, _ = scheduler.submit_campaign(spec.to_dict())
            assert scheduler.run_pending() == 1
            store._conn.set_trace_callback(None)
            done = store.get(record.id)
            assert done.state == "done"
            assert (done.chunks_done, done.chunks_total) == (4, 4)
            assert _begins(statements) == 3, statements

    def test_finished_job_keeps_progress_phases_and_trace_across_restart(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        store = JobStore(db)
        scheduler = JobScheduler(store, chunk_size=30)
        record, _ = scheduler.submit_campaign(small_spec(num_runs=120).to_dict())
        assert scheduler.run_pending() == 1
        store.close()
        with JobStore(db) as reopened:
            done = reopened.get(record.id)
            assert (done.state, done.chunks_done, done.chunks_total) == ("done", 4, 4)
            assert set(done.phases) == {"queue_wait_s", "compute_s", "cache_s"}
            assert reopened.get_trace(record.id)["correlation_id"] == record.id

    def test_running_job_cancel_flag_is_committed_and_live(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        store = JobStore(db)
        job = store.submit("campaign", {})
        store.claim_next()
        store.update_progress(job.id, 1, 4)
        flagged = store.request_cancel(job.id)
        assert flagged.cancel_requested and flagged.chunks_done == 1
        assert store.cancel_requested(job.id)
        store.close()
        # The flag survives the process; restart recovery re-queues the job
        # and a worker would cancel it before its first chunk.
        with JobStore(db) as reopened:
            assert reopened.recover_interrupted() == 1
            assert reopened.cancel_requested(job.id)

    def test_concurrent_progress_and_cancels_lose_no_update(self):
        # Workers replace the in-memory record per chunk while cancels land
        # from other threads: every job must end with its last progress and
        # its cancel flag, and listeners must have seen that final record.
        with JobStore() as store:
            jobs = [store.submit("campaign", {"n": n}) for n in range(8)]
            for _ in jobs:
                store.claim_next()
            last_seen = {}
            store.subscribe(lambda r: last_seen.__setitem__(
                r.id, (r.chunks_done, r.cancel_requested)))

            def work(job_id):
                for done in range(1, 201):
                    store.update_progress(job_id, done, 200)

            threads = [threading.Thread(target=work, args=(job.id,)) for job in jobs]
            threads += [
                threading.Thread(target=store.request_cancel, args=(job.id,)) for job in jobs
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            for job in jobs:
                record = store.get(job.id)
                assert (record.chunks_done, record.cancel_requested) == (200, True)
                assert last_seen[job.id] == (200, True)

    def test_file_backed_store_journals_in_wal_mode(self, tmp_path):
        db = tmp_path / "jobs.sqlite"
        with JobStore(db):
            probe = sqlite3.connect(db)
            try:
                assert probe.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            finally:
                probe.close()
        with JobStore() as memory:
            mode = memory._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "memory"


class TestSampleWireFormat:
    """Campaign samples travel as base64 float64 bytes; the client checks them."""

    @staticmethod
    def _done_job(result):
        return {"id": "j1", "state": "done", "error": None, "result": result}

    def test_payload_is_base64_of_little_endian_float64(self):
        direct = small_spec().run()
        payload = campaign_result_payload(direct)
        for name, samples in direct.makespans.items():
            raw = base64.b64decode(payload["makespans"][name])
            assert raw == np.asarray(samples, dtype="<f8").tobytes()
        rebuilt = ServiceClient.campaign_result(self._done_job(payload))
        assert rebuilt.makespans == direct.makespans

    def test_done_row_with_float_lists_still_rebuilds(self):
        # A --db server keeps answering resubmissions with done rows written
        # before the byte encoding: those hold plain float lists.
        spec = small_spec(name="legacy", seed=17)
        direct = spec.run()
        legacy = dict(
            campaign_result_payload(direct),
            makespans={name: list(samples) for name, samples in direct.makespans.items()},
        )
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_campaign(spec.to_dict())
            store.claim_next()
            store.finish(record.id, legacy)
            again, reused = scheduler.submit_campaign(spec.to_dict())
            assert reused and again.id == record.id
            rebuilt = ServiceClient.campaign_result(again.to_dict())
        assert rebuilt.makespans == direct.makespans

    def test_malformed_sample_strings_raise_value_error(self):
        payload = campaign_result_payload(small_spec().run())
        good = payload["makespans"]["optimal_dp"]
        short = base64.b64encode(np.zeros(payload["num_runs"] - 1, dtype="<f8").tobytes())
        for bad, message in (
            (good[:-3], "not valid base64"),  # truncated mid-quantum
            ("not base64!", "not valid base64"),
            (base64.b64encode(b"12345678abcd").decode("ascii"), "whole number"),
            (short.decode("ascii"), "expected num_runs"),
            (12, "not valid base64"),
        ):
            broken = dict(payload, makespans=dict(payload["makespans"], optimal_dp=bad))
            with pytest.raises(ValueError, match=message):
                ServiceClient.campaign_result(self._done_job(broken))


class TestQueueDepthGauge:
    def test_gauge_query_is_an_index_search(self):
        with JobStore() as store:
            scheduler = JobScheduler(store)
            for n in range(3):
                store.submit("campaign", {"n": n})
            statements = []
            store._conn.set_trace_callback(statements.append)
            scheduler._update_queue_depth()
            store._conn.set_trace_callback(None)
            assert statements
            for sql in statements:
                plan = store._conn.execute("EXPLAIN QUERY PLAN " + sql).fetchall()
                details = [row[-1] for row in plan]
                assert not any(detail.startswith("SCAN") for detail in details), details

    def test_gauge_equals_queued_count_through_submit_claim_and_cancel(self):
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry):
            store = JobStore()
            scheduler = JobScheduler(store)
            server = GatewayServer(scheduler, port=0)
            server.start()
            try:
                scheduler.stop()  # jobs stay queued until this test claims them
                client = ServiceClient(server.url, timeout=10.0)

                def depth():
                    return registry.get("repro_job_queue_depth").value()

                ids = [
                    client.submit_campaign(
                        small_spec(name=f"depth-{n}", seed=200 + n, num_runs=30)
                    )["id"]
                    for n in range(3)
                ]
                assert depth() == store.count("queued") == 3
                assert scheduler.run_pending(max_jobs=1) == 1
                assert depth() == store.count("queued") == 2
                assert client.cancel(ids[2])["state"] == "cancelled"
                assert depth() == store.count("queued") == 1
            finally:
                server.shutdown()
                store.close()


class TestApiDocJobRecord:
    def test_documented_job_record_has_the_keys_of_a_finished_job(self):
        text = (Path(__file__).resolve().parents[1] / "docs" / "api.md").read_text(
            encoding="utf-8"
        )
        after = text[text.index("Job-bearing responses wrap the record"):]
        block = after[after.index("```json") + len("```json"):]
        documented = json.loads(block[:block.index("```")])
        with JobStore() as store:
            scheduler = JobScheduler(store)
            record, _ = scheduler.submit_campaign(small_spec(name="doc").to_dict())
            assert scheduler.run_pending() == 1
            finished = store.get(record.id).to_dict()

        def key_paths(job):
            return {
                "top": set(job),
                "progress": set(job["progress"]),
                "timings": set(job["timings"]),
                "timings.phases": set(job["timings"]["phases"]),
            }

        assert key_paths(documented) == key_paths(finished)
