"""Tests for the observability substrate (repro.obs) and its instrumentation.

Covers the metrics registry (thread safety, Prometheus golden output), the
tracing layer (span nesting, correlation-id propagation -- including through
ProcessPool chunk workers), structured logging, the per-job phase breakdown,
and the bit-identity guarantee: instrumentation must never perturb samples
or cache keys.
"""

import json
import logging
import multiprocessing
import threading
import time

import pytest

from repro.obs import logging as obs_logging
from repro.obs import metrics, tracing
from repro.runtime.cache import ResultCache
from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec


@pytest.fixture
def registry():
    """A fresh registry installed as the process-global one for the test."""
    fresh = metrics.MetricsRegistry()
    with metrics.use_registry(fresh):
        yield fresh


def small_spec(**overrides):
    params = dict(
        name="obs-spec",
        chain=ChainSpec(n=4, seed=11),
        failure=FailureSpec(kind="exponential", mtbf=35.0),
        strategies=("optimal_dp", "checkpoint_none"),
        num_runs=60,
        seed=7,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestCounterGauge:
    def test_counter_inc_and_value(self):
        counter = metrics.Counter("c_total", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0
        assert counter.total() == 4.5

    def test_counter_rejects_negative_and_bad_labels(self):
        counter = metrics.Counter("c_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1, kind="a")
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(wrong="a")
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()  # missing the label entirely

    def test_gauge_set_inc_dec(self):
        gauge = metrics.Gauge("depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3.0

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            metrics.Counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            metrics.Counter("ok_total", labelnames=("bad-label",))


class TestHistogram:
    def test_bucketing_is_le_inclusive(self):
        hist = metrics.Histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 3.0):
            hist.observe(value)
        child = dict(hist.children())[()]
        # 0.05 and 0.1 land in le=0.1 (inclusive upper bound), 0.5 in le=1,
        # 3.0 in +Inf.
        assert child.bucket_counts == [2, 1, 1]
        assert child.count == 4
        assert child.sum == pytest.approx(3.65)

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError, match="distinct and increasing"):
            metrics.Histogram("h_seconds", buckets=(1.0, 0.5))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = metrics.MetricsRegistry()
        first = registry.counter("jobs_total", labelnames=("kind",))
        second = registry.counter("jobs_total", labelnames=("kind",))
        assert first is second

    def test_redeclaration_mismatch_raises(self):
        registry = metrics.MetricsRegistry()
        registry.counter("x_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", labelnames=("other",))

    def test_total_sums_children(self):
        registry = metrics.MetricsRegistry()
        counter = registry.counter("t_total", labelnames=("k",))
        counter.inc(2, k="a")
        counter.inc(3, k="b")
        assert registry.total("t_total") == 5.0
        assert registry.total("missing") == 0.0
        hist = registry.histogram("h_seconds")
        hist.observe(0.5)
        hist.observe(1.5)
        assert registry.total("h_seconds") == 2.0  # histograms count observations

    def test_concurrent_increments_lose_nothing(self):
        """The thread-safety contract: N threads x M increments land exactly."""
        registry = metrics.MetricsRegistry()
        counter = registry.counter("race_total", labelnames=("worker",))
        hist = registry.histogram("race_seconds", buckets=(0.5,))
        num_threads, per_thread = 8, 2000

        def hammer(worker_id):
            for _ in range(per_thread):
                counter.inc(worker=str(worker_id % 2))
                hist.observe(0.1)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total() == num_threads * per_thread
        assert hist.count() == num_threads * per_thread
        assert hist.sum_value() == pytest.approx(num_threads * per_thread * 0.1)

    def test_global_registry_swap_and_restore(self):
        original = metrics.get_registry()
        fresh = metrics.MetricsRegistry()
        with metrics.use_registry(fresh):
            assert metrics.get_registry() is fresh
        assert metrics.get_registry() is original
        with pytest.raises(TypeError):
            metrics.set_registry("not a registry")


class TestPrometheusRendering:
    def test_golden_output(self):
        registry = metrics.MetricsRegistry()
        jobs = registry.counter(
            "repro_jobs_total", "Jobs by kind.", labelnames=("kind",)
        )
        jobs.inc(3, kind="campaign")
        jobs.inc(kind="experiment")
        depth = registry.gauge("repro_depth", "Queue depth.")
        depth.set(2)
        lat = registry.histogram(
            "repro_lat_seconds", "Latency.", labelnames=("route",), buckets=(0.1, 1.0)
        )
        lat.observe(0.05, route="/v1/jobs")
        lat.observe(0.75, route="/v1/jobs")
        expected = "\n".join([
            "# HELP repro_jobs_total Jobs by kind.",
            "# TYPE repro_jobs_total counter",
            'repro_jobs_total{kind="campaign"} 3',
            'repro_jobs_total{kind="experiment"} 1',
            "# HELP repro_depth Queue depth.",
            "# TYPE repro_depth gauge",
            "repro_depth 2",
            "# HELP repro_lat_seconds Latency.",
            "# TYPE repro_lat_seconds histogram",
            'repro_lat_seconds_bucket{route="/v1/jobs",le="0.1"} 1',
            'repro_lat_seconds_bucket{route="/v1/jobs",le="1"} 2',
            'repro_lat_seconds_bucket{route="/v1/jobs",le="+Inf"} 2',
            'repro_lat_seconds_sum{route="/v1/jobs"} 0.8',
            'repro_lat_seconds_count{route="/v1/jobs"} 2',
        ]) + "\n"
        assert registry.render_prometheus() == expected

    def test_label_values_are_escaped(self):
        registry = metrics.MetricsRegistry()
        counter = registry.counter("esc_total", labelnames=("path",))
        counter.inc(path='a"b\\c\nd')
        rendered = registry.render_prometheus()
        assert r'path="a\"b\\c\nd"' in rendered

    def test_empty_registry_renders_empty(self):
        assert metrics.MetricsRegistry().render_prometheus() == ""

    def test_snapshot_round_trips_through_json(self):
        registry = metrics.MetricsRegistry()
        registry.counter("s_total", labelnames=("k",)).inc(k="x")
        registry.histogram("s_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["s_total"]["values"] == [{"labels": {"k": "x"}, "value": 1.0}]
        assert snapshot["s_seconds"]["values"][0]["count"] == 1


class TestTracing:
    def test_span_records_nesting_and_correlation(self, registry):
        with tracing.start_trace("cid-test-1") as trace:
            with tracing.span("outer"):
                with tracing.span("inner", index=3):
                    pass
        # Spans append as they *finish*: inner first.
        names = [record["name"] for record in trace.spans]
        assert names == ["inner", "outer"]
        inner, outer = trace.spans
        assert inner["parent"] == "outer"
        assert outer["parent"] is None
        assert inner["correlation_id"] == "cid-test-1"
        assert inner["attrs"] == {"index": 3}
        assert inner["duration_s"] >= 0.0
        # Every span fed the duration histogram in the active registry.
        assert registry.total("repro_span_seconds") == 2.0

    def test_span_without_trace_still_observes_histogram(self, registry):
        assert tracing.current_trace() is None
        with tracing.span("lonely"):
            pass
        assert registry.total("repro_span_seconds") == 1.0

    def test_durations_prefix_sum(self):
        with tracing.start_trace() as trace:
            with tracing.span("cache.get"):
                pass
            with tracing.span("cache.put"):
                pass
            with tracing.span("compute"):
                pass
        cache_total = trace.durations("cache.")
        assert cache_total == pytest.approx(
            sum(r["duration_s"] for r in trace.spans if r["name"].startswith("cache."))
        )
        assert cache_total < trace.durations("")

    def test_trace_caps_retained_spans(self, registry, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS_PER_TRACE", 5)
        with tracing.start_trace() as trace:
            for _ in range(8):
                with tracing.span("tick"):
                    pass
        assert len(trace.spans) == 5
        assert trace.dropped == 3

    def test_snapshot_and_activate_round_trip(self, registry):
        assert tracing.context_snapshot() is None
        with tracing.start_trace("cid-snap"):
            snapshot = tracing.context_snapshot()
        assert snapshot == {"correlation_id": "cid-snap"}
        with tracing.activate(snapshot):
            assert tracing.current_correlation_id() == "cid-snap"
        assert tracing.current_correlation_id() is None
        with tracing.activate(None):
            assert tracing.current_correlation_id() is None

    def test_activate_reuses_already_active_trace(self, registry):
        """Serial in-thread chunks keep collecting into the job's own trace."""
        with tracing.start_trace("cid-same") as trace:
            snapshot = tracing.context_snapshot()
            with tracing.activate(snapshot) as inner:
                assert inner is trace
                with tracing.span("chunk"):
                    pass
        assert [r["name"] for r in trace.spans] == ["chunk"]

    def test_span_survives_exceptions(self, registry):
        with tracing.start_trace() as trace:
            with pytest.raises(RuntimeError):
                with tracing.span("doomed"):
                    raise RuntimeError("boom")
        assert [r["name"] for r in trace.spans] == ["doomed"]
        assert registry.total("repro_span_seconds") == 1.0

    def test_spans_are_cheap_without_collectors(self, registry):
        """Pay-for-what-you-use: an idle span is microseconds, not millis."""
        start = time.perf_counter()
        for _ in range(1000):
            with tracing.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # 1ms per span would already be pathological


class TestStructuredLogging:
    def test_json_line_format(self, registry):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(self.format(record))

        handler = Capture()
        handler.setFormatter(obs_logging.JsonLineFormatter())
        logger = obs_logging.get_logger("test.golden")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with tracing.start_trace("cid-log"):
                obs_logging.log_event(logger, "thing.happened", job_id="j1", count=2)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
        assert len(records) == 1
        event = json.loads(records[0])
        assert event["event"] == "thing.happened"
        assert event["level"] == "info"
        assert event["logger"] == "repro.test.golden"
        assert event["job_id"] == "j1"
        assert event["count"] == 2
        assert event["correlation_id"] == "cid-log"
        assert isinstance(event["ts"], float)

    def test_exception_text_included(self):
        import sys

        formatter = obs_logging.JsonLineFormatter()
        try:
            raise ValueError("kaput")
        except ValueError:
            record = logging.LogRecord(
                "repro.test", logging.ERROR, __file__, 1, "job.failed", (),
                exc_info=sys.exc_info(),
            )
        event = json.loads(formatter.format(record))
        assert "kaput" in event["exception"]
        assert "Traceback" in event["exception"]

    def test_configure_logging_is_idempotent(self):
        import io

        root = logging.getLogger("repro")
        before = list(root.handlers)
        stream_a, stream_b = io.StringIO(), io.StringIO()
        try:
            obs_logging.configure_logging(stream=stream_a)
            obs_logging.configure_logging(stream=stream_b)
            ours = [h for h in root.handlers if getattr(h, "_repro_obs_handler", False)]
            assert len(ours) == 1  # replaced, not stacked
            obs_logging.log_event(obs_logging.get_logger("idem"), "ping")
            assert stream_a.getvalue() == ""
            assert "ping" in stream_b.getvalue()
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs_handler", False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
        assert root.handlers == before

    def test_disabled_level_short_circuits(self, registry):
        logger = obs_logging.get_logger("test.silent")
        # DEBUG is disabled by default: log_event must not even build fields.
        assert not logger.isEnabledFor(logging.DEBUG)
        obs_logging.log_event(logger, "noise", level=logging.DEBUG, big=object())


class TestChunkInstrumentation:
    def test_serial_chunked_run_records_chunk_metrics(self, registry, tmp_path):
        spec = small_spec()
        with tracing.start_trace("job-xyz") as trace:
            spec.run(cache=ResultCache(tmp_path), chunk_size=20)
        # 60 runs / chunk_size 20 = 3 chunks, all in this thread.
        assert registry.get("repro_chunk_seconds").count(
            engine="scalar", kind="campaign"
        ) == 3
        assert registry.get("repro_replications_per_second").value(
            engine="scalar", kind="campaign"
        ) > 0
        chunk_spans = [r for r in trace.spans if r["name"] == "campaign.chunk"]
        assert len(chunk_spans) == 3
        assert all(r["correlation_id"] == "job-xyz" for r in chunk_spans)
        cache_spans = [r for r in trace.spans if r["name"].startswith("cache.")]
        assert cache_spans  # the miss lookup and the put both traced

    def test_cache_counters_by_namespace(self, registry, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        spec.run(cache=cache)
        spec.run(cache=cache)
        requests = registry.get("repro_cache_requests_total")
        assert requests.value(namespace="campaign", outcome="miss") == 1
        assert requests.value(namespace="campaign", outcome="hit") == 1
        assert cache.hits == 1 and cache.misses == 1
        written = registry.get("repro_cache_bytes_written_total")
        assert written.value(namespace="campaign") > 0

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers only inherit logging config under fork start",
    )
    def test_correlation_id_propagates_through_pool_chunks(self, registry, capfd):
        from repro.simulation.monte_carlo import estimate_expected_completion_time

        root = logging.getLogger("repro")
        handler = obs_logging.configure_logging(level=logging.DEBUG)
        try:
            with tracing.start_trace("cid-pool-1"):
                estimate_expected_completion_time(
                    1.0, 0.1, 0.0, 0.1, 0.05,
                    num_runs=40, seed=3, backend=2, chunk_size=20,
                )
        finally:
            root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
        err = capfd.readouterr().err
        chunk_events = [
            json.loads(line)
            for line in err.splitlines()
            if '"span": "mc.chunk"' in line
        ]
        assert chunk_events, f"no chunk span events in child stderr: {err!r}"
        assert all(e["correlation_id"] == "cid-pool-1" for e in chunk_events)


class TestBitIdentity:
    """Instrumentation must not perturb samples, RNG streams or cache keys."""

    def test_instrumented_run_is_bit_identical(self, tmp_path):
        spec = small_spec()
        plain = spec.run(cache=ResultCache(tmp_path / "plain"), chunk_size=20)
        with metrics.use_registry(metrics.MetricsRegistry()):
            with tracing.start_trace("instrumented"):
                instrumented = spec.run(
                    cache=ResultCache(tmp_path / "traced"), chunk_size=20
                )
        assert plain.makespans == instrumented.makespans
        # Both runs content-address identically: same entry filenames.
        plain_keys = sorted(p.name for p in (tmp_path / "plain").rglob("*.json"))
        traced_keys = sorted(p.name for p in (tmp_path / "traced").rglob("*.json"))
        assert plain_keys == traced_keys and plain_keys

    def test_vectorized_engine_identical_under_tracing(self, tmp_path):
        spec = small_spec(engine="vectorized", num_runs=40)
        plain = spec.run(chunk_size=20)
        with tracing.start_trace():
            traced = spec.run(chunk_size=20)
        assert plain.makespans == traced.makespans


class TestJobPhases:
    def test_scheduler_records_phase_breakdown(self, registry, tmp_path):
        from repro.service.jobs import JobStore
        from repro.service.queue import JobScheduler

        store = JobStore()
        scheduler = JobScheduler(store, cache=ResultCache(tmp_path))
        try:
            record, reused = scheduler.submit_campaign(small_spec().to_dict())
            assert not reused
            assert scheduler.run_pending() == 1
            done = store.get(record.id)
            assert done.state == "done"
            assert set(done.phases) == {"queue_wait_s", "compute_s", "cache_s"}
            assert all(value >= 0.0 for value in done.phases.values())
            assert done.phases["compute_s"] > 0.0
            assert done.to_dict()["timings"]["phases"] == done.phases
        finally:
            scheduler.stop()
            store.close()
        assert registry.get("repro_jobs_submitted_total").value(kind="campaign") == 1
        assert registry.get("repro_jobs_completed_total").value(
            kind="campaign", outcome="done"
        ) == 1
        assert registry.total("repro_job_claim_seconds") == 1.0
        assert registry.get("repro_job_run_seconds").count(kind="campaign") == 1
        assert registry.total("repro_jobstore_op_seconds") > 0

    def test_failed_job_logs_structured_error_and_keeps_phases(self, registry):
        from repro.service.jobs import JobStore
        from repro.service.queue import JobScheduler

        store = JobStore()
        scheduler = JobScheduler(store)
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(json.loads(self.format(record)))

        handler = Capture()
        handler.setFormatter(obs_logging.JsonLineFormatter())
        logger = logging.getLogger("repro.service.queue")
        logger.addHandler(handler)
        try:
            # A spec that validates at submission but fails at execution:
            # corrupt the stored payload the way a schema drift would.
            record, _ = scheduler.submit_campaign(small_spec().to_dict())
            with store._lock, store._conn:
                store._conn.execute(
                    "UPDATE jobs SET spec = ? WHERE id = ?",
                    (json.dumps({"scenario": {"name": "broken"}}), record.id),
                )
            scheduler.run_pending()
        finally:
            logger.removeHandler(handler)
            scheduler.stop()
            store.close()
        failed = [e for e in records if e["event"] == "job.failed"]
        assert len(failed) == 1
        assert failed[0]["job_id"] == record.id
        assert failed[0]["correlation_id"] == record.id
        assert failed[0]["level"] == "error"
        assert "exception" in failed[0]
        assert registry.get("repro_jobs_completed_total").value(
            kind="campaign", outcome="failed"
        ) == 1

    def test_phases_survive_store_migration(self, tmp_path):
        """A pre-observability database gains the phases column on open."""
        import sqlite3

        from repro.service.jobs import JobStore

        db = tmp_path / "old.sqlite"
        conn = sqlite3.connect(db)
        # The PR-5 era schema: no phases column.
        conn.executescript("""
            CREATE TABLE jobs (
                id TEXT PRIMARY KEY, kind TEXT NOT NULL, spec TEXT NOT NULL,
                dedupe_key TEXT, state TEXT NOT NULL,
                chunks_done INTEGER NOT NULL DEFAULT 0,
                chunks_total INTEGER NOT NULL DEFAULT 0,
                result TEXT, error TEXT,
                cancel_requested INTEGER NOT NULL DEFAULT 0,
                submitted_at REAL NOT NULL, started_at REAL, finished_at REAL
            );
        """)
        conn.execute(
            "INSERT INTO jobs (id, kind, spec, state, submitted_at)"
            " VALUES ('legacy01', 'campaign', '{}', 'done', 1.0)"
        )
        conn.commit()
        conn.close()
        store = JobStore(db)
        try:
            legacy = store.get("legacy01")
            assert legacy.phases is None
            store.finish("legacy01", {"type": "table"},
                         phases={"queue_wait_s": 0.5, "compute_s": 2.0, "cache_s": 0.1})
            assert store.get("legacy01").phases == {
                "queue_wait_s": 0.5, "compute_s": 2.0, "cache_s": 0.1,
            }
        finally:
            store.close()


class TestStartupValidation:
    def test_scheduler_rejects_oversized_default_chunk_size(self):
        from repro.service.jobs import JobStore
        from repro.service.queue import JobScheduler

        with JobStore() as store:
            with pytest.raises(ValueError, match="exceeds the service cap"):
                JobScheduler(store, chunk_size=JobScheduler.MAX_CHUNK_SIZE + 1)
            with pytest.raises(TypeError, match="must be an integer"):
                JobScheduler(store, chunk_size="lots")
            with pytest.raises(ValueError, match=">= 1"):
                JobScheduler(store, chunk_size=0)
            # The cap itself and None are fine.
            JobScheduler(store, chunk_size=JobScheduler.MAX_CHUNK_SIZE).stop()
            JobScheduler(store, chunk_size=None).stop()
