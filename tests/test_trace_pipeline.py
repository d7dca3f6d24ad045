"""Tests for the trace pipeline: persisted per-job span trees, the flight
recorder, and bench perf history.

The tentpole contract under test: a pool-backed job's chunk spans -- recorded
inside worker processes -- travel back in the chunk result payloads, are
folded into the job's live trace under ``job.run``, persisted in the job
store's ``traces`` table, and served over ``GET /v1/jobs/{id}/trace`` by
the HTTP gateway.  Around it: span-tree reconstruction and rendering,
the per-trace span cap, the always-on flight recorder ring, and the
benchmark perf-history JSONL plus its regression checker.
"""

import importlib.util
import json
import sqlite3
from pathlib import Path

import pytest

from repro.obs import flight as obs_flight
from repro.obs import metrics, tracing
from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayServer
from repro.service.jobs import JobStore
from repro.service.queue import JobScheduler

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_module(name, relpath):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def registry():
    fresh = metrics.MetricsRegistry()
    with metrics.use_registry(fresh):
        yield fresh


@pytest.fixture
def flight_recorder():
    """A fresh process-wide flight recorder, restored afterwards."""
    fresh = obs_flight.FlightRecorder(capacity=64)
    previous = obs_flight.set_flight_recorder(fresh)
    try:
        yield fresh
    finally:
        obs_flight.set_flight_recorder(previous)


def small_spec(**overrides):
    params = dict(
        name="trace-spec",
        chain=ChainSpec(n=4, seed=11),
        failure=FailureSpec(kind="exponential", mtbf=35.0),
        strategies=("optimal_dp", "checkpoint_none"),
        num_runs=60,
        seed=7,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------


class TestSpanTree:
    def test_tree_reconstruction_and_self_time(self):
        with tracing.start_trace("t" * 16) as trace:
            with tracing.span("job.run", kind="campaign"):
                with tracing.span("campaign.chunk", runs=30):
                    pass
                with tracing.span("cache.put", namespace="campaign"):
                    pass
        roots = tracing.span_tree(trace.spans)
        assert len(roots) == 1
        root = roots[0]
        assert root["record"]["name"] == "job.run"
        children = [n["record"]["name"] for n in root["children"]]
        assert children == ["campaign.chunk", "cache.put"]
        child_time = sum(n["record"]["duration_s"] for n in root["children"])
        assert root["self_s"] == pytest.approx(
            root["record"]["duration_s"] - child_time
        )

    def test_render_tree_indents_and_reports_self_time(self):
        records = [
            {"name": "campaign.chunk", "duration_s": 0.25, "parent": "job.run",
             "attrs": {"engine": "scalar", "runs": 50}},
            {"name": "job.run", "duration_s": 1.0, "parent": None,
             "attrs": {"kind": "campaign"}},
        ]
        text = tracing.render_span_tree(records)
        lines = text.splitlines()
        assert lines[0].startswith("job.run")
        assert "kind=campaign" in lines[0]
        assert "self 0.7500s" in lines[0]
        assert lines[1].startswith("  campaign.chunk")
        assert "0.2500s" in lines[1] and "self 0.2500s" in lines[1]

    def test_self_time_clamped_for_overlapping_pool_chunks(self):
        # Concurrent chunks can sum past the parent's wall clock.
        records = [
            {"name": "campaign.chunk", "duration_s": 0.8, "parent": "job.run"},
            {"name": "campaign.chunk", "duration_s": 0.9, "parent": "job.run"},
            {"name": "job.run", "duration_s": 1.0, "parent": None},
        ]
        roots = tracing.span_tree(records)
        assert roots[0]["self_s"] == 0.0

    def test_span_cap_counts_drops(self, registry, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS_PER_TRACE", 3)
        with tracing.start_trace("cap-trace") as trace:
            for _ in range(5):
                with tracing.span("tiny"):
                    pass
        assert len(trace.spans) == 3
        assert trace.dropped == 2
        assert registry.get("repro_trace_spans_dropped_total").total() == 2


class TestShipping:
    def test_forked_worker_ships_despite_inherited_trace(self):
        # A fork-started pool worker inherits the parent's contextvars; the
        # pid stamp is what tells its dead-copy trace from the live one.
        with tracing.start_trace("deadbeefcafe0123") as trace:
            snap = tracing.context_snapshot()
            with tracing.span("job.run"):
                # Same pid: genuinely in-context, nothing ships.
                with tracing.shipping_trace(snap) as shipped:
                    with tracing.span("campaign.chunk"):
                        pass
                assert shipped == []
                # Simulate the fork: same trace object, wrong pid.
                trace.pid = trace.pid - 1
                with tracing.shipping_trace(snap) as shipped:
                    with tracing.span("campaign.chunk"):
                        pass
                assert [r["name"] for r in shipped] == ["campaign.chunk"]
                assert shipped[0]["correlation_id"] == "deadbeefcafe0123"

    def test_absorb_reparents_under_open_span(self):
        shipped = [
            {"name": "campaign.chunk", "duration_s": 0.1, "parent": None,
             "correlation_id": "c" * 16},
        ]
        with tracing.start_trace("c" * 16) as trace:
            with tracing.span("job.run"):
                tracing.absorb_spans(shipped)
        chunk = [r for r in trace.spans if r["name"] == "campaign.chunk"]
        assert len(chunk) == 1
        assert chunk[0]["parent"] == "job.run"

    def test_pool_campaign_chunk_spans_land_in_live_trace(self):
        spec = small_spec()
        with tracing.start_trace("pool-trace-1") as trace:
            with tracing.span("job.run"):
                result = spec.run(backend=2, chunk_size=30)
        chunk = [r for r in trace.spans if r["name"] == "campaign.chunk"]
        assert len(chunk) == 2  # 60 runs / 30 per chunk
        assert all(r["correlation_id"] == "pool-trace-1" for r in chunk)
        assert all(r["parent"] == "job.run" for r in chunk)
        # Bit-identity across backends is untouched by the shipping payload.
        serial = spec.run(chunk_size=30)
        assert result.makespans == serial.makespans


# ----------------------------------------------------------------------
# Persisted traces: store, scheduler, HTTP
# ----------------------------------------------------------------------


class TestJobStoreTraces:
    def test_trace_round_trip_and_overwrite(self):
        with JobStore() as store:
            record = store.submit("campaign", {"x": 1})
            payload = {"correlation_id": record.id, "dropped": 0,
                       "spans": [{"name": "job.run", "duration_s": 0.5}]}
            store.fail(record.id, "boom", trace=payload)
            assert store.get_trace(record.id) == payload
            updated = dict(payload, dropped=3)
            store.fail(record.id, "boom", trace=updated)
            assert store.get_trace(record.id)["dropped"] == 3

    def test_get_trace_missing_returns_none(self):
        with JobStore() as store:
            assert store.get_trace("nope") is None

    def test_legacy_db_without_traces_table_migrates(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        legacy = sqlite3.connect(path)
        legacy.executescript("""
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
        legacy.execute(
            "INSERT INTO jobs (id, kind, spec, state, submitted_at)"
            " VALUES ('old-1', 'campaign', '{}', 'done', 1.0)"
        )
        legacy.commit()
        legacy.close()
        with JobStore(path) as store:
            assert store.get("old-1").state == "done"
            assert store.get_trace("old-1") is None
            store.finish("old-1", {"type": "table"},
                         trace={"correlation_id": "old-1", "spans": []})
            assert store.get_trace("old-1")["correlation_id"] == "old-1"

    def test_scheduler_persists_pool_chunk_spans(self, registry):
        # The acceptance contract: a pool-backed job's stored trace contains
        # the chunk spans recorded in worker processes, under the job's id.
        with JobStore() as store:
            scheduler = JobScheduler(store, backend=2, chunk_size=30)
            record, _ = scheduler.submit_campaign(small_spec().to_dict())
            assert scheduler.run_pending() == 1
            assert store.get(record.id).state == "done"
            trace = store.get_trace(record.id)
            assert trace is not None
            assert trace["correlation_id"] == record.id
            assert trace["dropped"] == 0
            chunk = [s for s in trace["spans"] if s["name"] == "campaign.chunk"]
            assert len(chunk) == 2
            assert all(s["correlation_id"] == record.id for s in chunk)
            assert all(s["parent"] == "job.run" for s in chunk)


@pytest.fixture(params=["gateway"])
def live_server():
    """The HTTP gateway, serving a pool-backed scheduler."""
    store = JobStore()
    scheduler = JobScheduler(store, backend=2, chunk_size=30)
    server = GatewayServer(scheduler, port=0)
    server.start()
    yield server
    server.shutdown()
    store.close()


class TestTraceEndpoints:
    def test_trace_served_after_pool_job(self, live_server, flight_recorder):
        client = ServiceClient(live_server.url, timeout=10.0)
        job = client.submit_campaign(small_spec())
        done = client.wait(job["id"], timeout=120.0)
        assert done["state"] == "done"
        trace = client.job_trace(job["id"])
        assert trace["correlation_id"] == job["id"]
        chunk = [s for s in trace["spans"] if s["name"] == "campaign.chunk"]
        assert len(chunk) == 2
        assert all(s["parent"] == "job.run" for s in chunk)

    def test_unknown_job_and_missing_trace_are_distinct_404s(self, live_server):
        client = ServiceClient(live_server.url, timeout=10.0)
        with pytest.raises(ServiceError, match="no such job") as excinfo:
            client.job_trace("nope")
        assert excinfo.value.status == 404
        # A submitted-but-not-executed job exists without a trace.  Submit
        # against a scheduler whose workers we never run: not possible via
        # the live server (it executes), so exercise the store directly.
        store = live_server.scheduler.store
        queued = store.submit("campaign", {"queued": True})
        with pytest.raises(ServiceError, match="no trace recorded") as excinfo:
            client.job_trace(queued.id)
        assert excinfo.value.status == 404

    def test_flight_endpoint_serves_ring_with_kind_filter(
        self, live_server, flight_recorder
    ):
        with tracing.span("warmup.span"):
            pass
        client = ServiceClient(live_server.url, timeout=10.0)
        flight = client.debug_flight()
        assert flight["capacity"] == 64
        assert any(e["kind"] == "span" for e in flight["events"])
        spans_only = client.debug_flight(kind="span")
        assert spans_only["events"]
        assert all(e["kind"] == "span" for e in spans_only["events"])
        none_match = client.debug_flight(kind="error")
        assert none_match["events"] == []


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_and_drop_accounting(self):
        recorder = obs_flight.FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("span", name=f"s{index}")
        snapshot = recorder.snapshot()
        assert snapshot["capacity"] == 4
        assert snapshot["recorded_total"] == 10
        assert snapshot["dropped"] == 6
        names = [e["name"] for e in snapshot["events"]]
        assert names == ["s6", "s7", "s8", "s9"]
        seqs = [e["seq"] for e in snapshot["events"]]
        assert seqs == sorted(seqs)

    def test_span_sink_feeds_default_recorder(self, flight_recorder):
        with tracing.start_trace("flight-cid-0001"):
            with tracing.span("observed.span", runs=5):
                pass
        spans = flight_recorder.events(kind="span")
        assert spans
        last = spans[-1]
        assert last["name"] == "observed.span"
        assert last["correlation_id"] == "flight-cid-0001"
        assert last["attrs"] == {"runs": 5}

    def test_warning_logs_feed_recorder_info_does_not(self, flight_recorder):
        import logging as stdlib_logging

        from repro.obs.logging import get_logger, log_event

        logger = get_logger("flight-test")
        logger.setLevel(stdlib_logging.DEBUG)
        log_event(logger, "routine.event")
        log_event(logger, "bad.thing", level=stdlib_logging.WARNING)
        log_event(logger, "worse.thing", level=stdlib_logging.ERROR, error="boom")
        kinds = [(e["kind"], e["event"]) for e in flight_recorder.events()
                 if e["kind"] in ("log", "error")]
        assert ("log", "bad.thing") in kinds
        assert ("error", "worse.thing") in kinds
        assert all(event != "routine.event" for _, event in kinds)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            obs_flight.FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# Bench perf history + regression checker
# ----------------------------------------------------------------------


class TestBenchHistory:
    def test_harness_appends_history_record(self, tmp_path, capsys):
        harness = _load_module("bench_harness_under_test", "benchmarks/harness.py")

        def runner(scale=1):
            return None

        history = tmp_path / "history.jsonl"
        for _ in range(2):
            assert harness.run_cli(
                "bench_fake", runner,
                quick_params={"scale": 1}, full_params={"scale": 10},
                argv=["--quick", "--history", str(history)],
            ) == 0
        records = [json.loads(line) for line in history.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert record["bench"] == "bench_fake"
            assert record["mode"] == "quick"
            assert record["metric"] == "seconds"
            assert record["value"] >= 0
            assert record["ts"] > 0
        assert "appended perf record" in capsys.readouterr().out

    def test_regression_checker_flags_and_exit_codes(self, tmp_path, capsys):
        checker = _load_module(
            "check_bench_regression_under_test", "scripts/check_bench_regression.py"
        )
        history = tmp_path / "history.jsonl"
        rows = [
            {"bench": "b1", "mode": "quick", "metric": "seconds", "value": 1.0},
            {"bench": "b1", "mode": "quick", "metric": "seconds", "value": 1.1},
            {"bench": "b1", "mode": "quick", "metric": "seconds", "value": 5.0},
            # Too-short series: never flagged.
            {"bench": "b2", "mode": "quick", "metric": "seconds", "value": 9.0},
        ]
        history.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert checker.main([str(history)]) == 0  # advisory by default
        out = capsys.readouterr().out
        assert "REGRESSION: b1" in out and "5.00x" in out
        assert checker.main(["--strict", str(history)]) == 1
        # Under threshold: clean.
        ok_rows = rows[:2] + [dict(rows[0], value=1.2)]
        history.write_text("".join(json.dumps(r) + "\n" for r in ok_rows))
        capsys.readouterr()
        assert checker.main(["--strict", str(history)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regression_checker_skips_malformed_lines(self, tmp_path, capsys):
        checker = _load_module(
            "check_bench_regression_malformed", "scripts/check_bench_regression.py"
        )
        history = tmp_path / "history.jsonl"
        history.write_text('not json\n{"bench": "b", "value": 1.0}\n\n')
        assert checker.main([str(history)]) == 0
        assert "skipping malformed line" in capsys.readouterr().err

    def test_compares_against_best_not_latest(self, tmp_path):
        checker = _load_module(
            "check_bench_regression_best", "scripts/check_bench_regression.py"
        )
        series = {
            ("b", "quick", "seconds"): [
                {"value": 1.0}, {"value": 4.0}, {"value": 4.1},
            ]
        }
        findings = checker.find_regressions(series, threshold=1.5, min_history=3)
        # 4.1 vs best-earlier 1.0, not vs the immediately preceding 4.0.
        assert len(findings) == 1 and "4.10x" in findings[0]


# ----------------------------------------------------------------------
# Bit-identity with the full telemetry pipeline enabled
# ----------------------------------------------------------------------


class TestBitIdentityWithTelemetry:
    def test_persistence_and_export_do_not_perturb_samples(self, tmp_path):
        from repro.runtime.cache import ResultCache

        spec = small_spec()
        plain = spec.run(cache=ResultCache(tmp_path / "plain"), chunk_size=30)
        with metrics.use_registry(metrics.MetricsRegistry()):
            with JobStore() as store:
                scheduler = JobScheduler(
                    store, backend=2, chunk_size=30,
                    cache=ResultCache(tmp_path / "telemetry"),
                )
                record, _ = scheduler.submit_campaign(spec.to_dict())
                assert scheduler.run_pending() == 1
                done = store.get(record.id)
                assert done.state == "done"
                assert store.get_trace(record.id) is not None
        assert ServiceClient.campaign_result(done.to_dict()).makespans == plain.makespans
        plain_keys = sorted(p.name for p in (tmp_path / "plain").rglob("*.json"))
        telem_keys = sorted(p.name for p in (tmp_path / "telemetry").rglob("*.json"))
        assert plain_keys == telem_keys and plain_keys
