"""The three closed-loop workloads: one client, one thread, one operation in flight.

Each ``run_*`` function executes operations from a generated stream until
``seconds`` of measured operation time have passed, at least ``min_ops``
operations completed and the current block of the stream is finished (or
exactly ``count`` operations when given), and returns a :class:`Pass`.  Only the operation itself is timed;
output checks run with the clock stopped.  With a :class:`~spans.Tracer`,
the same operations also record per-layer spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.strategies import evaluate_chain_strategies
from repro.core.chain_dp import optimal_chain_checkpoints, optimal_chain_checkpoints_budget
from repro.core.dag_scheduling import schedule_dag
from repro.core.independent import schedule_independent_tasks
from repro.failures.traces import generate_trace
from repro.runtime.chunking import plan_chunks
from repro.service.client import ServiceClient
from repro.simulation.engine import TraceFailureSource
from repro.simulation.executor import simulate_segments
from repro.simulation.vectorized import generate_trace_times_batch, replay_traces_batch

import checks
import service
from spans import Tracer

#: Served client: earlier jobs read after each job, and the list page size.
READS_PER_JOB = 2
LIST_LIMIT = 20
#: Peak RSS is read when this many operations have completed, so it does not
#: grow with throughput.  It equals the sample count p95 needs.
RSS_AT_OPS = 200


@dataclass
class Pass:
    """What one pass over a stream measured."""

    items: int = 0  # stream items consumed
    latencies: List[float] = field(default_factory=list)  # seconds, per operation
    reads: List[float] = field(default_factory=list)  # seconds, served reads
    busy: float = 0.0  # seconds inside timed operations
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    rss_mb: float = 0.0
    work_units: int = 0  # simulated makespans (campaigns) or scheduled tasks (solvers)
    layer: Dict[str, Any] = field(default_factory=dict)  # per-layer raw data (traced)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _more(out: Pass, seconds: float, min_ops: int, count: Optional[int], block: int) -> bool:
    """Continue until the time and sample targets are met, then to the end of the block."""
    if count is not None:
        return out.items < count
    return out.busy < seconds or len(out.latencies) < min_ops or out.items % block != 0


def _null_span(name: str):
    return contextlib.nullcontext()


# ----------------------------------------------------------------------
# campaign_direct
# ----------------------------------------------------------------------


def run_direct(specs, *, block: int, seconds: float, min_ops: int,
               count: Optional[int] = None, tracer: Optional[Tracer] = None) -> Pass:
    out = Pass()
    for index, spec in enumerate(specs):
        if not _more(out, seconds, min_ops, count, block):
            break
        out.items += 1
        out.attempted += 1
        start = time.perf_counter()
        try:
            result = spec.run()
        except Exception as exc:  # noqa: BLE001 - an operation failure is counted, not fatal
            out.fail(f"{spec.name}: {type(exc).__name__}: {exc}")
            continue
        end = time.perf_counter()
        out.busy += end - start
        out.latencies.append(end - start)
        out.work_units += spec.num_runs * len(spec.strategies)
        if out.attempted == RSS_AT_OPS:
            out.rss_mb = service.peak_rss_mb()
        for problem in checks.prop1_violations(spec, result.makespans):
            out.fail(problem)
        if tracer is not None:
            tracer.op = index
            tracer.add("runtime.run", start, end)
            rebuilt = rebuild_campaign(spec, tracer, out.layer)
            if not checks.same_samples(rebuilt, result.makespans):
                out.fail(f"{spec.name}: traced rebuild differs from spec.run()")
    if out.rss_mb == 0.0:
        out.rss_mb = service.peak_rss_mb()
    return out


def rebuild_campaign(spec, tracer: Tracer, counts: Dict[str, Any]) -> Dict[str, List[float]]:
    """Recompute ``spec.run()`` from the public layer functions, one span per call.

    Follows ``ScenarioSpec.run`` -> ``CampaignRunner`` step by step: the
    strategy schedules (chain DP separately), the deterministic chunk plan,
    and per chunk the trace generation and replay of the campaign's engine.
    The result must be bit-identical to ``spec.run()``; that is what shows
    the per-layer split measures the same work.
    """
    strategies = list(spec.strategies)
    rate = spec.failure.rate_equivalent
    with tracer.span("rebuild"):
        with tracer.span("baselines.schedules"):
            chain = spec.build_chain()
            placements = evaluate_chain_strategies(
                chain, spec.downtime, rate, only=[s for s in strategies if s != "optimal_dp"])
            if "optimal_dp" in strategies:
                with tracer.span("core.chain_dp"):
                    placements["optimal_dp"] = optimal_chain_checkpoints(
                        chain, spec.downtime, rate)
            schedules = {name: placements[name].to_schedule() for name in strategies}
        segments = {name: schedule.segments() for name, schedule in schedules.items()}
        horizon = spec.horizon_factor * max(s.failure_free_time() for s in schedules.values())
        law = spec.build_law()
        plan = plan_chunks(spec.num_runs)
        makespans: Dict[str, List[float]] = {name: [] for name in strategies}
        draws = 0
        for chunk_seed, size in zip(plan.seeds(spec.seed), plan.sizes):
            rng = np.random.default_rng(chunk_seed)
            if spec.engine == "vectorized":
                with tracer.span("failures.trace_gen"):
                    times = generate_trace_times_batch(
                        law, horizon, spec.num_processors, rng, size)
                draws += times.size
                with tracer.span("simulation.replay"):
                    stacked = replay_traces_batch(
                        [segments[name] for name in strategies], times, spec.downtime)
                for row, name in enumerate(strategies):
                    makespans[name].extend(stacked[row].tolist())
                continue
            for _ in range(size):
                with tracer.span("failures.trace_gen"):
                    trace = generate_trace(
                        law, horizon=horizon, num_processors=spec.num_processors, rng=rng)
                draws += len(trace.events) + spec.num_processors
                for name in strategies:
                    with tracer.span("simulation.scalar"):
                        result = simulate_segments(
                            segments[name], TraceFailureSource(trace), spec.downtime, rng=rng)
                    makespans[name].append(result.makespan)
    truncated = sum(int((np.asarray(v) > horizon).sum()) for v in makespans.values())
    for key, value in (("chunks", plan.num_chunks), ("draws", draws),
                       ("runs", spec.num_runs * len(strategies)), ("truncated", truncated)):
        counts.setdefault(key, []).append(value)
    return makespans


# ----------------------------------------------------------------------
# campaign_served
# ----------------------------------------------------------------------


class TracedClient(ServiceClient):
    """A client whose record fetch (inside ``wait``) records a span."""

    def __init__(self, base_url: str, tracer: Tracer, **kwargs) -> None:
        super().__init__(base_url, **kwargs)
        self.tracer = tracer

    def job(self, job_id: str) -> Dict[str, Any]:
        with self.tracer.span("client.fetch"):
            return super().job(job_id)


def run_served(server: service.ServerProcess, specs, choices: Sequence[float], *,
               block: int, seconds: float, min_ops: int, count: Optional[int] = None,
               tracer: Optional[Tracer] = None) -> Pass:
    """Submit -> SSE wait -> record -> ``campaign_result``, then reads of earlier jobs."""
    out = Pass()
    bodies = [spec.to_dict() for spec in specs]
    reader = ServiceClient(server.url, timeout=120.0)
    client = TracedClient(server.url, tracer, timeout=120.0) if tracer else reader
    span = tracer.span if tracer is not None else _null_span
    done_ids: List[str] = []
    digests: Dict[int, str] = {}
    layer = out.layer
    scrape = _Scraper(reader) if tracer is not None else None
    picks = iter(choices)
    for index, body in enumerate(bodies):
        if not _more(out, seconds, min_ops, count, block):
            break
        if tracer is not None:
            tracer.op = index
        out.items += 1
        out.attempted += 1
        start = time.perf_counter()
        try:
            with span("client.job"):
                with span("client.submit"):
                    job = client.submit_campaign(body)
                with span("client.wait"):
                    record = client.wait(job["id"], stream=True, timeout=120.0)
                with span("client.rebuild"):
                    result = ServiceClient.campaign_result(record)
        except Exception as exc:  # noqa: BLE001 - an operation failure is counted, not fatal
            out.fail(f"{specs[index].name}: {type(exc).__name__}: {exc}")
            continue
        end = time.perf_counter()
        out.busy += end - start
        out.latencies.append(end - start)
        out.work_units += specs[index].num_runs * len(specs[index].strategies)
        if job.get("deduplicated"):
            out.fail(f"{specs[index].name}: deduplicated against an earlier job")
        digests[index] = checks.samples_digest(result.makespans)
        done_ids.append(job["id"])
        if tracer is not None:
            phases = record["timings"]["phases"] or {}
            layer.setdefault("phases", {})[index] = phases
            layer.setdefault("result_bytes", []).append(
                len(json.dumps({"job": record}).encode("utf-8")))
            scrape.mark("job")
        if len(out.latencies) == RSS_AT_OPS:
            out.rss_mb = server.peak_rss_mb()
        for _ in range(READS_PER_JOB):
            wanted = done_ids[min(int(next(picks) * len(done_ids)), len(done_ids) - 1)]
            _timed_read(out, span, lambda: reader.job(wanted),
                        lambda rec: rec["id"] == wanted and rec["state"] == "done")
        _timed_read(out, span, lambda: reader.jobs(limit=LIST_LIMIT),
                    lambda jobs: 1 <= len(jobs) <= LIST_LIMIT)
        if tracer is not None:
            scrape.mark("reads")
    if out.rss_mb == 0.0:
        out.rss_mb = server.peak_rss_mb()
    if scrape is not None:
        layer["server"] = scrape.totals
    layer["digests"] = digests
    return out


def _timed_read(out: Pass, span, read: Callable[[], Any], ok: Callable[[Any], bool]) -> None:
    out.attempted += 1
    start = time.perf_counter()
    try:
        with span("client.read"):
            value = read()
    except Exception as exc:  # noqa: BLE001 - an operation failure is counted, not fatal
        out.fail(f"read: {type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter() - start
    out.busy += elapsed
    out.reads.append(elapsed)
    if not ok(value):
        out.fail("read returned an unexpected payload")


class _Scraper:
    """``/v1/metrics`` histogram deltas, split at the marks between job and reads.

    The submit and the list share the ``/v1/jobs`` route label, so the
    server histograms are scraped after each job and after its reads: the
    deltas of the first segment belong to the job, those of the second to
    the reads.
    """

    def __init__(self, client: ServiceClient) -> None:
        self.client = client
        self.totals: Dict[str, service.Sums] = {"job": {}, "reads": {}}
        self.last = self._scrape()

    def _scrape(self) -> service.Sums:
        return service.histogram_sums(self.client.metrics())

    def mark(self, segment: str) -> None:
        now = self._scrape()
        service.add(self.totals[segment], service.delta(now, self.last))
        self.last = now


def check_served_against_direct(specs, digests: Dict[int, str], out: Pass,
                                timings: Optional[Dict[int, float]] = None) -> None:
    """Every served result must be bit-identical to a direct ``spec.run()``."""
    for index, served in sorted(digests.items()):
        start = time.perf_counter()
        direct = specs[index].run()
        if timings is not None:
            timings[index] = time.perf_counter() - start
        if checks.samples_digest(direct.makespans) != served:
            out.fail(f"{specs[index].name}: served samples differ from spec.run()")


# ----------------------------------------------------------------------
# solver_mix
# ----------------------------------------------------------------------


def solve(instance, data):
    p = instance.params
    if instance.kind == "chain_dp":
        return optimal_chain_checkpoints(data, p["downtime"], p["rate"])
    if instance.kind == "budget_dp":
        return optimal_chain_checkpoints_budget(data, p["downtime"], p["rate"], p["budget"])
    if instance.kind == "dag":
        return schedule_dag(data, p["downtime"], p["rate"], seed=p["seed"])
    cost = p["checkpoint_cost"]
    return schedule_independent_tasks(list(data), cost, cost, p["downtime"], p["rate"])


def run_solver(instances, *, block: int, seconds: float, min_ops: int,
               count: Optional[int] = None, tracer: Optional[Tracer] = None) -> Pass:
    out = Pass()
    for index, instance in enumerate(instances):
        if not _more(out, seconds, min_ops, count, block):
            break
        out.items += 1
        out.attempted += 1
        data = instance.build()
        start = time.perf_counter()
        try:
            result = solve(instance, data)
        except Exception as exc:  # noqa: BLE001 - an operation failure is counted, not fatal
            out.fail(f"{instance.kind}#{index}: {type(exc).__name__}: {exc}")
            continue
        end = time.perf_counter()
        out.busy += end - start
        out.latencies.append(end - start)
        out.work_units += instance.num_tasks
        if out.attempted == RSS_AT_OPS:
            out.rss_mb = service.peak_rss_mb()
        if tracer is not None:
            tracer.op = index
            tracer.add(f"core.{instance.kind}", start, end)
        problem = checks.solver_violation(instance, data, result)
        if problem is not None:
            out.fail(f"{instance.kind}#{index}: {problem}")
    if out.rss_mb == 0.0:
        out.rss_mb = service.peak_rss_mb()
    return out

