"""Per-layer metrics of a traced pass.

``<layer>_ms`` is a median per operation (server histograms give a mean per
job or request instead); ``<layer>_wall_pct`` is the layer's summed time as
a share of the workload's measured wall time, using span self time so a
parent does not count its children twice.  Layers a workload never runs are
absent here and reported as 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from spans import END, NAME, OP, PARENT, START, Tracer
from stats import median, median_or_zero

MS = 1000.0


class _Spans:
    def __init__(self, tracer: Tracer) -> None:
        self.spans = tracer.spans
        self.self_time = tracer.self_times()

    def durations(self, name: str) -> List[float]:
        return [r[END] - r[START] for r in self.spans if r[NAME] == name]

    def per_op(self, name: str) -> Dict[int, float]:
        totals: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record[NAME] == name:
                totals[record[OP]] += record[END] - record[START]
        return dict(totals)

    def self_sum(self, name: str) -> float:
        return sum(t for r, t in zip(self.spans, self.self_time) if r[NAME] == name)

    def root_sum(self) -> float:
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0 and r[NAME] != "rebuild")


def _overhead_pct(traced_wall: float, untraced) -> float:
    base = sum(untraced.latencies) + sum(untraced.reads)
    return 100.0 * (traced_wall - base) / base


def layer_metrics(workload: str, tracer: Tracer, traced, untraced, direct_s) -> Dict[str, float]:
    spans = _Spans(tracer)
    wall = spans.root_sum()
    out: Dict[str, float] = {"obs.trace_overhead_pct": _overhead_pct(wall, untraced)}

    def share(layer: str, seconds: float) -> None:
        out[f"{layer}_wall_pct"] = 100.0 * seconds / wall

    def span_layer(layer: str, per_op: bool = True) -> None:
        values = list(spans.per_op(layer).values()) if per_op else spans.durations(layer)
        out[f"{layer}_ms"] = MS * median_or_zero(values)
        share(layer, spans.self_sum(layer))

    if workload == "campaign_direct":
        for layer in ("baselines.schedules", "core.chain_dp", "failures.trace_gen",
                      "simulation.replay", "simulation.scalar"):
            span_layer(layer)
        runs = spans.per_op("runtime.run")
        children = defaultdict(float)
        for layer in ("baselines.schedules", "failures.trace_gen", "simulation.replay",
                      "simulation.scalar"):
            for op, seconds in spans.per_op(layer).items():
                children[op] += seconds
        glue = [runs[op] - children[op] for op in runs]
        out["runtime.glue_ms"] = MS * median(glue)
        share("runtime.glue", sum(glue))
        counts = traced.layer
        ops = len(counts["runs"])
        out["failures.draws"] = sum(counts["draws"]) / ops
        out["simulation.runs"] = sum(counts["runs"]) / ops
        out["runtime.chunks"] = sum(counts["chunks"]) / ops
        out["simulation.truncated_share"] = 100.0 * sum(counts["truncated"]) / sum(counts["runs"])
    elif workload == "campaign_served":
        for layer in ("client.submit", "client.wait", "client.fetch", "client.rebuild"):
            span_layer(layer)
        span_layer("client.read", per_op=False)
        _served(out, share, spans, traced, direct_s)
    else:
        for kind in ("chain_dp", "budget_dp", "dag", "independent"):
            span_layer(f"core.{kind}", per_op=False)
            out[f"core.{kind}_count"] = float(len(spans.durations(f"core.{kind}")))
    return out


def _served(out, share, spans: _Spans, traced, direct_s) -> None:
    layer = traced.layer
    jobs = len(layer["phases"])
    phases_by_op = layer["phases"]
    for phase, key in (("wait", "queue_wait_s"), ("compute", "compute_s"), ("cache", "cache_s")):
        values = [phases.get(key, 0.0) for phases in phases_by_op.values()]
        out[f"queue.{phase}_ms"] = MS * median(values)
        share(f"queue.{phase}", sum(values))
    out["client.result_bytes"] = median(layer["result_bytes"])

    server = layer["server"]
    both: Dict = defaultdict(lambda: (0.0, 0))
    for segment in server.values():
        for key, (total, count) in segment.items():
            old = both[key]
            both[key] = (old[0] + total, old[1] + count)
    store = "repro_jobstore_op_seconds"
    for op in ("submit", "claim_next", "update_progress", "finalize", "record_phases",
               "record_trace"):
        total, count = both.get((store, op), (0.0, 0))
        out[f"jobs.{op}_ms"] = MS * total / jobs
        share(f"jobs.{op}", total)
        if op == "update_progress":
            out["jobs.update_progress_count"] = count / jobs
    http = "repro_http_request_seconds"
    for name, segment, route in (("submit", "job", "/v1/jobs"),
                                 ("job_get", None, "/v1/jobs/{id}"),
                                 ("events", "job", "/v1/jobs/{id}/events"),
                                 ("list", "reads", "/v1/jobs")):
        source = both if segment is None else server[segment]
        total, count = source.get((http, route), (0.0, 0))
        out[f"gateway.{name}_ms"] = MS * total / count if count else 0.0
        share(f"gateway.{name}", total)

    per_op = {name: spans.per_op(name) for name in
              ("client.job", "client.submit", "client.fetch", "client.rebuild")}
    unattributed, overhead = [], []
    for op, phases in phases_by_op.items():
        latency = per_op["client.job"][op]
        accounted = (per_op["client.submit"].get(op, 0.0) + per_op["client.fetch"].get(op, 0.0)
                     + per_op["client.rebuild"].get(op, 0.0) + sum(phases.values()))
        unattributed.append(latency - accounted)
        if op in direct_s:
            overhead.append(latency - direct_s[op])
    out["service.unattributed_ms"] = MS * median(unattributed)
    share("service.unattributed", sum(unattributed))
    out["service.overhead_ms"] = MS * median(overhead)
    share("service.overhead", sum(overhead))
    served = sum(per_op["client.job"][op] for op in direct_s)
    out["service.overhead_ratio"] = served / sum(direct_s.values())
