"""Benchmark of the checkpoint-scheduling reproduction, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_direct --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
operations untraced and then traced and reports the per-layer metrics.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; every output check that
fails counts as a failed operation and makes the exit code 1.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("campaign_direct", "campaign_served", "solver_mix")

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

_LAYER_MS = (
    "baselines.schedules", "core.chain_dp", "failures.trace_gen", "simulation.replay",
    "simulation.scalar", "runtime.glue",
    "client.submit", "client.wait", "client.fetch", "client.rebuild", "client.read",
    "queue.wait", "queue.compute", "queue.cache",
    "jobs.submit", "jobs.claim_next", "jobs.update_progress", "jobs.finalize",
    "jobs.record_phases", "jobs.record_trace",
    "gateway.submit", "gateway.job_get", "gateway.events", "gateway.list",
    "service.unattributed", "service.overhead",
    "core.budget_dp", "core.dag", "core.independent",
)
#: Per-layer metrics, reported by every workload with tracing on (0 where the
#: workload does not exercise the layer).
PER_LAYER = (
    tuple((f"{layer}_ms", "ms") for layer in _LAYER_MS)
    + tuple((f"{layer}_wall_pct", "%") for layer in _LAYER_MS)
    + (
        ("failures.draws", "count"),
        ("simulation.runs", "count"),
        ("simulation.truncated_share", "%"),
        ("runtime.chunks", "count"),
        ("client.result_bytes", "bytes"),
        ("jobs.update_progress_count", "count"),
        ("service.overhead_ratio", "ratio"),
        ("core.chain_dp_count", "count"),
        ("core.budget_dp_count", "count"),
        ("core.dag_count", "count"),
        ("core.independent_count", "count"),
        ("obs.trace_overhead_pct", "%"),
    )
)

SETUP_PROBES = 3
P95 = 95.0


def stream_length(workload: str, seconds: float) -> int:
    """Operations generated per run: 2-3x what a 2-core box completes in ``seconds``.

    A run that exhausts its stream stops there; served specs must not repeat
    (the service would deduplicate them).
    """
    per_second = {"campaign_direct": 100, "campaign_served": 40, "solver_mix": 160}[workload]
    return max(400, int(per_second * seconds))


def _import_library() -> None:
    """Put ``src/`` and this directory on the path; the benchmark's modules import lazily."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perfbench: no src/repro next to perfbench/; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)


class Workload:
    """Set-up, warm-up and one measured pass of a workload."""

    def __init__(self, name: str, seed: int, seconds: float, work_dir: str) -> None:
        import inputs

        self.name, self.seed, self.work_dir = name, seed, work_dir
        count = stream_length(name, seconds)
        if name == "solver_mix":
            self.stream = inputs.solver_instances(seed, count)
        else:
            self.stream = inputs.campaign_specs(name, seed, count)
        self.choices = inputs.read_choices(seed, count * 3)
        self.digest = inputs.stream_digest(self.stream)
        self.server = None
        self._servers = 0

    def start_server(self) -> None:
        import service

        self.stop_server()
        self._servers += 1
        self.server = service.ServerProcess(
            ROOT, os.path.join(self.work_dir, f"server{self._servers}"))
        self.server.wait_healthy()

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warm_up(self) -> None:
        """One small operation of each code path, so lazy set-up is not timed."""
        import inputs
        import workloads

        if self.name == "solver_mix":
            seen = set()
            for instance in inputs.solver_instances(self.seed + 7919, 80):
                if instance.kind not in seen:
                    seen.add(instance.kind)
                    workloads.solve(instance, instance.build())
            return
        scalar, vectorized = inputs.warmup_specs(self.seed)
        if self.name == "campaign_direct":
            scalar.run()
            vectorized.run()
            return
        from repro.service.client import ServiceClient

        client = self.server.client
        record = client.wait(client.submit_campaign(vectorized.to_dict())["id"],
                             stream=True, timeout=120.0)
        ServiceClient.campaign_result(record)

    def run_pass(self, *, min_ops: int, seconds: float, count=None, tracer=None):
        import inputs
        import workloads

        common = dict(block=inputs.block_size(self.name), seconds=seconds, min_ops=min_ops,
                      count=count, tracer=tracer)
        if self.name == "campaign_direct":
            return workloads.run_direct(self.stream, **common)
        if self.name == "solver_mix":
            return workloads.run_solver(self.stream, **common)
        return workloads.run_served(self.server, self.stream, self.choices, **common)

    def check_served(self, result, timings=None) -> None:
        import workloads

        if self.name == "campaign_served":
            workloads.check_served_against_direct(
                self.stream, result.layer["digests"], result, timings)


def probe(args) -> int:
    """One cold set-up: imports, inputs, server boot, warm-up; prints ``ready``."""
    work_dir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
    workload = Workload(args.workload, args.seed, args.seconds, work_dir)
    try:
        if args.workload == "campaign_served":
            workload.start_server()
        workload.warm_up()
        print("ready", flush=True)
    finally:
        workload.stop_server()
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def measure_setup(args) -> list:
    """Wall time from spawning a fresh interpreter to its first timed operation."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        ready = None
        for line in child.stdout:
            if line.strip() == "ready":
                ready = time.perf_counter() - start
        child.stdout.close()
        if child.wait() != 0 or ready is None:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append(ready)
    return samples


def end_to_end(args, workload: Workload) -> dict:
    import stats

    setup = measure_setup(args)
    if args.workload == "campaign_served":
        workload.start_server()
    workload.warm_up()
    result = workload.run_pass(min_ops=stats.min_samples_for(P95), seconds=args.seconds)
    workload.stop_server()
    workload.check_served(result)
    lat_ms = [1000.0 * x for x in result.latencies]
    if (stats.highest_supported_percentile(len(lat_ms)) or 0.0) < P95:
        result.fail(f"only {len(lat_ms)} operations completed; p95 needs "
                    f"{stats.min_samples_for(P95)}")
        lat_ms = lat_ms or [float("nan")]
    metrics = {
        "setup_s": stats.median(setup),
        "op_p50_ms": stats.median(lat_ms),
        "op_p95_ms": stats.percentile(lat_ms, P95),
        "ops_per_s": len(result.latencies) / result.busy if result.busy else 0.0,
        "peak_rss_mb": result.rss_mb,
    }
    info = {
        "samples": len(lat_ms),
        "setup_samples_s": [round(x, 4) for x in setup],
        "measured_s": round(result.busy, 3),
        "error_rate": result.failed / max(result.attempted, 1),
        "highest_supported_percentile": stats.highest_supported_percentile(len(lat_ms)),
    }
    if args.workload == "solver_mix":
        info["tasks_per_s"] = result.work_units / result.busy
    else:
        info["sim_runs_per_s"] = result.work_units / result.busy
    if result.reads:
        reads_ms = [1000.0 * x for x in result.reads]
        info["read_samples"] = len(reads_ms)
        info["read_p50_ms"] = stats.median(reads_ms)
        info["read_p95_ms"] = stats.percentile(reads_ms, P95)
    return {"metrics": {name: stats.metric(metrics[name], unit) for name, unit in END_TO_END},
            "info": info, "result": result}


def per_layer(args, workload: Workload) -> dict:
    import layers
    import stats
    from spans import Tracer

    if args.workload == "campaign_served":
        workload.start_server()
    workload.warm_up()
    untraced = workload.run_pass(min_ops=20, seconds=args.seconds / 2.0)
    count = untraced.items
    if args.workload == "campaign_served":
        workload.start_server()  # a fresh store, so the traced pass repeats the same jobs
        workload.warm_up()
    tracer = Tracer()
    traced = workload.run_pass(min_ops=0, seconds=0.0, count=count, tracer=tracer)
    workload.stop_server()
    direct_s = {}
    workload.check_served(untraced)
    workload.check_served(traced, direct_s)
    values = layers.layer_metrics(args.workload, tracer, traced, untraced, direct_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    merged = untraced
    merged.attempted += traced.attempted
    merged.failed += traced.failed
    merged.problems += traced.problems
    info = {"traced_ops": count, "spans": len(tracer.spans), "spans_file":
            os.path.relpath(spans_path, ROOT)}
    return {"metrics": {name: stats.metric(values.get(name, 0.0), unit)
                        for name, unit in PER_LAYER},
            "info": info, "result": merged}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_library()
    if args.probe:
        return probe(args)

    work_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    workload = Workload(args.workload, args.seed, args.seconds, work_dir)
    print(f"workload {args.workload}  seed {args.seed}  inputs {len(workload.stream)}  "
          f"digest {workload.digest}")
    try:
        report = (per_layer if args.trace else end_to_end)(args, workload)
    finally:
        workload.stop_server()
        shutil.rmtree(work_dir, ignore_errors=True)
    result = report["result"]
    for key, value in report["info"].items():
        print(f"  {key:<30} {value}")
    for name, entry in report["metrics"].items():
        print(f"  {name:<30} {entry['value']:.6g} {entry['unit']}")
    for problem in result.problems:
        print(f"  FAILED: {problem}")
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
