"""Command-line interface for the checkpoint-scheduling library.

The sub-commands cover the everyday uses of the library without writing any
Python:

* ``repro solve-chain``   -- optimal checkpoint placement for a chain stored
  as JSON (``repro-chain`` format, see :mod:`repro.workflows.serialization`);
* ``repro solve-dag``     -- heuristic checkpoint scheduling for a workflow
  DAG stored as JSON (``repro-workflow`` format);
* ``repro simulate``      -- Monte-Carlo estimate of the expected makespan of
  a chain under a given placement;
* ``repro experiment``    -- run one of the E1-E10 experiments and print its
  table (optionally as CSV); without an id, list the available experiments;
* ``repro serve``         -- run the scenario service (job queue + HTTP API,
  see :mod:`repro.service`);
* ``repro submit``        -- submit a ``ScenarioSpec`` JSON file (or a
  registry experiment) to a running service, optionally waiting for the
  result;
* ``repro jobs``          -- list, inspect or cancel service jobs
  (``--stats`` adds the per-job queue/compute/cache timing breakdown,
  ``--trace`` renders the job's persisted span tree);
* ``repro metrics``       -- snapshot a running service's metrics
  (Prometheus text, or JSON with ``--json``);
* ``repro debug``         -- operator debugging: ``repro debug flight``
  dumps a running service's flight recorder (recent spans and errors);
* ``repro bench-history`` -- per-benchmark trend table from the JSONL perf
  history the bench harness appends, plus the series whose latest value
  regressed (``--check`` exits 1 on one; see :mod:`repro.perf_history`);
* ``repro lint``          -- repo-native static analysis enforcing the
  determinism and concurrency contracts (see :mod:`repro.devtools`).

The simulation-heavy sub-commands (``simulate``, ``experiment``) accept
``--parallel N`` to fan replication chunks out over ``N`` worker processes,
``--engine scalar|vectorized`` to pick how each chunk executes (Python event
loop vs NumPy array program -- the two compose into a pool of vectorized
chunks), and ``--cache`` (or ``--cache-dir PATH``) to memoise results on
disk; see :mod:`repro.runtime`.  For a given seed the results are
bit-identical with or without ``--parallel N`` and ``--cache``;
``--engine vectorized`` matches the default scalar engine bit for bit under
memoryless failure models and statistically otherwise.

The CLI is intentionally thin: every sub-command parses arguments, calls the
corresponding library entry point, and prints a human-readable (or CSV)
summary.  It is installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Sequence

from repro._validation import (
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)
from repro.baselines.strategies import evaluate_chain_strategies
from repro.core.chain_dp import optimal_chain_checkpoints, optimal_chain_checkpoints_budget
from repro.core.dag_scheduling import schedule_dag
from repro.core.schedule import Schedule
from repro.experiments.registry import EXPERIMENTS, experiment_descriptions, run_experiment
from repro.runtime.backends import resolve_backend
from repro.runtime.cache import ResultCache
from repro.simulation.monte_carlo import MonteCarloEstimator
from repro.workflows.serialization import load_chain, load_workflow, workflow_to_dot

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """The installed package version, or the source-tree version as fallback.

    Reads the distribution metadata first (the installed ``repro`` console
    script); running straight from a checkout via ``PYTHONPATH=src`` has no
    metadata, so the in-tree ``repro.__version__`` is reported instead.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro-checkpoint-scheduling")
    except PackageNotFoundError:
        from repro import __version__

        return f"{__version__} (source tree)"


def _experiment_listing() -> str:
    """The available experiments, one per line, with their descriptions."""
    lines = ["available experiments:"]
    for key, description in experiment_descriptions().items():
        lines.append(f"  {key:<4s} {description}")
    return "\n".join(lines)


def _experiment_id(text: str) -> str:
    """argparse type for experiment ids: normalises case, lists on error."""
    key = text.upper()
    if key not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {text!r}\n{_experiment_listing()}"
        )
    return key


def _checked(convert: Callable[[str], object], check: Callable, name: str):
    """argparse type: ``convert`` the text, then apply a :mod:`repro._validation`
    ``check``, so a bad value is a usage error with the library's message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}")
        try:
            return check(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


_worker_count = _checked(int, check_non_negative_int, "worker count")
_rate = _checked(float, check_positive, "rate")
_downtime = _checked(float, check_non_negative, "downtime")
_runs = _checked(int, check_positive_int, "num_runs")
_max_checkpoints = _checked(int, check_non_negative_int, "max_checkpoints")
_port = _checked(int, lambda name, value: int(check_in_range(name, value, 0, 65535)), "port")
_threshold = _checked(float, check_positive, "threshold")
_min_history = _checked(int, check_positive_int, "min_history")


def _positions(text: str) -> List[int]:
    """argparse type for ``--checkpoint-after``: comma-separated integers."""
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid position list: {text!r}")


def _read(load: Callable, kind: str, path: str):
    """``load(path)``, or None after one ``error: cannot read`` line on stderr.

    A missing file, a non-JSON file and a document the loader rejects are all
    input errors, reported the way ``repro submit`` reports a bad spec.
    """
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {kind} {path!r}: {exc}", file=sys.stderr)
        return None


def _solve_error(exc: Exception) -> int:
    """Report an instance the solvers reject as one ``error:`` line; exit 1."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Checkpoint scheduling for computational workflows under failures "
        "(reproduction of Robert, Vivien, Zaidouni, RR-7907).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared parallel-runtime switches for the simulation-heavy sub-commands.
    # Split in two parents: `serve` takes the placement/cache switches but
    # deliberately NOT --engine -- a scenario's samples are defined by its
    # spec (which carries the engine), never by the server it lands on.
    runtime_options = argparse.ArgumentParser(add_help=False)
    runtime_group = runtime_options.add_argument_group("parallel runtime")
    runtime_group.add_argument(
        "--parallel", type=_worker_count, default=0, metavar="N",
        help="fan simulation chunks out over N worker processes; for a given "
        "seed the results are bit-identical for every N (0, the default, "
        "runs the chunks serially)",
    )
    runtime_group.add_argument(
        "--cache", action="store_true",
        help="memoise simulation results in the disk cache (~/.cache/repro "
        "or $REPRO_CACHE_DIR)",
    )
    runtime_group.add_argument(
        "--cache-dir", type=str, default=None, metavar="PATH",
        help="use PATH as the cache root (implies --cache)",
    )
    engine_options = argparse.ArgumentParser(add_help=False)
    engine_group = engine_options.add_argument_group("execution engine")
    engine_group.add_argument(
        "--engine", choices=("scalar", "vectorized"), default=None,
        help="how each simulation chunk executes: 'scalar' (the Python event "
        "loop) or 'vectorized' (the NumPy array program, typically an order "
        "of magnitude faster on a single core; the default is 'scalar'); "
        "for memoryless failure models the two engines produce "
        "bit-identical results",
    )

    solve_chain = subparsers.add_parser(
        "solve-chain", help="optimal checkpoint placement for a linear chain (Algorithm 1)"
    )
    solve_chain.add_argument("chain", help="path to a repro-chain JSON file")
    solve_chain.add_argument("--rate", type=_rate, required=True,
                             help="platform failure rate lambda")
    solve_chain.add_argument("--downtime", type=_downtime, default=0.0, help="downtime D per failure")
    solve_chain.add_argument("--max-checkpoints", type=_max_checkpoints, default=None,
                             help="optional upper bound on the number of checkpoints")
    solve_chain.add_argument("--no-final-checkpoint", action="store_true",
                             help="do not force a checkpoint after the last task")
    solve_chain.add_argument("--compare", action="store_true",
                             help="also print the baseline strategies for comparison")

    solve_dag = subparsers.add_parser(
        "solve-dag", help="heuristic checkpoint scheduling for a workflow DAG"
    )
    solve_dag.add_argument("workflow", help="path to a repro-workflow JSON file")
    solve_dag.add_argument("--rate", type=_rate, required=True)
    solve_dag.add_argument("--downtime", type=_downtime, default=0.0)
    solve_dag.add_argument("--seed", type=int, default=0, help="seed for the random linearisations")
    solve_dag.add_argument("--dot", action="store_true",
                           help="print a Graphviz DOT rendering with checkpoints highlighted")

    simulate = subparsers.add_parser(
        "simulate", help="Monte-Carlo estimate of a chain schedule's expected makespan",
        parents=[runtime_options, engine_options],
    )
    simulate.add_argument("chain", help="path to a repro-chain JSON file")
    simulate.add_argument("--rate", type=_rate, required=True)
    simulate.add_argument("--downtime", type=_downtime, default=0.0)
    simulate.add_argument("--checkpoint-after", type=_positions, default=None,
                          help="comma-separated 0-based positions; default: optimal placement")
    simulate.add_argument("--runs", type=_runs, default=5000)
    simulate.add_argument("--seed", type=int, default=0)

    experiment = subparsers.add_parser(
        "experiment", help="run one of the reproduction experiments (E1-E10)",
        parents=[runtime_options, engine_options],
    )
    experiment.add_argument("id", nargs="?", default=None, type=_experiment_id,
                            help="experiment identifier (omit to list all experiments)")
    experiment.add_argument("--csv", action="store_true", help="print CSV instead of a table")

    # No engine_options: each job's engine comes from its spec (campaigns)
    # or its submission payload (experiments), never from the server.
    serve = subparsers.add_parser(
        "serve", help="run the scenario service (job queue + HTTP API)",
        parents=[runtime_options],
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: %(default)s)")
    serve.add_argument("--port", type=_port, default=8765,
                       help="port to bind; 0 picks an ephemeral port (default: %(default)s)")
    serve.add_argument("--db", default=None, metavar="PATH",
                       help="sqlite job database; jobs survive restarts "
                       "(default: in-memory, lost on exit)")
    serve.add_argument("--workers", type=int, default=1,
                       help="concurrent job worker threads (default: %(default)s); "
                       "each job's chunks additionally fan out over --parallel")
    serve.add_argument("--chunk-size", type=int, default=None, metavar="N",
                       help="server-wide default replications per chunk for campaign "
                       "jobs (validated at startup; a submission may still override it)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request and span (DEBUG-level JSON events)")

    submit = subparsers.add_parser(
        "submit", help="submit a campaign (ScenarioSpec JSON) or experiment to a service"
    )
    submit.add_argument("spec", nargs="?", default=None,
                        help="path to a ScenarioSpec JSON file (omit with --experiment)")
    submit.add_argument("--experiment", default=None, type=_experiment_id, metavar="ID",
                        help="submit a registry experiment instead of a spec file")
    submit.add_argument("--engine", choices=("scalar", "vectorized"), default=None,
                        help="execution engine for --experiment submissions")
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service address (default: %(default)s)")
    submit.add_argument("--chunk-size", type=int, default=None,
                        help="replications per chunk for campaign submissions")
    submit.add_argument("--wait", action="store_true",
                        help="follow the job until it finishes and print its result")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds (default: %(default)s)")
    submit.add_argument("--csv", action="store_true",
                        help="with --wait, print the result as CSV")

    jobs = subparsers.add_parser(
        "jobs", help="list, inspect or cancel jobs on a scenario service"
    )
    jobs.add_argument("id", nargs="?", default=None,
                      help="job id to inspect (omit to list jobs)")
    jobs.add_argument("--url", default="http://127.0.0.1:8765",
                      help="service address (default: %(default)s)")
    jobs.add_argument("--state", default=None,
                      choices=("queued", "running", "done", "failed", "cancelled"),
                      help="filter the listing by state")
    jobs.add_argument("--cancel", action="store_true",
                      help="cancel the given job instead of inspecting it")
    jobs.add_argument("--stats", action="store_true",
                      help="show the per-job queue/compute/cache timing breakdown")
    jobs.add_argument("--trace", action="store_true",
                      help="render the given job's persisted span tree "
                      "(durations, self time, attributes)")

    debug = subparsers.add_parser(
        "debug", help="operator debugging helpers against a running service"
    )
    debug.add_argument("what", choices=("flight",),
                       help="'flight': dump the service's flight recorder "
                       "(ring buffer of recent spans and errors)")
    debug.add_argument("--url", default="http://127.0.0.1:8765",
                       help="service address (default: %(default)s)")
    debug.add_argument("--kind", default=None, choices=("span", "log", "error"),
                       help="only show events of this kind")
    debug.add_argument("--json", action="store_true",
                       help="print the raw JSON dump instead of formatted lines")

    metrics = subparsers.add_parser(
        "metrics", help="snapshot a running scenario service's metrics"
    )
    metrics.add_argument("--url", default="http://127.0.0.1:8765",
                         help="service address (default: %(default)s)")
    metrics.add_argument("--json", action="store_true",
                         help="print the JSON snapshot instead of Prometheus text")

    bench_history = subparsers.add_parser(
        "bench-history", help="render the bench perf-history JSONL as a "
        "per-benchmark trend table (see benchmarks/harness.py --history) and "
        "flag series whose latest value regressed"
    )
    bench_history.add_argument(
        "history", help="path to the JSONL history file"
    )
    bench_history.add_argument(
        "--bench", default=None, metavar="SUBSTRING",
        help="only series whose benchmark name contains SUBSTRING",
    )
    bench_history.add_argument(
        "--mode", default=None, choices=("quick", "full"),
        help="only series recorded in this mode",
    )
    bench_history.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="sparkline length: the N most recent values (default 20)",
    )
    bench_history.add_argument(
        "--threshold", type=_threshold, default=1.5, metavar="R",
        help="flag a series whose latest value is > R x its best earlier "
        "value (default %(default)s)",
    )
    bench_history.add_argument(
        "--min-history", type=_min_history, default=3, metavar="N",
        help="skip series with fewer than N records (default %(default)s)",
    )
    bench_history.add_argument(
        "--check", action="store_true",
        help="exit 1 on a regression (default: advisory, exit 0)",
    )

    lint = subparsers.add_parser(
        "lint", help="repo-native static analysis (determinism & concurrency "
        "contracts; stdlib-only, see docs/devtools.md)"
    )
    lint.add_argument("paths", nargs="*", default=["src", "tests", "benchmarks"],
                      help="files or directories to lint "
                      "(default: src tests benchmarks)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable JSON report")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes to run (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the rule catalog and exit")

    return parser


def _cmd_solve_chain(args: argparse.Namespace) -> int:
    chain = _read(load_chain, "chain", args.chain)
    if chain is None:
        return 1
    final_checkpoint = not args.no_final_checkpoint
    try:
        if args.max_checkpoints is not None:
            result = optimal_chain_checkpoints_budget(
                chain, args.downtime, args.rate, args.max_checkpoints,
                final_checkpoint=final_checkpoint,
            )
        else:
            result = optimal_chain_checkpoints(
                chain, args.downtime, args.rate, final_checkpoint=final_checkpoint
            )
        if args.compare:
            strategies = evaluate_chain_strategies(chain, args.downtime, args.rate)
    except OverflowError as exc:  # an expectation beyond float range
        return _solve_error(exc)
    print(f"chain              : {args.chain} ({chain.n} tasks, total work {chain.total_work():g})")
    print(f"expected makespan  : {result.expected_makespan:.6g}")
    print(f"checkpoints        : {result.num_checkpoints}")
    print(f"checkpoint after   : {[chain.names[i] for i in result.checkpoint_after]}")
    if args.compare:
        print("baseline comparison (expected makespan):")
        for name in sorted(strategies):
            value = strategies[name].expected_makespan
            print(f"  {name:<18s}: {value:.6g}")
    return 0


def _cmd_solve_dag(args: argparse.Namespace) -> int:
    workflow = _read(load_workflow, "workflow", args.workflow)
    if workflow is None:
        return 1
    try:
        result = schedule_dag(workflow, args.downtime, args.rate, seed=args.seed)
    except (OverflowError, ValueError) as exc:  # no finite expectation; no task
        return _solve_error(exc)
    print(f"workflow           : {args.workflow} ({len(workflow)} tasks)")
    print(f"linearisation      : {result.strategy}")
    print(f"expected makespan  : {result.expected_makespan:.6g}")
    checkpoint_names = [result.order[i] for i in result.checkpoint_after]
    print(f"checkpoint after   : {checkpoint_names}")
    if args.dot:
        print(workflow_to_dot(workflow, checkpoint_after=checkpoint_names))
    return 0


def _runtime_from_args(args: argparse.Namespace):
    """Build the (backend, cache, engine) triple selected by the runtime flags.

    ``--engine vectorized`` composes with ``--parallel N``: the chunks are
    placed on the worker pool and each executes as an array program (a pool
    of vectorized chunks).  Sub-commands without the engine switch (serve)
    resolve it as None.
    """
    engine = getattr(args, "engine", None)
    backend = resolve_backend(args.parallel) if args.parallel else None
    cache = None
    if args.cache or args.cache_dir:
        cache = ResultCache(args.cache_dir)
    return backend, cache, engine


def _cmd_simulate(args: argparse.Namespace) -> int:
    chain = _read(load_chain, "chain", args.chain)
    if chain is None:
        return 1
    positions = args.checkpoint_after
    if positions is None:
        try:
            dp = optimal_chain_checkpoints(chain, args.downtime, args.rate)
        except OverflowError as exc:
            return _solve_error(exc)
        positions = list(dp.checkpoint_after)
        print(f"using optimal placement: {positions}")
    try:
        schedule = Schedule.for_chain(chain, positions)
    except ValueError as exc:  # a position outside the chain
        raise SystemExit(f"error: {exc}")
    try:
        analytic = schedule.expected_makespan(args.downtime, args.rate)
    except OverflowError as exc:
        return _solve_error(exc)
    backend, cache, engine = _runtime_from_args(args)
    estimator = MonteCarloEstimator(schedule, args.rate, args.downtime)
    try:
        estimate = estimator.estimate(
            args.runs, seed=args.seed, backend=backend, cache=cache, engine=engine
        )
    finally:
        if backend is not None:
            backend.close()
    print(f"analytic expectation : {analytic:.6g}")
    print(f"simulated mean       : {estimate.mean:.6g} "
          f"(95% CI [{estimate.ci95_low:.6g}, {estimate.ci95_high:.6g}], {args.runs} runs)")
    print(f"mean failures / run  : {estimate.mean_failures:.3g}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id is None:
        print(_experiment_listing())
        return 0
    backend, cache, engine = _runtime_from_args(args)
    try:
        table = run_experiment(args.id, backend=backend, cache=cache, engine=engine)
    finally:
        if backend is not None:
            backend.close()
    print(table.to_csv() if args.csv else table.to_text())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service pulls in the experiment registry and the
    # whole runtime, which the lightweight solve-* commands never need.
    import logging

    from repro.obs.logging import configure_logging
    from repro.service.gateway import GatewayServer
    from repro.service.jobs import JobStore
    from repro.service.queue import JobScheduler

    # A server is the one place the structured JSON log stream is always
    # wanted; --verbose additionally surfaces per-request/span DEBUG events.
    configure_logging(level=logging.DEBUG if args.verbose else logging.INFO)
    backend, cache, _engine = _runtime_from_args(args)
    store = JobStore(args.db)
    try:
        scheduler = JobScheduler(
            store, num_workers=args.workers, backend=backend, cache=cache,
            chunk_size=args.chunk_size,
        )
        server = GatewayServer(
            scheduler, host=args.host, port=args.port, verbose=args.verbose
        )
    except (TypeError, ValueError) as exc:
        # Startup validation (e.g. --chunk-size over the service cap) must
        # exit with a clear message, not a traceback.
        store.close()
        raise SystemExit(f"error: {exc}")
    where = args.db if args.db else "in-memory (lost on exit; use --db to persist)"

    def banner() -> None:
        # Printed once the socket is bound, so --port 0 shows the real port.
        print(f"scenario service listening on {server.url}")
        print(f"job store          : {where}")
        if scheduler.recovered:
            print(f"recovered jobs     : {scheduler.recovered} (re-queued after restart)")
        print(f"workers            : {scheduler.num_workers} x {scheduler.backend!r}")
        print("endpoints          : POST /v1/jobs  GET /v1/jobs[/{id}[/trace]]  "
              "DELETE /v1/jobs/{id}  GET /v1/jobs/{id}/events  GET /v1/scenarios  "
              "GET /v1/healthz  GET /v1/metrics  GET /v1/debug/flight", flush=True)

    try:
        server.serve_forever(on_ready=banner)
    except KeyboardInterrupt:
        print("shutting down (interrupted jobs are re-queued on the next "
              "start when using --db)")
    finally:
        # A worker abandoned mid-job may still be using the backend and the
        # store; closing either would block on (or crash) that job, defeating
        # the bounded shutdown.  Threads, pool children and the sqlite handle
        # all die with the process.
        if not scheduler.abandoned_workers:
            if backend is not None:
                backend.close()
            store.close()
    return 0


def _print_job_result(job: dict, *, csv: bool) -> None:
    """Render a finished job's payload the way the direct commands would."""
    from repro.experiments.reporting import ResultTable
    from repro.service.client import ServiceClient

    result = job.get("result") or {}
    if result.get("type") == "campaign":
        table = ServiceClient.campaign_result(job).to_table()
    elif result.get("type") == "table":
        table = ResultTable(
            title=result["title"], columns=list(result["columns"]),
            rows=[dict(row) for row in result["rows"]],
        )
    else:
        print(job)
        return
    print(table.to_csv() if csv else table.to_text())


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    if (args.spec is None) == (args.experiment is None):
        raise SystemExit("provide either a ScenarioSpec JSON file or --experiment ID")
    client = ServiceClient(args.url)
    try:
        if args.experiment is not None:
            job = client.submit_experiment(args.experiment, engine=args.engine)
        else:
            try:
                with open(args.spec, "r", encoding="utf-8") as handle:
                    scenario = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot read spec {args.spec!r}: {exc}", file=sys.stderr)
                return 1
            job = client.submit_campaign(scenario, chunk_size=args.chunk_size)
        reused = " (deduplicated: reusing an equivalent job)" if job["deduplicated"] else ""
        print(f"job {job['id']}: {job['state']}{reused}")
        if not args.wait:
            return 0
        # Live progress while waiting: overwrite one status line on a TTY,
        # print a line per observed change otherwise (CI logs stay readable).
        live = sys.stderr.isatty()
        printed_live_line = False

        def _show_progress(record: dict) -> None:
            nonlocal printed_live_line
            progress = record["progress"]
            total = progress["chunks_total"]
            detail = (
                f"{progress['chunks_done']}/{total} chunks" if total else "waiting"
            )
            line = f"job {record['id']}: {record['state']} ({detail})"
            if live:
                print(f"\r{line:<70s}", end="", file=sys.stderr, flush=True)
                printed_live_line = True
            else:
                print(line, file=sys.stderr)

        try:
            # stream=True follows the gateway's SSE progress events (no polling).
            job = client.wait(
                job["id"], timeout=args.timeout, on_progress=_show_progress,
                stream=True,
            )
        finally:
            if printed_live_line:
                print(file=sys.stderr)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if job["state"] != "done":
        detail = f": {job['error']}" if job.get("error") else ""
        print(f"job {job['id']} {job['state']}{detail}", file=sys.stderr)
        return 1
    _print_job_result(job, csv=args.csv)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.id is None:
            if args.cancel:
                raise SystemExit("--cancel requires a job id")
            if args.trace:
                raise SystemExit("--trace requires a job id")
            records = client.jobs(state=args.state)
            if not records:
                print("no jobs")
                return 0
            header = f"{'id':<16s}  {'kind':<10s}  {'state':<9s}  {'progress':<9s}"
            if args.stats:
                header += f"  {'queue_s':>8s}  {'compute_s':>9s}  {'cache_s':>8s}"
            print(header + "  error")
            for job in records:
                progress = job["progress"]
                total = progress["chunks_total"]
                shown = f"{progress['chunks_done']}/{total}" if total else "-"
                line = (f"{job['id']:<16s}  {job['kind']:<10s}  {job['state']:<9s}  "
                        f"{shown:<9s}")
                if args.stats:
                    line += "  " + _format_phases(job["timings"].get("phases"))
                print(line + f"  {job.get('error') or ''}")
            return 0
        if args.cancel:
            job = client.cancel(args.id)
            print(f"job {job['id']}: {job['state']}"
                  + (" (cancellation requested)" if job["state"] == "running" else ""))
            return 0
        if args.trace:
            from repro.obs.tracing import render_span_tree

            trace = client.job_trace(args.id)
            print(f"job {args.id}: trace {trace['correlation_id']} "
                  f"({len(trace['spans'])} spans"
                  + (f", {trace['dropped']} dropped" if trace.get("dropped") else "")
                  + ")")
            print(render_span_tree(trace["spans"]))
            return 0
        job = client.job(args.id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.stats:
        phases = (job.get("timings") or {}).get("phases")
        print(f"job {job['id']}: {job['state']}")
        if phases is None:
            print("no timing breakdown yet (recorded when the job executes)")
        else:
            total = sum(phases.values())
            for name in ("queue_wait_s", "compute_s", "cache_s"):
                value = phases.get(name, 0.0)
                share = f"{100.0 * value / total:5.1f}%" if total > 0 else "    -"
                print(f"  {name:<13s}: {value:10.4f}s  {share}")
        return 0
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0


def _format_phases(phases: Optional[dict]) -> str:
    """The fixed-width queue/compute/cache cell of a ``jobs --stats`` row."""
    if not phases:
        return f"{'-':>8s}  {'-':>9s}  {'-':>8s}"
    return (f"{phases.get('queue_wait_s', 0.0):8.3f}  "
            f"{phases.get('compute_s', 0.0):9.3f}  "
            f"{phases.get('cache_s', 0.0):8.3f}")


def _cmd_debug(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        flight = client.debug_flight(kind=args.kind)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(flight, indent=2, sort_keys=True))
        return 0
    print(f"flight recorder: {len(flight['events'])} of {flight['recorded_total']} "
          f"events retained (capacity {flight['capacity']}, "
          f"{flight['dropped']} overwritten)")
    for event in flight["events"]:
        kind = event["kind"]
        if kind == "span":
            detail = (f"{event.get('name', '?'):<24s} "
                      f"{event.get('duration_s', 0.0):9.4f}s")
            attrs = event.get("attrs") or {}
            detail += "".join(f"  {k}={v}" for k, v in attrs.items())
        else:
            detail = f"{event.get('level', '?')}: {event.get('event', '?')}"
            if event.get("error"):
                detail += f"  {event['error']}"
        correlation = event.get("correlation_id") or "-"
        print(f"  [{event['seq']:>6d}] {event['ts']:.3f}  {kind:<5s}  "
              f"{correlation:<16s}  {detail}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.json:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        else:
            print(client.metrics_text(), end="")
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    # Lazy import: developer tooling, like `repro lint`.
    from repro.perf_history import find_regressions, group_series, load_history, render_trends

    try:
        records = load_history(args.history)
    except OSError as error:
        print(f"cannot read {args.history}: {error}", file=sys.stderr)
        return 1
    print(render_trends(records, bench=args.bench, mode=args.mode, last=args.last))
    series = group_series(records, bench=args.bench, mode=args.mode)
    findings = find_regressions(
        series, threshold=args.threshold, min_history=args.min_history
    )
    print()
    for finding in findings:
        print(f"REGRESSION: {finding}")
    comparable = sum(1 for entries in series.values() if len(entries) >= args.min_history)
    print(
        f"checked {len(series)} series ({comparable} with >= {args.min_history} "
        f"records): {len(findings)} regression(s)"
    )
    return 1 if findings and args.check else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the lint engine is developer tooling and the other
    # sub-commands must not pay for it.
    from repro.devtools.engine import run as run_lint

    select = args.select.split(",") if args.select else None
    return run_lint(
        args.paths, json_output=args.json, select=select,
        list_rules=args.list_rules,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve-chain": _cmd_solve_chain,
        "solve-dag": _cmd_solve_dag,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "debug": _cmd_debug,
        "metrics": _cmd_metrics,
        "bench-history": _cmd_bench_history,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised through the console script
    sys.exit(main())
