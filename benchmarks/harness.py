"""Script-mode entry point shared by the benchmark files.

Each ``benchmarks/bench_*.py`` is primarily a pytest-benchmark module.  Run
as a *script*, it times its workload directly through this harness, which
gives every benchmark a uniform CLI::

    PYTHONPATH=src python benchmarks/bench_e3_chain_dp.py                # full budget
    PYTHONPATH=src python benchmarks/bench_e3_chain_dp.py --quick       # CI smoke mode
    PYTHONPATH=src python benchmarks/bench_e3_chain_dp.py --quick --json out.json

``--quick`` swaps in a reduced, fixed-seed parameter set so the whole suite
finishes in seconds -- that is what the CI ``bench-smoke`` job runs on every
push, archiving the ``--json`` outputs as a workflow artifact so regressions
leave a measurable trail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence


def _git_sha() -> Optional[str]:
    """Current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _numpy_version() -> Optional[str]:
    """NumPy version string, or None when the workload is stdlib-only."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def provenance() -> Dict[str, Any]:
    """Environment stamp attached to every JSON artifact and history record.

    A timing is only comparable to another timing from the same code and
    platform, so each record carries the commit, interpreter, NumPy build and
    core count it was measured under -- enough for ``repro bench-history``
    to group like with like instead of averaging across machines.
    """
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "cpu_count": os.cpu_count(),
    }


def append_history(path: str, record: Mapping[str, Any]) -> None:
    """Append one perf record to the JSONL history file at ``path``.

    The file is the bench suite's perf memory across runs: one flat JSON
    object per line, so ``repro bench-history`` (and plain ``jq``) can
    compare the latest run against earlier ones.  Parent
    directories are created; concurrent appenders rely on POSIX O_APPEND
    line atomicity for these short lines.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def _json_safe(value: Any) -> Any:
    """Reduce a result payload to strict-JSON-compatible values."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


def run_cli(
    name: str,
    runner: Callable[..., Any],
    *,
    quick_params: Mapping[str, Any],
    full_params: Mapping[str, Any],
    argv: Optional[Sequence[str]] = None,
) -> int:
    """Time ``runner(**params)`` once per repeat and report the best run.

    ``runner`` is the benchmark workload; it may return a
    :class:`~repro.experiments.reporting.ResultTable` (printed, rows included
    in the JSON payload), any other object (repr-ed), or ``None``.
    """
    parser = argparse.ArgumentParser(
        prog=name,
        description=(runner.__doc__ or "").strip().splitlines()[0]
        if runner.__doc__
        else f"benchmark {name}",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced replication budget with fixed seeds (CI smoke mode)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the timing and result summary to PATH as JSON",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the workload N times and report the fastest (default 1)",
    )
    parser.add_argument(
        "--history", metavar="PATH", default=None,
        help="append a one-line perf record (bench, mode, seconds, git sha, "
             "timestamp) to the JSONL history file at PATH",
    )
    args = parser.parse_args(argv)
    params = dict(quick_params if args.quick else full_params)

    best_seconds = math.inf
    result: Any = None
    for _ in range(max(args.repeat, 1)):
        start = time.perf_counter()
        result = runner(**params)
        best_seconds = min(best_seconds, time.perf_counter() - start)

    if hasattr(result, "to_text"):
        print(result.to_text())
    elif result is not None:
        print(result)
    mode = "quick" if args.quick else "full"
    print(f"[{name}] mode={mode} best of {max(args.repeat, 1)}: {best_seconds:.4f} s")

    if args.json:
        payload: Dict[str, Any] = {
            "benchmark": name,
            "mode": mode,
            "seconds": best_seconds,
            "repeat": max(args.repeat, 1),
            "params": _json_safe(params),
            **provenance(),
        }
        rows = getattr(result, "rows", None)
        if rows is not None:
            payload["rows"] = _json_safe(rows)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"[{name}] wrote {args.json}")

    if args.history:
        append_history(args.history, {
            "bench": name,
            "mode": mode,
            "metric": "seconds",
            "value": best_seconds,
            "repeat": max(args.repeat, 1),
            "ts": time.time(),
            **provenance(),
        })
        print(f"[{name}] appended perf record to {args.history}")
    return 0
