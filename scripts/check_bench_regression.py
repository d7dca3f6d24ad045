#!/usr/bin/env python3
"""Compare the latest bench perf records against their history.

Reads the JSONL perf history that ``benchmarks/harness.py --history PATH``
appends to (one record per benchmark run: ``bench``, ``mode``, ``metric``,
``value``, ``git_sha``, ``ts``), groups records by ``(bench, mode, metric)``,
and flags any series whose *latest* value exceeds ``threshold`` times the
best (minimum) earlier value.

Comparing against the historical best rather than the immediately preceding
run keeps the check monotone: a slow CI runner cannot ratchet the baseline
upward, and a real regression stays flagged until it is fixed.  Series with
fewer than ``--min-history`` records are skipped -- a single timing on shared
CI hardware is noise, not a baseline.

By default the check is *advisory* (always exits 0, prints findings); CI runs
it that way because smoke-mode timings on shared runners jitter well beyond
any honest threshold.  ``--strict`` turns findings into a non-zero exit for
local use on quiet machines.

The history parsing is :mod:`repro.perf_history`'s, so the script runs with
``src`` on the import path.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py bench-history.jsonl
    PYTHONPATH=src python scripts/check_bench_regression.py --threshold 1.5 --strict history.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List

from repro.perf_history import SeriesKey, group_series, load_history


def find_regressions(
    series: Dict[SeriesKey, List[Dict[str, Any]]],
    *,
    threshold: float,
    min_history: int,
) -> List[str]:
    """Human-readable findings: latest value vs the best earlier value."""
    findings: List[str] = []
    for (bench, mode, metric), records in sorted(series.items()):
        if len(records) < min_history:
            continue
        try:
            values = [float(record["value"]) for record in records]
        except (TypeError, ValueError):
            continue
        latest = values[-1]
        best_earlier = min(values[:-1])
        if best_earlier <= 0:
            continue
        ratio = latest / best_earlier
        if ratio > threshold:
            sha = str(records[-1].get("git_sha") or "unknown")[:12]
            findings.append(
                f"{bench} [{mode}/{metric}]: latest {latest:.4f} is "
                f"{ratio:.2f}x the best of {len(records) - 1} earlier runs "
                f"({best_earlier:.4f}) at {sha}"
            )
    return findings


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="flag benches whose latest timing regressed vs history"
    )
    parser.add_argument("history", help="JSONL perf history file")
    parser.add_argument(
        "--threshold", type=float, default=1.5, metavar="R",
        help="flag when latest > R x the best earlier value (default %(default)s)",
    )
    parser.add_argument(
        "--min-history", type=int, default=3, metavar="N",
        help="skip series with fewer than N records (default %(default)s)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on findings (default: advisory, always exit 0)",
    )
    args = parser.parse_args(argv)

    try:
        records = load_history(args.history)
    except OSError as exc:
        print(f"cannot read {args.history}: {exc}", file=sys.stderr)
        return 2
    series = group_series(records)
    findings = find_regressions(
        series, threshold=args.threshold, min_history=args.min_history
    )
    for finding in findings:
        print(f"REGRESSION: {finding}")
    comparable = sum(1 for s in series.values() if len(s) >= args.min_history)
    print(
        f"checked {len(series)} series ({comparable} with >= {args.min_history} "
        f"records): {len(findings)} regression(s)"
    )
    return 1 if findings and args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
