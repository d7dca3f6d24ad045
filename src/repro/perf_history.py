"""Trend tables for the bench perf-history JSONL.

``benchmarks/harness.py --history PATH`` appends one flat JSON record per
benchmark run (``bench``, ``mode``, ``metric``, ``value``, plus the
provenance stamp: ``git_sha``, ``python``, ``numpy``, ``cpu_count``).  The CI
bench-smoke job threads one such file through its cache, so after a few
pushes it holds a per-benchmark timing series.  This module turns that file
into a human-readable trend table with one row per ``(bench, mode, metric)``
series -- run count, best and latest value, the latest-vs-best ratio, a
unicode sparkline of the recent values, and the short commit of the latest
record.  ``repro bench-history`` is the CLI over :func:`render_trends`.

The module itself uses only the standard library, but importing it runs
``repro/__init__``, which imports NumPy.  ``scripts/check_bench_regression.py``
reads the same file through :func:`load_history` and :func:`group_series`.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "load_history",
    "group_series",
    "sparkline",
    "render_trends",
]

SeriesKey = Tuple[str, str, str]

#: Eight-level bar glyphs for the inline trend sparkline.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def load_history(path: str) -> List[Dict[str, Any]]:
    """Parse the JSONL history, skipping blank or malformed lines.

    Tolerant by design: the history file is appended by many CI runs and may
    contain partial lines from interrupted jobs; a broken line loses one
    record, never the table.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                print(f"{path}:{number}: skipping malformed line", file=sys.stderr)
                continue
            if isinstance(record, dict) and "bench" in record and "value" in record:
                records.append(record)
    return records


def group_series(records: Sequence[Dict[str, Any]]) -> Dict[SeriesKey, List[Dict[str, Any]]]:
    """Group records by (bench, mode, metric), preserving append order."""
    series: Dict[SeriesKey, List[Dict[str, Any]]] = {}
    for record in records:
        key = (
            str(record.get("bench")),
            str(record.get("mode", "full")),
            str(record.get("metric", "seconds")),
        )
        series.setdefault(key, []).append(record)
    return series


def sparkline(values: Sequence[float]) -> str:
    """A unicode bar-per-value trend line, scaled to the series' own range."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK_LEVELS[
            min(int((value - lo) / span * len(_SPARK_LEVELS)), len(_SPARK_LEVELS) - 1)
        ]
        for value in values
    )


def _format_value(value: float) -> str:
    magnitude = abs(value)
    if value.is_integer() and magnitude < 1e15:
        return str(int(value))  # counts (e.g. source lines) keep every digit
    if magnitude != 0 and (magnitude >= 1e4 or magnitude < 1e-3):
        return f"{value:.3g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def render_trends(
    records: Sequence[Dict[str, Any]],
    *,
    bench: Optional[str] = None,
    mode: Optional[str] = None,
    last: int = 20,
) -> str:
    """The per-benchmark trend table as aligned text.

    ``bench`` filters series by substring match on the benchmark name;
    ``mode`` filters exactly (``quick``/``full``); ``last`` bounds the
    sparkline (and the latest-vs-best window is always the whole series, so
    an old regression stays visible however long the tail grows).
    """
    series = group_series(records)
    rows: List[Tuple[str, ...]] = []
    for (name, run_mode, metric), entries in sorted(series.items()):
        if bench and bench not in name:
            continue
        if mode and run_mode != mode:
            continue
        try:
            values = [float(entry["value"]) for entry in entries]
        except (TypeError, ValueError):
            continue
        best = min(values)
        latest = values[-1]
        ratio = latest / best if best > 0 else float("inf")
        latest_sha = entries[-1].get("git_sha") or ""
        rows.append((
            name,
            run_mode,
            metric,
            str(len(values)),
            _format_value(best),
            _format_value(latest),
            f"{ratio:.2f}x",
            sparkline(values[-max(last, 1):]),
            str(latest_sha)[:10],
        ))
    header = (
        "bench", "mode", "metric", "runs", "best", "latest",
        "vs_best", f"trend (last {max(last, 1)})", "latest_sha",
    )
    if not rows:
        return "no matching perf records"
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(header))).rstrip()
        )
    return "\n".join(lines)
