"""Small statistics helpers shared by every workload of the benchmark."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Optional, Sequence

#: Metric names: a letter or digit, then at most 63 of ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: Percentiles the benchmark may report, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.match(name))


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the nearest-rank percentile."""
    return n - _rank(n, percentile)


def _rank(n: int, percentile: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990, not 9991."""
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def highest_supported_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it (None if none)."""
    for percentile in PERCENTILE_LADDER:
        if samples_beyond(n, percentile) >= MIN_SAMPLES_BEYOND:
            return percentile
    return None


def min_samples_for(percentile: float) -> int:
    """Smallest sample count that supports ``percentile``."""
    n = 1
    while samples_beyond(n, percentile) < MIN_SAMPLES_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); the median interpolates."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    if p == 50.0:
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0
    return ordered[_rank(len(ordered), p) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def median_or_zero(values: Sequence[float]) -> float:
    """Median of the samples, 0.0 when the layer never ran in this workload."""
    return median(values) if values else 0.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def quartile_spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (how the benchmark's steadiness is judged)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
