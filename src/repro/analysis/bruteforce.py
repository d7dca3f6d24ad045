"""Brute-force optima, used as ground truth for the polynomial algorithms.

Two enumerators are provided:

* :func:`brute_force_chain_checkpoints` -- for a linear chain of ``n`` tasks,
  try all ``2^{n-1}`` (or ``2^n``) checkpoint placements and return the best.
  This is the ground truth against which the ``O(n^2)`` DP of Section 5 is
  validated (experiment E3 and the property-based tests);
* :func:`brute_force_independent_schedule` -- re-exported convenience wrapper
  around the exhaustive set-partition enumeration of
  :mod:`repro.core.independent`, used as the ground truth for the
  independent-task heuristics (experiment E5).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Tuple

from repro._validation import check_non_negative, check_positive
from repro.core.chain_dp import ChainDPResult
from repro.core.expected_time import expected_completion_time
from repro.core.independent import (
    IndependentScheduleResult,
    exhaustive_independent_schedule,
)
from repro.workflows.chain import LinearChain

__all__ = [
    "brute_force_chain_checkpoints",
    "brute_force_independent_schedule",
]


def _placement_expected_time(
    chain: LinearChain,
    flags: Sequence[bool],
    downtime: float,
    rate: float,
) -> float:
    """Expected makespan of a chain under an explicit checkpoint placement."""
    total = 0.0
    start = 0
    prefix = chain.prefix_work()
    n = chain.n
    for j in range(n):
        if flags[j] or j == n - 1:
            work = prefix[j + 1] - prefix[start]
            ckpt = chain.checkpoint_costs[j] if flags[j] else 0.0
            recovery = chain.recovery_before(start)
            try:
                total += expected_completion_time(work, ckpt, downtime, recovery, rate)
            except OverflowError:
                return math.inf
            start = j + 1
    return total


def brute_force_chain_checkpoints(
    chain: LinearChain,
    downtime: float,
    rate: float,
    *,
    final_checkpoint: bool = True,
    max_tasks: int = 22,
) -> ChainDPResult:
    """Optimal chain checkpoint placement by exhaustive enumeration.

    Enumerates every subset of the positions ``0..n-2`` (the last position is
    forced to carry, or not carry, a checkpoint depending on
    ``final_checkpoint``), evaluates each placement exactly with the
    Proposition 1 segment decomposition, and returns the best.  Exponential
    (``2^{n-1}`` placements): refuse chains longer than ``max_tasks``.
    """
    check_non_negative("downtime", downtime)
    check_positive("rate", rate)
    n = chain.n
    if n > max_tasks:
        raise ValueError(
            f"brute force over a chain of {n} tasks would evaluate 2^{n - 1} placements; "
            f"the limit is max_tasks={max_tasks}. Use optimal_chain_checkpoints() instead."
        )
    best_flags: Optional[Tuple[bool, ...]] = None
    best_value = math.inf
    free_positions = list(range(n - 1))
    for r in range(len(free_positions) + 1):
        for subset in itertools.combinations(free_positions, r):
            flags = [False] * n
            for position in subset:
                flags[position] = True
            flags[n - 1] = final_checkpoint
            value = _placement_expected_time(chain, flags, downtime, rate)
            if value < best_value:
                best_value = value
                best_flags = tuple(flags)
    assert best_flags is not None
    positions = tuple(i for i, flag in enumerate(best_flags) if flag)
    return ChainDPResult(
        expected_makespan=best_value,
        checkpoint_after=positions,
        chain=chain,
        downtime=downtime,
        rate=rate,
    )


def brute_force_independent_schedule(
    works: Sequence[float],
    checkpoint_cost: float,
    recovery_cost: float,
    downtime: float,
    rate: float,
    *,
    initial_recovery: Optional[float] = None,
    max_tasks: int = 12,
) -> IndependentScheduleResult:
    """Exact optimum for independent tasks (exhaustive set-partition enumeration)."""
    if len(works) > max_tasks:
        raise ValueError(
            f"exhaustive enumeration over {len(works)} tasks would explore "
            f"B_{len(works)} partitions; the limit is max_tasks={max_tasks}. "
            "Use schedule_independent_tasks() instead."
        )
    return exhaustive_independent_schedule(
        works,
        checkpoint_cost,
        recovery_cost,
        downtime,
        rate,
        initial_recovery=initial_recovery,
    )
