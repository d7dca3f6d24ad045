"""Scalar oracles of the analytic solvers' fast paths.

The plain-Python loops that the row-blocked kernels of
:mod:`repro.core.dp_kernels` and the cached-cost search
``repro.core.independent._local_search_vectorized`` replaced, one ``(x, j)``
cell or one candidate partition at a time.  Each DP oracle takes its public
solver's arguments and returns ``(positions, value)``, which must equal the
solver's result bit for bit.  :func:`local_search` is a bare search with the
signature of ``_local_search_vectorized``: whole-heuristic comparisons swap
it in with ``unittest.mock.patch.object`` and must reach the same value.

Tests and the in-bench speed gates import this module; no production module
does, and :mod:`repro.analysis` does not re-export it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.dp_kernels import reconstruct_budget_positions, reconstruct_positions
from repro.core.expected_time import expected_completion_time
from repro.core.independent import grouping_expected_time
from repro.models.checkpoint import FrontierCheckpointCost
from repro.workflows.chain import LinearChain
from repro.workflows.dag import Workflow

__all__ = [
    "optimal_chain_checkpoints",
    "optimal_chain_checkpoints_budget",
    "place_checkpoints_on_order",
    "local_search",
]

Placement = Tuple[Tuple[int, ...], float]


def _segment_cost(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    rate: float,
) -> float:
    """Proposition 1 cost of one segment; ``+inf`` (never optimal) on overflow."""
    try:
        return expected_completion_time(work, checkpoint, downtime, recovery, rate)
    except OverflowError:
        return math.inf


def _finite(value: float) -> float:
    """The optimum, or ``OverflowError`` where the public solvers raise it."""
    if not math.isfinite(value):
        raise OverflowError("the optimal expected makespan overflows float")
    return value


def optimal_chain_checkpoints(
    chain: LinearChain,
    downtime: float,
    rate: float,
    *,
    final_checkpoint: bool = True,
) -> Placement:
    """Oracle of :func:`repro.core.chain_dp.optimal_chain_checkpoints`."""
    n = chain.n
    prefix = chain.prefix_work()
    # best[x] = optimal expected time for tasks x..n-1 (0-based), starting
    # right after the checkpoint preceding task x; best[n] = 0.
    best: List[float] = [math.inf] * (n + 1)
    choice: List[int] = [-1] * n
    best[n] = 0.0
    for x in range(n - 1, -1, -1):
        recovery = chain.recovery_before(x)
        best_value = math.inf
        best_j = n - 1
        for j in range(x, n):
            work = prefix[j + 1] - prefix[x]
            if j == n - 1 and not final_checkpoint:
                ckpt_cost = 0.0
            else:
                ckpt_cost = chain.checkpoint_costs[j]
            cost = _segment_cost(work, ckpt_cost, downtime, recovery, rate)
            value = cost + best[j + 1]
            if value < best_value:
                best_value = value
                best_j = j
        best[x] = best_value
        choice[x] = best_j
    value = _finite(best[0])
    return reconstruct_positions(choice, n, final_checkpoint), value


def optimal_chain_checkpoints_budget(
    chain: LinearChain,
    downtime: float,
    rate: float,
    max_checkpoints: int,
    *,
    final_checkpoint: bool = True,
) -> Placement:
    """Oracle of :func:`repro.core.chain_dp.optimal_chain_checkpoints_budget`."""
    n = chain.n
    prefix = chain.prefix_work()
    budget_cap = min(max_checkpoints, n)

    # best[x][b] = optimal expected time for tasks x..n-1 with at most b
    # checkpoints remaining, starting right after the checkpoint preceding x.
    infinity = math.inf
    best = [[infinity] * (budget_cap + 1) for _ in range(n + 1)]
    choice = [[-1] * (budget_cap + 1) for _ in range(n + 1)]
    for b in range(budget_cap + 1):
        best[n][b] = 0.0
    for x in range(n - 1, -1, -1):
        recovery = chain.recovery_before(x)
        for b in range(budget_cap + 1):
            best_value = infinity
            best_j = -1
            # Option 1: run to the end without any further checkpoint (allowed
            # only when no final checkpoint is required).
            if not final_checkpoint:
                work = prefix[n] - prefix[x]
                cost = _segment_cost(work, 0.0, downtime, recovery, rate)
                if cost < best_value:
                    best_value = cost
                    best_j = n  # sentinel: no checkpoint in this tail
            # Option 2: place the next checkpoint after some task j (consumes
            # one unit of budget).
            if b >= 1:
                for j in range(x, n):
                    work = prefix[j + 1] - prefix[x]
                    cost = _segment_cost(
                        work, chain.checkpoint_costs[j], downtime, recovery, rate
                    )
                    value = cost + best[j + 1][b - 1]
                    if value < best_value:
                        best_value = value
                        best_j = j
            best[x][b] = best_value
            choice[x][b] = best_j
    value = _finite(best[0][budget_cap])
    return reconstruct_budget_positions(choice, n, budget_cap), value


def place_checkpoints_on_order(
    workflow: Workflow,
    order: Sequence[str],
    downtime: float,
    rate: float,
    *,
    initial_recovery: float = 0.0,
    checkpoint_model: Optional[FrontierCheckpointCost] = None,
    final_checkpoint: bool = True,
) -> Placement:
    """Oracle of :func:`repro.core.dag_scheduling.place_checkpoints_on_order`.

    Every cost is one call of the per-task costs or of ``checkpoint_model``.
    """
    names = workflow.validate_order(order)
    n = len(names)
    prefix = [0.0]
    for name in names:
        prefix.append(prefix[-1] + workflow.task(name).work)

    def checkpoint_cost(prev_ckpt: int, j: int) -> float:
        if checkpoint_model is not None:
            return checkpoint_model.cost(names, prev_ckpt, j)
        return workflow.task(names[j]).checkpoint_cost

    def recovery_cost(prev_ckpt: int) -> float:
        if prev_ckpt < 0:
            return initial_recovery
        if checkpoint_model is not None:
            return checkpoint_model.recovery(names, prev_ckpt)
        return workflow.task(names[prev_ckpt]).recovery_cost

    # best[x] = optimal expected time for positions x..n-1 given that the
    # previous checkpoint sits right before position x (i.e. at position x-1,
    # or nowhere when x == 0).
    best: List[float] = [math.inf] * (n + 1)
    choice: List[int] = [-1] * n
    best[n] = 0.0
    for x in range(n - 1, -1, -1):
        prev_ckpt = x - 1
        recovery = recovery_cost(prev_ckpt)
        best_value = math.inf
        best_j = n - 1
        for j in range(x, n):
            work = prefix[j + 1] - prefix[x]
            if j == n - 1 and not final_checkpoint:
                ckpt = 0.0
            else:
                ckpt = checkpoint_cost(prev_ckpt, j)
            try:
                cost = expected_completion_time(work, ckpt, downtime, recovery, rate)
            except OverflowError:
                cost = math.inf
            value = cost + best[j + 1]
            if value < best_value:
                best_value = value
                best_j = j
        best[x] = best_value
        choice[x] = best_j
    value = _finite(best[0])
    return reconstruct_positions(choice, n, final_checkpoint), value


def local_search(
    groups: List[List[int]],
    works: Sequence[float],
    checkpoint_cost: float,
    recovery_cost: float,
    downtime: float,
    rate: float,
    initial_recovery: Optional[float],
    max_iterations: int,
) -> Tuple[List[List[int]], float]:
    """Improve a partition by single-task moves and pairwise swaps.

    Each round accepts the first improving candidate: moves by ``(src,
    position, dst)`` (never emptying a group), then swaps by ``(src, dst, i,
    j)``, each scored by a full :func:`grouping_expected_time`.  The start
    partition's expectation must be finite (``OverflowError`` otherwise); a
    candidate whose expectation overflows scores ``+inf`` and is never
    accepted.
    """

    def evaluate(candidate: List[List[int]]) -> float:
        return grouping_expected_time(
            candidate, works, checkpoint_cost, recovery_cost, downtime, rate,
            initial_recovery=initial_recovery,
        )

    def neighbours(current: List[List[int]]) -> Iterable[List[List[int]]]:
        m = len(current)
        for src in range(m):
            if len(current[src]) == 1:
                continue
            for task_pos in range(len(current[src])):
                for dst in range(m):
                    if dst != src:
                        candidate = [list(g) for g in current]
                        candidate[dst].append(candidate[src].pop(task_pos))
                        yield candidate
        for src, dst in itertools.combinations(range(m), 2):
            for i in range(len(current[src])):
                for j in range(len(current[dst])):
                    candidate = [list(g) for g in current]
                    candidate[src][i], candidate[dst][j] = current[dst][j], current[src][i]
                    yield candidate

    current = [list(g) for g in groups if g]
    current_value = evaluate(current)
    for _ in range(max_iterations):
        for candidate in neighbours(current):
            try:
                value = evaluate(candidate)
            except OverflowError:
                continue  # scores +inf: never accepted
            if value < current_value - 1e-15:
                current = [sorted(g) for g in candidate]
                current_value = value
                break
        else:
            break
    return [sorted(g) for g in current], current_value
