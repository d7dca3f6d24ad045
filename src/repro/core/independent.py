"""Scheduling independent tasks with checkpoints (the strongly NP-complete case).

Proposition 2 of the paper shows that deciding an order and checkpoint
positions for ``n`` independent tasks -- even with all checkpoint and recovery
costs equal to a constant ``C`` and no downtime -- is NP-complete in the
strong sense (reduction from 3-PARTITION).  With independent tasks and
constant costs, the execution order inside a group and the order of the groups
do not matter (the memoryless property makes groups exchangeable); all that
matters is the *partition of the tasks into checkpointed groups*: a group of
total work ``W_g`` costs ``e^{lambda R} (1/lambda + D)(e^{lambda (W_g + C)} -
1)`` by Proposition 1, and the convexity argument in the proof shows the best
partition into ``m`` groups balances the group works.

This module provides:

* :func:`exhaustive_independent_schedule` -- exact optimum by enumerating all
  set partitions (Bell-number many, practical up to n ~ 11-12), used as the
  ground truth in experiments E4/E5;
* :func:`optimal_group_count` -- the number of groups ``m`` minimising the
  relaxed (perfectly balanced, divisible) objective ``g(m)`` analysed in the
  NP-completeness proof;
* :func:`balanced_grouping` -- LPT-style balanced partition of the works into
  ``m`` groups;
* :func:`schedule_independent_tasks` -- the production heuristic: try every
  candidate group count, balance with LPT, then improve by local search
  (single-task moves and pairwise swaps).  For instances coming from a YES
  3-PARTITION instance this recovers the optimal partition in most cases,
  and it is never worse than checkpoint-after-every-task or a single final
  checkpoint because those placements are included in the candidate set.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_sequence_of_positive,
)
from repro.core.dp_kernels import resolve_dp_method
from repro.core.expected_time import _MAX_EXPONENT, expected_completion_time
from repro.core.schedule import CheckpointPlan, Schedule
from repro.workflows.generators import make_independent

__all__ = [
    "IndependentScheduleResult",
    "grouping_expected_time",
    "exhaustive_independent_schedule",
    "optimal_group_count",
    "balanced_grouping",
    "schedule_independent_tasks",
]

#: ``method="auto"`` threshold of the local search, apart from the DP kernels':
#: its two searches may settle in different equal-quality partitions.
SEARCH_AUTO_MIN_TASKS = 18


@dataclass(frozen=True)
class IndependentScheduleResult:
    """Result of an independent-task scheduling run.

    Attributes
    ----------
    groups:
        The partition of task indices (0-based) into checkpointed groups, in
        execution order.
    expected_makespan:
        Expected execution time of the partition.
    works:
        The task works the instance was built from.
    checkpoint_cost, recovery_cost, downtime, rate, initial_recovery:
        The instance parameters.
    exact:
        True when the result comes from exhaustive enumeration (guaranteed
        optimal), False for heuristics.
    """

    groups: Tuple[Tuple[int, ...], ...]
    expected_makespan: float
    works: Tuple[float, ...]
    checkpoint_cost: float
    recovery_cost: float
    downtime: float
    rate: float
    initial_recovery: float
    exact: bool

    @property
    def num_checkpoints(self) -> int:
        """Number of checkpoints (one per group)."""
        return len(self.groups)

    def group_works(self) -> List[float]:
        """Total work of each group, in execution order."""
        return [sum(self.works[i] for i in group) for group in self.groups]

    def to_schedule(self) -> Schedule:
        """Materialise the partition as a :class:`Schedule` over an independent workflow."""
        workflow = make_independent(
            list(self.works),
            checkpoint_cost=self.checkpoint_cost,
            recovery_cost=self.recovery_cost,
        )
        names = workflow.task_names()
        order = [names[i] for group in self.groups for i in group]
        positions = []
        offset = 0
        for group in self.groups:
            offset += len(group)
            positions.append(offset - 1)
        plan = CheckpointPlan.from_positions(len(order), positions)
        return Schedule(workflow, order, plan, initial_recovery=self.initial_recovery)


def grouping_expected_time(
    groups: Sequence[Sequence[int]],
    works: Sequence[float],
    checkpoint_cost: float,
    recovery_cost: float,
    downtime: float,
    rate: float,
    *,
    initial_recovery: Optional[float] = None,
) -> float:
    """Expected makespan of a given partition of independent tasks into groups.

    Each group ends with a checkpoint of duration ``checkpoint_cost``.  A
    failure inside group ``i > 0`` rolls back to the previous group's
    checkpoint (recovery ``recovery_cost``); a failure inside the first group
    rolls back to the initial state (recovery ``initial_recovery``, defaulting
    to ``recovery_cost`` to match the symmetric setting of the NP-hardness
    proof).
    """
    works = list(works)
    check_non_negative("checkpoint_cost", checkpoint_cost)
    check_non_negative("recovery_cost", recovery_cost)
    check_non_negative("downtime", downtime)
    check_positive("rate", rate)
    first_recovery = recovery_cost if initial_recovery is None else initial_recovery
    check_non_negative("initial_recovery", first_recovery)

    seen: set = set()
    for group in groups:
        for index in group:
            if index in seen:
                raise ValueError(f"task index {index} appears in more than one group")
            if not 0 <= index < len(works):
                raise ValueError(f"task index {index} out of range 0..{len(works) - 1}")
            seen.add(index)
    if len(seen) != len(works):
        missing = sorted(set(range(len(works))) - seen)
        raise ValueError(f"tasks {missing} are not assigned to any group")
    if any(len(group) == 0 for group in groups):
        raise ValueError("groups must not be empty")

    total = 0.0
    for position, group in enumerate(groups):
        group_work = sum(works[i] for i in group)
        recovery = first_recovery if position == 0 else recovery_cost
        total += expected_completion_time(
            group_work, checkpoint_cost, downtime, recovery, rate
        )
    return total


#: Hard cap on set-partition enumeration.  The Bell numbers explode past a
#: dozen items (``B_13`` is ~27.6 million partitions, each evaluated in
#: ``O(n)``); beyond this the enumeration silently hangs for hours, so the
#: generator refuses outright instead.
MAX_PARTITION_ITEMS = 13


def _set_partitions(items: Sequence[int]) -> Iterable[List[List[int]]]:
    """Enumerate all set partitions of ``items`` (Bell-number many).

    Raises
    ------
    ValueError
        If ``items`` has more than :data:`MAX_PARTITION_ITEMS` elements --
        enumerating the ``B_n`` partitions of a larger set would appear to
        hang; use :func:`schedule_independent_tasks` for such instances.
    """
    items = list(items)
    if len(items) > MAX_PARTITION_ITEMS:
        raise ValueError(
            f"refusing to enumerate the set partitions of {len(items)} items: the Bell "
            f"number B_{len(items)} is astronomically large and the enumeration would "
            f"appear to hang (the cap is MAX_PARTITION_ITEMS={MAX_PARTITION_ITEMS}); use "
            "the schedule_independent_tasks() heuristic for larger instances"
        )
    return _set_partitions_unchecked(items)


def _set_partitions_unchecked(items: List[int]) -> Iterable[List[List[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions_unchecked(rest):
        # Put `first` in its own new block...
        yield [[first]] + [list(block) for block in partition]
        # ...or add it to each existing block.
        for index in range(len(partition)):
            new_partition = [list(block) for block in partition]
            new_partition[index].insert(0, first)
            yield new_partition


def exhaustive_independent_schedule(
    works: Sequence[float],
    checkpoint_cost: float,
    recovery_cost: float,
    downtime: float,
    rate: float,
    *,
    initial_recovery: Optional[float] = None,
    max_tasks: int = 13,
) -> IndependentScheduleResult:
    """Exact optimal partition of independent tasks by exhaustive enumeration.

    Enumerates every set partition of the task indices (the order of groups
    and of tasks within a group is irrelevant with constant costs) and keeps
    the one with the smallest expected makespan.  The number of set partitions
    is the Bell number ``B_n`` (e.g. ``B_12 = 4 213 597``), so the function
    refuses instances larger than ``max_tasks`` -- and, whatever ``max_tasks``
    says, larger than :data:`MAX_PARTITION_ITEMS`, the hard enumeration cap
    enforced by the partition generator itself (raising ``max_tasks`` past it
    only changes which guard rejects the instance).  Partitions whose
    expectation overflows are skipped; ``OverflowError`` is raised only when
    every partition overflows.
    """
    works = check_sequence_of_positive("works", works)
    n = len(works)
    if n > max_tasks:
        raise ValueError(
            f"exhaustive enumeration over {n} tasks would explore B_{n} partitions; "
            f"the limit is max_tasks={max_tasks}. Use schedule_independent_tasks() instead."
        )
    best_groups: Optional[List[List[int]]] = None
    best_value = math.inf
    overflow: Optional[OverflowError] = None
    for partition in _set_partitions(list(range(n))):
        try:
            value = grouping_expected_time(
                partition,
                works,
                checkpoint_cost,
                recovery_cost,
                downtime,
                rate,
                initial_recovery=initial_recovery,
            )
        except OverflowError as exc:
            overflow = exc
            continue
        if value < best_value:
            best_value = value
            best_groups = [sorted(block) for block in partition]
    if best_groups is None:
        raise OverflowError(
            f"the expected makespan overflows for every partition of the {n} tasks"
        ) from overflow
    first_recovery = recovery_cost if initial_recovery is None else initial_recovery
    return IndependentScheduleResult(
        groups=tuple(tuple(g) for g in best_groups),
        expected_makespan=best_value,
        works=tuple(works),
        checkpoint_cost=float(checkpoint_cost),
        recovery_cost=float(recovery_cost),
        downtime=float(downtime),
        rate=float(rate),
        initial_recovery=float(first_recovery),
        exact=True,
    )


def optimal_group_count(
    total_work: float,
    checkpoint_cost: float,
    rate: float,
    *,
    max_groups: int,
) -> int:
    """Group count ``m`` minimising the relaxed objective ``g(m)`` of the proof.

    The NP-completeness proof shows that, for a perfectly balanced partition
    of a divisible total work ``nT`` into ``m`` groups, the expectation is
    proportional to ``g(m) = m (e^{lambda (W_total / m + C)} - 1)``, a convex
    function of ``m``.  This helper minimises ``g`` over the integers
    ``1..max_groups``; it is used to seed the heuristic search with a good
    candidate group count.
    """
    check_positive("total_work", total_work)
    check_non_negative("checkpoint_cost", checkpoint_cost)
    check_positive("rate", rate)
    if max_groups < 1:
        raise ValueError(f"max_groups must be >= 1, got {max_groups}")

    def g(m: int) -> float:
        exponent = rate * (total_work / m + checkpoint_cost)
        if exponent > 600.0:
            return math.inf
        return m * math.expm1(exponent)

    best_m = 1
    best_value = g(1)
    for m in range(2, max_groups + 1):
        value = g(m)
        if value < best_value:
            best_value = value
            best_m = m
    return best_m


def balanced_grouping(works: Sequence[float], num_groups: int) -> List[List[int]]:
    """Partition task indices into ``num_groups`` groups with balanced total works.

    Uses the Longest-Processing-Time (LPT) greedy rule: sort tasks by
    decreasing work and always assign the next task to the currently lightest
    group (the lowest-indexed one among equally light groups).  Groups are
    returned sorted by their indices for determinism.
    """
    works = check_sequence_of_positive("works", works)
    n = len(works)
    if not 1 <= num_groups <= n:
        raise ValueError(f"num_groups must be in 1..{n}, got {num_groups}")
    order = sorted(range(n), key=lambda i: works[i], reverse=True)
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    # A heap of (load, group) pops the lightest group, ties by lowest index.
    loads = [(0.0, g) for g in range(num_groups)]
    for index in order:
        load, lightest = loads[0]
        groups[lightest].append(index)
        heapq.heapreplace(loads, (load + works[index], lightest))
    return [sorted(group) for group in groups if group]


def _local_search(
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
    j)``.  The start partition's expectation must be finite
    (``OverflowError`` otherwise); a candidate whose expectation overflows
    scores ``+inf`` and is never accepted.
    """

    def evaluate(candidate: List[List[int]]) -> float:
        return grouping_expected_time(
            candidate,
            works,
            checkpoint_cost,
            recovery_cost,
            downtime,
            rate,
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


#: Cells (source task x task) the swap scan scores per NumPy call:
#: consecutive source groups share one call while they fit, so small
#: instances score every swap at once and large ones stop at an early hit.
_SWAP_SCAN_CELLS = 1 << 14


def _local_search_vectorized(
    groups: List[List[int]],
    works: Sequence[float],
    checkpoint_cost: float,
    recovery_cost: float,
    downtime: float,
    rate: float,
    initial_recovery: Optional[float],
    max_iterations: int,
) -> Tuple[List[List[int]], float]:
    """First-improvement local search scored from cached replacement costs.

    Visits the neighbourhood of :func:`_local_search` in the same order, but
    scores a candidate by the change in the Proposition 1 costs of the two
    groups it alters, so sub-ulp differences can settle the two searches in
    different equal-quality optima.  Groups are kept sorted, so a task's
    position follows its index.  ``D[a, b]`` is the cost of a's group with
    task ``a`` replaced by task ``b`` (by nothing in column ``n``) and
    ``Q[a, d]`` the cost of group ``d`` with ``a`` added, each minus that
    group's current cost: a swap scores ``D[a, b] + D[b, a]`` and a move
    ``D[a, n] + Q[a, d]``.  Row ``a`` of ``D`` depends only on a's group and
    column ``d`` of ``Q`` only on ``d``, and the group count never changes,
    so an accepted step refreshes its two groups' rows of ``D`` and columns
    of ``Q``.  The swap scan stops at the first block of source groups
    holding an improving swap.  A candidate whose group exponent overflows
    scores ``+inf``.  See docs/performance.md.
    """
    works_arr = np.asarray(works, dtype=float)
    first_recovery = recovery_cost if initial_recovery is None else initial_recovery

    def group_costs(new_works: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Proposition 1 cost of each candidate group, ``+inf`` on overflow."""
        exponents = rate * (new_works + checkpoint_cost)
        with np.errstate(over="ignore"):
            costs = factors * np.expm1(np.minimum(exponents, _MAX_EXPONENT))
        return np.where(exponents > _MAX_EXPONENT, np.inf, costs)

    def group_value(position: int, group: List[int]) -> float:
        """One group's term of :func:`grouping_expected_time`, same bits."""
        recovery = first_recovery if position == 0 else recovery_cost
        return expected_completion_time(
            sum(works[i] for i in group), checkpoint_cost, downtime, recovery, rate
        )

    def accept(candidate: List[List[int]], src: int, dst: int) -> float:
        """Value of ``candidate``, which differs from ``current`` in src and dst."""
        total = 0.0
        for position, group in enumerate(candidate):
            value = values[position]
            if position == src or position == dst:
                value = group_value(position, group)
            elif value is None:
                value = values[position] = group_value(position, group)
            total += value
        # The two new groups are summed in candidate order now and sorted
        # from the next acceptance on.
        values[src] = values[dst] = None
        return total

    current = [sorted(g) for g in groups]
    # Validates the instance; raises OverflowError when the start overflows,
    # so every e^{lambda R} below is finite.
    current_value = grouping_expected_time(
        current,
        works,
        checkpoint_cost,
        recovery_cost,
        downtime,
        rate,
        initial_recovery=initial_recovery,
    )
    n = works_arr.size
    m = len(current)
    recoveries = np.array([first_recovery] + [recovery_cost] * (m - 1))
    factors = np.exp(rate * recoveries) * (1.0 / rate + downtime)
    replaced = np.append(works_arr, 0.0)
    group_of = np.empty(n, dtype=np.intp)
    group_works = np.empty(m)
    e_cur = np.empty(m)
    D = np.empty((n, n + 1))
    Q = np.empty((n, m))
    # Each group's term over its sorted tasks; None until it is needed.
    values: List[Optional[float]] = [None] * m

    changed = list(range(m))
    for _ in range(max_iterations):
        for g in changed:
            group_of[current[g]] = g
            group_works[g] = sum(works_arr[i] for i in current[g])
        e_cur[changed] = group_costs(group_works[changed], factors[changed])
        rows = np.concatenate([current[g] for g in changed]).astype(np.intp)
        g_rows = group_of[rows]
        D[rows] = group_costs(
            (group_works[g_rows] - works_arr[rows])[:, None] + replaced,
            factors[g_rows][:, None],
        ) - e_cur[g_rows][:, None]
        Q[:, changed] = group_costs(
            group_works[changed] + works_arr[:, None], factors[changed]
        ) - e_cur[changed]

        sizes = np.array([len(g) for g in current], dtype=np.intp)
        candidate = None
        if m > 1:
            # --- Single-task moves: delta[t, d] for moving task t into group
            # d.  The reference's first improving move is the improving row
            # of the lowest (group, index), then its lowest column.
            delta = D[:, n][:, None] + Q
            delta[np.arange(n), group_of] = np.inf  # dst == src
            delta[sizes[group_of] == 1] = np.inf  # the reference never empties a group
            improving = delta < -1e-15
            if improving.any():
                tasks = np.flatnonzero(improving.any(axis=1))
                src = int(group_of[tasks].min())
                task = int(tasks[group_of[tasks] == src][0])
                dst = int(np.argmax(improving[task]))
                candidate = [list(g) for g in current]
                candidate[src].remove(task)
                candidate[dst].append(task)

        # --- Pairwise swaps: rows are the tasks of source groups s0..s1-1 in
        # (group, index) order; a cell counts when its column's group follows
        # its row's.  The reference's first improving swap is in the lowest
        # improving row's group, the lowest group among its improving
        # columns, then the first improving (i, j) between the two.
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        s0 = 0
        while candidate is None and s0 < m - 1:
            s1 = s0 + 1
            while s1 < m - 1 and (offsets[s1 + 1] - offsets[s0]) * n <= _SWAP_SCAN_CELLS:
                s1 += 1
            rows = np.concatenate(current[s0:s1]).astype(np.intp)
            improving = D[rows, :n] + D[:n, rows].T < -1e-15
            improving &= group_of > group_of[rows][:, None]
            if improving.any():
                src = int(group_of[rows[np.argmax(improving.any(axis=1))]])
                block = improving[offsets[src] - offsets[s0]:offsets[src + 1] - offsets[s0]]
                dst = int(group_of[block.any(axis=0)].min())
                block = block[:, current[dst]]
                i, j = divmod(int(np.argmax(block)), block.shape[1])
                candidate = [list(g) for g in current]
                candidate[src][i], candidate[dst][j] = current[dst][j], current[src][i]
            s0 = s1
        if candidate is None:
            break
        current_value = accept(candidate, src, dst)
        current = [sorted(g) for g in candidate]
        changed = sorted((src, dst))
    return current, current_value


def schedule_independent_tasks(
    works: Sequence[float],
    checkpoint_cost: float,
    recovery_cost: float,
    downtime: float,
    rate: float,
    *,
    initial_recovery: Optional[float] = None,
    group_counts: Optional[Iterable[int]] = None,
    local_search_iterations: int = 200,
    method: str = "auto",
) -> IndependentScheduleResult:
    """Heuristic scheduler for independent tasks with constant checkpoint costs.

    The strategy follows the structure revealed by the NP-completeness proof:
    the optimum partitions the tasks into groups of near-equal works, with a
    group count close to the minimiser of the convex relaxed objective
    ``g(m)``.  For each candidate group count (by default, all of ``1..n``),
    an LPT balanced partition is built and then improved by local search; the
    best partition over all candidates is returned.

    This is a heuristic -- the problem is strongly NP-hard -- but it always
    dominates the trivial strategies (a single checkpoint at the end, and a
    checkpoint after every task) because both are among the candidates.  A
    group count whose balanced start overflows (``lambda (W_g + C) > 600``
    for some group) is skipped; ``OverflowError`` is raised only when every
    candidate overflows.

    ``method`` picks the local-search implementation: ``"auto"`` (default)
    scores moves and swaps from the cached cost tables of
    :func:`_local_search_vectorized` on large instances and keeps the plain
    reference loops on small ones; ``"vectorized"`` / ``"reference"`` force
    one.  Both explore the same neighbourhood, but may settle in different,
    equally good group lists (hence :data:`SEARCH_AUTO_MIN_TASKS`).
    """
    works = check_sequence_of_positive("works", works)
    n = len(works)
    local_search_iterations = check_non_negative_int(
        "local_search_iterations", local_search_iterations
    )
    local_search = (
        _local_search_vectorized
        if resolve_dp_method(method, n, SEARCH_AUTO_MIN_TASKS) == "vectorized"
        else _local_search
    )
    if group_counts is None:
        if n <= 20:
            candidates = list(range(1, n + 1))
        else:
            # For larger instances, trying every group count with local search
            # is wasteful: the convexity analysis of the proof says the optimum
            # sits near the minimiser of g(m), so search a window around it
            # (plus the two trivial extremes so the heuristic always dominates
            # "one group" and "all singletons").
            centre = optimal_group_count(
                sum(works), checkpoint_cost, rate, max_groups=n
            )
            window = range(max(1, centre - 5), min(n, centre + 5) + 1)
            candidates = sorted(set(window) | {1, n})
    else:
        candidates = sorted({check_non_negative_int("group_counts", m) for m in group_counts})
        if not candidates:
            raise ValueError("group_counts must not be empty")
        if not 1 <= candidates[0] <= candidates[-1] <= n:
            raise ValueError(f"group counts {candidates} out of range 1..{n}")

    best_groups: Optional[List[List[int]]] = None
    best_value = math.inf
    overflow: Optional[OverflowError] = None
    for m in candidates:
        try:
            groups, value = local_search(
                balanced_grouping(works, m),
                works,
                checkpoint_cost,
                recovery_cost,
                downtime,
                rate,
                initial_recovery,
                local_search_iterations,
            )
        except OverflowError as exc:
            overflow = exc
            continue
        if value < best_value:
            best_value = value
            best_groups = groups
    if best_groups is None:
        raise OverflowError(
            f"the expected makespan overflows for every candidate group count {candidates}"
        ) from overflow
    first_recovery = recovery_cost if initial_recovery is None else initial_recovery
    return IndependentScheduleResult(
        groups=tuple(tuple(g) for g in best_groups),
        # The search sums changed groups in candidate order; report the value
        # of the returned groups, so re-evaluating them gives it back.
        expected_makespan=grouping_expected_time(
            best_groups, works, checkpoint_cost, recovery_cost, downtime, rate,
            initial_recovery=initial_recovery,
        ),
        works=tuple(works),
        checkpoint_cost=float(checkpoint_cost),
        recovery_cost=float(recovery_cost),
        downtime=float(downtime),
        rate=float(rate),
        initial_recovery=float(first_recovery),
        exact=False,
    )
