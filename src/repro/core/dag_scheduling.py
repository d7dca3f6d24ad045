"""Checkpoint scheduling for arbitrary DAGs under full parallelism.

Under the paper's full-parallelism assumption, executing a general DAG amounts
to (i) choosing a linearisation (a topological order of the tasks) and (ii)
placing checkpoints in that linear sequence.  Proposition 2 shows that even
step (i)+(ii) for *independent* tasks is strongly NP-hard, so no polynomial
optimal algorithm is expected for general DAGs.  This module therefore
provides:

* :func:`linearize` -- a set of list-scheduling linearisation strategies
  (plain topological, heaviest-work-first, lightest-work-first,
  critical-path/bottom-level first, smallest-checkpoint-cost-first, random);
* an ``O(n^2)`` checkpoint-placement DP over a *fixed* linearisation,
  generalising the chain DP of Section 5 to position-dependent checkpoint and
  recovery costs -- including the frontier-dependent cost model of the first
  extension in Section 6 (checkpoint cost = aggregate of the live tasks'
  costs).  All linearisation orders run through the shared row-blocked
  kernel of :mod:`repro.core.dp_kernels` by default, with the plain-Python
  loops retained (bit-identically) as ``method="reference"``;
* :func:`schedule_dag` -- the production heuristic: try several linearisation
  strategies, optimally place checkpoints on each with the DP, keep the best;
* :func:`exhaustive_dag_schedule` -- exact optimum for tiny DAGs by
  enumerating every topological order (used for cross-validation in tests and
  experiment E10).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import check_non_negative, check_positive
from repro.core.dp_kernels import (
    chain_dp_tables,
    reconstruct_positions,
    resolve_dp_method,
)
from repro.core.expected_time import expected_completion_time
from repro.core.schedule import CheckpointPlan, Schedule
from repro.models.checkpoint import FrontierCheckpointCost
from repro.workflows.dag import Workflow

__all__ = [
    "DagScheduleResult",
    "LINEARIZATION_STRATEGIES",
    "linearize",
    "place_checkpoints_on_order",
    "schedule_dag",
    "exhaustive_dag_schedule",
]


# ----------------------------------------------------------------------
# Linearisation strategies
# ----------------------------------------------------------------------


def _list_schedule(
    workflow: Workflow,
    priority: Callable[[str], float],
) -> List[str]:
    """Generic list scheduling: repeatedly pick the ready task with the best priority.

    Lower priority value = scheduled earlier.  Ties are broken by task name
    for determinism.  The ready tasks sit in a heap of ``(priority, name)``
    keys; names are unique, so it pops the same sequence as sorting the
    ready list before every pick.
    """
    remaining_preds = {name: len(workflow.predecessors(name)) for name in workflow}
    ready = [(priority(n), n) for n, deg in remaining_preds.items() if deg == 0]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        _, chosen = heapq.heappop(ready)
        order.append(chosen)
        for succ in workflow.successors(chosen):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                heapq.heappush(ready, (priority(succ), succ))
    if len(order) != len(workflow):
        raise RuntimeError("list scheduling failed to order every task (corrupt DAG?)")
    return order


def _bottom_levels(workflow: Workflow) -> Dict[str, float]:
    """Bottom level of each task: longest work-weighted path from the task to a sink."""
    levels: Dict[str, float] = {}
    for name in reversed(workflow.topological_order()):
        succ_levels = [levels[s] for s in workflow.successors(name)]
        levels[name] = workflow.task(name).work + (max(succ_levels) if succ_levels else 0.0)
    return levels


def _linearize_topological(workflow: Workflow, rng: Optional[np.random.Generator]) -> List[str]:
    return workflow.topological_order()


def _linearize_heaviest_first(
    workflow: Workflow, rng: Optional[np.random.Generator]
) -> List[str]:
    return _list_schedule(workflow, lambda name: -workflow.task(name).work)


def _linearize_lightest_first(
    workflow: Workflow, rng: Optional[np.random.Generator]
) -> List[str]:
    return _list_schedule(workflow, lambda name: workflow.task(name).work)


def _linearize_critical_path(
    workflow: Workflow, rng: Optional[np.random.Generator]
) -> List[str]:
    levels = _bottom_levels(workflow)
    return _list_schedule(workflow, lambda name: -levels[name])


def _linearize_cheapest_checkpoint_first(
    workflow: Workflow, rng: Optional[np.random.Generator]
) -> List[str]:
    return _list_schedule(workflow, lambda name: workflow.task(name).checkpoint_cost)


def _linearize_random(workflow: Workflow, rng: Optional[np.random.Generator]) -> List[str]:
    # schedule_dag always threads a seeded generator through here; a direct
    # call without one gets a fixed seed so the "random" linearisation is
    # still replayable (determinism contract: no ad-hoc entropy in core/).
    generator = rng if rng is not None else np.random.default_rng(0)
    jitter = {name: float(generator.uniform()) for name in workflow.task_names()}
    return _list_schedule(workflow, lambda name: jitter[name])


#: Registry of available linearisation strategies, by name.
LINEARIZATION_STRATEGIES: Dict[str, Callable[[Workflow, Optional[np.random.Generator]], List[str]]] = {
    "topological": _linearize_topological,
    "heaviest_first": _linearize_heaviest_first,
    "lightest_first": _linearize_lightest_first,
    "critical_path": _linearize_critical_path,
    "cheapest_checkpoint_first": _linearize_cheapest_checkpoint_first,
    "random": _linearize_random,
}


def linearize(
    workflow: Workflow,
    strategy: str = "critical_path",
    *,
    rng: Optional[np.random.Generator] = None,
) -> List[str]:
    """Produce a dependence-respecting execution order with the named strategy."""
    try:
        fn = LINEARIZATION_STRATEGIES[strategy]
    except KeyError as exc:
        raise ValueError(
            f"unknown linearisation strategy {strategy!r}; "
            f"available: {sorted(LINEARIZATION_STRATEGIES)}"
        ) from exc
    return fn(workflow, rng)


# ----------------------------------------------------------------------
# Checkpoint placement on a fixed order
# ----------------------------------------------------------------------


class _FrontierCostTables:
    """Precomputed frontier index arrays for one linearisation.

    :class:`~repro.models.checkpoint.FrontierCheckpointCost` makes the cost of
    a checkpoint after position ``j`` depend on the *live* tasks in the window
    ``(prev_ckpt, j]``.  Evaluated through the model that is one Python call
    per ``(row, j)`` cell -- each call re-validating the order and rebuilding
    the frontier set -- which dominated the DAG placement profile.  This class
    exploits the interval structure of liveness instead: a task at position
    ``p`` belongs to ``frontier_after(order, j)`` exactly for
    ``p <= j < live_end[p]``, where ``live_end[p]`` is the position of the
    task's last successor in the order (``n`` for exit tasks).  One sweep
    builds, for every ``j``, the name-sorted live members as padded
    ``(position, cost)`` index arrays; each DP row's whole checkpoint-cost
    vector then comes out of one masked NumPy pass.

    Bit-identity with the per-call model is preserved by construction:

    * ``combine=sum``: the model computes a left-to-right Python ``sum`` over
      the name-sorted live costs.  The masked row kernel zeroes the excluded
      entries and takes a ``cumsum`` along the same name order -- and
      ``v + 0.0 == v`` holds bitwise for every non-negative IEEE-754 value,
      so interleaving masked zeros reproduces the exact addition chain.
    * ``combine=max``: order-independent, so a masked ``max`` (fill
      ``-inf``) returns the identical float.

    Any other ``combine`` callable falls back to the per-call path.
    """

    __slots__ = ("pos_pad", "cost_pad", "recoveries", "is_sum")

    #: ``combine`` callables with a bit-identical masked NumPy reduction.
    SUPPORTED_COMBINES = (sum, max)

    def __init__(
        self,
        workflow: Workflow,
        names: Sequence[str],
        model: FrontierCheckpointCost,
    ) -> None:
        n = len(names)
        self.is_sum = model.combine is sum
        position = {name: p for p, name in enumerate(names)}
        ckpt_costs = [workflow.task(name).checkpoint_cost for name in names]
        rec_costs = [workflow.task(name).recovery_cost for name in names]
        # live_end[p]: exclusive end of the interval of positions j at which
        # the task at position p is live (has an unexecuted successor, or is
        # an exit task whose output is the application result).
        live_end = [n] * n
        for p, name in enumerate(names):
            succs = workflow.successors(name)
            if succs:
                live_end[p] = max(position[s] for s in succs)
        by_name = sorted(range(n), key=names.__getitem__)
        members: List[List[int]] = [
            [p for p in by_name if p <= j < live_end[p]] for j in range(n)
        ]
        max_k = max((len(m) for m in members), default=0)
        # Padded (j, k) arrays in name order; absent slots carry position -1
        # (filtered out by every ``pos >= x`` window mask) and cost 0.
        self.pos_pad = np.full((n, max_k), -1, dtype=np.int32)
        self.cost_pad = np.zeros((n, max_k))
        for j, mem in enumerate(members):
            self.pos_pad[j, : len(mem)] = mem
            self.cost_pad[j, : len(mem)] = [ckpt_costs[p] for p in mem]
        # Recovery depends on the full frontier only -- n scalar combines,
        # evaluated exactly as the model does (name-sorted Python reduce).
        self.recoveries = [
            float(model.combine([rec_costs[p] for p in mem])) if mem else 0.0
            for mem in members
        ]

    def cost_row(self, x: int) -> np.ndarray:
        """Checkpoint costs ``cost(x - 1, j)`` for every ``j in [x, n)``.

        One masked pass over the padded member arrays; see the class
        docstring for why the result is bit-identical to the per-call model.
        """
        mask = self.pos_pad[x:] >= x
        if self.is_sum:
            masked = np.where(mask, self.cost_pad[x:], 0.0)
            return np.cumsum(masked, axis=1)[:, -1]
        masked = np.where(mask, self.cost_pad[x:], -np.inf)
        return np.max(masked, axis=1)


@dataclass(frozen=True)
class DagScheduleResult:
    """Result of DAG checkpoint scheduling.

    Attributes
    ----------
    order:
        The linearised execution order.
    checkpoint_after:
        0-based positions (in ``order``) after which a checkpoint is taken.
    expected_makespan:
        Expected execution time of the schedule.
    strategy:
        Name of the linearisation strategy that produced the order
        ("exhaustive" for the exact solver).
    exact:
        True when every topological order was examined (guaranteed optimal for
        the given cost model).
    """

    workflow: Workflow
    order: Tuple[str, ...]
    checkpoint_after: Tuple[int, ...]
    expected_makespan: float
    strategy: str
    exact: bool
    initial_recovery: float
    checkpoint_model: Optional[FrontierCheckpointCost] = None

    @property
    def num_checkpoints(self) -> int:
        """Number of checkpoints in the schedule."""
        return len(self.checkpoint_after)

    def to_schedule(self) -> Schedule:
        """Materialise the result as a :class:`Schedule`."""
        plan = CheckpointPlan.from_positions(len(self.order), self.checkpoint_after)
        return Schedule(
            self.workflow,
            list(self.order),
            plan,
            initial_recovery=self.initial_recovery,
            checkpoint_model=self.checkpoint_model,
        )


def place_checkpoints_on_order(
    workflow: Workflow,
    order: Sequence[str],
    downtime: float,
    rate: float,
    *,
    initial_recovery: float = 0.0,
    checkpoint_model: Optional[FrontierCheckpointCost] = None,
    final_checkpoint: bool = True,
    method: str = "auto",
) -> Tuple[Tuple[int, ...], float]:
    """Optimal checkpoint placement for a *fixed* linearisation.

    Generalises the chain DP (Section 5) to position-dependent checkpoint and
    recovery costs.  With the default cost model (``checkpoint_model=None``)
    the checkpoint after position ``j`` costs the ``checkpoint_cost`` of the
    task at position ``j`` and rolling back to it costs that task's
    ``recovery_cost`` -- exactly the paper's base model.  With a
    :class:`FrontierCheckpointCost`, the checkpoint cost additionally depends
    on the position of the previous checkpoint (the set of live tasks in the
    window), which the DP handles because each subproblem is indexed by the
    position following the previous checkpoint.

    ``method`` selects the execution path (``"auto"``/``"vectorized"``/
    ``"reference"``, as in :func:`~repro.core.chain_dp.optimal_chain_checkpoints`);
    the vectorized path runs the chain DP's row-blocked kernel.  With a
    :class:`FrontierCheckpointCost` whose ``combine`` is ``sum`` or ``max`` it
    takes each row's checkpoint costs from one masked NumPy pass over the
    order's live-frontier intervals (:class:`_FrontierCostTables`); a custom
    ``combine`` costs one model call per cell.  All paths are bit-identical.

    Returns the optimal checkpoint positions and the associated expected
    makespan.
    """
    downtime = check_non_negative("downtime", downtime)
    rate = check_positive("rate", rate)
    names = workflow.validate_order(order)
    n = len(names)
    works = [workflow.task(name).work for name in names]
    prefix = [0.0]
    for w in works:
        prefix.append(prefix[-1] + w)

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

    if resolve_dp_method(method, n) == "vectorized":
        best, choice = chain_dp_tables(
            np.array(prefix),
            *_kernel_costs(workflow, names, checkpoint_model, recovery_cost),
            downtime,
            rate,
            final_checkpoint=final_checkpoint,
        )
    else:
        best, choice = _reference_order_tables(
            prefix, n, checkpoint_cost, recovery_cost, downtime, rate, final_checkpoint
        )

    if not math.isfinite(best[0]):
        raise OverflowError(
            "even the best checkpoint placement on this order has an expected time "
            "that overflows float; check the failure rate and task durations"
        )

    return reconstruct_positions(choice, n, final_checkpoint), float(best[0])


def _reference_order_tables(
    prefix: Sequence[float],
    n: int,
    checkpoint_cost: Callable[[int, int], float],
    recovery_cost: Callable[[int], float],
    downtime: float,
    rate: float,
    final_checkpoint: bool,
) -> Tuple[List[float], List[int]]:
    """Scalar reference DP tables over a fixed order (pre-vectorization loops)."""
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
    return best, choice


def _kernel_costs(
    workflow: Workflow,
    names: Sequence[str],
    checkpoint_model: Optional[FrontierCheckpointCost],
    recovery_cost: Callable[[int], float],
) -> Tuple[Union[np.ndarray, Callable[[int], Sequence[float]]], np.ndarray]:
    """The row-blocked kernel's checkpoint costs and per-row recoveries on an order."""
    n = len(names)
    if checkpoint_model is None:
        # Base cost model: position-independent per-task costs, so every
        # linearisation is a chain.
        tasks = [workflow.task(name) for name in names]
        checkpoint_costs = np.array([task.checkpoint_cost for task in tasks])
        recoveries = [recovery_cost(-1), *(t.recovery_cost for t in tasks[: n - 1])]
    elif any(
        checkpoint_model.combine is c for c in _FrontierCostTables.SUPPORTED_COMBINES
    ):
        tables = _FrontierCostTables(workflow, names, checkpoint_model)
        checkpoint_costs = tables.cost_row
        # The tables' recoveries replay the model's name-sorted combine
        # exactly, but without re-validating the order n times.
        recoveries = [recovery_cost(-1), *tables.recoveries[: n - 1]]
    else:
        # A custom ``combine``: one model call per cell.
        checkpoint_costs = lambda x: [  # noqa: E731
            checkpoint_model.cost(names, x - 1, j)  # repro: noqa[perf-python-callback] -- per-call fallback for custom combine
            for j in range(x, n)
        ]
        recoveries = [recovery_cost(x - 1) for x in range(n)]
    return checkpoint_costs, np.array(recoveries[:n], dtype=float)


def schedule_dag(
    workflow: Workflow,
    downtime: float,
    rate: float,
    *,
    strategies: Optional[Sequence[str]] = None,
    initial_recovery: float = 0.0,
    checkpoint_model: Optional[FrontierCheckpointCost] = None,
    final_checkpoint: bool = True,
    num_random_orders: int = 4,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    method: str = "auto",
) -> DagScheduleResult:
    """Heuristic checkpoint scheduling of an arbitrary workflow DAG.

    Tries several linearisation strategies (all deterministic strategies by
    default plus ``num_random_orders`` random list-scheduling orders), places
    checkpoints optimally on each linearisation with the DP of
    :func:`place_checkpoints_on_order` (``method`` is forwarded, so every
    candidate order shares one vectorized kernel by default), and returns the
    best combination.
    """
    if len(workflow) == 0:
        raise ValueError("cannot schedule an empty workflow")
    if strategies is None:
        strategies = [s for s in LINEARIZATION_STRATEGIES if s != "random"]
    generator = rng if rng is not None else np.random.default_rng(seed)

    candidates: List[Tuple[str, List[str]]] = []
    for strategy in strategies:
        candidates.append((strategy, linearize(workflow, strategy, rng=generator)))
    for index in range(num_random_orders):
        candidates.append(
            (f"random#{index + 1}", linearize(workflow, "random", rng=generator))
        )

    best: Optional[DagScheduleResult] = None
    for strategy, order in candidates:
        positions, value = place_checkpoints_on_order(
            workflow,
            order,
            downtime,
            rate,
            initial_recovery=initial_recovery,
            checkpoint_model=checkpoint_model,
            final_checkpoint=final_checkpoint,
            method=method,
        )
        if best is None or value < best.expected_makespan:
            best = DagScheduleResult(
                workflow=workflow,
                order=tuple(order),
                checkpoint_after=positions,
                expected_makespan=value,
                strategy=strategy,
                exact=False,
                initial_recovery=initial_recovery,
                checkpoint_model=checkpoint_model,
            )
    assert best is not None
    return best


def exhaustive_dag_schedule(
    workflow: Workflow,
    downtime: float,
    rate: float,
    *,
    initial_recovery: float = 0.0,
    checkpoint_model: Optional[FrontierCheckpointCost] = None,
    final_checkpoint: bool = True,
    max_orders: int = 50_000,
    method: str = "auto",
) -> DagScheduleResult:
    """Exact optimum over every topological order (tiny DAGs only).

    Enumerates all topological orders of the DAG (up to ``max_orders``;
    raises if the DAG has more) and solves the checkpoint placement DP on each
    one.  The result is the true optimum for the given cost model, used to
    validate :func:`schedule_dag` in tests and experiment E10.
    """
    orders = workflow.all_topological_orders(limit=max_orders + 1)
    if len(orders) > max_orders:
        raise ValueError(
            f"the workflow has more than {max_orders} topological orders; "
            "exhaustive enumeration is not practical, use schedule_dag() instead"
        )
    best: Optional[DagScheduleResult] = None
    for order in orders:
        positions, value = place_checkpoints_on_order(
            workflow,
            order,
            downtime,
            rate,
            initial_recovery=initial_recovery,
            checkpoint_model=checkpoint_model,
            final_checkpoint=final_checkpoint,
            method=method,
        )
        if best is None or value < best.expected_makespan:
            best = DagScheduleResult(
                workflow=workflow,
                order=tuple(order),
                checkpoint_after=positions,
                expected_makespan=value,
                strategy="exhaustive",
                exact=True,
                initial_recovery=initial_recovery,
                checkpoint_model=checkpoint_model,
            )
    assert best is not None
    return best
