"""Optimal checkpoint placement for linear chains (the paper's Algorithm 1).

For an application whose DAG is a linear chain ``T1 -> T2 -> ... -> Tn``, the
only decision is *after which tasks to checkpoint* (the order is forced).  The
paper's Proposition 3 shows this is solvable in polynomial time by dynamic
programming: ``DPMAKESPAN(x, n)`` is the optimal expected time to execute the
last ``n - x + 1`` tasks starting right after the checkpoint that precedes
task ``x``, and satisfies::

    DPMAKESPAN(x, n) = min over j in {x, .., n} of
        E[T(w_x + ... + w_j, C_j, D, R_{x-1}, lambda)] + DPMAKESPAN(j+1, n)

with ``DPMAKESPAN(n+1, n) = 0``, where ``E[T(...)]`` is the Proposition 1
closed form.  Memoising the ``n`` distinct subproblems, each examined in
``O(n)`` work, gives the ``O(n^2)`` complexity of Proposition 3.

Two implementations are provided:

* :func:`dp_makespan_recursive` -- a literal transcription of the paper's
  pseudo-code (memoised recursion, 1-based indices, returns the pair
  ``(best, numTask)`` like the paper's Algorithm 1).  Kept primarily for
  fidelity and cross-checking;
* :func:`optimal_chain_checkpoints` -- an equivalent bottom-up DP with prefix
  sums, iterative (no recursion-depth limit), which reconstructs the full
  checkpoint placement and returns a :class:`ChainDPResult`.  This is the
  production entry point.

Both force a checkpoint after the last task (the base case of the paper's
Algorithm 1 charges ``C_n``); pass ``final_checkpoint=False`` to drop it, e.g.
when the final result does not need to be saved.

The production solvers run on the row-blocked kernels of
:mod:`repro.core.dp_kernels` by default (``method="auto"``): one NumPy pass
computes the segment costs of a block of DP rows over the work prefix sums,
and the budget DP sweeps its entire budget axis per row.  The plain-Python
loops are retained as ``method="reference"``; both paths are
**bit-identical** -- same expected times, same first-lowest-index
tie-breaking -- which the property tests and the analytic-solver benchmark
assert on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._validation import check_non_negative, check_positive
from repro.core.dp_kernels import (
    budget_dp_tables,
    chain_dp_tables,
    reconstruct_positions,
    resolve_dp_method,
)
from repro.core.expected_time import expected_completion_time
from repro.core.schedule import CheckpointPlan, Schedule
from repro.workflows.chain import LinearChain

__all__ = [
    "ChainDPResult",
    "optimal_chain_checkpoints",
    "optimal_chain_checkpoints_budget",
    "dp_makespan_recursive",
]


def _segment_cost(
    work: float,
    checkpoint: float,
    downtime: float,
    recovery: float,
    rate: float,
) -> float:
    """Proposition 1 cost of one segment, mapping overflow to +inf.

    During the DP search some candidate segments may be absurdly long (e.g.
    the whole chain without any checkpoint on a very failure-prone platform);
    their expectation overflows ``float``.  Such candidates are simply never
    optimal, so we treat them as infinitely bad instead of aborting the
    search.
    """
    try:
        return expected_completion_time(work, checkpoint, downtime, recovery, rate)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ChainDPResult:
    """Result of the linear-chain dynamic program.

    Attributes
    ----------
    expected_makespan:
        Optimal expected execution time of the chain.
    checkpoint_after:
        0-based indices of the tasks after which a checkpoint is taken, in
        increasing order.
    chain:
        The chain that was solved (kept so the result can rebuild a
        :class:`~repro.core.schedule.Schedule`).
    downtime, rate:
        The failure parameters the chain was solved for.
    """

    expected_makespan: float
    checkpoint_after: Tuple[int, ...]
    chain: LinearChain
    downtime: float
    rate: float

    @property
    def num_checkpoints(self) -> int:
        """Number of checkpoints in the optimal placement."""
        return len(self.checkpoint_after)

    def to_schedule(self) -> Schedule:
        """Materialise the optimal placement as a :class:`Schedule`."""
        return Schedule.for_chain(self.chain, self.checkpoint_after)

    def plan(self) -> CheckpointPlan:
        """The optimal placement as a :class:`CheckpointPlan`."""
        return CheckpointPlan.from_positions(self.chain.n, self.checkpoint_after)


def _kernel_arrays(chain: LinearChain) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain's work prefix sums, checkpoint costs and per-row recoveries."""
    recoveries = (chain.initial_recovery,) + chain.recovery_costs
    return (
        np.array(chain.prefix_work()),
        np.array(chain.checkpoint_costs, dtype=float),
        np.array(recoveries[: chain.n], dtype=float),
    )


def _reference_chain_tables(
    chain: LinearChain,
    downtime: float,
    rate: float,
    final_checkpoint: bool,
) -> Tuple[List[float], List[int]]:
    """Scalar reference DP tables (the pre-vectorization nested loops)."""
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
    return best, choice


def optimal_chain_checkpoints(
    chain: LinearChain,
    downtime: float,
    rate: float,
    *,
    final_checkpoint: bool = True,
    method: str = "auto",
) -> ChainDPResult:
    """Optimal checkpoint placement for a linear chain (Proposition 3).

    Parameters
    ----------
    chain:
        The linear chain (works ``w_i``, checkpoint costs ``C_i``, recovery
        costs ``R_i``, initial recovery ``R_0``).
    downtime:
        Downtime ``D >= 0`` after each failure.
    rate:
        Platform failure rate ``lambda > 0``.
    final_checkpoint:
        When True (default, matching the paper's Algorithm 1), a checkpoint is
        always taken after the last task and its cost ``C_n`` is charged.
        When False, the final segment ends without a checkpoint.
    method:
        ``"auto"`` (default) solves the DP on the row-blocked NumPy kernel
        on chains large enough to amortise the ufunc dispatch, and falls
        back to the plain-Python loops below that;
        ``"vectorized"`` / ``"reference"`` force one path.  Both are
        bit-identical (same values, same lowest-index tie-breaking).

    Returns
    -------
    ChainDPResult
        The optimal expected makespan and checkpoint positions.

    Notes
    -----
    Complexity is ``O(n^2)`` time and ``O(n)`` space, using prefix sums of the
    work array so each candidate segment cost is evaluated in ``O(1)``.
    """
    downtime = check_non_negative("downtime", downtime)
    rate = check_positive("rate", rate)
    n = chain.n
    if resolve_dp_method(method, n) == "vectorized":
        best, choice = chain_dp_tables(
            *_kernel_arrays(chain), downtime, rate, final_checkpoint=final_checkpoint
        )
    else:
        best, choice = _reference_chain_tables(chain, downtime, rate, final_checkpoint)

    if not math.isfinite(best[0]):
        raise OverflowError(
            "the optimal expected makespan overflows float: even the best checkpoint "
            "placement yields an astronomically large expectation; check the failure "
            "rate and task durations"
        )

    return ChainDPResult(
        expected_makespan=float(best[0]),
        checkpoint_after=reconstruct_positions(choice, n, final_checkpoint),
        chain=chain,
        downtime=downtime,
        rate=rate,
    )


def _reference_budget_tables(
    chain: LinearChain,
    downtime: float,
    rate: float,
    budget_cap: int,
    final_checkpoint: bool,
) -> Tuple[List[List[float]], List[List[int]]]:
    """Scalar reference tables of the budgeted DP (the pre-vectorization loops)."""
    n = chain.n
    prefix = chain.prefix_work()

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
    return best, choice


def optimal_chain_checkpoints_budget(
    chain: LinearChain,
    downtime: float,
    rate: float,
    max_checkpoints: int,
    *,
    final_checkpoint: bool = True,
    method: str = "auto",
) -> ChainDPResult:
    """Optimal placement of at most ``max_checkpoints`` checkpoints on a chain.

    A practical variant of Algorithm 1 for platforms where checkpoint storage
    or bandwidth is rationed (e.g. burst-buffer quotas): the schedule may take
    at most ``max_checkpoints`` checkpoints, counting the final one when
    ``final_checkpoint`` is True.  The dynamic program adds the remaining
    budget to the state, giving ``O(n^2 * max_checkpoints)`` time.

    With ``max_checkpoints >= n`` the result coincides with
    :func:`optimal_chain_checkpoints` (the budget is not binding); with
    ``max_checkpoints = 1`` and ``final_checkpoint=True`` it degenerates to
    the single-final-checkpoint placement.

    ``method`` selects the execution path exactly as in
    :func:`optimal_chain_checkpoints`; the vectorized kernel computes each
    row's segment costs once and sweeps the whole budget dimension in one
    broadcast ``argmin``, and is bit-identical to the reference loops.

    Raises
    ------
    ValueError
        If ``max_checkpoints`` is smaller than 1 while a final checkpoint is
        required, or negative.
    """
    downtime = check_non_negative("downtime", downtime)
    rate = check_positive("rate", rate)
    n = chain.n
    if max_checkpoints < 0:
        raise ValueError(f"max_checkpoints must be >= 0, got {max_checkpoints}")
    if final_checkpoint and max_checkpoints < 1:
        raise ValueError(
            "max_checkpoints must be >= 1 when a final checkpoint is required"
        )
    budget_cap = min(max_checkpoints, n)
    if resolve_dp_method(method, n) == "vectorized":
        best_arr, choice_arr = budget_dp_tables(
            *_kernel_arrays(chain),
            downtime,
            rate,
            budget_cap,
            final_checkpoint=final_checkpoint,
        )
        best_final = float(best_arr[0, budget_cap])
        choice = choice_arr
    else:
        best, choice = _reference_budget_tables(
            chain, downtime, rate, budget_cap, final_checkpoint
        )
        best_final = best[0][budget_cap]

    if not math.isfinite(best_final):
        raise OverflowError(
            "no placement within the checkpoint budget has a finite expected makespan; "
            "increase max_checkpoints or check the instance parameters"
        )

    positions: List[int] = []
    x, b = 0, budget_cap
    while x < n:
        j = int(choice[x][b])
        if j == n:
            break  # tail executed without further checkpoints
        positions.append(j)
        x = j + 1
        b -= 1

    return ChainDPResult(
        expected_makespan=best_final,
        checkpoint_after=tuple(positions),
        chain=chain,
        downtime=downtime,
        rate=rate,
    )


def dp_makespan_recursive(
    chain: LinearChain,
    downtime: float,
    rate: float,
    *,
    x: int = 1,
) -> Tuple[float, int]:
    """Literal transcription of the paper's Algorithm 1 (``DPMAKESPAN(x, n)``).

    Indices are 1-based as in the paper.  The function returns the couple
    ``(best, numTask)``: the optimal expectation of the time needed to execute
    tasks ``x..n``, and the index of the task that precedes the first
    checkpoint at the outermost recursion level (used to reconstruct the
    solution).  Calls are memoised, giving the ``O(n^2)`` complexity of
    Proposition 3.

    This implementation exists for fidelity and cross-validation against
    :func:`optimal_chain_checkpoints`; it always checkpoints after the last
    task, exactly like the paper's pseudo-code.
    """
    downtime = check_non_negative("downtime", downtime)
    rate = check_positive("rate", rate)
    n = chain.n
    if not 1 <= x <= n:
        raise ValueError(f"x must be in 1..{n}, got {x}")
    prefix = chain.prefix_work()
    memo: Dict[int, Tuple[float, int]] = {}

    def factor(index: int) -> float:
        """The multiplicative factor e^{lambda R_{index-1}} (1/lambda + D)."""
        recovery = chain.recovery_before(index - 1)
        return math.exp(rate * recovery) * (1.0 / rate + downtime)

    def segment_expectation(start: int, end: int) -> float:
        """E[T] for executing tasks start..end (1-based) and checkpointing after end."""
        work = prefix[end] - prefix[start - 1]
        ckpt = chain.checkpoint_costs[end - 1]
        exponent = rate * (work + ckpt)
        if exponent > 600.0:
            return math.inf
        return factor(start) * math.expm1(exponent)

    def dp(start: int) -> Tuple[float, int]:
        if start in memo:
            return memo[start]
        if start == n:
            result = (segment_expectation(n, n), n)
            memo[start] = result
            return result
        best = segment_expectation(start, n)
        num_task = n
        for j in range(start, n):
            exp_succ, _ = dp(j + 1)
            cur = exp_succ + segment_expectation(start, j)
            if cur < best:
                best = cur
                num_task = j
        memo[start] = (best, num_task)
        return memo[start]

    return dp(x)


def reconstruct_recursive_solution(
    chain: LinearChain,
    downtime: float,
    rate: float,
) -> ChainDPResult:
    """Run the recursive Algorithm 1 and reconstruct the full checkpoint placement.

    The paper's pseudo-code only returns the first checkpoint position; the
    complete placement is obtained by iterating from that position, exactly as
    the authors intend ("needed to reconstruct the solution").
    """
    n = chain.n
    positions: List[int] = []
    x = 1
    total: Optional[float] = None
    while x <= n:
        best, num_task = dp_makespan_recursive(chain, downtime, rate, x=x)
        if total is None:
            total = best
        positions.append(num_task - 1)  # convert to 0-based
        x = num_task + 1
    assert total is not None
    return ChainDPResult(
        expected_makespan=total,
        checkpoint_after=tuple(positions),
        chain=chain,
        downtime=downtime,
        rate=rate,
    )
