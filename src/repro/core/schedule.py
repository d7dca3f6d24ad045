"""Schedules: a task order plus checkpoint decisions, and their exact evaluation.

Under the paper's full-parallelism assumption (Section 2), executing a
workflow amounts to choosing

1. a *linearisation* of the DAG (an execution order respecting all
   dependences), and
2. after which task completions to take a checkpoint.

A :class:`Schedule` captures both decisions for a given
:class:`~repro.workflows.dag.Workflow`, or for a
:class:`~repro.workflows.chain.LinearChain` (Section 5), whose order is
forced: a chain schedule is its order plus the per-position arrays
``w_i``, ``C_i`` and ``R_i``, with no graph behind it.  The decision
"checkpoint after position k" is held in a :class:`CheckpointPlan`.  The
schedule can be cut
into :class:`Segment` objects -- maximal blocks of tasks separated by
checkpoints -- and its exact expected makespan under Exponential failures is
the sum of the Proposition 1 expectations of its segments
(:func:`expected_makespan`), which is the decomposition used by both the
NP-hardness proof and the chain DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro._validation import check_non_negative, check_positive
from repro.core.expected_time import (
    _checked_exponent,
    _exp,
    _expm1,
    expected_completion_time,
)
from repro.models.checkpoint import FrontierCheckpointCost
from repro.workflows.chain import LinearChain
from repro.workflows.dag import Workflow

__all__ = ["CheckpointPlan", "Segment", "Schedule", "expected_makespan"]


@dataclass(frozen=True)
class CheckpointPlan:
    """Which positions of a linearised execution are followed by a checkpoint.

    ``flags[k]`` is True when a checkpoint is taken right after the task at
    position ``k`` of the execution order.
    """

    flags: Tuple[bool, ...]

    def __post_init__(self) -> None:
        flags = tuple(bool(f) for f in self.flags)
        if not flags:
            raise ValueError("a checkpoint plan must cover at least one task")
        object.__setattr__(self, "flags", flags)

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, index: int) -> bool:
        return self.flags[index]

    @property
    def num_checkpoints(self) -> int:
        """Total number of checkpoints taken."""
        return sum(self.flags)

    def checkpoint_positions(self) -> List[int]:
        """Positions (0-based) after which a checkpoint is taken."""
        return [i for i, flag in enumerate(self.flags) if flag]

    @classmethod
    def never(cls, n: int) -> "CheckpointPlan":
        """No checkpoint at all."""
        return cls(flags=tuple([False] * n))

    @classmethod
    def after_every_task(cls, n: int) -> "CheckpointPlan":
        """A checkpoint after every task."""
        return cls(flags=tuple([True] * n))

    @classmethod
    def every_k(cls, n: int, k: int, *, include_last: bool = True) -> "CheckpointPlan":
        """A checkpoint after every ``k``-th task (positions k-1, 2k-1, ...)."""
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        flags = [(i + 1) % k == 0 for i in range(n)]
        if include_last and n > 0:
            flags[-1] = True
        return cls(flags=tuple(flags))

    @classmethod
    def from_positions(cls, n: int, positions: Iterable[int]) -> "CheckpointPlan":
        """A checkpoint after each listed position (0-based)."""
        flags = [False] * n
        for pos in positions:
            if not 0 <= pos < n:
                raise ValueError(f"checkpoint position {pos} out of range 0..{n - 1}")
            flags[pos] = True
        return cls(flags=tuple(flags))

    def with_final_checkpoint(self) -> "CheckpointPlan":
        """Return a copy that checkpoints after the last task."""
        flags = list(self.flags)
        flags[-1] = True
        return CheckpointPlan(flags=tuple(flags))


@dataclass(frozen=True)
class Segment:
    """A maximal block of tasks between two checkpoints.

    Attributes
    ----------
    tasks:
        Names of the tasks in the block, in execution order.
    work:
        Total work of the block (failure-free duration).
    checkpoint_cost:
        Duration of the checkpoint ending the block, or 0 if the block is the
        final one and is not checkpointed.
    recovery_cost:
        Duration of the recovery used when a failure strikes inside this
        block: the cost of rolling back to the checkpoint preceding the block
        (or the initial recovery cost for the first block).
    checkpointed:
        Whether the block ends with a checkpoint.
    """

    tasks: Tuple[str, ...]
    work: float
    checkpoint_cost: float
    recovery_cost: float
    checkpointed: bool

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a segment must contain at least one task")
        check_non_negative("work", self.work)
        check_non_negative("checkpoint_cost", self.checkpoint_cost)
        check_non_negative("recovery_cost", self.recovery_cost)

    def expected_time(self, downtime: float, rate: float) -> float:
        """Proposition 1 expectation for this segment."""
        return expected_completion_time(
            self.work, self.checkpoint_cost, downtime, self.recovery_cost, rate
        )


def _checked_segment(
    tasks: Tuple[str, ...],
    work: float,
    checkpoint_cost: float,
    recovery_cost: float,
    checkpointed: bool,
) -> Segment:
    """A :class:`Segment` of values that its chain or tasks have already checked.

    It skips ``__post_init__``: the block's work is a sum of positive task
    works, and its costs are the task's (or chain's) validated ones.
    """
    segment = object.__new__(Segment)
    segment.__dict__.update(
        tasks=tasks,
        work=work,
        checkpoint_cost=checkpoint_cost,
        recovery_cost=recovery_cost,
        checkpointed=checkpointed,
    )
    return segment


class Schedule:
    """A linearised execution order plus a checkpoint plan for a workflow.

    The schedule holds, for each position of ``order``, the work, checkpoint
    cost and recovery cost of the task there; :meth:`segments` reads only
    those per-position values.  It cuts its segments on first use and keeps
    the cut, so ``order``, ``plan``, ``initial_recovery`` and
    ``checkpoint_model`` are read-only after construction.

    Parameters
    ----------
    workflow:
        The workflow being scheduled.
    order:
        A permutation of the task names respecting all dependences.
    plan:
        Checkpoint decisions, one flag per position of ``order``.
    initial_recovery:
        Cost of restarting from scratch when a failure strikes before the
        first checkpoint (``R_0``); defaults to 0.
    checkpoint_model:
        Optional :class:`~repro.models.checkpoint.FrontierCheckpointCost`
        implementing the frontier-dependent cost of Section 6; when omitted,
        the paper's base model is used (the checkpoint after position ``k``
        costs ``C`` of the task at position ``k``, and recovering to it costs
        that task's ``R``).
    """

    def __init__(
        self,
        workflow: Workflow,
        order: Sequence[str],
        plan: CheckpointPlan,
        *,
        initial_recovery: float = 0.0,
        checkpoint_model: Optional[FrontierCheckpointCost] = None,
    ) -> None:
        names = workflow.validate_order(order)
        tasks = [workflow.task(name) for name in names]
        self._setup(
            names,
            plan,
            tuple(task.work for task in tasks),
            tuple(task.checkpoint_cost for task in tasks),
            tuple(task.recovery_cost for task in tasks),
            initial_recovery,
            checkpoint_model,
        )
        self._workflow: Optional[Workflow] = workflow
        self._chain: Optional[LinearChain] = None

    def _setup(
        self,
        order: List[str],
        plan: CheckpointPlan,
        works: Tuple[float, ...],
        checkpoint_costs: Tuple[float, ...],
        recovery_costs: Tuple[float, ...],
        initial_recovery: float,
        checkpoint_model: Optional[FrontierCheckpointCost],
    ) -> None:
        if len(plan) != len(order):
            raise ValueError(
                f"plan covers {len(plan)} positions but the order has {len(order)} tasks"
            )
        self.order = order
        self.plan = plan
        self.initial_recovery = check_non_negative("initial_recovery", initial_recovery)
        self.checkpoint_model = checkpoint_model
        self._works = works
        self._checkpoint_costs = checkpoint_costs
        self._recovery_costs = recovery_costs
        self._segments: Optional[Tuple[Segment, ...]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def for_chain(
        cls,
        chain: LinearChain,
        checkpoint_after: Iterable[int],
        *,
        checkpoint_model: Optional[FrontierCheckpointCost] = None,
    ) -> "Schedule":
        """Build a schedule for a linear chain from 0-based checkpoint positions.

        A chain's order is forced (its index order), so the schedule takes
        ``w_i``, ``C_i`` and ``R_i`` straight from the chain's arrays: no
        :class:`Workflow` is built and no order is validated.
        :class:`LinearChain` has already checked every value.
        """
        plan = CheckpointPlan.from_positions(chain.n, checkpoint_after)
        schedule = cls.__new__(cls)
        schedule._setup(
            list(chain.names),
            plan,
            chain.works,
            chain.checkpoint_costs,
            chain.recovery_costs,
            chain.initial_recovery,
            checkpoint_model,
        )
        schedule._workflow = None
        schedule._chain = chain
        return schedule

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def workflow(self) -> Workflow:
        """The scheduled workflow; a chain schedule builds it on first read."""
        if self._workflow is None:
            self._workflow = self._chain.to_workflow()
        return self._workflow

    def __len__(self) -> int:
        return len(self.order)

    @property
    def num_checkpoints(self) -> int:
        """Number of checkpoints the schedule takes."""
        return self.plan.num_checkpoints

    def _checkpoint_cost_at(self, position: int, last_checkpoint: int) -> float:
        if self.checkpoint_model is not None:
            return self.checkpoint_model.cost(self.order, last_checkpoint, position)
        return self._checkpoint_costs[position]

    def _recovery_cost_at(self, checkpoint_position: int) -> float:
        if self.checkpoint_model is not None:
            return self.checkpoint_model.recovery(self.order, checkpoint_position)
        return self._recovery_costs[checkpoint_position]

    def segments(self) -> List[Segment]:
        """Cut the schedule into maximal blocks separated by checkpoints.

        The cut is made once; every call returns a new list of it.
        """
        return list(self._cut())

    def _cut(self) -> Tuple[Segment, ...]:
        if self._segments is not None:
            return self._segments
        # Costs from a checkpoint model are new values: the public
        # constructor checks them.
        make_segment = Segment if self.checkpoint_model is not None else _checked_segment
        segments: List[Segment] = []
        start = 0
        block_work = 0.0
        last_checkpoint = -1
        current_recovery = self.initial_recovery
        for position, (work, checkpointed) in enumerate(zip(self._works, self.plan.flags)):
            # Left-to-right accumulation: sum() over a slice is compensated
            # on Python >= 3.12 and would change the last bits.
            block_work += work
            if checkpointed:
                segments.append(
                    make_segment(
                        tuple(self.order[start : position + 1]),
                        block_work,
                        self._checkpoint_cost_at(position, last_checkpoint),
                        current_recovery,
                        True,
                    )
                )
                current_recovery = self._recovery_cost_at(position)
                last_checkpoint = position
                start = position + 1
                block_work = 0.0
        if start < len(self.order):
            segments.append(
                make_segment(tuple(self.order[start:]), block_work, 0.0, current_recovery, False)
            )
        self._segments = tuple(segments)
        return self._segments

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def expected_makespan(self, downtime: float, rate: float) -> float:
        """Exact expected makespan under Exponential failures of rate ``rate``.

        By memorylessness, the expectation decomposes as the sum of the
        Proposition 1 expectations of the segments: the expression of
        :func:`~repro.core.expected_time.expected_completion_time`, with
        ``downtime`` and ``rate`` checked once instead of per segment.
        """
        downtime = check_non_negative("downtime", downtime)
        rate = check_positive("rate", rate)
        scale = 1.0 / rate + downtime
        terms = []
        for seg in self._cut():
            # A segment holds at least one task of positive work, so W + C > 0.
            exponent = _checked_exponent(
                rate * (seg.work + seg.checkpoint_cost), "lambda * (W + C)"
            )
            rec_exponent = _checked_exponent(rate * seg.recovery_cost, "lambda * R")
            terms.append(_exp(rec_exponent) * scale * _expm1(exponent))
        # sum(), not a running total: on Python >= 3.12 it is compensated, and
        # the result must equal the sum of the segments' expected_time() exactly.
        return sum(terms)

    def failure_free_time(self) -> float:
        """Makespan when no failure ever strikes: total work plus checkpoint costs."""
        return sum(seg.work + seg.checkpoint_cost for seg in self._cut())

    def describe(self) -> str:
        """Multi-line human-readable description of the schedule."""
        lines = [f"Schedule over {len(self)} tasks, {self.num_checkpoints} checkpoint(s):"]
        for index, segment in enumerate(self._cut()):
            suffix = "checkpoint" if segment.checkpointed else "no checkpoint"
            lines.append(
                f"  segment {index}: {', '.join(segment.tasks)} "
                f"(work={segment.work:g}, {suffix})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        # A chain schedule's workflow, once built, is named "chain".
        workflow_name = "chain" if self._workflow is None else self._workflow.name
        return (
            f"Schedule(tasks={len(self)}, checkpoints={self.num_checkpoints}, "
            f"workflow={workflow_name!r})"
        )


def expected_makespan(schedule: Schedule, downtime: float, rate: float) -> float:
    """Module-level convenience wrapper around :meth:`Schedule.expected_makespan`."""
    return schedule.expected_makespan(downtime, rate)
