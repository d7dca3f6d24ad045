"""Linear-chain specialisation of the workflow model.

Linear chains ``T1 -> T2 -> ... -> Tn`` are the workflow class for which the
paper gives a polynomial-time optimal algorithm (Section 5).  The
:class:`LinearChain` class is a light, array-oriented view of such a workflow:
it exposes the weights ``w_i``, checkpoint costs ``C_i`` and recovery costs
``R_i`` as aligned tuples, together with prefix sums of work, which is the
representation the dynamic program consumes.  A chain's execution order is
forced (its index order), so :meth:`repro.core.schedule.Schedule.for_chain`
reads the same tuples and never builds the :class:`Workflow` graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro._validation import (
    check_non_negative,
    check_sequence_of_non_negative,
    check_sequence_of_positive,
)
from repro.workflows.dag import Workflow
from repro.workflows.task import Task

__all__ = ["LinearChain"]


@dataclass(frozen=True)
class LinearChain:
    """A linear chain of ``n`` tasks with per-task checkpoint/recovery costs.

    Index convention follows the paper: tasks are numbered ``1..n`` in the
    paper and ``0..n-1`` here.  ``recovery_costs[i]`` is the cost ``R_{i+1}``
    of recovering from a checkpoint taken after task ``i``; the paper notes
    that ``R_n`` is never needed (no need to recover from after the last
    task), but we keep the full array for uniformity.  ``initial_recovery``
    is the cost ``R_0`` of restarting the chain from scratch (re-reading the
    input data) after a failure that strikes before the first checkpoint; the
    paper's Algorithm 1 uses ``R_{x-1}`` with ``x = 1`` in the outermost call,
    which is exactly this quantity.

    Parameters
    ----------
    works:
        Task durations ``w_1..w_n`` (all > 0).
    checkpoint_costs:
        Checkpoint durations ``C_1..C_n`` (all >= 0).
    recovery_costs:
        Recovery durations ``R_1..R_n`` (all >= 0).
    initial_recovery:
        Recovery cost ``R_0`` to restart before any checkpoint exists
        (defaults to 0).
    names:
        Optional task names: unique, non-empty strings (defaults to
        ``"T1".."Tn"``).

    Construction checks everything a :class:`Workflow` of the chain's tasks
    would: positive works, non-negative costs and ``R_0``, equal lengths,
    and unique non-empty string names.
    """

    works: Sequence[float]
    checkpoint_costs: Sequence[float]
    recovery_costs: Sequence[float]
    initial_recovery: float = 0.0
    names: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        works = check_sequence_of_positive("works", self.works)
        ckpts = check_sequence_of_non_negative("checkpoint_costs", self.checkpoint_costs)
        recs = check_sequence_of_non_negative("recovery_costs", self.recovery_costs)
        check_non_negative("initial_recovery", self.initial_recovery)
        if not len(works) == len(ckpts) == len(recs):
            raise ValueError(
                "works, checkpoint_costs and recovery_costs must have the same length, got "
                f"{len(works)}, {len(ckpts)}, {len(recs)}"
            )
        names = list(self.names) if self.names is not None else [
            f"T{i + 1}" for i in range(len(works))
        ]
        if len(names) != len(works):
            raise ValueError(
                f"names must have the same length as works, got {len(names)} vs {len(works)}"
            )
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"task name must be a non-empty string, got {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")
        object.__setattr__(self, "works", tuple(works))
        object.__setattr__(self, "checkpoint_costs", tuple(ckpts))
        object.__setattr__(self, "recovery_costs", tuple(recs))
        object.__setattr__(self, "initial_recovery", float(self.initial_recovery))
        object.__setattr__(self, "names", tuple(names))

    def __len__(self) -> int:
        return len(self.works)

    @property
    def n(self) -> int:
        """Number of tasks in the chain."""
        return len(self.works)

    def total_work(self) -> float:
        """Sum of all task durations."""
        return sum(self.works)

    def prefix_work(self) -> List[float]:
        """Prefix sums ``P[k] = w_1 + ... + w_k`` with ``P[0] = 0`` (length n+1)."""
        prefix = [0.0]
        for w in self.works:
            prefix.append(prefix[-1] + w)
        return prefix

    def segment_work(self, start: int, end: int) -> float:
        """Total work of tasks ``start..end`` (0-based, inclusive bounds)."""
        if not 0 <= start <= end < self.n:
            raise ValueError(f"invalid segment [{start}, {end}] for a chain of {self.n} tasks")
        return sum(self.works[start : end + 1])

    def recovery_before(self, index: int) -> float:
        """Recovery cost in effect while executing task ``index`` right after a checkpoint.

        This is ``R_{index-1}`` in the paper's notation: the cost of rolling
        back to the checkpoint taken after task ``index - 1``, or the
        ``initial_recovery`` when ``index == 0``.
        """
        if not 0 <= index < self.n:
            raise ValueError(f"index must be in 0..{self.n - 1}, got {index}")
        if index == 0:
            return self.initial_recovery
        return self.recovery_costs[index - 1]

    def tasks(self) -> List[Task]:
        """Materialise the chain as :class:`Task` objects."""
        return [
            Task(
                name=self.names[i],
                work=self.works[i],
                checkpoint_cost=self.checkpoint_costs[i],
                recovery_cost=self.recovery_costs[i],
            )
            for i in range(self.n)
        ]

    def to_workflow(self, *, name: str = "chain") -> Workflow:
        """Convert to a full :class:`Workflow` DAG."""
        return Workflow.from_chain(self.tasks(), name=name)

    @classmethod
    def from_workflow(cls, workflow: Workflow, *, initial_recovery: float = 0.0) -> "LinearChain":
        """Build a :class:`LinearChain` from a workflow that is a linear chain.

        Raises
        ------
        ValueError
            If the workflow's DAG is not a linear chain.
        """
        order = workflow.chain_order()
        tasks = [workflow.task(name) for name in order]
        return cls(
            works=[t.work for t in tasks],
            checkpoint_costs=[t.checkpoint_cost for t in tasks],
            recovery_costs=[t.recovery_cost for t in tasks],
            initial_recovery=initial_recovery,
            names=[t.name for t in tasks],
        )

    @classmethod
    def uniform(
        cls,
        n: int,
        *,
        work: float = 1.0,
        checkpoint_cost: float = 0.1,
        recovery_cost: Optional[float] = None,
        initial_recovery: float = 0.0,
    ) -> "LinearChain":
        """Build a chain of ``n`` identical tasks (handy for tests and sweeps)."""
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        recovery = checkpoint_cost if recovery_cost is None else recovery_cost
        return cls(
            works=[work] * n,
            checkpoint_costs=[checkpoint_cost] * n,
            recovery_costs=[recovery] * n,
            initial_recovery=initial_recovery,
        )

    def __repr__(self) -> str:
        return (
            f"LinearChain(n={self.n}, total_work={self.total_work():g}, "
            f"R0={self.initial_recovery:g})"
        )
