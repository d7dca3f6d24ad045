"""Workflow DAGs over insertion-ordered dicts.

A :class:`Workflow` keeps its graph in three dicts keyed by task name: the
:class:`~repro.workflows.task.Task` itself, its successors and its
predecessors (each a dict used as an insertion-ordered set, so a repeated
dependence collapses).  It offers the structural queries the schedulers
need: validation (acyclicity, connectivity of names), topological orders and
their enumeration, chain detection, frontier computation (the set of tasks
whose data must be saved by a checkpoint at a given point of a linearised
execution -- Section 6, first extension), and critical-path style
aggregates.

Results depend on the order in which ties are broken, so every order here is
the one networkx 3.6.1 gives on the same ``DiGraph`` (built from the tasks,
then the dependences, in the order given): the tests use networkx as the
oracle that pins them.  :meth:`Workflow.dependences` lists each task's
successors in task order, :meth:`Workflow.topological_order` is Kahn's
algorithm by generations (``nx.topological_sort``),
:meth:`Workflow.all_topological_orders` is the iterative Knuth-Szwarcfiter
enumeration (``nx.all_topological_sorts``) and a cycle error names the edges
that ``nx.find_cycle`` would.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.workflows.task import Task

__all__ = ["Workflow"]


class Workflow:
    """A directed acyclic graph of :class:`Task` objects.

    Parameters
    ----------
    tasks:
        The tasks of the workflow.  Task names must be unique.
    dependences:
        Pairs ``(u, v)`` of task names meaning "``u`` must complete before
        ``v`` starts".
    name:
        Optional human-readable workflow name.
    """

    def __init__(
        self,
        tasks: Iterable[Task],
        dependences: Iterable[Tuple[str, str]] = (),
        *,
        name: str = "workflow",
    ) -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        # name -> {neighbour: None}: dicts as insertion-ordered sets.
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}
        for task in tasks:
            if not isinstance(task, Task):
                raise TypeError(f"expected Task, got {type(task).__name__}")
            if task.name in self._tasks:
                raise ValueError(f"duplicate task name {task.name!r}")
            self._tasks[task.name] = task
            self._succ[task.name] = {}
            self._pred[task.name] = {}
        for u, v in dependences:
            if u not in self:
                raise ValueError(f"dependence references unknown task {u!r}")
            if v not in self:
                raise ValueError(f"dependence references unknown task {v!r}")
            if u == v:
                raise ValueError(f"self-dependence on task {u!r}")
            self._succ[u][v] = None
            self._pred[v][u] = None
        self._order = self._kahn_order()

    def _kahn_order(self) -> Tuple[str, ...]:
        """Kahn's algorithm by generations; raises ``ValueError`` on a cycle.

        Processing the ready list first in, first out visits the tasks
        generation by generation: the entry tasks in task order, then each
        task freed by the previous ones, in the order they were freed.
        """
        remaining = {name: len(preds) for name, preds in self._pred.items()}
        order = [name for name, count in remaining.items() if count == 0]
        for name in order:  # the list grows while it is walked
            for succ in self._succ[name]:
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    order.append(succ)
        if len(order) < len(self._tasks):
            raise ValueError(f"dependences contain a cycle: {self._find_cycle()}")
        return tuple(order)

    def _find_cycle(self) -> List[Tuple[str, str]]:
        """The cycle ``nx.find_cycle`` reports: an edge DFS from each task in turn."""
        explored: Set[str] = set()
        for start in self._tasks:
            if start in explored:
                continue
            path: List[Tuple[str, str]] = []
            seen = {start}
            active = {start}
            previous_head: Optional[str] = None
            for tail, head in self._edge_dfs(start):
                if head in explored:
                    continue
                if previous_head is not None and tail != previous_head:
                    # Backtracked: pop the path back to the edge that ends at tail.
                    while True:
                        if not path:
                            active = {tail}
                            break
                        active.remove(path.pop()[1])
                        if path and path[-1][1] == tail:
                            break
                path.append((tail, head))
                if head in active:
                    first = next(i for i, (u, _) in enumerate(path) if u == head)
                    return path[first:]
                seen.add(head)
                active.add(head)
                previous_head = head
            explored.update(seen)
        raise AssertionError("unreachable: _find_cycle called on an acyclic graph")

    def _edge_dfs(self, start: str) -> Iterator[Tuple[str, str]]:
        """Every edge reachable from ``start``, once each, in depth-first order."""
        pending: Dict[str, Iterator[str]] = {}
        stack = [start]
        while stack:
            node = stack[-1]
            if node not in pending:
                pending[node] = iter(self._succ[node])
            head = next(pending[node], None)
            if head is None:
                stack.pop()
            else:
                stack.append(head)
                yield node, head

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: object) -> bool:
        try:
            return name in self._tasks
        except TypeError:  # an unhashable value names no task
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    def task(self, name: str) -> Task:
        """Return the task with the given name."""
        try:
            return self._tasks[name]
        except KeyError as exc:
            raise KeyError(f"no task named {name!r} in workflow {self.name!r}") from exc

    def tasks(self) -> List[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def task_names(self) -> List[str]:
        """All task names, in insertion order."""
        return list(self._tasks)

    def dependences(self) -> List[Tuple[str, str]]:
        """All dependence edges ``(before, after)``: each task's successors, in task order."""
        return [(u, v) for u, succs in self._succ.items() for v in succs]

    def predecessors(self, name: str) -> List[str]:
        """Direct predecessors of a task."""
        self.task(name)
        return list(self._pred[name])

    def successors(self, name: str) -> List[str]:
        """Direct successors of a task."""
        self.task(name)
        return list(self._succ[name])

    def sources(self) -> List[str]:
        """Tasks with no predecessor (entry tasks)."""
        return [name for name, preds in self._pred.items() if not preds]

    def sinks(self) -> List[str]:
        """Tasks with no successor (exit tasks)."""
        return [name for name, succs in self._succ.items() if not succs]

    def total_work(self) -> float:
        """Sum of all task weights."""
        return sum(t.work for t in self.tasks())

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def is_chain(self) -> bool:
        """True when the DAG is a single linear chain ``T1 -> T2 -> ... -> Tn``."""
        sources = self.sources()
        if len(sources) != 1:
            return False
        # Walk from the one entry task: a chain never branches and the walk
        # reaches every task, so the walk's edges are all of the edges.
        name, reached = sources[0], 1
        while self._succ[name]:
            if len(self._succ[name]) > 1:
                return False
            (name,) = self._succ[name]
            reached += 1
        return reached == len(self)

    def is_independent(self) -> bool:
        """True when the DAG has no dependence at all (independent tasks)."""
        return not any(self._succ.values())

    def chain_order(self) -> List[str]:
        """Return the unique task order when the workflow is a chain.

        Raises
        ------
        ValueError
            If the workflow is not a linear chain.
        """
        if not self.is_chain():
            raise ValueError(f"workflow {self.name!r} is not a linear chain")
        return list(self._order)

    def topological_order(self) -> List[str]:
        """One valid topological order of the task names (Kahn's, by generations)."""
        return list(self._order)

    def all_topological_orders(self, limit: Optional[int] = None) -> List[List[str]]:
        """Enumerate all topological orders (optionally truncated at ``limit``).

        The number of topological orders can be exponential; always pass a
        limit for workflows larger than a dozen tasks.  The enumeration is
        Knuth and Szwarcfiter's (1974), in the iterative form networkx uses,
        so the orders come in networkx's sequence.
        """
        count = {name: len(preds) for name, preds in self._pred.items()}
        ready = deque(name for name, c in count.items() if c == 0)
        bases: List[str] = []  # the first task tried at each position
        current: List[str] = []
        orders: List[List[str]] = []
        while True:
            if len(current) == len(count):
                orders.append(list(current))
                if limit is not None and len(orders) >= limit:
                    break
                while current:
                    name = current.pop()
                    for succ in self._succ[name]:
                        count[succ] += 1
                    while ready and count[ready[-1]] > 0:
                        ready.pop()
                    # Rotate the ready tasks; once the base is back in front,
                    # every choice at this position has been tried.
                    ready.appendleft(name)
                    if ready[-1] != bases[-1]:
                        break
                    bases.pop()
            else:
                name = ready.pop()
                for succ in self._succ[name]:
                    count[succ] -= 1
                    if count[succ] == 0:
                        ready.append(succ)
                current.append(name)
                if len(bases) < len(current):
                    bases.append(name)
            if not bases:
                break
        return orders

    def is_valid_order(self, order: Sequence[str]) -> bool:
        """Check that ``order`` is a permutation of the tasks respecting all dependences."""
        names = list(order)
        if sorted(names) != sorted(self.task_names()):
            return False
        position = {name: i for i, name in enumerate(names)}
        return all(position[u] < position[v] for u, v in self.dependences())

    def validate_order(self, order: Sequence[str]) -> List[str]:
        """Return ``order`` as a list, raising ``ValueError`` if it is invalid."""
        names = list(order)
        if sorted(names) != sorted(self.task_names()):
            raise ValueError(
                "order must be a permutation of the workflow's tasks; "
                f"got {names!r} for tasks {sorted(self.task_names())!r}"
            )
        position = {name: i for i, name in enumerate(names)}
        for u, v in self.dependences():
            if position[u] >= position[v]:
                raise ValueError(
                    f"order violates dependence {u!r} -> {v!r} (positions "
                    f"{position[u]} >= {position[v]})"
                )
        return names

    def frontier_after(self, order: Sequence[str], k: int) -> Set[str]:
        """Tasks whose output must be saved by a checkpoint taken after position ``k``.

        Following the paper's first extension (Section 6): "the cost of a
        checkpoint should account for all the tasks that have been executed
        since the last checkpoint and which have at least a successor task
        which has not been executed yet".  This method returns the tasks among
        ``order[:k+1]`` that have at least one successor outside
        ``order[:k+1]`` -- i.e. the *live* data set at that point -- plus, for
        exit tasks, the task itself (its result is the application output and
        must be saved).  The caller intersects this with "executed since the
        last checkpoint" as appropriate.
        """
        names = self.validate_order(order)
        if not 0 <= k < len(names):
            raise ValueError(f"k must be in 0..{len(names) - 1}, got {k}")
        executed = set(names[: k + 1])
        frontier: Set[str] = set()
        for name in executed:
            succs = self._succ[name]
            if not succs or not executed.issuperset(succs):
                frontier.add(name)
        return frontier

    def critical_path_length(self) -> float:
        """Length (in work units) of the longest dependence path."""
        if len(self) == 0:
            return 0.0
        lengths: Dict[str, float] = {}
        for name in self._order:
            preds = self._pred[name]
            lengths[name] = self._tasks[name].work + (
                max(lengths[p] for p in preds) if preds else 0.0
            )
        return max(lengths.values())

    # ------------------------------------------------------------------
    # Constructors / transforms
    # ------------------------------------------------------------------

    @classmethod
    def from_chain(cls, tasks: Sequence[Task], *, name: str = "chain") -> "Workflow":
        """Build a workflow whose DAG is the linear chain ``tasks[0] -> tasks[1] -> ...``."""
        tasks = list(tasks)
        deps = [(tasks[i].name, tasks[i + 1].name) for i in range(len(tasks) - 1)]
        return cls(tasks, deps, name=name)

    @classmethod
    def from_independent(cls, tasks: Sequence[Task], *, name: str = "independent") -> "Workflow":
        """Build a workflow with no dependences."""
        return cls(list(tasks), [], name=name)

    def subworkflow(self, names: Iterable[str], *, name: Optional[str] = None) -> "Workflow":
        """Induced sub-workflow on the given task names."""
        selected = list(names)
        tasks = [self.task(n) for n in selected]
        keep = set(selected)
        deps = [(u, v) for u, v in self.dependences() if u in keep and v in keep]
        return Workflow(tasks, deps, name=name or f"{self.name}-sub")

    def relabeled(self, mapping: Dict[str, str], *, name: Optional[str] = None) -> "Workflow":
        """Return a copy with task names replaced according to ``mapping``."""
        tasks = []
        for task in self.tasks():
            new_name = mapping.get(task.name, task.name)
            tasks.append(
                Task(
                    name=new_name,
                    work=task.work,
                    checkpoint_cost=task.checkpoint_cost,
                    recovery_cost=task.recovery_cost,
                    memory_footprint=task.memory_footprint,
                )
            )
        deps = [(mapping.get(u, u), mapping.get(v, v)) for u, v in self.dependences()]
        return Workflow(tasks, deps, name=name or self.name)

    def __repr__(self) -> str:
        return (
            f"Workflow(name={self.name!r}, tasks={len(self)}, "
            f"edges={len(self.dependences())})"
        )
