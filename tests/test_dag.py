"""Tests for the Workflow DAG model."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


def chain_tasks(n):
    return [Task(f"T{i}", float(i + 1), 0.1 * (i + 1), 0.1 * (i + 1)) for i in range(n)]


class TestWorkflowConstruction:
    def test_basic(self):
        tasks = chain_tasks(3)
        wf = Workflow(tasks, [("T0", "T1"), ("T1", "T2")])
        assert len(wf) == 3
        assert "T1" in wf
        assert wf.dependences() == [("T0", "T1"), ("T1", "T2")]

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Workflow([Task("A", 1.0), Task("A", 2.0)])

    def test_unknown_dependence_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            Workflow([Task("A", 1.0)], [("A", "B")])

    def test_self_dependence_rejected(self):
        with pytest.raises(ValueError, match="self-dependence"):
            Workflow([Task("A", 1.0)], [("A", "A")])

    def test_cycle_rejected(self):
        tasks = [Task("A", 1.0), Task("B", 1.0)]
        with pytest.raises(ValueError, match="cycle"):
            Workflow(tasks, [("A", "B"), ("B", "A")])

    def test_non_task_rejected(self):
        with pytest.raises(TypeError):
            Workflow(["not a task"])  # type: ignore[list-item]

    def test_unhashable_endpoint_is_an_unknown_task(self):
        # A JSON document can hold a list where a task name belongs; that is
        # an unknown task, not a TypeError traceback.
        with pytest.raises(ValueError) as excinfo:
            Workflow([Task("a", 1.0)], [("a", ["b"])])
        assert str(excinfo.value) == "dependence references unknown task ['b']"
        assert ["b"] not in Workflow([Task("a", 1.0)])


class TestWorkflowAccessors:
    def test_task_lookup(self, diamond_workflow):
        assert diamond_workflow.task("B").work == 3.0

    def test_task_lookup_missing(self, diamond_workflow):
        with pytest.raises(KeyError):
            diamond_workflow.task("Z")

    def test_predecessors_successors(self, diamond_workflow):
        assert set(diamond_workflow.predecessors("D")) == {"B", "C"}
        assert set(diamond_workflow.successors("A")) == {"B", "C"}

    def test_sources_sinks(self, diamond_workflow):
        assert diamond_workflow.sources() == ["A"]
        assert diamond_workflow.sinks() == ["D"]

    def test_total_work(self, diamond_workflow):
        assert diamond_workflow.total_work() == pytest.approx(11.0)

    def test_iter_yields_names(self, diamond_workflow):
        assert set(diamond_workflow) == {"A", "B", "C", "D"}


class TestChainDetection:
    def test_chain_is_chain(self):
        wf = Workflow.from_chain(chain_tasks(4))
        assert wf.is_chain()
        assert wf.chain_order() == ["T0", "T1", "T2", "T3"]

    def test_single_task_is_chain(self):
        wf = Workflow([Task("A", 1.0)])
        assert wf.is_chain()

    def test_diamond_is_not_chain(self, diamond_workflow):
        assert not diamond_workflow.is_chain()
        with pytest.raises(ValueError):
            diamond_workflow.chain_order()

    def test_independent_is_not_chain(self):
        wf = Workflow.from_independent(chain_tasks(3))
        assert not wf.is_chain()
        assert wf.is_independent()

    def test_chain_is_not_independent(self):
        wf = Workflow.from_chain(chain_tasks(2))
        assert not wf.is_independent()

    def test_disconnected_pair_of_chains_not_a_chain(self):
        tasks = chain_tasks(4)
        wf = Workflow(tasks, [("T0", "T1"), ("T2", "T3")])
        assert not wf.is_chain()


class TestTopologicalOrders:
    def test_topological_order_valid(self, diamond_workflow):
        order = diamond_workflow.topological_order()
        assert diamond_workflow.is_valid_order(order)

    def test_all_topological_orders_of_diamond(self, diamond_workflow):
        orders = diamond_workflow.all_topological_orders()
        # The diamond has exactly two linear extensions: ABCD and ACBD.
        assert len(orders) == 2
        assert ["A", "B", "C", "D"] in orders
        assert ["A", "C", "B", "D"] in orders

    def test_all_topological_orders_limit(self):
        wf = Workflow.from_independent(chain_tasks(5))
        orders = wf.all_topological_orders(limit=10)
        assert len(orders) == 10

    def test_is_valid_order_rejects_violation(self, diamond_workflow):
        assert not diamond_workflow.is_valid_order(["B", "A", "C", "D"])

    def test_is_valid_order_rejects_wrong_tasks(self, diamond_workflow):
        assert not diamond_workflow.is_valid_order(["A", "B", "C"])

    def test_validate_order_raises_with_message(self, diamond_workflow):
        with pytest.raises(ValueError, match="violates dependence"):
            diamond_workflow.validate_order(["B", "A", "C", "D"])

    def test_validate_order_rejects_non_permutation(self, diamond_workflow):
        with pytest.raises(ValueError, match="permutation"):
            diamond_workflow.validate_order(["A", "A", "B", "C"])


class TestFrontier:
    def test_frontier_mid_chain_is_last_task(self):
        wf = Workflow.from_chain(chain_tasks(4))
        order = wf.chain_order()
        for k in range(3):
            assert wf.frontier_after(order, k) == {order[k]}

    def test_frontier_of_last_position_is_exit_task(self):
        wf = Workflow.from_chain(chain_tasks(3))
        order = wf.chain_order()
        assert wf.frontier_after(order, 2) == {"T2"}

    def test_frontier_diamond_after_two_branches(self, diamond_workflow):
        # After executing A, B, C (positions 0..2), both B and C feed D.
        frontier = diamond_workflow.frontier_after(["A", "B", "C", "D"], 2)
        assert frontier == {"B", "C"}

    def test_frontier_diamond_after_one_branch(self, diamond_workflow):
        # After A, B: A still has unexecuted successor C, and B feeds D.
        frontier = diamond_workflow.frontier_after(["A", "B", "C", "D"], 1)
        assert frontier == {"A", "B"}

    def test_frontier_independent_tasks_all_live(self):
        wf = Workflow.from_independent(chain_tasks(3))
        order = wf.task_names()
        assert wf.frontier_after(order, 1) == set(order[:2])

    def test_frontier_rejects_bad_position(self, diamond_workflow):
        with pytest.raises(ValueError):
            diamond_workflow.frontier_after(["A", "B", "C", "D"], 4)


class TestStructuralMetrics:
    def test_critical_path_of_chain_is_total_work(self):
        wf = Workflow.from_chain(chain_tasks(3))
        assert wf.critical_path_length() == pytest.approx(1 + 2 + 3)

    def test_critical_path_diamond(self, diamond_workflow):
        # Longest path is A -> C -> D = 2 + 5 + 1.
        assert diamond_workflow.critical_path_length() == pytest.approx(8.0)

    def test_critical_path_independent(self):
        wf = Workflow.from_independent(chain_tasks(3))
        assert wf.critical_path_length() == pytest.approx(3.0)


class TestTransforms:
    def test_subworkflow(self, diamond_workflow):
        sub = diamond_workflow.subworkflow(["A", "B", "D"])
        assert len(sub) == 3
        assert ("A", "B") in sub.dependences()
        assert ("B", "D") in sub.dependences()
        assert ("A", "C") not in sub.dependences()

    def test_relabeled(self, diamond_workflow):
        renamed = diamond_workflow.relabeled({"A": "start"})
        assert "start" in renamed
        assert "A" not in renamed
        assert ("start", "B") in renamed.dependences()

    def test_repr(self, diamond_workflow):
        assert "diamond" in repr(diamond_workflow)


# ----------------------------------------------------------------------
# networkx as the oracle for every order the schedulers depend on
# ----------------------------------------------------------------------


def _random_graph(rng, *, acyclic):
    """Task names in shuffled insertion order and edges with some repeats.

    An acyclic graph orients every edge along a hidden random rank; one in
    five of them is a chain whose edges come in random order.
    """
    n = rng.randint(1, 9)
    names = [f"t{i}" for i in range(n)]
    ranked = rng.sample(names, n)
    if acyclic and rng.random() < 0.2:
        edges = list(zip(ranked, ranked[1:]))
        rng.shuffle(edges)
    else:
        edges = []
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(names, 2) if n > 1 else (names[0], names[0])
            if u == v:
                continue
            if acyclic and ranked.index(u) > ranked.index(v):
                u, v = v, u
            edges.append((u, v))
            if rng.random() < 0.2:
                edges.append((u, v))
    tasks = [Task(name, rng.uniform(0.5, 5.0)) for name in rng.sample(names, n)]
    return tasks, edges


def _nx_graph(nx, tasks, edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(task.name for task in tasks)
    graph.add_edges_from(edges)
    return graph


def _nx_is_chain(nx, graph):
    """The networkx-backed definition ``Workflow.is_chain`` replaced."""
    n = len(graph)
    return n == 1 or (
        graph.number_of_edges() == n - 1
        and sorted(d for _, d in graph.in_degree()) == [0] + [1] * (n - 1)
        and sorted(d for _, d in graph.out_degree()) == [0] + [1] * (n - 1)
        and nx.is_weakly_connected(graph)
    )


def _nx_critical_path(nx, graph, tasks):
    works = {task.name: task.work for task in tasks}
    lengths = {}
    for name in nx.topological_sort(graph):
        preds = list(graph.predecessors(name))
        lengths[name] = works[name] + (max(lengths[p] for p in preds) if preds else 0.0)
    return max(lengths.values())


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_orders_and_accessors_match_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        for _ in range(300):
            tasks, edges = _random_graph(rng, acyclic=True)
            workflow = Workflow(tasks, edges)
            graph = _nx_graph(nx, tasks, edges)
            assert workflow.topological_order() == list(nx.topological_sort(graph))
            expected_orders = []
            for order in nx.all_topological_sorts(graph):
                expected_orders.append(list(order))
                if len(expected_orders) == 40:
                    break
            assert workflow.all_topological_orders(limit=40) == expected_orders
            assert workflow.dependences() == list(graph.edges)
            for name in graph:
                assert workflow.predecessors(name) == list(graph.predecessors(name))
                assert workflow.successors(name) == list(graph.successors(name))
            assert workflow.sources() == [n for n, d in graph.in_degree() if d == 0]
            assert workflow.sinks() == [n for n, d in graph.out_degree() if d == 0]
            assert workflow.is_chain() == _nx_is_chain(nx, graph)
            assert workflow.critical_path_length() == _nx_critical_path(nx, graph, tasks)

    @pytest.mark.parametrize("seed", range(3))
    def test_cycle_message_names_find_cycle_edges(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(100 + seed)
        cyclic = 0
        for _ in range(300):
            tasks, edges = _random_graph(rng, acyclic=False)
            graph = _nx_graph(nx, tasks, edges)
            if nx.is_directed_acyclic_graph(graph):
                continue
            cyclic += 1
            with pytest.raises(ValueError) as excinfo:
                Workflow(tasks, edges)
            assert str(excinfo.value) == f"dependences contain a cycle: {nx.find_cycle(graph)}"
        assert cyclic > 50


def test_runtime_needs_no_networkx(tmp_path):
    """With networkx unimportable, the package, the CLI and the DAG solver run."""
    workflow_path = str(tmp_path / "fork_join.json")
    script = f"""
import sys
sys.modules["networkx"] = None  # any import of networkx now raises ImportError
import repro, repro.cli
from repro.core.dag_scheduling import schedule_dag
from repro.workflows.generators import fork_join, random_layered_dag
from repro.workflows.serialization import save_workflow
save_workflow(fork_join(4), {workflow_path!r})
assert repro.cli.main(["solve-dag", {workflow_path!r}, "--rate", "0.02", "--dot"]) == 0
print(schedule_dag(random_layered_dag(4, 3, seed=1), 0.5, 0.01, seed=0).strategy)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "expected makespan" in proc.stdout
