"""Tests for the LinearChain model."""

import pytest

from repro.workflows.chain import LinearChain
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


class TestLinearChainConstruction:
    def test_basic(self, small_chain):
        assert small_chain.n == 4
        assert len(small_chain) == 4
        assert small_chain.total_work() == pytest.approx(23.0)

    def test_default_names(self):
        chain = LinearChain(works=[1.0, 2.0], checkpoint_costs=[0.1, 0.1], recovery_costs=[0.1, 0.1])
        assert chain.names == ("T1", "T2")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            LinearChain(works=[1.0, 2.0], checkpoint_costs=[0.1], recovery_costs=[0.1, 0.1])

    def test_mismatched_names_rejected(self):
        with pytest.raises(ValueError):
            LinearChain(
                works=[1.0], checkpoint_costs=[0.1], recovery_costs=[0.1], names=["A", "B"]
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            LinearChain(
                works=[1.0, 2.0],
                checkpoint_costs=[0.1, 0.1],
                recovery_costs=[0.1, 0.1],
                names=["A", "A"],
            )

    @pytest.mark.parametrize("bad", ["", 7, None])
    def test_non_string_or_empty_names_rejected(self, bad):
        with pytest.raises(ValueError, match="task name must be a non-empty string"):
            LinearChain(works=[1.0], checkpoint_costs=[0.1], recovery_costs=[0.1], names=[bad])

    def test_zero_work_rejected(self):
        with pytest.raises(ValueError):
            LinearChain(works=[0.0], checkpoint_costs=[0.1], recovery_costs=[0.1])

    def test_negative_checkpoint_rejected(self):
        with pytest.raises(ValueError):
            LinearChain(works=[1.0], checkpoint_costs=[-0.1], recovery_costs=[0.1])

    def test_negative_initial_recovery_rejected(self):
        with pytest.raises(ValueError):
            LinearChain(
                works=[1.0], checkpoint_costs=[0.1], recovery_costs=[0.1], initial_recovery=-1.0
            )

    def test_uniform_constructor(self):
        chain = LinearChain.uniform(5, work=2.0, checkpoint_cost=0.5)
        assert chain.n == 5
        assert all(w == 2.0 for w in chain.works)
        assert all(r == 0.5 for r in chain.recovery_costs)

    def test_uniform_with_distinct_recovery(self):
        chain = LinearChain.uniform(3, checkpoint_cost=0.5, recovery_cost=1.5)
        assert all(r == 1.5 for r in chain.recovery_costs)

    def test_uniform_rejects_zero_tasks(self):
        with pytest.raises(ValueError):
            LinearChain.uniform(0)


class TestLinearChainQueries:
    def test_prefix_work(self, small_chain):
        assert small_chain.prefix_work() == pytest.approx([0.0, 10.0, 14.0, 21.0, 23.0])

    def test_segment_work(self, small_chain):
        assert small_chain.segment_work(1, 2) == pytest.approx(11.0)
        assert small_chain.segment_work(0, 3) == pytest.approx(23.0)

    def test_segment_work_rejects_bad_bounds(self, small_chain):
        with pytest.raises(ValueError):
            small_chain.segment_work(2, 1)
        with pytest.raises(ValueError):
            small_chain.segment_work(0, 10)

    def test_recovery_before_first_task_is_initial(self, small_chain):
        assert small_chain.recovery_before(0) == pytest.approx(0.2)

    def test_recovery_before_later_task(self, small_chain):
        assert small_chain.recovery_before(2) == pytest.approx(small_chain.recovery_costs[1])

    def test_recovery_before_out_of_range(self, small_chain):
        with pytest.raises(ValueError):
            small_chain.recovery_before(4)

    def test_repr(self, small_chain):
        assert "n=4" in repr(small_chain)


class TestLinearChainConversions:
    def test_tasks_materialisation(self, small_chain):
        tasks = small_chain.tasks()
        assert len(tasks) == 4
        assert tasks[2].work == 7.0
        assert tasks[2].checkpoint_cost == 2.0

    def test_to_workflow_round_trip(self, small_chain):
        workflow = small_chain.to_workflow()
        assert workflow.is_chain()
        back = LinearChain.from_workflow(workflow, initial_recovery=small_chain.initial_recovery)
        assert back.works == small_chain.works
        assert back.checkpoint_costs == small_chain.checkpoint_costs
        assert back.recovery_costs == small_chain.recovery_costs
        assert back.initial_recovery == small_chain.initial_recovery

    def test_from_workflow_rejects_non_chain(self, diamond_workflow):
        with pytest.raises(ValueError):
            LinearChain.from_workflow(diamond_workflow)

    def test_from_workflow_preserves_order(self):
        tasks = [Task("a", 1.0, 0.1, 0.1), Task("b", 2.0, 0.2, 0.2), Task("c", 3.0, 0.3, 0.3)]
        wf = Workflow.from_chain(tasks)
        chain = LinearChain.from_workflow(wf)
        assert chain.names == ("a", "b", "c")
        assert chain.works == (1.0, 2.0, 3.0)
