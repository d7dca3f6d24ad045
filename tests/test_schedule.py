"""Tests for CheckpointPlan, Segment and Schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expected_time import expected_completion_time
from repro.core.schedule import CheckpointPlan, Schedule, Segment, expected_makespan
from repro.models.checkpoint import FrontierCheckpointCost
from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.workflows import dag
from repro.workflows.chain import LinearChain
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


class TestCheckpointPlan:
    def test_never(self):
        plan = CheckpointPlan.never(4)
        assert plan.num_checkpoints == 0
        assert plan.checkpoint_positions() == []

    def test_after_every_task(self):
        plan = CheckpointPlan.after_every_task(3)
        assert plan.num_checkpoints == 3

    def test_every_k(self):
        plan = CheckpointPlan.every_k(7, 3)
        assert plan.checkpoint_positions() == [2, 5, 6]

    def test_every_k_without_final(self):
        plan = CheckpointPlan.every_k(7, 3, include_last=False)
        assert plan.checkpoint_positions() == [2, 5]

    def test_every_k_rejects_zero(self):
        with pytest.raises(ValueError):
            CheckpointPlan.every_k(5, 0)

    def test_from_positions(self):
        plan = CheckpointPlan.from_positions(5, [1, 3])
        assert plan.flags == (False, True, False, True, False)

    def test_from_positions_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CheckpointPlan.from_positions(3, [5])

    def test_with_final_checkpoint(self):
        plan = CheckpointPlan.never(3).with_final_checkpoint()
        assert plan.flags == (False, False, True)

    def test_indexing(self):
        plan = CheckpointPlan.from_positions(3, [0])
        assert plan[0] is True
        assert plan[2] is False
        assert len(plan) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPlan(flags=())


class TestSegment:
    def test_expected_time_uses_prop1(self):
        segment = Segment(
            tasks=("A", "B"), work=10.0, checkpoint_cost=1.0, recovery_cost=2.0, checkpointed=True
        )
        assert segment.expected_time(0.5, 0.05) == pytest.approx(
            expected_completion_time(10.0, 1.0, 0.5, 2.0, 0.05)
        )

    def test_rejects_empty_task_list(self):
        with pytest.raises(ValueError):
            Segment(tasks=(), work=1.0, checkpoint_cost=0.0, recovery_cost=0.0, checkpointed=False)

    def test_rejects_negative_work(self):
        with pytest.raises(ValueError):
            Segment(tasks=("A",), work=-1.0, checkpoint_cost=0.0, recovery_cost=0.0, checkpointed=False)


class TestScheduleConstruction:
    def test_invalid_order_rejected(self, diamond_workflow):
        plan = CheckpointPlan.never(4)
        with pytest.raises(ValueError):
            Schedule(diamond_workflow, ["B", "A", "C", "D"], plan)

    def test_plan_length_mismatch_rejected(self, diamond_workflow):
        plan = CheckpointPlan.never(3)
        with pytest.raises(ValueError, match="positions"):
            Schedule(diamond_workflow, ["A", "B", "C", "D"], plan)

    def test_for_chain(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        assert len(schedule) == 4
        assert schedule.num_checkpoints == 2
        assert schedule.initial_recovery == small_chain.initial_recovery


class TestSegmentDecomposition:
    def test_segments_of_chain_schedule(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        segments = schedule.segments()
        assert len(segments) == 2
        first, second = segments
        assert first.tasks == ("T1", "T2")
        assert first.work == pytest.approx(14.0)
        assert first.checkpoint_cost == pytest.approx(small_chain.checkpoint_costs[1])
        assert first.recovery_cost == pytest.approx(small_chain.initial_recovery)
        assert second.tasks == ("T3", "T4")
        assert second.recovery_cost == pytest.approx(small_chain.recovery_costs[1])
        assert second.checkpointed

    def test_unterminated_final_segment(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [0])
        segments = schedule.segments()
        assert len(segments) == 2
        assert segments[-1].checkpointed is False
        assert segments[-1].checkpoint_cost == 0.0

    def test_no_checkpoints_single_segment(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [])
        segments = schedule.segments()
        assert len(segments) == 1
        assert segments[0].work == pytest.approx(small_chain.total_work())

    def test_checkpoint_everywhere(self, small_chain):
        schedule = Schedule.for_chain(small_chain, range(4))
        segments = schedule.segments()
        assert len(segments) == 4
        assert all(len(s.tasks) == 1 for s in segments)


class TestExpectedMakespan:
    def test_matches_manual_sum(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        downtime, rate = 0.5, 0.02
        manual = expected_completion_time(
            14.0, small_chain.checkpoint_costs[1], downtime, small_chain.initial_recovery, rate
        ) + expected_completion_time(
            9.0, small_chain.checkpoint_costs[3], downtime, small_chain.recovery_costs[1], rate
        )
        assert schedule.expected_makespan(downtime, rate) == pytest.approx(manual)

    def test_module_level_wrapper(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [3])
        assert expected_makespan(schedule, 0.1, 0.01) == pytest.approx(
            schedule.expected_makespan(0.1, 0.01)
        )

    def test_failure_free_time(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        expected = small_chain.total_work() + small_chain.checkpoint_costs[1] + small_chain.checkpoint_costs[3]
        assert schedule.failure_free_time() == pytest.approx(expected)

    def test_expected_exceeds_failure_free(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        assert schedule.expected_makespan(0.5, 0.05) > schedule.failure_free_time()

    def test_rejects_bad_parameters(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [3])
        with pytest.raises(ValueError):
            schedule.expected_makespan(-1.0, 0.1)
        with pytest.raises(ValueError):
            schedule.expected_makespan(0.0, 0.0)


class TestScheduleWithFrontierModel:
    def _diamond(self):
        tasks = [
            Task("A", 2.0, checkpoint_cost=1.0, recovery_cost=1.0),
            Task("B", 3.0, checkpoint_cost=2.0, recovery_cost=2.0),
            Task("C", 5.0, checkpoint_cost=4.0, recovery_cost=4.0),
            Task("D", 1.0, checkpoint_cost=0.5, recovery_cost=0.5),
        ]
        deps = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        return Workflow(tasks, deps)

    def test_frontier_cost_used_in_segments(self):
        wf = self._diamond()
        model = FrontierCheckpointCost(wf)
        order = ["A", "B", "C", "D"]
        plan = CheckpointPlan.from_positions(4, [1, 3])
        schedule = Schedule(wf, order, plan, checkpoint_model=model)
        segments = schedule.segments()
        # Checkpoint after B with no prior checkpoint saves A and B: cost 3.
        assert segments[0].checkpoint_cost == pytest.approx(3.0)
        # Recovery for the second segment restores the frontier at B: A and B.
        assert segments[1].recovery_cost == pytest.approx(3.0)

    def test_frontier_model_changes_makespan(self):
        wf = self._diamond()
        order = ["A", "B", "C", "D"]
        plan = CheckpointPlan.from_positions(4, [1, 3])
        base = Schedule(wf, order, plan).expected_makespan(0.1, 0.05)
        frontier = Schedule(
            wf, order, plan, checkpoint_model=FrontierCheckpointCost(wf)
        ).expected_makespan(0.1, 0.05)
        assert frontier > base


class TestScheduleDescription:
    def test_describe_lists_segments(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        text = schedule.describe()
        assert "segment 0" in text
        assert "T1, T2" in text

    def test_repr(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1])
        assert "checkpoints=1" in repr(schedule)


# ----------------------------------------------------------------------
# Chain schedules without a graph
# ----------------------------------------------------------------------

_costs = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))


@st.composite
def _chains_with_positions(draw):
    n = draw(st.integers(min_value=1, max_value=40))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    chain = LinearChain(
        works=column(st.floats(min_value=0.01, max_value=10.0)),
        checkpoint_costs=column(_costs),
        recovery_costs=column(_costs),
        initial_recovery=draw(_costs),
    )
    positions = draw(st.one_of(
        st.just([]),
        st.just(list(range(n))),
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n),
    ))
    return chain, positions


def _graph_schedule(chain, positions):
    """The workflow-backed reference for ``Schedule.for_chain``."""
    return Schedule(
        chain.to_workflow(),
        list(chain.names),
        CheckpointPlan.from_positions(chain.n, positions),
        initial_recovery=chain.initial_recovery,
    )


class TestChainScheduleWithoutGraph:
    @settings(max_examples=150, deadline=None)
    @given(
        case=_chains_with_positions(),
        downtime=st.floats(min_value=0.0, max_value=5.0),
        rate=st.floats(min_value=1e-4, max_value=0.5),
    )
    def test_for_chain_equals_workflow_schedule(self, case, downtime, rate):
        chain, positions = case
        fast = Schedule.for_chain(chain, positions)
        reference = _graph_schedule(chain, positions)
        assert fast.order == reference.order
        assert fast.plan == reference.plan
        assert fast.segments() == reference.segments()
        assert fast.failure_free_time().hex() == reference.failure_free_time().hex()
        assert (
            fast.expected_makespan(downtime, rate).hex()
            == reference.expected_makespan(downtime, rate).hex()
        )

    @pytest.mark.parametrize("engine", [None, "vectorized"])
    def test_campaign_path_builds_no_graph(self, monkeypatch, engine):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Workflow graph was built on the campaign path")

        monkeypatch.setattr(dag.Workflow, "__init__", refuse)
        spec = ScenarioSpec(
            name="no-graph",
            chain=ChainSpec(n=12, seed=5),
            failure=FailureSpec(kind="exponential", mtbf=60.0),
            strategies=("optimal_dp", "checkpoint_all", "checkpoint_none", "daly_period"),
            num_runs=40,
            downtime=0.5,
            seed=9,
            engine=engine,
        )
        result = spec.run()
        assert sorted(result.makespans) == sorted(spec.strategies)
        assert all(len(samples) == 40 for samples in result.makespans.values())

    def test_mutating_returned_segments_leaves_schedule_intact(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        before = schedule.segments()
        free_time = schedule.failure_free_time()
        returned = schedule.segments()
        returned.reverse()
        returned.append(returned[0])
        returned[0] = Segment(
            tasks=("X",), work=1e9, checkpoint_cost=0.0, recovery_cost=0.0, checkpointed=False
        )
        assert schedule.segments() == before
        assert schedule.segments() is not schedule.segments()
        assert schedule.failure_free_time() == free_time

    def test_workflow_is_built_on_demand(self, small_chain):
        schedule = Schedule.for_chain(small_chain, [1])
        assert "workflow='chain'" in repr(schedule)
        workflow = schedule.workflow
        assert isinstance(workflow, Workflow)
        assert workflow is schedule.workflow
        assert workflow.task_names() == list(small_chain.names)
        assert len(workflow.dependences()) == small_chain.n - 1
        assert workflow.chain_order() == schedule.order
        for name, work in zip(small_chain.names, small_chain.works):
            assert workflow.task(name).work == work
        assert "workflow='chain'" in repr(schedule)

    def test_describe_does_not_build_the_workflow(self, small_chain, monkeypatch):
        schedule = Schedule.for_chain(small_chain, [1, 3])
        monkeypatch.setattr(LinearChain, "to_workflow", None)
        assert "segment 1" in schedule.describe()
        assert "checkpoints=2" in repr(schedule)
