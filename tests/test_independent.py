"""Tests for independent-task scheduling (the NP-complete case of Proposition 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expected_time import expected_completion_time
from repro.core.independent import (
    balanced_grouping,
    exhaustive_independent_schedule,
    grouping_expected_time,
    optimal_group_count,
    schedule_independent_tasks,
)


class TestGroupingExpectedTime:
    def test_single_group_matches_prop1(self):
        works = [3.0, 5.0, 2.0]
        value = grouping_expected_time([[0, 1, 2]], works, 1.0, 1.0, 0.5, 0.05)
        expected = expected_completion_time(10.0, 1.0, 0.5, 1.0, 0.05)
        assert value == pytest.approx(expected)

    def test_two_groups_sum(self):
        works = [3.0, 5.0]
        value = grouping_expected_time([[0], [1]], works, 1.0, 2.0, 0.5, 0.05)
        expected = expected_completion_time(3.0, 1.0, 0.5, 2.0, 0.05) + expected_completion_time(
            5.0, 1.0, 0.5, 2.0, 0.05
        )
        assert value == pytest.approx(expected)

    def test_initial_recovery_defaults_to_recovery(self):
        works = [3.0]
        with_default = grouping_expected_time([[0]], works, 1.0, 2.0, 0.0, 0.05)
        explicit = grouping_expected_time(
            [[0]], works, 1.0, 2.0, 0.0, 0.05, initial_recovery=2.0
        )
        assert with_default == pytest.approx(explicit)

    def test_custom_initial_recovery(self):
        works = [3.0]
        zero_initial = grouping_expected_time(
            [[0]], works, 1.0, 2.0, 0.0, 0.05, initial_recovery=0.0
        )
        expected = expected_completion_time(3.0, 1.0, 0.0, 0.0, 0.05)
        assert zero_initial == pytest.approx(expected)

    def test_order_of_groups_irrelevant(self):
        works = [3.0, 5.0, 2.0, 7.0]
        a = grouping_expected_time([[0, 1], [2, 3]], works, 1.0, 1.0, 0.0, 0.05)
        b = grouping_expected_time([[2, 3], [0, 1]], works, 1.0, 1.0, 0.0, 0.05)
        assert a == pytest.approx(b)

    def test_duplicate_task_rejected(self):
        with pytest.raises(ValueError, match="more than one group"):
            grouping_expected_time([[0], [0]], [1.0, 2.0], 1.0, 1.0, 0.0, 0.05)

    def test_missing_task_rejected(self):
        with pytest.raises(ValueError, match="not assigned"):
            grouping_expected_time([[0]], [1.0, 2.0], 1.0, 1.0, 0.0, 0.05)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            grouping_expected_time([[0, 5]], [1.0, 2.0], 1.0, 1.0, 0.0, 0.05)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            grouping_expected_time([[0, 1], []], [1.0, 2.0], 1.0, 1.0, 0.0, 0.05)


class TestExhaustiveOptimum:
    def test_three_identical_tasks_high_rate_groups_singletons(self):
        result = exhaustive_independent_schedule([10.0, 10.0, 10.0], 0.1, 0.1, 0.0, 0.5)
        assert result.num_checkpoints == 3
        assert result.exact

    def test_three_tasks_negligible_rate_single_group(self):
        result = exhaustive_independent_schedule([1.0, 1.0, 1.0], 2.0, 2.0, 0.0, 1e-6)
        assert result.num_checkpoints == 1

    def test_refuses_large_instances(self):
        with pytest.raises(ValueError, match="MAX_PARTITION_ITEMS"):
            exhaustive_independent_schedule([1.0] * 20, 1.0, 1.0, 0.0, 0.1)

    def test_group_works_consistent(self):
        result = exhaustive_independent_schedule([2.0, 3.0, 4.0, 5.0], 1.0, 1.0, 0.0, 0.1)
        assert sum(result.group_works()) == pytest.approx(14.0)

    def test_to_schedule_matches_expected_makespan(self):
        result = exhaustive_independent_schedule([2.0, 3.0, 4.0], 1.0, 1.0, 0.5, 0.08)
        schedule = result.to_schedule()
        assert schedule.expected_makespan(0.5, 0.08) == pytest.approx(
            result.expected_makespan, rel=1e-12
        )


class TestOptimalGroupCount:
    def test_balanced_instance_prefers_proof_value(self):
        # With lambda = 1/(2T) and C = (ln2 - 1/2)/lambda, the proof shows the
        # relaxed optimum is exactly n groups of work T each.
        target = 100.0
        n = 5
        rate = 1.0 / (2.0 * target)
        checkpoint = (math.log(2.0) - 0.5) / rate
        assert optimal_group_count(n * target, checkpoint, rate, max_groups=3 * n) == n

    def test_free_checkpoints_maximise_group_count(self):
        assert optimal_group_count(100.0, 0.0, 0.5, max_groups=50) == 50

    def test_rare_failures_single_group(self):
        assert optimal_group_count(10.0, 5.0, 1e-9, max_groups=10) == 1

    def test_rejects_zero_max_groups(self):
        with pytest.raises(ValueError):
            optimal_group_count(10.0, 1.0, 0.1, max_groups=0)


class TestBalancedGrouping:
    def test_partitions_all_tasks(self):
        groups = balanced_grouping([5.0, 3.0, 8.0, 2.0, 7.0], 2)
        flat = sorted(i for g in groups for i in g)
        assert flat == [0, 1, 2, 3, 4]

    def test_one_group(self):
        groups = balanced_grouping([1.0, 2.0], 1)
        assert groups == [[0, 1]]

    def test_n_groups_are_singletons(self):
        groups = balanced_grouping([1.0, 2.0, 3.0], 3)
        assert sorted(map(tuple, groups)) == [(0,), (1,), (2,)]

    def test_lpt_balances_loads(self):
        works = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0]
        groups = balanced_grouping(works, 2)
        loads = [sum(works[i] for i in g) for g in groups]
        assert abs(loads[0] - loads[1]) <= 3.0

    def test_rejects_bad_group_count(self):
        with pytest.raises(ValueError):
            balanced_grouping([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            balanced_grouping([1.0, 2.0], 0)


class TestHeuristicScheduler:
    @pytest.mark.parametrize("n,seed", [(5, 1), (6, 2), (7, 3), (8, 4)])
    def test_heuristic_close_to_exhaustive(self, n, seed, rng):
        import numpy as np

        generator = np.random.default_rng(seed)
        works = list(generator.uniform(1.0, 10.0, size=n))
        heuristic = schedule_independent_tasks(works, 1.0, 1.0, 0.0, 0.08)
        optimum = exhaustive_independent_schedule(works, 1.0, 1.0, 0.0, 0.08)
        assert heuristic.expected_makespan <= optimum.expected_makespan * 1.02 + 1e-9

    def test_heuristic_never_worse_than_trivial_groupings(self):
        works = [4.0, 9.0, 2.0, 7.0, 5.0, 6.0, 1.0]
        heuristic = schedule_independent_tasks(works, 1.0, 1.0, 0.5, 0.05)
        one_group = grouping_expected_time(
            [list(range(len(works)))], works, 1.0, 1.0, 0.5, 0.05
        )
        singletons = grouping_expected_time(
            [[i] for i in range(len(works))], works, 1.0, 1.0, 0.5, 0.05
        )
        assert heuristic.expected_makespan <= one_group + 1e-9
        assert heuristic.expected_makespan <= singletons + 1e-9

    def test_explicit_group_counts(self):
        works = [1.0, 2.0, 3.0, 4.0]
        result = schedule_independent_tasks(
            works, 0.5, 0.5, 0.0, 0.05, group_counts=[2]
        )
        assert result.num_checkpoints == 2

    def test_group_counts_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            schedule_independent_tasks([1.0, 2.0], 0.5, 0.5, 0.0, 0.05, group_counts=[3])

    def test_yes_three_partition_instance_recovers_balanced_groups(self):
        # Nine values forming three triples of sum 120, under the proof's parameters.
        works = [50.0, 40.0, 30.0, 45.0, 41.0, 34.0, 48.0, 39.0, 33.0]
        target = 120.0
        rate = 1.0 / (2.0 * target)
        checkpoint = (math.log(2.0) - 0.5) / rate
        result = schedule_independent_tasks(works, checkpoint, checkpoint, 0.0, rate)
        # The optimal value is n * e^{lambda C}/lambda * (e^{lambda(T+C)} - 1).
        bound = 3 * math.exp(rate * checkpoint) / rate * math.expm1(rate * (target + checkpoint))
        assert result.expected_makespan == pytest.approx(bound, rel=1e-9)
        assert result.num_checkpoints == 3
        assert sorted(result.group_works()) == pytest.approx([120.0, 120.0, 120.0])

    def test_result_metadata(self):
        result = schedule_independent_tasks([1.0, 2.0, 3.0], 0.5, 0.7, 0.1, 0.05)
        assert result.works == (1.0, 2.0, 3.0)
        assert result.checkpoint_cost == 0.5
        assert result.recovery_cost == 0.7
        assert not result.exact


class TestOverflowingCandidates:
    """A candidate whose expectation overflows is skipped, not fatal."""

    def test_heuristic_skips_an_overflowing_one_group_start(self):
        import numpy as np

        works = list(np.random.default_rng(1).uniform(1.0, 10.0, size=60))
        rate = 700.0 / sum(works)
        with pytest.raises(OverflowError):
            grouping_expected_time([list(range(60))], works, 1.0, 1.0, 0.0, rate)
        singletons = grouping_expected_time(
            [[i] for i in range(60)], works, 1.0, 1.0, 0.0, rate
        )
        result = schedule_independent_tasks(
            works, 1.0, 1.0, 0.0, rate, group_counts=[1, 40, 60]
        )
        assert math.isfinite(result.expected_makespan)
        assert result.expected_makespan <= singletons * (1 + 1e-12)
        assert result.expected_makespan == grouping_expected_time(
            result.groups, works, 1.0, 1.0, 0.0, rate
        )

    def test_default_candidates_include_overflowing_one_group(self):
        import numpy as np

        works = list(np.random.default_rng(1).uniform(1.0, 10.0, size=60))
        rate = 700.0 / sum(works)
        result = schedule_independent_tasks(works, 1.0, 1.0, 0.0, rate)
        singletons = grouping_expected_time(
            [[i] for i in range(60)], works, 1.0, 1.0, 0.0, rate
        )
        assert result.expected_makespan <= singletons * (1 + 1e-12)

    def test_exhaustive_skips_overflowing_partitions(self):
        import numpy as np

        works = list(np.random.default_rng(2).uniform(1.0, 10.0, size=8))
        rate = 700.0 / sum(works)
        singletons = grouping_expected_time(
            [[i] for i in range(8)], works, 1.0, 1.0, 0.0, rate
        )
        optimum = exhaustive_independent_schedule(works, 1.0, 1.0, 0.0, rate)
        assert optimum.expected_makespan <= singletons
        assert optimum.expected_makespan == grouping_expected_time(
            optimum.groups, works, 1.0, 1.0, 0.0, rate
        )

    # "reference" runs the heuristic on the oracle search, patched in.
    @pytest.mark.parametrize("method", ["vectorized", "reference"])
    def test_every_candidate_overflowing_raises(self, method):
        import contextlib
        from unittest import mock

        from repro.analysis import reference_solvers
        from repro.core import independent

        search = (
            mock.patch.object(
                independent, "_local_search_vectorized", reference_solvers.local_search
            )
            if method == "reference"
            else contextlib.nullcontext()
        )
        with search, pytest.raises(OverflowError, match="every candidate group count"):
            schedule_independent_tasks([1.0, 2.0], 1.0, 1.0, 0.0, 1000.0)
        with pytest.raises(OverflowError, match="every partition"):
            exhaustive_independent_schedule([1.0, 2.0], 1.0, 1.0, 0.0, 1000.0)

    def test_searches_score_overflowing_moves_inf(self):
        from repro.analysis.reference_solvers import local_search
        from repro.core.independent import _local_search_vectorized

        # Two tasks per group are finite (lambda W = 500); a move would
        # make a group of three (750 > 600).  Swaps change nothing.
        works = [5.0, 5.0, 5.0, 5.0]
        args = (works, 0.0, 0.0, 0.0, 50.0, None, 10)
        start = [[0, 1], [2, 3]]
        value = grouping_expected_time(start, *args[:5])
        assert local_search([list(g) for g in start], *args) == (start, value)
        assert _local_search_vectorized([list(g) for g in start], *args) == (start, value)


class TestSearchParameterChecks:
    @pytest.mark.parametrize(
        ("value", "error"), [(-3, ValueError), (True, TypeError), (2.0, TypeError)]
    )
    def test_local_search_iterations(self, value, error):
        with pytest.raises(error, match="local_search_iterations"):
            schedule_independent_tasks(
                [1.0, 2.0, 3.0], 0.5, 0.5, 0.0, 0.05, local_search_iterations=value
            )

    @pytest.mark.parametrize("counts", [[True], [2.0], [2, "3"]])
    def test_group_counts_must_be_ints(self, counts):
        with pytest.raises(TypeError, match="group_counts"):
            schedule_independent_tasks(
                [1.0, 2.0, 3.0], 0.5, 0.5, 0.0, 0.05, group_counts=counts
            )

    def test_zero_group_count_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            schedule_independent_tasks(
                [1.0, 2.0, 3.0], 0.5, 0.5, 0.0, 0.05, group_counts=[0]
            )

    def test_zero_iterations_keep_the_lpt_start(self):
        works = [4.0, 9.0, 2.0, 7.0, 5.0, 6.0, 1.0]
        result = schedule_independent_tasks(
            works, 1.0, 1.0, 0.5, 0.05, group_counts=[3], local_search_iterations=0
        )
        assert [list(g) for g in result.groups] == balanced_grouping(works, 3)


class TestIndependentProperties:
    @given(
        works=st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=2, max_size=6),
        rate=st.floats(min_value=1e-3, max_value=0.3),
        checkpoint=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_heuristic_upper_bounds_exhaustive(self, works, rate, checkpoint):
        heuristic = schedule_independent_tasks(works, checkpoint, checkpoint, 0.0, rate)
        optimum = exhaustive_independent_schedule(works, checkpoint, checkpoint, 0.0, rate)
        assert heuristic.expected_makespan >= optimum.expected_makespan - 1e-9
        # ... and stays within a modest factor of it.
        assert heuristic.expected_makespan <= optimum.expected_makespan * 1.05 + 1e-9

    @given(
        works=st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=8),
        rate=st.floats(min_value=1e-3, max_value=0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_expected_time_at_least_total_work(self, works, rate):
        result = schedule_independent_tasks(works, 1.0, 1.0, 0.0, rate)
        assert result.expected_makespan >= sum(works) - 1e-9
