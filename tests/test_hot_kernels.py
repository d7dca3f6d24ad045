"""Property sweeps pinning the hot-kernel optimisations to their references.

Each fast kernel keeps its outputs bit-for-bit (or, for the local search,
value-) identical to a reference:

* the fused Poisson compare+advance veteran round
  (:func:`repro.simulation.vectorized.simulate_poisson_batch`) vs the
  lock-step kernel and the scalar event loop;
* the budget DP table kernel vs the scalar oracle of
  :mod:`repro.analysis.reference_solvers`, including the ``budget=0`` /
  ``final_checkpoint=False`` edges;
* value agreement of the matrix local search with the oracle's scalar
  search (its bit-identity with the pair-block search it replaced is pinned
  in tests/test_independent_search.py), alone and inside the whole
  heuristic at every size from 2 to 17 tasks;
* the precomputed frontier tables in
  :func:`repro.core.dag_scheduling.place_checkpoints_on_order` vs the
  oracle's per-cell Python model calls, including custom ``combine``
  callables (which keep the per-call path) and the empty-DAG edge.

Each sweep runs many randomized seeds and shapes: these kernels' contracts
are exactness claims, so a single lucky instance proves nothing.
"""

from unittest import mock

import numpy as np
import pytest

import repro.core.independent as independent
from repro.analysis import reference_solvers as oracle
from repro.core.chain_dp import optimal_chain_checkpoints_budget
from repro.core.dag_scheduling import linearize, place_checkpoints_on_order
from repro.core.independent import (
    _local_search_vectorized,
    balanced_grouping,
    grouping_expected_time,
    schedule_independent_tasks,
)
from repro.core.schedule import Schedule
from repro.models.checkpoint import FrontierCheckpointCost
from repro.simulation.executor import simulate_segments
from repro.simulation.vectorized import (
    PlannedExponentialDelays,
    PlannedPoissonSource,
    simulate_poisson_batch,
    simulate_poisson_batch_lockstep,
)
from repro.workflows.dag import Workflow
from repro.workflows.generators import (
    fork_join,
    montage_like,
    random_layered_dag,
    uniform_random_chain,
)

DOWNTIME = 0.5
RATE = 0.01


def _segments(n: int, seed: int):
    chain = uniform_random_chain(
        n, work_range=(2.0, 9.0), checkpoint_range=(0.3, 1.2),
        rng=np.random.default_rng(seed),
    )
    return Schedule.for_chain(chain, range(n)).segments()


def _batch_fields(batch):
    return (
        batch.makespans, batch.num_failures, batch.wasted_times,
        batch.useful_times, batch.recovery_attempts,
    )


class TestFusedPoissonSweep:
    """The fused veteran round is bit-identical to lock-step and scalar.

    The sweep spans the moderate-failure regime the fusion targets (a
    handful of failures per replication, where the pre-fusion kernel fell
    back to lock-step pacing) as well as rare- and dense-failure shapes,
    with random windows forcing mid-chain round boundaries.
    """

    # (chain length, expected failures per replication, downtime, batch size)
    SHAPES = [
        (5, 0.3, 0.5, 24),
        (16, 1.5, 0.0, 32),
        (33, 2.5, 1.0, 24),
        (64, 4.0, 0.25, 16),
        (128, 0.05, 0.5, 16),
        (9, 8.0, 0.75, 24),
    ]

    @pytest.mark.parametrize("n,expected_failures,downtime,count", SHAPES)
    @pytest.mark.parametrize("seed", [1, 12, 123])
    def test_fused_jump_matches_lockstep_and_scalar(
        self, n, expected_failures, downtime, count, seed
    ):
        segments = _segments(n, seed)
        length = sum(s.work + s.checkpoint_cost for s in segments)
        rate = expected_failures / length
        rng = np.random.default_rng(seed + 1000)
        window = int(rng.integers(1, n + 2))

        def plan():
            return PlannedExponentialDelays(
                np.random.default_rng(seed), 1.0 / rate, count,
                first_rounds=n + 4,
            )

        jump = simulate_poisson_batch(
            segments, rate, downtime, None, count, plan=plan(), method="jump"
        )
        lock = simulate_poisson_batch_lockstep(
            segments, rate, downtime, None, count, plan=plan()
        )
        auto = simulate_poisson_batch(
            segments, rate, downtime, None, count, plan=plan()
        )
        capped = simulate_poisson_batch(
            segments, rate, downtime, None, count, plan=plan(), window=window
        )
        for j, lk, a, c in zip(
            _batch_fields(jump), _batch_fields(lock),
            _batch_fields(auto), _batch_fields(capped),
        ):
            np.testing.assert_array_equal(j, lk)
            np.testing.assert_array_equal(j, a)
            np.testing.assert_array_equal(j, c)

        # Scalar event-loop spot checks: first, middle and last replication.
        shared = plan()
        for index in (0, count // 2, count - 1):
            scalar = simulate_segments(
                segments, PlannedPoissonSource(shared, index), downtime
            )
            assert scalar.makespan == jump.makespans[index]
            assert scalar.num_failures == jump.num_failures[index]
            assert scalar.wasted_time == jump.wasted_times[index]
            assert scalar.num_recovery_attempts == jump.recovery_attempts[index]


class TestStreamingBudgetDPSweep:
    """The budget DP table kernel reproduces the oracle bit-for-bit.

    Covers what the hypothesis suite in ``test_analytic_kernels.py`` does not
    reach: ``n = 60``, budgets above ``n`` and budget 0 without a final
    checkpoint.  (The class and test names predate the removal of a
    streaming variant of the kernel; they are kept so test ids stay stable.)
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 7, 23, 60])
    def test_streaming_matches_reference(self, n, seed):
        chain = uniform_random_chain(n, seed=seed)
        rng = np.random.default_rng(seed + 77)
        caps = {1, 2, max(n // 2, 1), n, n + 3, int(rng.integers(1, n + 2))}
        for cap in sorted(caps):
            for final_checkpoint in (True, False):
                positions, value = oracle.optimal_chain_checkpoints_budget(
                    chain, DOWNTIME, RATE, cap, final_checkpoint=final_checkpoint,
                )
                table = optimal_chain_checkpoints_budget(
                    chain, DOWNTIME, RATE, cap, final_checkpoint=final_checkpoint,
                )
                assert table.expected_makespan == value
                assert table.checkpoint_after == positions

    def test_zero_budget_edge(self):
        # budget=0 is only legal without a mandatory final checkpoint; the
        # table kernel must agree that no checkpoints is the only plan.
        chain = uniform_random_chain(9, seed=5)
        positions, value = oracle.optimal_chain_checkpoints_budget(
            chain, DOWNTIME, RATE, 0, final_checkpoint=False
        )
        table = optimal_chain_checkpoints_budget(
            chain, DOWNTIME, RATE, 0, final_checkpoint=False
        )
        assert table.checkpoint_after == positions == ()
        assert table.expected_makespan == value

    @pytest.mark.parametrize("method", ["streaming", "table"])
    def test_unknown_method_is_rejected(self, method):
        # The solver has one path: any ``method=`` is an unexpected keyword.
        chain = uniform_random_chain(9, seed=5)
        with pytest.raises(TypeError, match="method"):
            optimal_chain_checkpoints_budget(chain, DOWNTIME, RATE, 3, method=method)


class TestCachedLocalSearchSweep:
    """The matrix local search agrees with the oracle's scalar search in value.

    Sub-ulp deltas can steer the two into different equal-quality optima
    (see tests/test_analytic_kernels.py), so the contract is value agreement.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_value_agreement_with_reference_search(self, seed):
        rng = np.random.default_rng(seed + 50)
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, max(n // 3, 2)))
        works = list(rng.uniform(0.5, 12.0, size=n))
        start = [list(g) for g in balanced_grouping(works, m)]
        args = (works, 1.0, 0.8, 0.4, 0.03, None, 120)
        fast_groups, fast_value = _local_search_vectorized(
            [list(g) for g in start], *args
        )
        ref_groups, ref_value = oracle.local_search([list(g) for g in start], *args)
        assert fast_value == pytest.approx(ref_value, rel=1e-9)
        # Whatever partition each settles in, the reported value must be the
        # true expected makespan of a real partition of all n tasks.
        assert sorted(i for g in fast_groups for i in g) == list(range(n))
        recomputed = grouping_expected_time(
            [sorted(g) for g in fast_groups if g], works, 1.0, 0.8, 0.4, 0.03
        )
        assert fast_value == pytest.approx(recomputed, rel=1e-12)

    @pytest.mark.parametrize("initial_recovery", [None, 2.5])
    @pytest.mark.parametrize("works_kind", ["uniform", "ones_and_twos"])
    def test_heuristic_agrees_with_the_oracle_search_on_small_instances(
        self, works_kind, initial_recovery
    ):
        # The whole heuristic on the production search and with the oracle's
        # search patched in, at every size from 2 to 17 tasks.  Integer works
        # make exact ties between partitions.
        rng = np.random.default_rng(401 if works_kind == "uniform" else 402)
        for n in range(2, 18):
            if works_kind == "uniform":
                works = rng.uniform(0.5, 12.0, size=n).tolist()
            else:
                works = rng.integers(1, 3, size=n).astype(float).tolist()
            rate = float(rng.uniform(0.01, 0.1))
            args = (works, 1.0, 0.8, 0.4, rate)
            fast = schedule_independent_tasks(*args, initial_recovery=initial_recovery)
            with mock.patch.object(
                independent, "_local_search_vectorized", oracle.local_search
            ):
                ref = schedule_independent_tasks(*args, initial_recovery=initial_recovery)
            assert abs(fast.expected_makespan - ref.expected_makespan) <= (
                1e-15 * ref.expected_makespan
            )
            for result in (fast, ref):
                assert sorted(i for g in result.groups for i in g) == list(range(n))


class TestFrontierPrecomputeSweep:
    """Precomputed liveness tables reproduce per-cell model calls exactly."""

    def _workflows(self, seed):
        return [
            fork_join(5, branch_work=3.0, checkpoint_cost=0.4, seed=seed),
            montage_like(3, checkpoint_cost=0.3),
            random_layered_dag(3, 4, seed=seed),
            uniform_random_chain(12, seed=seed).to_workflow(),
        ]

    @pytest.mark.parametrize("seed", [2, 21])
    @pytest.mark.parametrize("combine_name", ["sum", "max"])
    def test_precomputed_matches_reference(self, seed, combine_name):
        combine = {"sum": sum, "max": max}[combine_name]
        rng = np.random.default_rng(seed)
        for workflow in self._workflows(seed):
            model = FrontierCheckpointCost(workflow, combine=combine)
            for order in (
                workflow.topological_order(),
                linearize(workflow, "random", rng=rng),
            ):
                for rate in (0.01, 0.2):
                    reference = oracle.place_checkpoints_on_order(
                        workflow, order, DOWNTIME, rate, checkpoint_model=model,
                    )
                    vectorized = place_checkpoints_on_order(
                        workflow, order, DOWNTIME, rate, checkpoint_model=model,
                    )
                    assert vectorized == reference

    def test_custom_combine_keeps_per_call_path_and_matches(self):
        # A custom callable cannot be replayed by the tables, so the
        # kernel takes per-call costs -- still exact.
        def widest_plus_tax(costs):
            return max(costs) + 0.01 * len(costs)

        workflow = montage_like(3, checkpoint_cost=0.3)
        order = workflow.topological_order()
        model = FrontierCheckpointCost(workflow, combine=widest_plus_tax)
        reference = oracle.place_checkpoints_on_order(
            workflow, order, DOWNTIME, 0.05, checkpoint_model=model,
        )
        vectorized = place_checkpoints_on_order(
            workflow, order, DOWNTIME, 0.05, checkpoint_model=model,
        )
        assert vectorized == reference

    def test_empty_dag_edge(self):
        empty = Workflow([], [])
        for solve in (oracle.place_checkpoints_on_order, place_checkpoints_on_order):
            positions, makespan = solve(empty, [], DOWNTIME, RATE)
            assert positions == ()
            assert makespan == 0.0
