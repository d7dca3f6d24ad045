"""The analytic solvers vs the scalar oracles of ``repro.analysis.reference_solvers``.

The contract under test is *exact* equality: the public solvers, which run on
the NumPy kernels of ``repro.core.dp_kernels`` at every size, must return the
same expected times (bit for bit) and the same checkpoint placements (same
first-lowest-index tie-breaking) as the oracle loops, on every instance --
including tie-heavy chains of identical tasks and overflow-prone regimes.
"""

import ast
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dag_scheduling as dag_scheduling
import repro.core.independent as independent
from repro.analysis import reference_solvers as oracle
from repro.baselines.strategies import evaluate_chain_strategies
from repro.core.chain_dp import (
    optimal_chain_checkpoints,
    optimal_chain_checkpoints_budget,
)
from repro.core.dag_scheduling import (
    LINEARIZATION_STRATEGIES,
    exhaustive_dag_schedule,
    linearize,
    place_checkpoints_on_order,
    schedule_dag,
)
from repro.core.independent import (
    MAX_PARTITION_ITEMS,
    exhaustive_independent_schedule,
    grouping_expected_time,
    schedule_independent_tasks,
)
from repro.experiments.registry import run_experiment
from repro.models.checkpoint import FrontierCheckpointCost
from repro.workflows.chain import LinearChain
from repro.workflows.generators import (
    fork_join,
    montage_like,
    uniform_random_chain,
)


@st.composite
def chains(draw, max_n=40):
    """Random chains of 1 to ``max_n`` tasks."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    works = draw(
        st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=n, max_size=n)
    )
    ckpts = draw(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n)
    )
    recs = draw(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n)
    )
    initial = draw(st.floats(min_value=0.0, max_value=3.0))
    return LinearChain(
        works=works, checkpoint_costs=ckpts, recovery_costs=recs, initial_recovery=initial
    )


rates = st.floats(min_value=1e-4, max_value=0.3)
downtimes = st.floats(min_value=0.0, max_value=3.0)


def outcome(solve, *args, **kwargs):
    """``(positions, value)`` of a solve, or ``OverflowError`` when it raises one.

    Public solvers and oracles compare equal when both raise, or when both
    return the same positions and bit-identical expected time.
    """
    try:
        result = solve(*args, **kwargs)
    except OverflowError:
        return OverflowError
    if isinstance(result, tuple):
        return result
    return result.checkpoint_after, result.expected_makespan


class TestChainDPKernelExactness:
    @given(chain=chains(), rate=rates, downtime=downtimes, final=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_vectorized_equals_reference(self, chain, rate, downtime, final):
        assert outcome(
            optimal_chain_checkpoints, chain, downtime, rate, final_checkpoint=final
        ) == outcome(
            oracle.optimal_chain_checkpoints, chain, downtime, rate, final_checkpoint=final
        )

    @given(
        chain=chains(),
        rate=rates,
        downtime=downtimes,
        final=st.booleans(),
        budget=st.integers(min_value=1, max_value=45),
    )
    @settings(max_examples=120, deadline=None)
    def test_budget_vectorized_equals_reference(
        self, chain, rate, downtime, final, budget
    ):
        assert outcome(
            optimal_chain_checkpoints_budget, chain, downtime, rate, budget,
            final_checkpoint=final,
        ) == outcome(
            oracle.optimal_chain_checkpoints_budget, chain, downtime, rate, budget,
            final_checkpoint=final,
        )

    @pytest.mark.parametrize("n", [2, 6, 8, 30])
    @pytest.mark.parametrize("rate", [1e-3, 0.05, 0.2])
    def test_tie_heavy_identical_tasks_break_ties_identically(self, n, rate):
        # Chains of identical tasks create exact value ties between different
        # segment ends; the solvers must keep the oracle's first (lowest-index)
        # choice.
        chain = LinearChain.uniform(n, work=2.0, checkpoint_cost=0.5)
        for final in (True, False):
            assert outcome(
                optimal_chain_checkpoints, chain, 0.5, rate, final_checkpoint=final
            ) == oracle.optimal_chain_checkpoints(chain, 0.5, rate, final_checkpoint=final)
        for budget in (1, max(1, n // 2), n):
            assert outcome(
                optimal_chain_checkpoints_budget, chain, 0.5, rate, budget
            ) == oracle.optimal_chain_checkpoints_budget(chain, 0.5, rate, budget)

    def test_overflow_prone_segments_map_to_inf_identically(self):
        # Long uncheckpointed tails overflow the Prop. 1 expectation; the
        # kernel must treat those transitions as +inf, as the oracle does.
        chain = LinearChain.uniform(40, work=60.0, checkpoint_cost=1.0)
        assert outcome(
            optimal_chain_checkpoints, chain, 1.0, 0.4
        ) == oracle.optimal_chain_checkpoints(chain, 1.0, 0.4)

    def test_fully_overflowing_instance_raises_on_both_paths(self):
        chain = LinearChain.uniform(3, work=1000.0, checkpoint_cost=1.0)
        for solve in (optimal_chain_checkpoints, oracle.optimal_chain_checkpoints):
            with pytest.raises(OverflowError):
                solve(chain, 0.0, 1.0)


@st.composite
def dag_cases(draw):
    """A workflow, a linearisation and a cost model for the placement DP."""
    kind = draw(st.sampled_from(["fork_join", "montage", "chain"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "fork_join":
        workflow = fork_join(
            draw(st.integers(min_value=2, max_value=8)),
            branch_work=draw(st.floats(min_value=1.0, max_value=8.0)),
            checkpoint_cost=draw(st.floats(min_value=0.1, max_value=2.0)),
            seed=seed,
        )
    elif kind == "montage":
        workflow = montage_like(
            draw(st.integers(min_value=2, max_value=5)),
            checkpoint_cost=draw(st.floats(min_value=0.1, max_value=2.0)),
        )
    else:
        workflow = uniform_random_chain(
            draw(st.integers(min_value=1, max_value=30)), seed=seed
        ).to_workflow()
    strategy = draw(st.sampled_from(sorted(LINEARIZATION_STRATEGIES)))
    rng = np.random.default_rng(seed)
    order = linearize(workflow, strategy, rng=rng)
    frontier = draw(st.booleans())
    model = FrontierCheckpointCost(workflow) if frontier else None
    return workflow, order, model


class TestDagPlacementKernelExactness:
    @given(
        case=dag_cases(),
        rate=rates,
        downtime=downtimes,
        final=st.booleans(),
        initial_recovery=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_vectorized_equals_reference_on_any_order(
        self, case, rate, downtime, final, initial_recovery
    ):
        workflow, order, model = case
        kwargs = dict(
            initial_recovery=initial_recovery, checkpoint_model=model,
            final_checkpoint=final,
        )
        assert outcome(
            place_checkpoints_on_order, workflow, order, downtime, rate, **kwargs
        ) == outcome(
            oracle.place_checkpoints_on_order, workflow, order, downtime, rate, **kwargs
        )

    # The DAG solvers place checkpoints through place_checkpoints_on_order;
    # patching the oracle in runs them on the scalar loops.
    @pytest.mark.parametrize("model_kind", ["per_task", "frontier"])
    def test_schedule_dag_identical_across_methods(self, model_kind):
        workflow = fork_join(6, branch_work=4.0, checkpoint_cost=0.5, seed=2)
        model = FrontierCheckpointCost(workflow) if model_kind == "frontier" else None
        vec = schedule_dag(workflow, 0.2, 0.05, checkpoint_model=model, seed=9)
        with mock.patch.object(
            dag_scheduling, "place_checkpoints_on_order", oracle.place_checkpoints_on_order
        ):
            ref = schedule_dag(workflow, 0.2, 0.05, checkpoint_model=model, seed=9)
        assert ref.order == vec.order
        assert ref.checkpoint_after == vec.checkpoint_after
        assert ref.expected_makespan == vec.expected_makespan
        assert ref.strategy == vec.strategy

    def test_exhaustive_dag_schedule_identical_across_methods(self):
        workflow = montage_like(3, checkpoint_cost=0.4)
        vec = exhaustive_dag_schedule(workflow, 0.2, 0.05)
        with mock.patch.object(
            dag_scheduling, "place_checkpoints_on_order", oracle.place_checkpoints_on_order
        ):
            ref = exhaustive_dag_schedule(workflow, 0.2, 0.05)
        assert ref.order == vec.order
        assert ref.checkpoint_after == vec.checkpoint_after
        assert ref.expected_makespan == vec.expected_makespan


class TestIndependentFastLocalSearch:
    # The cached-cost local search explores the same first-improvement
    # neighbourhood in the same order, but candidate improvements below one
    # ulp may be classified differently than the oracle's full
    # re-evaluation, so the two can settle in different equal-quality local
    # optima; the contract is value agreement, not identical partitions.

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fast_matches_reference_quality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 50))
        works = list(rng.uniform(1.0, 10.0, size=n))
        # The whole heuristic on the oracle's scalar local search.
        with mock.patch.object(
            independent, "_local_search_vectorized", oracle.local_search
        ):
            ref = schedule_independent_tasks(works, 1.0, 1.0, 0.0, 0.05)
        fast = schedule_independent_tasks(works, 1.0, 1.0, 0.0, 0.05)
        assert fast.expected_makespan == pytest.approx(
            ref.expected_makespan, rel=1e-9
        )
        # The fast result is a valid partition whose recomputed value matches.
        recomputed = grouping_expected_time(
            fast.groups, works, 1.0, 1.0, 0.0, 0.05
        )
        assert recomputed == fast.expected_makespan

    def test_fast_dominates_trivial_groupings_with_initial_recovery(self):
        rng = np.random.default_rng(11)
        works = list(rng.uniform(1.0, 8.0, size=30))
        fast = schedule_independent_tasks(
            works, 0.8, 1.2, 0.5, 0.04, initial_recovery=2.5
        )
        one_group = grouping_expected_time(
            [list(range(30))], works, 0.8, 1.2, 0.5, 0.04, initial_recovery=2.5
        )
        singletons = grouping_expected_time(
            [[i] for i in range(30)], works, 0.8, 1.2, 0.5, 0.04, initial_recovery=2.5
        )
        assert fast.expected_makespan <= one_group + 1e-9
        assert fast.expected_makespan <= singletons + 1e-9

    def test_small_instances_use_reference_and_match_exhaustive(self):
        # (The name predates the single search path; kept so the test id
        # stays stable.)  A 7-task instance runs the cached-cost search.
        rng = np.random.default_rng(5)
        works = list(rng.uniform(1.0, 10.0, size=7))
        heuristic = schedule_independent_tasks(works, 1.0, 1.0, 0.0, 0.05)
        exact = exhaustive_independent_schedule(works, 1.0, 1.0, 0.0, 0.05)
        assert heuristic.expected_makespan <= exact.expected_makespan * (1 + 1e-2)


class TestSetPartitionCap:
    def test_cap_raises_clear_error(self):
        works = [1.0] * (MAX_PARTITION_ITEMS + 1)
        with pytest.raises(ValueError) as excinfo:
            exhaustive_independent_schedule(works, 1.0, 1.0, 0.0, 0.05)
        message = str(excinfo.value)
        assert str(MAX_PARTITION_ITEMS) in message
        assert "schedule_independent_tasks" in message

    def test_cap_boundary_is_enumerable(self):
        from repro.core.independent import _set_partitions

        # Exactly at the cap the generator must still be constructible (we
        # only pull one partition; full enumeration at 13 items is minutes).
        first = next(iter(_set_partitions(list(range(MAX_PARTITION_ITEMS)))))
        assert sum(len(block) for block in first) == MAX_PARTITION_ITEMS


class TestExperimentRegressions:
    """E3/E6 outputs equal the scalar oracle's (the seed algorithm)."""

    def test_e3_outputs_unchanged_by_vectorization(self):
        table = run_experiment(
            "E3", brute_force_sizes=(4, 6), scaling_sizes=(30, 60), seed=1
        )
        # Rebuild E3's chains and solve each with the oracle.
        rng = np.random.default_rng(1)
        for row in table.rows:
            chain = uniform_random_chain(row["n"], rng=rng)
            positions, value = oracle.optimal_chain_checkpoints(chain, 0.5, 0.02)
            assert row["E_dp"] == value
            assert row["num_checkpoints"] == len(positions)
            if row["mode"] == "exactness":
                assert row["match"] == math.isclose(
                    value, row["E_bruteforce"], rel_tol=1e-9
                )

    def test_e6_outputs_unchanged_by_vectorization(self):
        n, seed, downtime = 40, 3, 0.5
        table = run_experiment("E6", n=n, seed=seed, downtime=downtime)
        # Rebuild E6's chain and recompute each row's optimum and ratios with
        # the oracle.
        rng = np.random.default_rng(seed)
        chain = uniform_random_chain(
            n, work_range=(1.0, 10.0), checkpoint_range=(0.5, 2.0), rng=rng
        )
        for row in table.rows:
            results = evaluate_chain_strategies(chain, downtime, row["rate"])
            positions, optimal = oracle.optimal_chain_checkpoints(
                chain, downtime, row["rate"]
            )
            assert row["E_optimal"] == optimal
            assert row["optimal_checkpoints"] == len(positions)
            assert row["ratio_all"] == (
                results["checkpoint_all"].expected_makespan / optimal
            )
            assert row["ratio_every_5"] == (
                results["every_5"].expected_makespan / optimal
            )


class TestStrategySubsets:
    def test_only_restricts_evaluation(self):
        chain = uniform_random_chain(10, seed=4)
        subset = evaluate_chain_strategies(
            chain, 0.5, 0.02, only=("checkpoint_all", "checkpoint_none")
        )
        assert sorted(subset) == ["checkpoint_all", "checkpoint_none"]
        full = evaluate_chain_strategies(chain, 0.5, 0.02)
        for name, result in subset.items():
            assert result.expected_makespan == full[name].expected_makespan
            assert result.checkpoint_after == full[name].checkpoint_after

    def test_only_unknown_name_raises_with_catalog(self):
        chain = uniform_random_chain(5, seed=4)
        with pytest.raises(KeyError, match="optimal_dp"):
            evaluate_chain_strategies(chain, 0.5, 0.02, only=("no_such_strategy",))

    def test_method_reference_matches_default(self):
        chain = uniform_random_chain(30, seed=6)
        default = evaluate_chain_strategies(chain, 0.5, 0.02)
        assert outcome(lambda: default["optimal_dp"]) == (
            oracle.optimal_chain_checkpoints(chain, 0.5, 0.02)
        )


class TestExpectedTimeUfuncConsistency:
    def test_scalar_formula_matches_array_ufuncs(self):
        # The exactness contract rests on expected_completion_time sharing
        # NumPy's exp/expm1: spot-check the scalar result against an explicit
        # array-side evaluation of the same expression.
        from repro.core.expected_time import expected_completion_time

        rng = np.random.default_rng(8)
        works = rng.uniform(0.1, 200.0, size=200)
        rate, downtime, recovery, ckpt = 0.03, 0.7, 4.0, 1.5
        factor = float(np.exp(rate * recovery)) * (1.0 / rate + downtime)
        array_side = factor * np.expm1(rate * (works + ckpt))
        for work, expected in zip(works, array_side):
            assert (
                expected_completion_time(float(work), ckpt, downtime, recovery, rate)
                == expected
            )

    def test_makespan_value_is_finite_and_stable(self):
        # Guards against accidental numerics drift against the oracle.  Kept
        # at rel 1e-12 so a legitimate 1-ulp library shift does not make it
        # brittle.
        chain = uniform_random_chain(50, seed=2)
        result = optimal_chain_checkpoints(chain, 0.5, 0.02)
        assert math.isfinite(result.expected_makespan)
        assert result.expected_makespan == pytest.approx(
            oracle.optimal_chain_checkpoints(chain, 0.5, 0.02)[1], rel=1e-12,
        )


class TestRowBlockSeams:
    """The row-blocked kernel equals the oracles across many block seams.

    Patching the block caps makes every block 1, 3 or 7 rows high (or lets a
    tiny cell budget set the height), so each instance crosses many seams
    between the known columns and the in-block triangle.
    """

    @pytest.fixture(params=[(1, 1 << 15), (3, 1 << 15), (7, 1 << 15), (32, 40)])
    def blocks(self, request, monkeypatch):
        import repro.core.dp_kernels as kernels

        rows, cells = request.param
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", cells)
        return rows

    def _chains(self):
        rng = np.random.default_rng(17)
        yield LinearChain.uniform(23, work=2.0, checkpoint_cost=0.5)
        ints = rng.integers(1, 3, size=30).astype(float).tolist()
        yield LinearChain(works=ints, checkpoint_costs=[1.0] * 30, recovery_costs=[1.0] * 30)
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 33, 41):
            yield uniform_random_chain(n, seed=n)
        # Known columns all +inf under a finite triangle (at rate 40 only
        # one-task segments stay finite), and the reverse (checkpoints that
        # overflow everywhere but at the last column of each 7-row block).
        yield LinearChain.uniform(20, work=10.0, checkpoint_cost=0.1)
        yield LinearChain(
            works=[1.0] * 28, recovery_costs=[0.5] * 28,
            checkpoint_costs=[0.1 if j % 7 == 6 else 5000.0 for j in range(28)],
        )
        # Rows whose factor overflows (lambda * R > 600): first, middle, last.
        recs = [0.5] * 20
        for index in (0, 9, 18):
            recs[index] = 1000.0
        yield LinearChain(
            works=rng.uniform(0.5, 3.0, 20).tolist(), checkpoint_costs=[0.3] * 20,
            recovery_costs=recs, initial_recovery=1000.0,
        )

    @pytest.mark.parametrize("rate", [1e-3, 0.2, 40.0])
    def test_chain_and_budget_equal_reference(self, blocks, rate):
        for chain in self._chains():
            for final in (True, False):
                assert outcome(
                    optimal_chain_checkpoints, chain, 0.5, rate, final_checkpoint=final
                ) == outcome(
                    oracle.optimal_chain_checkpoints, chain, 0.5, rate,
                    final_checkpoint=final,
                )
                for cap in sorted({int(final), 1, 2, max(chain.n // 2, 1), chain.n}):
                    assert outcome(
                        optimal_chain_checkpoints_budget, chain, 0.5, rate, cap,
                        final_checkpoint=final,
                    ) == outcome(
                        oracle.optimal_chain_checkpoints_budget, chain, 0.5, rate, cap,
                        final_checkpoint=final,
                    )

    @pytest.mark.parametrize("combine", [None, sum, "widest_plus_tax"])
    def test_dag_placement_equals_reference(self, blocks, combine):
        # None is the base cost model; sum runs the frontier tables; a custom
        # combine fills every block row by row through the model.
        workflow = fork_join(9, branch_work=3.0, checkpoint_cost=0.4, seed=3)
        if combine == "widest_plus_tax":
            combine = lambda costs: max(costs) + 0.01 * len(costs)  # noqa: E731
        model = None if combine is None else FrontierCheckpointCost(workflow, combine=combine)
        for strategy in sorted(LINEARIZATION_STRATEGIES):
            order = linearize(workflow, strategy, rng=np.random.default_rng(5))
            for rate in (0.01, 0.3):
                for final in (True, False):
                    results = [
                        solve(
                            workflow, order, 0.2, rate, checkpoint_model=model,
                            final_checkpoint=final,
                        )
                        for solve in (
                            oracle.place_checkpoints_on_order, place_checkpoints_on_order
                        )
                    ]
                    assert results[0] == results[1]

    def test_every_candidate_overflowing_picks_the_last_position(self):
        from repro.core.chain_dp import _kernel_arrays
        from repro.core.dp_kernels import chain_dp_tables

        chain = LinearChain.uniform(40, work=100.0, checkpoint_cost=1.0)
        best, choice = chain_dp_tables(*_kernel_arrays(chain), 0.0, 10.0)
        assert np.isinf(best[:40]).all()
        assert (choice == 39).all()


class TestListScheduleHeap:
    """The heap-based list scheduler pops the order of a sort per pick."""

    @staticmethod
    def _sorted_list_schedule(workflow, priority):
        remaining = {name: len(workflow.predecessors(name)) for name in workflow}
        ready = sorted(n for n, deg in remaining.items() if deg == 0)
        order = []
        while ready:
            ready.sort(key=lambda name: (priority(name), name))
            chosen = ready.pop(0)
            order.append(chosen)
            for succ in workflow.successors(chosen):
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.append(succ)
        return order

    @pytest.mark.parametrize("seed", range(6))
    def test_orders_match_the_sorting_oracle(self, seed, monkeypatch):
        import repro.core.dag_scheduling as dag_scheduling
        from repro.workflows.generators import random_layered_dag

        workflow = random_layered_dag(4, 5, seed=seed)
        for strategy in sorted(LINEARIZATION_STRATEGIES):
            fast = linearize(workflow, strategy, rng=np.random.default_rng(seed))
            monkeypatch.setattr(dag_scheduling, "_list_schedule", self._sorted_list_schedule)
            slow = linearize(workflow, strategy, rng=np.random.default_rng(seed))
            monkeypatch.undo()
            assert fast == slow
        # Tied priorities: every task has the same work, so names decide.
        tied = fork_join(7, branch_work=2.0, checkpoint_cost=0.5, seed=seed)
        priority = lambda name: 1.0  # noqa: E731
        assert dag_scheduling._list_schedule(tied, priority) == (
            self._sorted_list_schedule(tied, priority)
        )


def test_independent_value_is_the_value_of_its_groups():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(60):
        n = int(rng.integers(6, 61))
        m = int(rng.integers(1, n // 2))
        works = rng.uniform(0.5, 12.0, size=n).tolist()
        result = schedule_independent_tasks(works, 1.0, 0.8, 0.4, 0.03, group_counts=[m])
        value = grouping_expected_time(result.groups, works, 1.0, 0.8, 0.4, 0.03)
        mismatches += value != result.expected_makespan
    assert mismatches == 0


def test_oracle_module_stays_out_of_production():
    """``import repro`` leaves the oracles unloaded, and no production module imports them."""
    src = pathlib.Path(independent.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('repro.analysis.reference_solvers' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.strip() == "False"
    offenders = []
    for package in ("core", "baselines", "experiments", "runtime", "simulation", "service"):
        for path in sorted((src / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                    names.append(str(node.module))
                else:
                    continue
                if any(name.endswith("reference_solvers") for name in names):
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []
