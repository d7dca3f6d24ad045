"""Analytic solver kernels -- vectorized DP vs the scalar reference.

PR 5 turned the chain-checkpointing DP (Proposition 3), its budget-constrained
variant and the DAG linearize-then-place DP into NumPy array programs (one
closed-form transition vector per DP row, the whole budget axis per row for
the budget DP).  This benchmark times each solver both ways on the same
instances and asserts, in-bench, that the results are *exactly* equal --
same expected makespans, same checkpoint positions -- so a speedup row can
never hide a numerics regression.

Rows report ``reference_seconds``, ``vectorized_seconds``, the speedup and
the exact-equality flag; the CI bench-smoke job archives the ``--quick``
JSON like every other ``bench_*.py``.

The hot-kernel residue rows extend the table with their own gates, asserted
in-bench so CI fails if an optimisation regresses below its claim:

* ``dag_frontier`` -- checkpoint placement under the frontier cost model,
  where the vectorized path precomputes the order's liveness intervals once
  (``_FrontierCostTables``) instead of calling the Python model per DP cell;
  gated at >= 2x (measured two orders of magnitude).
* ``local_search_cache`` -- the incremental local search with per-group cost
  columns cached across rounds vs the same kernel re-evaluating every group
  each round, gated at >= 2x with bit-identical partitions.
* ``chain_schedules`` -- the schedules of the four campaign strategies on one
  chain, each built, cut into segments and evaluated (failure-free time and
  expected makespan): the workflow-backed ``Schedule(...)`` constructor vs
  ``Schedule.for_chain``, which reads the chain's arrays and builds no graph;
  gated at >= 3x with bit-identical segments and values.
"""

import time

import numpy as np

from repro.baselines.strategies import evaluate_chain_strategies
from repro.core.chain_dp import (
    optimal_chain_checkpoints,
    optimal_chain_checkpoints_budget,
)
from repro.core.dag_scheduling import place_checkpoints_on_order
from repro.core.independent import (
    _local_search_vectorized,
    balanced_grouping,
    schedule_independent_tasks,
)
from repro.core.schedule import CheckpointPlan, Schedule
from repro.experiments.reporting import ResultTable
from repro.models.checkpoint import FrontierCheckpointCost
from repro.workflows.generators import uniform_random_chain

DOWNTIME = 0.5
RATE = 0.01
#: The strategies every perfbench campaign compares.
CAMPAIGN_STRATEGIES = ("optimal_dp", "checkpoint_all", "checkpoint_none", "daly_period")


def _best_of(repeats, fn):
    best_seconds = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return result, best_seconds


def run_analytic_solver_benchmarks(
    *,
    chain_n: int = 500,
    budget_n: int = 200,
    budget_cap: int = 50,
    dag_n: int = 300,
    independent_n: int = 50,
    frontier_n: int = 160,
    cache_n: int = 400,
    cache_groups: int = 64,
    cache_iterations: int = 300,
    schedule_n: int = 200,
    seed: int = 3,
) -> ResultTable:
    """Time reference vs vectorized for every analytic solver, checking equality."""
    table = ResultTable(
        title="Analytic solver kernels: scalar reference vs vectorized NumPy DP",
        columns=[
            "solver", "n", "reference_seconds", "vectorized_seconds",
            "speedup", "exact_match",
        ],
    )

    def add_row(solver, n, build_ref, build_vec, same, *, min_speedup=None,
                repeats=1):
        ref_result, ref_seconds = _best_of(repeats, build_ref)
        vec_result, vec_seconds = _best_of(repeats, build_vec)
        match = same(ref_result, vec_result)
        if not match:
            raise AssertionError(
                f"{solver}: vectorized result diverges from the scalar reference"
            )
        speedup = ref_seconds / max(vec_seconds, 1e-12)
        if min_speedup is not None and speedup < min_speedup:
            raise AssertionError(
                f"{solver}: speedup {speedup:.2f}x is below the "
                f"{min_speedup:.1f}x gate"
            )
        table.add_row(
            solver=solver,
            n=n,
            reference_seconds=ref_seconds,
            vectorized_seconds=vec_seconds,
            speedup=speedup,
            exact_match=match,
        )

    def placements_equal(a, b):
        return (
            a.expected_makespan == b.expected_makespan
            and a.checkpoint_after == b.checkpoint_after
        )

    chain = uniform_random_chain(chain_n, seed=seed)
    add_row(
        "chain_dp", chain_n,
        lambda: optimal_chain_checkpoints(chain, DOWNTIME, RATE, method="reference"),
        lambda: optimal_chain_checkpoints(chain, DOWNTIME, RATE, method="vectorized"),
        placements_equal,
    )

    budget_chain = uniform_random_chain(budget_n, seed=seed + 1)
    add_row(
        "budget_dp", budget_n,
        lambda: optimal_chain_checkpoints_budget(
            budget_chain, DOWNTIME, RATE, budget_cap, method="reference"
        ),
        lambda: optimal_chain_checkpoints_budget(
            budget_chain, DOWNTIME, RATE, budget_cap, method="vectorized"
        ),
        placements_equal,
    )

    dag = uniform_random_chain(dag_n, seed=seed + 2).to_workflow()
    order = dag.topological_order()
    add_row(
        "dag_placement", dag_n,
        lambda: place_checkpoints_on_order(
            dag, order, DOWNTIME, RATE, method="reference"
        ),
        lambda: place_checkpoints_on_order(
            dag, order, DOWNTIME, RATE, method="vectorized"
        ),
        lambda a, b: a == b,
    )

    works = list(np.random.default_rng(seed + 3).uniform(1.0, 10.0, size=independent_n))
    add_row(
        "independent_local_search", independent_n,
        lambda: schedule_independent_tasks(
            works, 1.0, 1.0, 0.0, 0.05, method="reference"
        ),
        lambda: schedule_independent_tasks(
            works, 1.0, 1.0, 0.0, 0.05, method="vectorized"
        ),
        # The local searches may settle in different (equal-quality) local
        # optima when candidate improvements sit below one ulp, so this row
        # checks value agreement rather than identical partitions.
        lambda a, b: abs(a.expected_makespan - b.expected_makespan)
        <= 1e-9 * a.expected_makespan,
    )

    # Frontier cost model: the reference path calls the Python model per DP
    # cell (O(n^2) calls, each walking the liveness window); the vectorized
    # path precomputes the order's liveness intervals once and fills each
    # row's checkpoint-cost vector with a masked NumPy pass.  The measured
    # gap is two to three orders of magnitude; the gate keeps generous noise
    # headroom while still catching a fallback to per-cell calls.
    frontier_dag = uniform_random_chain(frontier_n, seed=seed + 4).to_workflow()
    frontier_order = frontier_dag.topological_order()
    frontier_model = FrontierCheckpointCost(frontier_dag)
    add_row(
        "dag_frontier", frontier_n,
        lambda: place_checkpoints_on_order(
            frontier_dag, frontier_order, DOWNTIME, RATE,
            checkpoint_model=frontier_model, method="reference",
        ),
        lambda: place_checkpoints_on_order(
            frontier_dag, frontier_order, DOWNTIME, RATE,
            checkpoint_model=frontier_model, method="vectorized",
        ),
        lambda a, b: a == b,
        min_speedup=2.0,
    )

    # Incremental local search: the same vectorized kernel with the per-group
    # cost-column cache on vs off.  With the cache, an accepted move dirties
    # exactly the two groups it touched; without it every round rebuilds all
    # m column blocks.  Per-block arithmetic is elementwise, so the two paths
    # are bit-identical -- partitions and values must match exactly.
    cache_works = list(
        np.random.default_rng(seed + 6).uniform(1.0, 10.0, size=cache_n)
    )
    cache_start = [
        list(g) for g in balanced_grouping(cache_works, cache_groups)
    ]
    add_row(
        "local_search_cache", cache_n,
        lambda: _local_search_vectorized(
            [list(g) for g in cache_start], cache_works, 1.0, 1.0, 0.5, 0.02,
            None, cache_iterations, use_cache=False,
        ),
        lambda: _local_search_vectorized(
            [list(g) for g in cache_start], cache_works, 1.0, 1.0, 0.5, 0.02,
            None, cache_iterations, use_cache=True,
        ),
        lambda a, b: a == b,
        min_speedup=2.0,
        repeats=3,
    )

    # Chain schedules: what a campaign builds per strategy before it
    # simulates.  The reference path builds each schedule over a networkx
    # Workflow of validated Tasks; Schedule.for_chain reads the chain's
    # arrays.  Both run the same segment loop, so segments, failure-free
    # times and expected makespans must be bit-identical.
    schedule_chain = uniform_random_chain(schedule_n, seed=seed + 7)
    placements = [
        result.checkpoint_after
        for result in evaluate_chain_strategies(
            schedule_chain, DOWNTIME, RATE, only=CAMPAIGN_STRATEGIES
        ).values()
    ]

    def evaluated(schedule):
        return (
            schedule.segments(),
            schedule.failure_free_time(),
            schedule.expected_makespan(DOWNTIME, RATE),
        )

    add_row(
        "chain_schedules", schedule_n,
        lambda: [
            evaluated(Schedule(
                schedule_chain.to_workflow(),
                list(schedule_chain.names),
                CheckpointPlan.from_positions(schedule_n, positions),
                initial_recovery=schedule_chain.initial_recovery,
            ))
            for positions in placements
        ],
        lambda: [
            evaluated(Schedule.for_chain(schedule_chain, positions))
            for positions in placements
        ],
        lambda a, b: a == b,
        min_speedup=3.0,
        repeats=5,
    )
    return table


def test_analytic_solver_speedups(benchmark, print_table):
    table = benchmark(
        run_analytic_solver_benchmarks,
        chain_n=300, budget_n=120, budget_cap=30, dag_n=150, independent_n=40,
        frontier_n=70,
        cache_n=320, cache_groups=48, cache_iterations=250,
        schedule_n=200,
    )
    print_table(table)
    assert all(row["exact_match"] for row in table.rows)
    chain_row = next(row for row in table.rows if row["solver"] == "chain_dp")
    assert chain_row["speedup"] > 1.0


#: Parameter sets for script mode (the CI smoke job runs ``--quick``).  The
#: quick set keeps the 500-task chain: the acceptance claim is >= 5x on a
#: 500-task chain DP in a 1-core container.  The hot-kernel rows shrink in
#: quick mode but stay above their gates (frontier >= 2x, cache >= 2x) with
#: measured headroom; the chain-schedule row (>= 3x) uses n = 200 there.
FULL_PARAMS = {
    "chain_n": 500, "budget_n": 200, "budget_cap": 50,
    "dag_n": 300, "independent_n": 50,
    "frontier_n": 160,
    "cache_n": 400, "cache_groups": 64, "cache_iterations": 300,
    "schedule_n": 1000,
    "seed": 3,
}
QUICK_PARAMS = {
    "chain_n": 500, "budget_n": 120, "budget_cap": 30,
    "dag_n": 150, "independent_n": 32,
    "frontier_n": 70,
    "cache_n": 320, "cache_groups": 48, "cache_iterations": 250,
    "schedule_n": 200,
    "seed": 3,
}

if __name__ == "__main__":  # pragma: no cover - exercised by the CI bench-smoke job
    from harness import run_cli

    raise SystemExit(run_cli(
        "bench_analytic_solvers", run_analytic_solver_benchmarks,
        quick_params=QUICK_PARAMS, full_params=FULL_PARAMS,
    ))
