"""Analytic solver kernels -- vectorized DP vs the scalar oracle.

The chain-checkpointing DP (Proposition 3), its budget-constrained variant
and the DAG linearize-then-place DP are NumPy array programs that share one
row-blocked kernel (one 2-D pass computes the segment costs of a block of DP
rows; the budget DP sweeps its whole budget axis per row).  The scalar loops
they replaced live on as the oracles of
:mod:`repro.analysis.reference_solvers`.  This benchmark times each public
solver against its oracle on the same instances and asserts, in-bench, that
the results are *exactly* equal -- same expected makespans, same checkpoint
positions -- so a speedup row can never hide a numerics regression.

Rows report ``reference_seconds``, ``vectorized_seconds``, the speedup and
the exact-equality flag; the CI bench-smoke job archives the ``--quick``
JSON like every other ``bench_*.py``.  Each row times its two paths with
``harness.paired_trials``: interleaved (reference, fast) pairs, every pair's
results compared, the seconds reported as medians and the speedup as the
median of the per-pair ratios.

The hot-kernel rows carry their own gates, asserted in-bench so CI fails if
an optimisation regresses below its claim:

* ``chain_dp``, ``budget_dp`` and ``dag_placement`` -- the row-blocked
  kernel against the scalar oracle, gated at ``CHAIN_DP_GATE``,
  ``BUDGET_DP_GATE`` and ``DAG_PLACEMENT_GATE`` over 3 paired trials.

* ``dag_frontier`` -- checkpoint placement under the frontier cost model,
  where the solver precomputes the order's liveness intervals once
  (``_FrontierCostTables``) instead of calling the Python model per DP cell
  as the oracle does; gated at >= 2x (measured two orders of magnitude).
* ``independent_local_search`` -- ``schedule_independent_tasks`` with the
  oracle's scalar search patched in vs the production search, which scores
  moves and swaps from a cached replacement-cost matrix; gated at >= 10x
  with equal values (the two may settle in different equal-quality
  partitions).
* ``chain_schedules`` -- the schedules of the four campaign strategies on one
  chain, each built, cut into segments and evaluated (failure-free time and
  expected makespan): the workflow-backed ``Schedule(...)`` constructor vs
  ``Schedule.for_chain``, which reads the chain's arrays and builds no graph;
  gated at >= 3x with bit-identical segments and values.
"""

from unittest import mock

import numpy as np
from harness import paired_trials

import repro.core.independent as independent
from repro.analysis import reference_solvers as oracle
from repro.baselines.strategies import evaluate_chain_strategies
from repro.core.chain_dp import (
    optimal_chain_checkpoints,
    optimal_chain_checkpoints_budget,
)
from repro.core.dag_scheduling import place_checkpoints_on_order
from repro.core.independent import schedule_independent_tasks
from repro.core.schedule import CheckpointPlan, Schedule
from repro.experiments.reporting import ResultTable
from repro.models.checkpoint import FrontierCheckpointCost
from repro.workflows.generators import uniform_random_chain

DOWNTIME = 0.5
RATE = 0.01
#: Gates of the row-blocked DP rows at the quick sizes, between what one NumPy
#: dispatch per DP row read and what the row-blocked kernel reads, so that a
#: fallback to per-row dispatch fails.  Medians (and ranges) of 9-15 repeated
#: 3-trial readings on a 2-core container, per-row -> row-blocked: chain
#: (n = 500) x22.6 (21.9-26.2) -> x62.3 (59.9-66.1); budget (n = 120, cap 30)
#: x73 (68-81) -> x166 (152-176); DAG placement (n = 150) x7.5 (7.1-7.8) ->
#: x25.2 (22.4-25.8).
CHAIN_DP_GATE = 30.0
BUDGET_DP_GATE = 110.0
DAG_PLACEMENT_GATE = 10.0
#: The strategies every perfbench campaign compares.
CAMPAIGN_STRATEGIES = ("optimal_dp", "checkpoint_all", "checkpoint_none", "daly_period")


def run_analytic_solver_benchmarks(
    *,
    chain_n: int = 500,
    budget_n: int = 200,
    budget_cap: int = 50,
    dag_n: int = 300,
    independent_n: int = 50,
    frontier_n: int = 160,
    schedule_n: int = 200,
    seed: int = 3,
) -> ResultTable:
    """Time oracle vs production for every analytic solver, checking equality."""
    table = ResultTable(
        title="Analytic solver kernels: scalar oracle vs vectorized NumPy DP",
        columns=[
            "solver", "n", "reference_seconds", "vectorized_seconds",
            "speedup", "exact_match",
        ],
    )

    def add_row(solver, n, build_ref, build_vec, same, *, min_speedup=None,
                trials=1):
        timing = paired_trials(solver, build_ref, build_vec, same, trials=trials)
        if min_speedup is not None and timing.ratio < min_speedup:
            raise AssertionError(
                f"{solver}: median speedup {timing.ratio:.2f}x over {trials} "
                f"paired trials is below the {min_speedup:.1f}x gate"
            )
        table.add_row(
            solver=solver,
            n=n,
            reference_seconds=timing.reference_seconds,
            vectorized_seconds=timing.fast_seconds,
            speedup=timing.ratio,
            exact_match=True,
        )

    def placements_equal(oracle_placement, result):
        return oracle_placement == (result.checkpoint_after, result.expected_makespan)

    chain = uniform_random_chain(chain_n, seed=seed)
    add_row(
        "chain_dp", chain_n,
        lambda: oracle.optimal_chain_checkpoints(chain, DOWNTIME, RATE),
        lambda: optimal_chain_checkpoints(chain, DOWNTIME, RATE),
        placements_equal,
        min_speedup=CHAIN_DP_GATE,
        trials=3,
    )

    budget_chain = uniform_random_chain(budget_n, seed=seed + 1)
    add_row(
        "budget_dp", budget_n,
        lambda: oracle.optimal_chain_checkpoints_budget(
            budget_chain, DOWNTIME, RATE, budget_cap
        ),
        lambda: optimal_chain_checkpoints_budget(
            budget_chain, DOWNTIME, RATE, budget_cap
        ),
        placements_equal,
        min_speedup=BUDGET_DP_GATE,
        trials=3,
    )

    dag = uniform_random_chain(dag_n, seed=seed + 2).to_workflow()
    order = dag.topological_order()
    add_row(
        "dag_placement", dag_n,
        lambda: oracle.place_checkpoints_on_order(dag, order, DOWNTIME, RATE),
        lambda: place_checkpoints_on_order(dag, order, DOWNTIME, RATE),
        lambda a, b: a == b,
        min_speedup=DAG_PLACEMENT_GATE,
        trials=3,
    )

    # Independent tasks: the oracle's search re-evaluates every candidate
    # move and swap in full; the production one reads each from the cached
    # replacement-cost matrix and refreshes only the rows of the two groups
    # an accepted step changed.  The searches may settle in different
    # (equal-quality) local optima when candidate improvements sit below one
    # ulp, so this row checks value agreement rather than identical
    # partitions.  Measured ~130x at n = 32 and ~600x at n = 50; the gate
    # catches a fallback to per-pair Python loops (the pair-block search
    # read ~4.5x at n = 32).
    works = list(np.random.default_rng(seed + 3).uniform(1.0, 10.0, size=independent_n))

    def with_oracle_search():
        with mock.patch.object(independent, "_local_search_vectorized", oracle.local_search):
            return schedule_independent_tasks(works, 1.0, 1.0, 0.0, 0.05)

    add_row(
        "independent_local_search", independent_n,
        with_oracle_search,
        lambda: schedule_independent_tasks(works, 1.0, 1.0, 0.0, 0.05),
        lambda a, b: abs(a.expected_makespan - b.expected_makespan)
        <= 1e-9 * a.expected_makespan,
        min_speedup=10.0,
        trials=3,
    )

    # Frontier cost model: the oracle calls the Python model per DP cell
    # (O(n^2) calls, each walking the liveness window); the solver
    # precomputes the order's liveness intervals once and fills each
    # row's checkpoint-cost vector with a masked NumPy pass.  The measured
    # gap is two to three orders of magnitude; the gate keeps generous noise
    # headroom while still catching a fallback to per-cell calls.
    frontier_dag = uniform_random_chain(frontier_n, seed=seed + 4).to_workflow()
    frontier_order = frontier_dag.topological_order()
    frontier_model = FrontierCheckpointCost(frontier_dag)
    add_row(
        "dag_frontier", frontier_n,
        lambda: oracle.place_checkpoints_on_order(
            frontier_dag, frontier_order, DOWNTIME, RATE,
            checkpoint_model=frontier_model,
        ),
        lambda: place_checkpoints_on_order(
            frontier_dag, frontier_order, DOWNTIME, RATE,
            checkpoint_model=frontier_model,
        ),
        lambda a, b: a == b,
        min_speedup=2.0,
        trials=3,
    )

    # Chain schedules: what a campaign builds per strategy before it
    # simulates.  The reference path builds each schedule over a Workflow of
    # validated Tasks and checks the order against its dependences;
    # Schedule.for_chain reads the chain's arrays.  Both run the same
    # segment loop and Prop. 1 sum, so segments, failure-free times and
    # expected makespans must be bit-identical.
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
        trials=5,
    )
    return table


def test_analytic_solver_speedups(benchmark, print_table):
    table = benchmark(
        run_analytic_solver_benchmarks,
        chain_n=500, budget_n=120, budget_cap=30, dag_n=150, independent_n=40,
        frontier_n=70,
        schedule_n=200,
    )
    print_table(table)
    assert all(row["exact_match"] for row in table.rows)
    chain_row = next(row for row in table.rows if row["solver"] == "chain_dp")
    assert chain_row["speedup"] >= CHAIN_DP_GATE


#: Parameter sets for script mode (the CI smoke job runs ``--quick``).  The
#: quick set keeps the 500-task chain: the acceptance claim is >= 5x on a
#: 500-task chain DP in a 1-core container.  The hot-kernel rows shrink in
#: quick mode but stay above their gates (frontier >= 2x, independent local
#: search >= 10x) with measured headroom; the chain-schedule row (>= 3x)
#: uses n = 200 there.
FULL_PARAMS = {
    "chain_n": 500, "budget_n": 200, "budget_cap": 50,
    "dag_n": 300, "independent_n": 50,
    "frontier_n": 160,
    "schedule_n": 1000,
    "seed": 3,
}
QUICK_PARAMS = {
    "chain_n": 500, "budget_n": 120, "budget_cap": 30,
    "dag_n": 150, "independent_n": 32,
    "frontier_n": 70,
    "schedule_n": 200,
    "seed": 3,
}

if __name__ == "__main__":  # pragma: no cover - exercised by the CI bench-smoke job
    from harness import run_cli

    raise SystemExit(run_cli(
        "bench_analytic_solvers", run_analytic_solver_benchmarks,
        quick_params=QUICK_PARAMS, full_params=FULL_PARAMS,
    ))
