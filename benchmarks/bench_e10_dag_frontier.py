"""E10 -- Frontier-dependent checkpoint costs on DAG linearisations (Section 6, ext. 1).

Regenerates the comparison between the paper's base cost model (a checkpoint
costs the C of the task just executed) and the generalised frontier model (a
checkpoint must save every live task executed since the previous checkpoint).

Shape expected:
* on DAGs with wide fan-out (fork-join, Montage), the frontier model makes
  mid-fan-out checkpoints more expensive, so the expected makespan under it is
  at least as large as under the base model for the same instance;
* the heuristic scheduler stays close to the exhaustive optimum on the small
  fork-join instance where enumeration is feasible.
"""

import pytest

from repro.analysis import reference_solvers as oracle
from repro.core.dag_scheduling import place_checkpoints_on_order
from repro.experiments.registry import experiment_e10_dag_frontier
from repro.models.checkpoint import FrontierCheckpointCost
from repro.workflows.generators import fork_join, montage_like


def run_e10_with_kernel_check(*, seed: int = 7):
    """E10 plus an in-bench identity gate for the precomputed frontier kernel.

    The experiment itself exercises the frontier model through the heuristic
    scheduler; this wrapper additionally pins the optimisation under it --
    the vectorized placement's precomputed liveness intervals
    (``_FrontierCostTables``) must reproduce the per-cell oracle DP
    bit-for-bit on the same wide-fan-out DAGs the experiment uses.
    """
    table = experiment_e10_dag_frontier(seed=seed)
    for workflow in (
        fork_join(6, branch_work=4.0, checkpoint_cost=0.5, seed=seed),
        montage_like(4, checkpoint_cost=0.5),
    ):
        order = workflow.topological_order()
        model = FrontierCheckpointCost(workflow)
        for rate in (0.01, 0.1):
            reference = oracle.place_checkpoints_on_order(
                workflow, order, 0.2, rate, checkpoint_model=model,
            )
            vectorized = place_checkpoints_on_order(
                workflow, order, 0.2, rate, checkpoint_model=model,
            )
            if reference != vectorized:
                raise AssertionError(
                    "frontier placement: vectorized kernel diverges from the "
                    f"oracle at rate={rate}"
                )
    return table


@pytest.mark.experiment("E10")
def test_e10_dag_frontier(benchmark, print_table):
    table = benchmark(experiment_e10_dag_frontier, seed=7)
    print_table(table)

    def value(dag, rate, cost_model):
        return next(
            row["E_makespan"] for row in table.rows
            if row["dag"] == dag and row["rate"] == rate and row["cost_model"] == cost_model
        )

    for dag in ("fork_join(6)", "montage(4)"):
        for rate in (0.01, 0.1):
            assert value(dag, rate, "frontier_sum") >= value(dag, rate, "per_task") - 1e-9

    # Where the exhaustive optimum is available, the heuristic is within 5%.
    for row in table.rows:
        if row.get("exact_optimal") is not None:
            assert row["E_makespan"] <= row["exact_optimal"] * 1.05 + 1e-9


#: Parameter sets for script mode (the CI smoke job runs ``--quick``).
FULL_PARAMS = {"seed": 7}
QUICK_PARAMS = {"seed": 7}

if __name__ == "__main__":  # pragma: no cover - exercised by the CI bench-smoke job
    from harness import run_cli

    raise SystemExit(run_cli(
        "bench_e10_dag_frontier", run_e10_with_kernel_check,
        quick_params=QUICK_PARAMS, full_params=FULL_PARAMS,
    ))
