"""Scenario: checkpointing a long-running scientific pipeline (linear chain).

The paper motivates linear chains as "a situation very frequent in scientific
applications": filtering pipelines, simulation post-processing, genomics
pipelines, etc.  This example models a typical alignment/variant-calling
pipeline as a chain of heterogeneous tasks with very different checkpoint
costs (a checkpoint after the aligner must dump a huge BAM file; a checkpoint
after the indexing step is nearly free), and asks:

* where should checkpoints go, as a function of the platform failure rate?
* how much does the optimal placement (Algorithm 1) save compared to the
  policies an operator would naively use?
* does the analytic ranking survive contact with the (simulated) real world?

Run with ``python examples/genomics_pipeline.py``.
"""

from repro import (
    LinearChain,
    MonteCarloEstimator,
    evaluate_chain_strategies,
)
from repro.experiments.reporting import ResultTable


def build_pipeline() -> LinearChain:
    """An alignment + variant-calling pipeline with realistic relative costs.

    Durations are in minutes on the full platform; checkpoint costs reflect
    the size of the intermediate data each stage would have to dump.
    """
    stages = [
        # (name,            work, checkpoint cost)
        ("quality_control",   20.0,  1.0),
        ("adapter_trimming",  35.0,  8.0),
        ("alignment",        240.0, 30.0),   # huge BAM output
        ("sort_index",        45.0,  4.0),
        ("mark_duplicates",   60.0, 25.0),
        ("base_recalibration", 90.0, 20.0),
        ("variant_calling",  180.0,  6.0),
        ("joint_genotyping",  75.0,  5.0),
        ("annotation",        40.0,  2.0),
    ]
    return LinearChain(
        works=[w for _, w, _ in stages],
        checkpoint_costs=[c for _, _, c in stages],
        recovery_costs=[c for _, _, c in stages],
        names=[name for name, _, _ in stages],
    )


def main() -> None:
    chain = build_pipeline()
    downtime = 5.0  # node replacement takes ~5 minutes
    print(f"Pipeline: {chain.n} stages, {chain.total_work():.0f} minutes of failure-free work\n")

    # ------------------------------------------------------------------
    # Sweep the platform MTBF from "very reliable" to "fails every ~8 hours".
    # ------------------------------------------------------------------
    table = ResultTable(
        title="Expected pipeline makespan (minutes) by checkpoint strategy",
        columns=["platform_MTBF_h", "optimal", "ckpt_after_each_stage", "final_only",
                 "daly_period", "optimal_checkpoints"],
    )
    for mtbf_hours in (2000.0, 200.0, 50.0, 8.0):
        rate = 1.0 / (mtbf_hours * 60.0)
        strategies = evaluate_chain_strategies(chain, downtime, rate)
        table.add_row(
            platform_MTBF_h=mtbf_hours,
            optimal=strategies["optimal_dp"].expected_makespan,
            ckpt_after_each_stage=strategies["checkpoint_all"].expected_makespan,
            final_only=strategies["checkpoint_none"].expected_makespan,
            daly_period=strategies["daly_period"].expected_makespan,
            optimal_checkpoints=strategies["optimal_dp"].num_checkpoints,
        )
    print(table.to_text())
    print()

    # ------------------------------------------------------------------
    # Cross-check the analytic expectation by simulation for one regime.
    # ------------------------------------------------------------------
    rate = 1.0 / (50.0 * 60.0)
    optimal = evaluate_chain_strategies(chain, downtime, rate)["optimal_dp"]
    estimate = MonteCarloEstimator(optimal.to_schedule(), rate, downtime).estimate(1500, seed=2024)
    print("Cross-check at MTBF = 50 h:")
    print(f"  analytic expected makespan : {optimal.expected_makespan:.1f} min")
    print(f"  simulated mean (1500 runs) : {estimate.mean:.1f} min "
          f"(95% CI [{estimate.ci95_low:.1f}, {estimate.ci95_high:.1f}])")
    print(f"  optimal checkpoints after  : "
          f"{[chain.names[i] for i in optimal.checkpoint_after]}")


if __name__ == "__main__":
    main()
