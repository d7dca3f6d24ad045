"""Scenario: scheduling under realistic (non-Exponential) failure laws.

Field studies (the paper's references [8-11]) report that real cluster
failures follow Weibull distributions with shape below 1 (infant mortality) or
log-normal distributions -- not the memoryless Exponential law the closed-form
results assume.  Section 6 of the paper explains that no closed form exists in
that case and that heuristics must be evaluated by simulation; this example
does exactly that:

* a synthetic failure trace is generated for a 16-node cluster whose nodes
  fail according to a Weibull law fitted to a target MTBF (standing in for a
  Failure Trace Archive log, which is not redistributable);
* four checkpoint placements for a 25-task analysis chain are compared by
  replaying them against simulated platform failures: the Exponential-DP
  placement (using the equivalent MTBF), the work-maximisation placement of
  Bouguerra-Trystram-Wagner, checkpoint-everywhere and never-checkpoint;
* the same comparison is repeated with the "rejuvenate every node after each
  failure" assumption that the paper criticises, to show how much it distorts
  the picture for Weibull laws.

Run with ``python examples/weibull_cluster_study.py``.
"""

import dataclasses

import numpy as np

from repro import (
    MonteCarloEstimator,
    Platform,
    Schedule,
    WeibullFailure,
    generate_trace,
    optimal_chain_checkpoints,
    uniform_random_chain,
    work_maximization_chain,
)
from repro.experiments.reporting import ResultTable
from repro.simulation.engine import RenewalPlatformFailureSource


def main() -> None:
    rng = np.random.default_rng(5)

    # A 16-node cluster; each node fails with a Weibull law (shape 0.7) and a
    # node MTBF of 120 hours, i.e. a platform MTBF of 7.5 hours.
    node_mtbf_minutes = 120.0 * 60.0
    law = WeibullFailure.from_mtbf(node_mtbf_minutes, shape=0.7)
    platform = Platform(num_processors=16, failure_law=law, downtime=10.0)
    platform_rate = 16.0 / node_mtbf_minutes
    print(platform.describe())

    # A synthetic stand-in for a production failure log.
    trace = generate_trace(law, horizon=30 * 24 * 60.0, num_processors=16, rng=rng)
    stats = trace.statistics()
    print(f"Synthetic 30-day trace: {stats.count} failures, "
          f"platform MTBF {stats.mtbf:.1f} min, CV {stats.cv:.2f}\n")

    # The application: a 25-task analysis chain, ~20 hours of work.
    chain = uniform_random_chain(
        25, work_range=(20.0, 80.0), checkpoint_range=(2.0, 10.0), rng=rng
    )
    print(f"Application chain: {chain.n} tasks, {chain.total_work():.0f} minutes of work\n")

    placements = {
        "exp_dp (MTBF-equivalent)": optimal_chain_checkpoints(
            chain, platform.downtime, platform_rate
        ).checkpoint_after,
        "work_maximisation": work_maximization_chain(
            chain, WeibullFailure.from_mtbf(1.0 / platform_rate, shape=0.7)
        ).checkpoint_after,
        "checkpoint_all": tuple(range(chain.n)),
        "never (final only)": (chain.n - 1,),
    }

    def simulate(positions, rejuvenate_all):
        schedule = Schedule.for_chain(chain, positions)
        variant = dataclasses.replace(platform, rejuvenate_all_on_failure=rejuvenate_all)
        estimator = MonteCarloEstimator(
            schedule,
            failure_model_factory=lambda generator: RenewalPlatformFailureSource(
                variant, generator
            ),
            downtime=platform.downtime,
        )
        # One seed for every placement: run i of each starts from the same
        # random stream (common random numbers).
        return estimator.estimate(150, seed=5)

    table = ResultTable(
        title="Simulated makespan (minutes) under Weibull(0.7) node failures",
        columns=["placement", "checkpoints", "mean", "ci95_low", "ci95_high",
                 "mean_with_full_rejuvenation"],
    )
    for name, positions in placements.items():
        realistic = simulate(positions, rejuvenate_all=False)
        rejuvenated = simulate(positions, rejuvenate_all=True)
        table.add_row(
            placement=name,
            checkpoints=len(positions),
            mean=realistic.mean,
            ci95_low=realistic.ci95_low,
            ci95_high=realistic.ci95_high,
            mean_with_full_rejuvenation=rejuvenated.mean,
        )
    print(table.to_text())
    print("\nNote: the last column uses the 'all nodes rejuvenated after every failure'")
    print("assumption of Bouguerra et al. [12]; with shape < 1 it makes the platform")
    print("look less reliable right after a failure than it really is, which is why the")
    print("paper argues against it.")


if __name__ == "__main__":
    main()
