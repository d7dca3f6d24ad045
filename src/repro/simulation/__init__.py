"""Discrete-event simulation of checkpointed executions under failures.

The simulator is deliberately independent of the analytic formulas of
:mod:`repro.core.expected_time`: it replays failure times drawn from a law
against a schedule, applying the paper's execution model -- work, checkpoint,
failure, downtime, recovery, rollback -- event by event.  Averaging many runs
therefore provides an unbiased estimate of the expected makespan, which is how
Proposition 1 and the schedulers are validated (experiments E1, E6, E8).
"""

from repro.simulation.engine import (
    FailureSource,
    PoissonFailureSource,
    RenewalPlatformFailureSource,
    TraceFailureSource,
    failure_source_for,
)
from repro.simulation.executor import (
    SimulationResult,
    replay_trace,
    simulate_schedule,
    simulate_segments,
)
from repro.simulation.monte_carlo import (
    MonteCarloEstimate,
    MonteCarloEstimator,
    estimate_expected_completion_time,
)
from repro.simulation.campaign import CampaignResult, CampaignRunner
from repro.simulation.vectorized import (
    BatchSimulationResult,
    PlannedExponentialDelays,
    PlannedPoissonSource,
    generate_trace_times_batch,
    replay_traces_batch,
    simulate_poisson_batch,
    simulate_renewal_batch,
)

__all__ = [
    "FailureSource",
    "PoissonFailureSource",
    "RenewalPlatformFailureSource",
    "TraceFailureSource",
    "failure_source_for",
    "SimulationResult",
    "replay_trace",
    "simulate_schedule",
    "simulate_segments",
    "MonteCarloEstimate",
    "MonteCarloEstimator",
    "estimate_expected_completion_time",
    "CampaignResult",
    "CampaignRunner",
    "BatchSimulationResult",
    "PlannedExponentialDelays",
    "PlannedPoissonSource",
    "generate_trace_times_batch",
    "replay_traces_batch",
    "simulate_poisson_batch",
    "simulate_renewal_batch",
]
