"""Failure models: probability laws, platform model, and synthetic traces.

This subpackage is the "substrate" the paper assumes: a platform of ``p``
identical processors whose failure inter-arrival times follow a given
probability law.  The paper's analysis (Sections 3-5) uses the Exponential
law; Section 6 discusses Weibull and log-normal laws, which are provided here
for the simulation-based extensions.
"""

from repro.failures.distributions import (
    ExponentialFailure,
    FailureDistribution,
    LogNormalFailure,
    WeibullFailure,
    superposed_rate,
)
from repro.failures.platform import Platform, ProcessorState
from repro.failures.traces import (
    FailureEvent,
    FailureTrace,
    TraceStatistics,
    generate_trace,
    iter_trace_times,
)

__all__ = [
    "FailureDistribution",
    "ExponentialFailure",
    "WeibullFailure",
    "LogNormalFailure",
    "superposed_rate",
    "Platform",
    "ProcessorState",
    "FailureEvent",
    "FailureTrace",
    "TraceStatistics",
    "generate_trace",
    "iter_trace_times",
]
