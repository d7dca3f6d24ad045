"""Parallel campaign runtime: execution backends, result cache, scenario specs.

The analytic solvers answer in microseconds, but every simulation-heavy part
of the reproduction -- Monte-Carlo estimation (E1), paired campaigns (E6/E8),
and the Weibull/log-normal studies of Section 6 for which no closed form
exists -- consists of thousands of *independent* replications.  This package
turns that independence into throughput and reuse:

* :mod:`repro.runtime.backends` -- where replications execute: in-process
  (:class:`SerialBackend`) or on a pool of worker processes
  (:class:`ProcessPoolBackend` on :mod:`concurrent.futures`); how each chunk
  executes (event loop or NumPy array program, see
  :mod:`repro.simulation.vectorized`) is the orthogonal ``engine=`` choice;
* :mod:`repro.runtime.chunking` -- how a replication budget is split into
  worker-sized chunks with independent, deterministically spawned RNG streams
  (``numpy.random.SeedSequence``), so results are bit-identical whatever the
  worker count;
* :mod:`repro.runtime.hashing` -- stable content hashing of schedules,
  failure laws and estimator parameters, the addressing scheme of the cache;
* :mod:`repro.runtime.cache` -- a content-addressed, disk-backed result cache
  (JSON metadata + NPZ sample arrays under ``~/.cache/repro``) with versioned
  invalidation;
* :mod:`repro.runtime.scenario` -- :class:`ScenarioSpec`, a declarative
  plain-data description of a simulation campaign (workload, failure law,
  strategies, replication budget) that can be serialised, hashed, fanned out
  over a backend and merged.

The consumers are rewired rather than duplicated:
:meth:`repro.simulation.monte_carlo.MonteCarloEstimator.estimate` and
:meth:`repro.simulation.campaign.CampaignRunner.run` accept ``backend=``,
``cache=`` and ``engine=`` keyword arguments (the backend and the cache never
change a seeded run's samples), and the CLI exposes the same
switches as ``repro experiment E6 --parallel 8 --engine vectorized --cache``.
"""

from repro.runtime.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_scope,
    resolve_backend,
    resolve_engine,
)
from repro.runtime.cache import ResultCache, default_cache_root
from repro.runtime.chunking import ChunkPlan, plan_chunks, spawn_chunk_seeds
from repro.runtime.hashing import canonicalize, stable_hash

# The scenario layer sits above the simulation and baseline packages, which
# themselves import the low-level runtime modules (backends/chunking/cache).
# Loading it lazily keeps ``import repro.runtime.backends`` from a simulation
# module free of that upward dependency.
_SCENARIO_EXPORTS = (
    "ChainSpec",
    "FailureSpec",
    "ScenarioSpec",
    "expand_scenarios",
    "run_scenarios",
    "scenarios_table",
)


def __getattr__(name):
    if name in _SCENARIO_EXPORTS:
        from repro.runtime import scenario

        return getattr(scenario, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "backend_scope",
    "resolve_backend",
    "resolve_engine",
    "ResultCache",
    "default_cache_root",
    "ChunkPlan",
    "plan_chunks",
    "spawn_chunk_seeds",
    "canonicalize",
    "stable_hash",
    "ChainSpec",
    "FailureSpec",
    "ScenarioSpec",
    "expand_scenarios",
    "run_scenarios",
    "scenarios_table",
]
