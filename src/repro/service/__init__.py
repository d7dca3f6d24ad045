"""Scenario service: a job-queue + HTTP API subsystem serving campaign workloads.

Everything below :mod:`repro.runtime` executes one-shot, in-process.  This
package adds the long-lived serving surface the ROADMAP's production goal
needs: a coordinator process that accepts campaign submissions over HTTP,
queues them durably, executes them through the existing backends/cache/engine
machinery, and reports progress -- the single-host ancestor of a sharded
multi-host scheduler (the architecture Dask-style centralized schedulers
demonstrate at scale).

Four layers, each usable on its own:

* :mod:`repro.service.jobs` -- the persistence layer: a sqlite3-backed
  :class:`~repro.service.jobs.JobStore` (in-memory fallback) whose job rows
  survive server restarts;
* :mod:`repro.service.queue` -- the scheduler: worker threads draining the
  store, validating and deduplicating submissions by scenario content hash,
  executing :class:`~repro.runtime.scenario.ScenarioSpec` campaigns and
  registry experiments with per-chunk progress and cooperative cancellation;
* :mod:`repro.service.gateway` -- the asyncio HTTP front end
  (:class:`~repro.service.gateway.GatewayServer`): ``/v1/jobs``,
  ``/v1/scenarios``, ``/v1/healthz``, ``/v1/metrics`` served from an
  in-memory :class:`~repro.service.snapshot.ServiceSnapshot`, plus SSE
  progress streams (``/v1/jobs/{id}/events``);
* :mod:`repro.service.client` -- the Python client
  (:class:`~repro.service.client.ServiceClient`) and result reconstruction.

The ``repro serve`` / ``repro submit`` / ``repro jobs`` / ``repro metrics``
CLI sub-commands wrap these layers; ``docs/api.md`` has the full endpoint
reference and ``docs/architecture.md`` the life of a job.  Every layer is
instrumented through :mod:`repro.obs` (request/job counters and latency
histograms, correlation-id tracing, structured JSON logs).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import GatewayServer
from repro.service.jobs import JOB_STATES, JobRecord, JobStore
from repro.service.queue import JobCancelled, JobScheduler
from repro.service.snapshot import ServiceSnapshot

__all__ = [
    "JOB_STATES",
    "GatewayServer",
    "JobCancelled",
    "JobRecord",
    "JobScheduler",
    "JobStore",
    "ServiceClient",
    "ServiceError",
    "ServiceSnapshot",
]
