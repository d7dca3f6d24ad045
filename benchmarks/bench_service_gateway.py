"""Serving-throughput benchmark: the gateway's status-poll hot path.

Status polls ("is my job done yet?") dominate service traffic.  The asyncio
gateway answers ``GET /v1/jobs/{id}`` from pre-serialized snapshot bytes on
a single event loop; this benchmark drives it with pipelined keep-alive
requests and measures requests per second on exactly that path.

Two gated rows time the served path's one-pass work with
``harness.paired_trials``:

* ``ServiceClient.job()`` on its keep-alive connection against a reference
  that opens a fresh connection per request (``urllib.request.urlopen``):
  the median ratio must be at least 1.5x;
* the ``GET /v1/jobs?limit=20`` handler on snapshots fed 1,000 and 50,000
  jobs: the 50,000-job time must be at most 2x the 1,000-job time, because a
  listing walks an index newest first and joins cached summary bytes.

One assertion rides along: **bit-identity** -- the campaign result fetched
through the gateway equals a direct :meth:`ScenarioSpec.run`
sample-for-sample (the gateway is a door to the same computation, never a
different one).
"""

import json
import socket
import time
from urllib.parse import parse_qs
from urllib.request import urlopen

from harness import paired_trials

from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec


def _bench_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-gateway",
        chain=ChainSpec(n=5, seed=2),
        failure=FailureSpec(kind="weibull", mtbf=40.0, shape=0.7),
        strategies=("optimal_dp",),
        num_runs=120,
        downtime=0.2,
        seed=3,
        engine="vectorized",
    )


def _read_one_response(sock: socket.socket, buf: bytes):
    """Read exactly one HTTP response; returns ``(response, leftover)``."""
    while b"\r\n\r\n" not in buf:
        buf += sock.recv(65536)
    head, _, rest = buf.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        rest += sock.recv(65536)
    return head + b"\r\n\r\n" + rest[:length], rest[length:]


def _measure_get(host: str, port: int, path: str, *, total: int, depth: int):
    """Requests/second for pipelined keep-alive GETs; also returns one body.

    ``depth`` requests are written per batch so client-side syscall overhead
    is amortised and server-side processing dominates the measurement.  The
    server answers a given (unchanging) job with fixed-size responses, so a
    batch is complete when ``depth * size`` bytes arrived.
    """
    request = f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.settimeout(30)
        sock.sendall(request)  # warmup; calibrates the response size
        first, buf = _read_one_response(sock, b"")
        size = len(first)
        done = 0
        start = time.perf_counter()
        while done < total:
            batch = min(depth, total - done)
            sock.sendall(request * batch)
            expected = batch * size
            parts = [buf]
            received = len(buf)
            while received < expected:
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise AssertionError("server closed mid-benchmark")
                parts.append(chunk)
                received += len(chunk)
            buf = b"".join(parts)[expected:]
            done += batch
        seconds = time.perf_counter() - start
    return total / seconds, first


def _submitted_job(server_url: str, spec: ScenarioSpec) -> str:
    from repro.service.client import ServiceClient

    client = ServiceClient(server_url)
    job = client.submit_campaign(spec)
    done = client.wait(job["id"], timeout=120)
    if done["state"] != "done":
        raise AssertionError(f"benchmark job ended {done['state']}: {done['error']}")
    return job["id"]


def _assert_bit_identical(response: bytes, direct) -> None:
    from repro.service.client import ServiceClient

    served = ServiceClient.campaign_result(
        json.loads(response.split(b"\r\n\r\n", 1)[1])["job"]
    )
    expected = {name: list(samples) for name, samples in direct.makespans.items()}
    if served.makespans != expected:
        raise AssertionError("served campaign result differs from a direct run")


def _client_round_trips(url: str, job_id: str, *, requests: int, trials: int):
    """``ServiceClient.job()`` on one keep-alive connection vs a connection per request."""
    from repro.service.client import ServiceClient

    def reconnecting():
        jobs = []
        for _ in range(requests):
            with urlopen(f"{url}/v1/jobs/{job_id}", timeout=30) as response:
                jobs.append(json.loads(response.read())["job"])
        return jobs

    with ServiceClient(url) as client:
        timing = paired_trials(
            "ServiceClient.job() keep-alive vs a connection per request",
            reconnecting,
            lambda: [client.job(job_id) for _ in range(requests)],
            lambda reference, fast: reference == fast,
            trials=trials,
        )
    if timing.ratio < 1.5:
        raise AssertionError(
            f"keep-alive ServiceClient.job(): median speedup {timing.ratio:.2f}x over "
            f"{trials} paired trials is below the 1.5x gate"
        )
    return timing


def _fed_gateway(num_jobs: int):
    """A gateway (never started) whose snapshot was fed ``num_jobs`` finished jobs."""
    from repro.service.gateway import GatewayServer
    from repro.service.jobs import JobRecord, JobStore
    from repro.service.queue import JobScheduler

    gateway = GatewayServer(JobScheduler(JobStore()), port=0)
    spec = {"scenario": _bench_spec().to_dict()}
    phases = {"queue_wait_s": 0.001, "compute_s": 0.003, "cache_s": 0.0}
    for index in range(num_jobs):
        submitted = 1.0e9 + index
        gateway.snapshot.on_record(JobRecord(
            id=f"{index:016x}", kind="campaign", spec=spec, state="done",
            chunks_done=1, chunks_total=1, submitted_at=submitted,
            started_at=submitted + 0.001, finished_at=submitted + 0.004, phases=phases,
        ))
    return gateway


def _listing_vs_history(*, calls: int, trials: int):
    """The ``GET /v1/jobs?limit=20`` handler at 50,000 jobs vs at 1,000 jobs."""
    query = parse_qs("limit=20")
    small, large = _fed_gateway(1_000), _fed_gateway(50_000)

    def listing(gateway):
        return lambda: [gateway._list_jobs(query) for _ in range(calls)][-1]

    def same(reference, fast):
        return all(status == 200 and len(json.loads(body)["jobs"]) == 20
                   for status, body, _ in (reference, fast))

    try:
        timing = paired_trials(
            "GET /v1/jobs?limit=20, 50,000 vs 1,000 jobs",
            listing(large), listing(small), same, trials=trials,
        )
    finally:
        for gateway in (small, large):
            gateway.scheduler.store.close()
    if timing.ratio > 2.0:
        raise AssertionError(
            f"GET /v1/jobs?limit=20 at 50,000 jobs takes {timing.ratio:.2f}x its time "
            f"at 1,000 jobs (median of {trials} paired trials), above the 2x gate"
        )
    return timing


def run_gateway_throughput(
    total: int = 4000, depth: int = 50, requests: int = 200, calls: int = 200, trials: int = 9
):
    """Measure the gateway on the status-poll hot path; assert bit-identity and two gates."""
    from repro.experiments.reporting import ResultTable
    from repro.service.gateway import GatewayServer
    from repro.service.jobs import JobStore
    from repro.service.queue import JobScheduler

    spec = _bench_spec()
    direct = spec.run()

    store = JobStore()
    gateway = GatewayServer(JobScheduler(store), port=0)
    gateway.start()
    try:
        job_id = _submitted_job(gateway.url, spec)
        rps, response = _measure_get(
            gateway.host, gateway.port, f"/v1/jobs/{job_id}",
            total=total, depth=depth,
        )
        # Fidelity first: speed means nothing if the bytes are wrong.
        _assert_bit_identical(response, direct)
        client = _client_round_trips(gateway.url, job_id, requests=requests, trials=trials)
    finally:
        gateway.shutdown()
        store.close()
    listing = _listing_vs_history(calls=calls, trials=trials)

    table = ResultTable(
        title="Gateway hot paths",
        columns=["measurement", "value", "unit", "check"],
    )
    table.add_row(measurement=f"GET /v1/jobs/{{id}}, {total} pipelined requests",
                  value=round(rps), unit="req/s", check="bit-identical to spec.run()")
    table.add_row(measurement="ServiceClient.job(), a connection per request",
                  value=1e3 * client.reference_seconds / requests, unit="ms", check="urlopen")
    table.add_row(measurement="ServiceClient.job(), keep-alive",
                  value=1e3 * client.fast_seconds / requests, unit="ms",
                  check=f"{client.ratio:.2f}x faster (gate >= 1.5x)")
    table.add_row(measurement="GET /v1/jobs?limit=20 handler, 1,000 jobs",
                  value=1e6 * listing.fast_seconds / calls, unit="us", check="")
    table.add_row(measurement="GET /v1/jobs?limit=20 handler, 50,000 jobs",
                  value=1e6 * listing.reference_seconds / calls, unit="us",
                  check=f"{listing.ratio:.2f}x the 1,000-job time (gate <= 2x)")
    return table


#: Parameter sets for script mode (the CI smoke job runs ``--quick``).
FULL_PARAMS = {"total": 4000, "depth": 50, "requests": 200, "calls": 200, "trials": 9}
QUICK_PARAMS = {"total": 800, "depth": 40, "requests": 100, "calls": 100, "trials": 7}

if __name__ == "__main__":  # pragma: no cover - exercised by the CI bench-smoke job
    from harness import run_cli

    raise SystemExit(run_cli(
        "bench_service_gateway", run_gateway_throughput,
        quick_params=QUICK_PARAMS, full_params=FULL_PARAMS,
    ))
