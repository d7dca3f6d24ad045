"""Serving-throughput benchmark: the gateway's status-poll hot path.

Status polls ("is my job done yet?") dominate service traffic.  The asyncio
gateway answers ``GET /v1/jobs/{id}`` from pre-serialized snapshot bytes on
a single event loop; this benchmark drives it with pipelined keep-alive
requests and measures requests per second on exactly that path.

One assertion rides along: **bit-identity** -- the campaign result fetched
through the gateway equals a direct :meth:`ScenarioSpec.run`
sample-for-sample (the gateway is a door to the same computation, never a
different one).
"""

import json
import socket
import time

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


def run_gateway_throughput(total: int = 4000, depth: int = 50):
    """Measure the gateway on the status-poll hot path; assert bit-identity."""
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
    finally:
        gateway.shutdown()
        store.close()

    table = ResultTable(
        title=f"GET /v1/jobs/{{id}} throughput, {total} pipelined requests",
        columns=["server", "req_per_s", "bit_identical"],
    )
    table.add_row(server="asyncio-gateway", req_per_s=round(rps), bit_identical=True)
    return table


#: Parameter sets for script mode (the CI smoke job runs ``--quick``).
FULL_PARAMS = {"total": 4000, "depth": 50}
QUICK_PARAMS = {"total": 800, "depth": 40}

if __name__ == "__main__":  # pragma: no cover - exercised by the CI bench-smoke job
    from harness import run_cli

    raise SystemExit(run_cli(
        "bench_service_gateway", run_gateway_throughput,
        quick_params=QUICK_PARAMS, full_params=FULL_PARAMS,
    ))
