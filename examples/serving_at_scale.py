"""Scenario: operating the checkpoint-scheduling service under real traffic.

The earlier examples run scenarios in-process.  This one runs them the way a
shared cluster-operations team would: a long-lived service that many users
submit to concurrently, followed live over server-sent events instead of
polling.

The example:

* boots the asyncio gateway (``repro serve`` is the CLI twin of this);
* follows one job's progress over the SSE event stream
  (``GET /v1/jobs/{id}/events``): every progress update is pushed, no
  status polling happens at all;
* shows the dedupe guarantee under concurrency: identical submissions from
  different users collapse onto one computation;
* closes with the operator's view: the health counters.

Run with ``python examples/serving_at_scale.py``.
"""

import threading

from repro.runtime.scenario import ChainSpec, FailureSpec, ScenarioSpec
from repro.service import GatewayServer, JobScheduler, JobStore, ServiceClient


def make_spec(mtbf: float, num_runs: int = 150) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"ops-mtbf-{mtbf:g}",
        chain=ChainSpec(n=6, seed=11),
        failure=FailureSpec(kind="weibull", mtbf=mtbf, shape=0.7),
        strategies=("optimal_dp", "checkpoint_all"),
        num_runs=num_runs,
        downtime=0.2,
        seed=5,
        engine="vectorized",
    )


def follow_via_sse(url: str) -> None:
    """Stream one job's life over SSE -- pushed transitions, zero polling."""
    print("== Following a job over server-sent events ==")
    client = ServiceClient(url)
    job = client.submit_campaign(make_spec(200.0, num_runs=600), chunk_size=100)
    print(f"  streaming /v1/jobs/{job['id']}/events")
    for event, data in client.events(job["id"]):
        if event == "heartbeat":
            continue
        total = data["chunks_total"] or "?"
        print(f"  {event:>8s}: state={data['state']:<8s} "
              f"chunks {data['chunks_done']}/{total}")
        if event == "end":
            break
    # SSE frames never carry result payloads; one final fetch does.
    record = client.job(job["id"])
    result = ServiceClient.campaign_result(record)
    best = min(result.makespans, key=lambda s: sum(result.makespans[s]))
    print(f"  finished: best strategy over {result.num_runs} runs is {best!r}")


def concurrent_dedupe(url: str) -> None:
    """Identical submissions from many threads collapse onto one job."""
    print("\n== Concurrent identical submissions deduplicate ==")
    ids = []
    lock = threading.Lock()

    def submit():
        job = ServiceClient(url).submit_campaign(make_spec(300.0))
        with lock:
            ids.append((job["id"], job["deduplicated"]))

    threads = [threading.Thread(target=submit) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    unique = {job_id for job_id, _ in ids}
    deduplicated = sum(1 for _, reused in ids if reused)
    print(f"  4 clients submitted the same sweep -> {len(unique)} job, "
          f"{deduplicated} deduplicated")


def operators_view(url: str) -> None:
    print("\n== The operator's view ==")
    health = ServiceClient(url).health()
    stats = health["stats"]
    print(f"  health: {health['status']}, jobs={health['jobs']}")
    print(f"  http requests served: {stats['http_requests']:.0f}")
    print(f"  submissions: {stats['jobs_submitted']:.0f} enqueued, "
          f"{stats['jobs_deduplicated']:.0f} deduplicated")


def main() -> None:
    store = JobStore()  # use JobStore("jobs.db") to survive restarts
    scheduler = JobScheduler(store, num_workers=1)
    gateway = GatewayServer(scheduler, port=0)
    gateway.start()
    print(f"gateway listening on {gateway.url}\n")
    try:
        follow_via_sse(gateway.url)
        concurrent_dedupe(gateway.url)
        operators_view(gateway.url)
    finally:
        gateway.shutdown()
        store.close()
    print("\ngateway stopped; with --db the queue would survive a restart")


if __name__ == "__main__":
    main()
