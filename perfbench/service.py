"""The served workload's server process and its published numbers.

The server is deployed the way ``repro serve --db`` deploys it: a
``GatewayServer`` over a file-backed ``JobStore`` in its own process, with
default workers and backend and no result cache.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, Optional, Tuple

from repro.service.client import ServiceClient, ServiceError


class ServerProcess:
    """``repro serve --port 0 --db <dir>/jobs.sqlite`` as a child process.

    The server's JSON log goes to ``<dir>/server.log``; the bound port is
    read from its ``gateway.started`` event.
    """

    def __init__(self, repo_root: str, work_dir: str) -> None:
        os.makedirs(work_dir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        self._log_path = os.path.join(work_dir, "server.log")
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--db", os.path.join(work_dir, "jobs.sqlite")],
            cwd=repo_root, env=env, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            self.url = self._bound_url()
        except BaseException:
            self.stop()
            raise
        self.client = ServiceClient(self.url, timeout=120.0)

    def _bound_url(self, timeout: float = 60.0) -> str:
        """The address from the server's ``gateway.started`` log event (``--port 0``)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.proc.poll() is None:
            with open(self._log_path, encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    if '"gateway.started"' in line:
                        event = json.loads(line)
                        return f"http://{event['host']}:{event['port']}"
            time.sleep(0.005)
        raise RuntimeError(f"server did not start; see {self._log_path}")

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.client.health()
                return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (graceful), then SIGKILL; always waits for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


#: Server histograms the served per-layer numbers read, with the label that splits each.
HISTOGRAMS = (
    ("repro_jobstore_op_seconds", "op"),
    ("repro_http_request_seconds", "route"),
)

Sums = Dict[Tuple[str, str], Tuple[float, int]]


def histogram_sums(snapshot: Dict) -> Sums:
    """``{(metric, label): (sum_s, count)}`` from a ``/v1/metrics?format=json`` snapshot."""
    out: Sums = {}
    for metric, label in HISTOGRAMS:
        for value in snapshot.get(metric, {}).get("values", ()):
            out[(metric, value["labels"][label])] = (float(value["sum"]), int(value["count"]))
    return out


def delta(after: Sums, before: Sums) -> Sums:
    return {
        key: (total - before.get(key, (0.0, 0))[0], count - before.get(key, (0.0, 0))[1])
        for key, (total, count) in after.items()
    }


def add(into: Sums, more: Sums) -> None:
    for key, (total, count) in more.items():
        old = into.get(key, (0.0, 0))
        into[key] = (old[0] + total, old[1] + count)
