"""The load-test harness: N concurrent clients, latency percentiles.

Drives a live service — over HTTP (:class:`HttpServiceClient`) or
straight into the core (:class:`InProcessClient`), the same way the
chaos tests do — with ``clients`` threads submitting synchronous
(``wait=true``) requests from a deterministic workload.  Shed responses
(429/503) are retried after the server's ``Retry-After`` hint, so load
shedding degrades latency, never completeness: the harness's
zero-dropped-requests accounting is the ISSUE's acceptance bar, not a
best-effort claim.

The report carries nearest-rank p50/p95/p99 over per-request wall
latency plus outcome counts;  :func:`write_bench_sidecar` lands it in
``BENCH_service.json`` following the repo's sidecar conventions
(``git_sha`` / ``kind`` / ``seed`` / ``smoke``, see
``BENCH_engines.json``).
"""

from __future__ import annotations

import json
import math
import subprocess
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.objective import Objective
from ..errors import ServiceError
from ..units import MM
from .protocol import RequestRejected, rejection_response
from .server import OptimizationService

#: submit statuses the harness treats as "try again later".
RETRYABLE_STATUSES = (429, 503)


@dataclass(frozen=True)
class LoadTestConfig:
    """Shape of the synthetic client fleet."""

    clients: int = 4
    requests: int = 40
    #: distinct nets; the remainder repeats earlier nets, exercising the
    #: cache / coalescing path under concurrency.
    unique_nets: int = 32
    seed: int = 0
    #: structured objective carried by every request; legacy shapes
    #: ride the protocol-v1 ``mode``/``min_slack`` fields, the rest the
    #: protocol-v2 ``objective`` block.
    objective: Objective = Objective()
    engine: str = "reference"
    #: sink counts cycle through this band (kept small: a load test
    #: measures the lifecycle, not the DP).
    min_sinks: int = 2
    max_sinks: int = 6
    #: per-request guards forwarded to the server.
    deadline_seconds: Optional[float] = None
    max_candidates: Optional[int] = None
    #: cap on shed-retry loops per request before declaring it dropped.
    max_submit_attempts: int = 200

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ServiceError(f"clients must be >= 1, got {self.clients}")
        if self.requests < 1:
            raise ServiceError(f"requests must be >= 1, got {self.requests}")
        if self.unique_nets < 1:
            raise ServiceError(
                f"unique_nets must be >= 1, got {self.unique_nets}"
            )
        if not 1 <= self.min_sinks <= self.max_sinks:
            raise ServiceError(
                "need 1 <= min_sinks <= max_sinks, got "
                f"{self.min_sinks}..{self.max_sinks}"
            )

    def payloads(self) -> List[Dict[str, Any]]:
        """The deterministic request stream, in submission order."""
        width = self.max_sinks - self.min_sinks + 1
        out: List[Dict[str, Any]] = []
        for index in range(self.requests):
            net = index % self.unique_nets
            payload: Dict[str, Any] = {
                "net": {
                    "name": f"load-{self.seed}-{net:04d}",
                    "sink_count": self.min_sinks + net % width,
                    "span": (1.0 + (net % 7) * 0.5) * MM,
                    "seed": self.seed * 100_003 + net,
                },
                "engine": self.engine,
                "deadline_seconds": self.deadline_seconds,
                "max_candidates": self.max_candidates,
                "wait": True,
            }
            if not self.objective.is_legacy():
                payload["objective"] = self.objective.to_json()
            else:
                payload["mode"] = self.objective.mode
                if self.objective.min_slack:
                    payload["min_slack"] = self.objective.min_slack
            out.append(payload)
        return out


class InProcessClient:
    """Submit straight into an :class:`OptimizationService` core."""

    def __init__(self, service: OptimizationService):
        self.service = service

    def submit(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            return self.service.submit(payload)
        except RequestRejected as exc:
            return exc.http_status, rejection_response(exc)


class HttpServiceClient:
    """Submit over the HTTP surface with stdlib ``urllib``."""

    def __init__(self, base_url: str, timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def submit(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        data = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            f"{self.base_url}/v1/optimize",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._round_trip(request)

    def get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        request = urllib.request.Request(
            f"{self.base_url}{path}", method="GET"
        )
        return self._round_trip(request)

    def _round_trip(
        self, request: urllib.request.Request
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as reply:
                return reply.status, json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                body = {"error": "transport", "message": raw}
            return exc.code, body


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * fraction))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_loadtest(client, config: LoadTestConfig) -> Dict[str, Any]:
    """Fire ``config.requests`` submits from ``config.clients`` threads.

    ``client`` needs one method — ``submit(payload) -> (status, body)``
    — so both client classes (and test doubles) fit.  Returns the
    report dict (also the sidecar's ``report`` field).
    """
    payloads = config.payloads()
    latencies: List[float] = [0.0] * len(payloads)
    statuses: List[int] = [0] * len(payloads)
    shed_retries = [0]
    dropped: List[int] = []
    next_index = [0]
    lock = threading.Lock()

    def client_loop() -> None:
        while True:
            with lock:
                index = next_index[0]
                if index >= len(payloads):
                    return
                next_index[0] += 1
            payload = payloads[index]
            started = time.monotonic()
            status, body = client.submit(payload)
            attempts = 1
            while (
                status in RETRYABLE_STATUSES
                and attempts < config.max_submit_attempts
            ):
                time.sleep(float(body.get("retry_after", 0.05)) or 0.05)
                status, body = client.submit(payload)
                attempts += 1
            latencies[index] = time.monotonic() - started
            statuses[index] = status
            if attempts > 1:
                with lock:
                    shed_retries[0] += attempts - 1
            if status != 200:
                with lock:
                    dropped.append(index)

    started = time.monotonic()
    threads = [
        threading.Thread(target=client_loop, name=f"loadtest-client-{n}")
        for n in range(config.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started

    ordered = sorted(latencies)
    report = {
        "clients": config.clients,
        "requests": len(payloads),
        "unique_nets": min(config.unique_nets, len(payloads)),
        "completed": len(payloads) - len(dropped),
        "dropped": len(dropped),
        "shed_retries": shed_retries[0],
        "wall_seconds": wall,
        "throughput_rps": len(payloads) / wall if wall > 0 else 0.0,
        "latency_seconds": {
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
            "max": ordered[-1] if ordered else 0.0,
            "mean": sum(ordered) / len(ordered) if ordered else 0.0,
        },
    }
    return report


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_bench_sidecar(
    report: Dict[str, Any],
    path: Union[str, Path],
    seed: int,
    smoke: bool = False,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Land a load-test report in the repo's BENCH sidecar shape."""
    path = Path(path)
    sidecar: Dict[str, Any] = {
        "git_sha": _git_sha(),
        "kind": "service-loadtest",
        "seed": seed,
        "smoke": smoke,
        "report": report,
    }
    if extra:
        sidecar.update(extra)
    path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return path
