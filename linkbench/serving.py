"""The ``repro serve`` part of a workload: daemon, closed-loop clients, checks.

Load is closed-loop: ``CLIENTS`` threads, one connection per request
each, and every client waits for its result before it submits again.
First every distinct graph is submitted once (cache misses: compute
plus serialize), then every graph again (cache hits: lookup only).
"""

from __future__ import annotations

import http.client
import queue
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from common import ROOT, SERVE_CONFIG
from repro.cluster.serialize import dumps_dendrogram
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.serve.client import ServeClient

#: One closed-loop client.  The daemon runs jobs on threads of one
#: process, so a second client adds no throughput on a 2-CPU host; it
#: only made the latency tail depend on how two jobs share the
#: interpreter, which spread miss_p90_s by up to 0.40 across seeds.
CLIENTS = 1
JOB_WORKERS = 2
REQUEST_TIMEOUT_S = 120.0


class Daemon:
    """A ``repro serve`` subprocess on a unix socket inside the work dir."""

    def __init__(self, workdir: Path, env: Dict[str, str], cache_entries: int):
        # A path relative to the checkout keeps it under the unix socket
        # length limit however deep the checkout lives.
        self.socket_path = str((workdir / "serve.sock").relative_to(ROOT))
        self.log = open(workdir / "serve.log", "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket_path,
                "--job-workers", str(JOB_WORKERS),
                "--cache-entries", str(cache_entries),
                "--queue-size", str(4 * CLIENTS),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if "listening on" in line:
                break
        else:
            self.stop()
            raise RuntimeError("repro serve exited before reporting readiness")

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.socket_path, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        if self.log.closed:
            return
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=20)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.log.close()


@dataclass
class Request:
    index: int
    job_id: str
    cached: bool
    latency_s: float
    fetch_s: float
    payload: Dict[str, Any]


@dataclass
class LoopResult:
    misses: List[Request] = field(default_factory=list)
    hits: List[Request] = field(default_factory=list)
    elapsed_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        return len(self.misses) + len(self.hits)


def _client_loop(daemon: Daemon, payloads: List[list], todo: "queue.Queue[int]"):
    """One closed-loop client: submit, wait for the result, repeat."""
    client = daemon.client()
    done: List[Request] = []
    errors: List[str] = []
    while True:
        try:
            index = todo.get_nowait()
        except queue.Empty:
            return done, errors
        try:
            t0 = time.perf_counter()
            job = client.submit(edges=payloads[index], config=SERVE_CONFIG)
            if job["state"] != "done":
                # The event stream ends when the job is terminal, so
                # completion is pushed rather than polled.
                for _ in client.events(job["job_id"], follow=True):
                    pass
            t1 = time.perf_counter()
            payload = client.result(job["job_id"])
            t2 = time.perf_counter()
        except (ReproError, OSError, http.client.HTTPException) as exc:
            # A failed request is counted as a failed operation.
            errors.append(f"graph {index}: {exc!r}")
            continue
        done.append(Request(index, job["job_id"], bool(job["cached"]), t2 - t0, t2 - t1, payload))


def _phase(
    daemon: Daemon, payloads: List[list], indices: Sequence[int]
) -> Tuple[List[Request], List[str]]:
    """Each listed payload submitted once by ``CLIENTS`` closed-loop clients."""
    todo: "queue.Queue[int]" = queue.Queue()
    for index in indices:
        todo.put(index)
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        futures = [pool.submit(_client_loop, daemon, payloads, todo) for _ in range(CLIENTS)]
        results = [future.result() for future in futures]
    done = [request for requests, _ in results for request in requests]
    errors = [error for _, failed in results for error in failed]
    return done, errors


def closed_loop(daemon: Daemon, payloads: List[list], indices: Sequence[int]) -> LoopResult:
    """Submit the listed graphs once each (misses), then once again (hits)."""
    out = LoopResult()
    t0 = time.perf_counter()
    out.misses, errors = _phase(daemon, payloads, indices)
    out.hits, more = _phase(daemon, payloads, indices)
    out.elapsed_s = time.perf_counter() - t0
    out.errors = errors + more
    return out


def check_loop(loop: LoopResult, payloads: List[list], checker) -> None:
    """Each served dendrogram must equal a direct in-process run, byte for byte."""
    for message in loop.errors:
        checker.record(False, f"serve request failed: {message}")
    config = RunConfig.from_dict(SERVE_CONFIG)
    expected: Dict[int, str] = {}
    for want_cached, requests in ((False, loop.misses), (True, loop.hits)):
        for request in requests:
            if request.index not in expected:
                graph = Graph.from_edge_list([tuple(e) for e in payloads[request.index]])
                result = LinkClustering(graph, config=config).run()
                expected[request.index] = dumps_dendrogram(result.dendrogram)
            ok = (
                request.payload.get("dendrogram") == expected[request.index]
                and request.cached == want_cached
            )
            checker.record(
                ok,
                f"graph {request.index} (cached={request.cached}): served result "
                "differs from a direct run or from the expected cache outcome",
            )
