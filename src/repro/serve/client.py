"""A small blocking client for the serving daemon.

Wraps the HTTP protocol of :mod:`repro.serve.server` for tests,
benchmarks, and scripts — one fresh connection per request (so a
client instance is safe to share across threads), plus a streaming
generator over the NDJSON events endpoint.

Example
-------
::

    client = ServeClient(port=8137)
    job = client.submit(edges=[["a", "b"], ["b", "c"], ["a", "c"]],
                        config={"coarse": {"gamma": 2.0, "phi": 100,
                                           "delta0": 100.0},
                                "backend": "thread", "num_workers": 2})
    status = client.wait(job["job_id"])
    payload = client.result(job["job_id"])
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import (
    ParameterError,
    QueueFullError,
    RequestTooLargeError,
    ServeError,
)
from repro.serve.protocol import TERMINAL_STATES

__all__ = ["ServeClient"]


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket path."""

    def __init__(self, path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout if timeout is not None else 60.0)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


class ServeClient:
    """Blocking client for one daemon (TCP ``host:port`` or unix socket).

    ``timeout`` bounds each socket operation; the events stream uses
    its own, longer bound (a follow legitimately idles between spans).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
        timeout: float = 30.0,
    ):
        if (port is None) == (socket_path is None):
            raise ParameterError("pass exactly one of port= or socket_path=")
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connection(self, timeout: Optional[float] = None) -> http.client.HTTPConnection:
        bound = timeout if timeout is not None else self.timeout
        if self.socket_path is not None:
            return _UnixHTTPConnection(self.socket_path, timeout=bound)
        assert self.port is not None
        return http.client.HTTPConnection(self.host, self.port, timeout=bound)

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            status = response.status
            raw = response.read()
        finally:
            conn.close()
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"{method} {path}: server sent invalid JSON ({exc}): {raw[:200]!r}"
            ) from exc
        if status >= 400:
            message = parsed.get("error") if isinstance(parsed, dict) else None
            message = message or f"HTTP {status}"
            if status == 413:
                raise RequestTooLargeError(message)
            if status == 429:
                raise QueueFullError(message)
            raise ServeError(f"{method} {path} -> {status}: {message}")
        return parsed if isinstance(parsed, dict) else {"value": parsed}

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def submit(
        self,
        *,
        edges: Optional[List[Any]] = None,
        graph_path: Optional[str] = None,
        int_labels: bool = False,
        config: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        use_cache: bool = True,
    ) -> Dict[str, Any]:
        """Submit one run; returns ``{"job_id", "state", "cached", ...}``."""
        payload: Dict[str, Any] = {}
        if edges is not None:
            payload["edges"] = edges
        if graph_path is not None:
            payload["graph_path"] = graph_path
            if int_labels:
                payload["int_labels"] = True
        if config is not None:
            payload["config"] = config
        if timeout is not None:
            payload["timeout"] = timeout
        if not use_cache:
            payload["use_cache"] = False
        return self._request("POST", "/jobs", payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The served payload (raises ServeError until the job is done)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str, reason: Optional[str] = None) -> Dict[str, Any]:
        payload = {"reason": reason} if reason is not None else {}
        return self._request("POST", f"/jobs/{job_id}/cancel", payload)

    def events(
        self,
        job_id: str,
        *,
        start: int = 0,
        follow: bool = True,
        gap_timeout: Optional[float] = None,
        stream_timeout: float = 300.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's trace records as they stream (NDJSON lines).

        With ``follow`` (the default) the stream runs until the job
        reaches a terminal state; ``gap_timeout`` bounds each silent
        gap server-side, ``stream_timeout`` bounds the whole read
        client-side.
        """
        query = f"?start={start}&follow={1 if follow else 0}"
        if gap_timeout is not None:
            query += f"&timeout={gap_timeout}"
        conn = self._connection(timeout=stream_timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events{query}")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw).get("error", "")
                except json.JSONDecodeError:
                    message = raw[:200].decode("utf-8", "replace")
                raise ServeError(
                    f"GET /jobs/{job_id}/events -> {response.status}: {message}"
                )
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def wait(
        self, job_id: str, timeout: float = 60.0, poll: float = 0.05
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {status['state']!r} after {timeout}s"
                )
            time.sleep(poll)

    def run(
        self,
        *,
        edges: Optional[List[Any]] = None,
        graph_path: Optional[str] = None,
        int_labels: bool = False,
        config: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        use_cache: bool = True,
        wait_timeout: float = 60.0,
    ) -> Dict[str, Any]:
        """Submit, wait, and fetch the result payload in one call.

        Raises :class:`~repro.errors.ServeError` when the job ends in
        any state but ``done`` (the message carries the job's error).
        """
        job = self.submit(
            edges=edges,
            graph_path=graph_path,
            int_labels=int_labels,
            config=config,
            timeout=timeout,
            use_cache=use_cache,
        )
        status = self.wait(job["job_id"], timeout=wait_timeout)
        if status["state"] != "done":
            raise ServeError(
                f"job {job['job_id']} ended {status['state']!r}: {status['error']}"
            )
        return self.result(job["job_id"])

    def address(self) -> Union[str, Tuple[str, int]]:
        if self.socket_path is not None:
            return self.socket_path
        assert self.port is not None
        return (self.host, self.port)

    def __repr__(self) -> str:
        return f"ServeClient({self.address()!r})"
