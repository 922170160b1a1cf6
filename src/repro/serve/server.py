"""The daemon's HTTP front: TCP or unix-socket, stdlib only.

A thin, threaded JSON-over-HTTP layer on top of
:class:`~repro.serve.jobs.JobManager` — every endpoint body is defined
in :mod:`repro.serve.protocol`; this module only routes, serializes,
and maps the error hierarchy to status codes:

====== ============================ =======================================
Method Path                          Body
====== ============================ =======================================
GET    ``/healthz``                  ``{"ok", "protocol"}``
GET    ``/stats``                    jobs / queue / cache / pool counters
POST   ``/jobs``                     submission → ``{"job_id", "state", ...}``
GET    ``/jobs/<id>``                job status
GET    ``/jobs/<id>/events``         NDJSON trace stream (replay + follow)
GET    ``/jobs/<id>/result``         served payload (409 until done)
POST   ``/jobs/<id>/cancel``         trip the job's cancel token
====== ============================ =======================================

Error mapping: bad submissions (:class:`~repro.errors.ParameterError`)
→ 400, unknown jobs → 404, not-done results → 409, a body declared
larger than :data:`MAX_BODY_BYTES`
(:class:`~repro.errors.RequestTooLargeError`) → 413 (counted as
``rejected_too_large`` in ``/stats``), a full queue
(:class:`~repro.errors.QueueFullError`) → 429, other
:class:`~repro.errors.ServeError` → 400.

The events endpoint streams the job's :class:`~repro.obs.ReplaySink`
as NDJSON — first a replay of everything emitted so far, then a live
follow until the job reaches a terminal state (which closes the sink
and therefore the stream).  ``?follow=0`` returns only the replay;
``?start=N`` resumes from record N.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    ParameterError,
    QueueFullError,
    RequestTooLargeError,
    ServeError,
)
from repro.serve.jobs import Job, JobManager
from repro.serve.protocol import JOB_DONE, PROTOCOL_VERSION, parse_submission

__all__ = [
    "MAX_BODY_BYTES",
    "ClusterHTTPServer",
    "UnixClusterHTTPServer",
    "make_server",
]

#: Largest request body the daemon reads (64 MiB).  A request declaring
#: more gets a 413 before any of its body is read.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default per-wait bound (seconds) for the events follow stream; a gap
#: longer than this ends the stream early (the client can resume with
#: ``?start=N``).
FOLLOW_GAP_TIMEOUT = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`JobManager`."""

    # Keep-alive for the JSON endpoints; the NDJSON stream closes its
    # connection (no Content-Length) and says so in its headers.
    protocol_version = "HTTP/1.1"

    server: "ClusterHTTPServer"  # narrowed for mypy

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            sys.stderr.write(
                "%s - - [%s] %s\n"
                % (self.address_string(), self.log_date_time_string(), format % args)
            )

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json_body(self) -> Any:
        header = self.headers.get("Content-Length", "") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self.close_connection = True
            raise ParameterError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        if length > MAX_BODY_BYTES:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            raise RequestTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"request body is not valid JSON: {exc}") from exc

    def _lookup_job(self, job_id: str) -> Optional[Job]:
        job = self.server.manager.job(job_id)
        if job is None:
            self._send_error_json(404, f"unknown job id {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802  (http.server contract)
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        if parts == ["healthz"]:
            self._send_json(200, {"ok": True, "protocol": PROTOCOL_VERSION})
        elif parts == ["stats"]:
            self._send_json(200, self.server.manager.stats())
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self._lookup_job(parts[1])
            if job is not None:
                self._send_json(200, job.status())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            job = self._lookup_job(parts[1])
            if job is not None:
                if job.state != JOB_DONE or job.result is None:
                    self._send_error_json(
                        409, f"job {job.job_id} is {job.state}, not done"
                    )
                else:
                    self._send_json(200, {"job_id": job.job_id, **job.result})
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            job = self._lookup_job(parts[1])
            if job is not None:
                self._stream_events(job, query)
        else:
            self._send_error_json(404, f"no such endpoint: GET {url.path}")

    def do_POST(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                self._submit(self._read_json_body())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                job = self._lookup_job(parts[1])
                if job is not None:
                    body = self._read_json_body()
                    reason = body.get("reason") if isinstance(body, dict) else None
                    self.server.manager.cancel(job.job_id, reason=reason)
                    self._send_json(200, job.status())
            else:
                self._send_error_json(404, f"no such endpoint: POST {url.path}")
        except RequestTooLargeError as exc:
            self.server.manager.note_too_large()
            self._send_error_json(413, str(exc))
        except QueueFullError as exc:
            self._send_error_json(429, str(exc))
        except (ParameterError, ServeError) as exc:
            self._send_error_json(400, str(exc))

    # ------------------------------------------------------------------
    # endpoint bodies
    # ------------------------------------------------------------------
    def _submit(self, payload: Any) -> None:
        submission = parse_submission(payload)
        job = self.server.manager.submit(
            submission.graph,
            submission.config,
            timeout=submission.timeout,
            use_cache=submission.use_cache,
            graph_hash=submission.graph_hash,
        )
        self._send_json(
            202,
            {
                "job_id": job.job_id,
                "state": job.state,
                "cached": job.cached,
                "cache_key": job.cache_key,
            },
        )

    def _stream_events(self, job: Job, query: Dict[str, list]) -> None:
        try:
            start = int(query.get("start", ["0"])[0])
            follow = query.get("follow", ["1"])[0] not in ("0", "false")
            gap = float(query.get("timeout", [str(FOLLOW_GAP_TIMEOUT)])[0])
        except ValueError as exc:
            self._send_error_json(400, f"bad events query: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        try:
            if follow:
                for record in job.sink.follow(start=start, timeout=gap):
                    self.wfile.write(json.dumps(record, sort_keys=True).encode("utf-8"))
                    self.wfile.write(b"\n")
                    self.wfile.flush()
            else:
                for record in job.sink.replay(start=start):
                    self.wfile.write(json.dumps(record, sort_keys=True).encode("utf-8"))
                    self.wfile.write(b"\n")
                self.wfile.flush()
        except OSError:
            # Follower went away (broken pipe); nothing to clean up —
            # the sink belongs to the job, not to this reader.
            return


class ClusterHTTPServer(ThreadingHTTPServer):
    """Threaded TCP front over one :class:`JobManager`.

    One handler thread per connection; long-lived events streams occupy
    their thread for the duration of the follow, which is why the
    server threads are daemonic (they die with the daemon).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        verbose: bool = False,
    ):
        self.manager = manager
        self.verbose = verbose
        super().__init__(address, _Handler)


class UnixClusterHTTPServer(ClusterHTTPServer):
    """The same front bound to a local ``AF_UNIX`` socket path."""

    address_family = socket.AF_UNIX

    def __init__(self, socket_path: str, manager: JobManager, verbose: bool = False):
        self._socket_path = socket_path
        # type ignore: the base annotates (host, port), unix binds a str
        super().__init__(socket_path, manager, verbose)  # type: ignore[arg-type]

    def server_bind(self) -> None:
        # A stale socket file from a previous daemon would make bind()
        # fail with EADDRINUSE even though nothing is listening.
        try:
            os.unlink(self._socket_path)
        except FileNotFoundError:
            pass
        # Skip HTTPServer.server_bind: it unpacks (host, port) and calls
        # getfqdn(), neither of which exists for a unix address.
        socketserver.TCPServer.server_bind(self)
        self.server_name = "localhost"
        self.server_port = 0

    def get_request(self) -> Tuple[socket.socket, Any]:
        request, _ = self.socket.accept()
        # BaseHTTPRequestHandler formats client_address[0]; a unix peer
        # has no (host, port), so substitute a printable placeholder.
        return request, ("local", 0)

    def server_close(self) -> None:
        super().server_close()
        try:
            os.unlink(self._socket_path)
        except FileNotFoundError:
            pass


def make_server(
    manager: JobManager,
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    socket_path: Optional[str] = None,
    verbose: bool = False,
) -> Union[ClusterHTTPServer, UnixClusterHTTPServer]:
    """Build the HTTP front for ``manager`` (TCP or unix socket).

    Exactly one of ``port`` / ``socket_path`` must be given; ``port=0``
    asks the OS for a free port (read it back from
    ``server.server_address``).  The caller owns both lifecycles:
    ``manager.start()`` before serving, ``server.shutdown()`` +
    ``manager.shutdown()`` to stop.
    """
    if (port is None) == (socket_path is None):
        raise ParameterError("pass exactly one of port= or socket_path=")
    if socket_path is not None:
        return UnixClusterHTTPServer(socket_path, manager, verbose=verbose)
    assert port is not None
    return ClusterHTTPServer((host, port), manager, verbose=verbose)
