"""HTTP round-trips: TCP and unix-socket daemons driven by ServeClient.

The acceptance-critical checks live here: served dendrograms are
bitwise-identical to direct in-process runs across all four backends,
and the daemon holds >= 2 jobs running concurrently over HTTP.
"""

from __future__ import annotations

import http.client
import json
import threading
from contextlib import contextmanager

import pytest

from repro.cluster.serialize import dumps_dendrogram
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.errors import QueueFullError, ServeError
from repro.graph.graph import Graph
from repro.serve import jobs as jobs_module
from repro.serve.client import ServeClient
from repro.serve.jobs import JobManager
from repro.serve.protocol import JOB_CANCELLED, JOB_DONE, JOB_RUNNING
from repro.serve.server import make_server

# Two K4 cliques bridged by one edge: enough structure for a real
# dendrogram, small enough that process/shm backends stay quick.
EDGES = [
    ["a0", "a1"], ["a0", "a2"], ["a0", "a3"],
    ["a1", "a2"], ["a1", "a3"], ["a2", "a3"],
    ["b0", "b1"], ["b0", "b2"], ["b0", "b3"],
    ["b1", "b2"], ["b1", "b3"], ["b2", "b3"],
    ["a3", "b0"],
]

BACKEND_CONFIGS = [
    {"backend": "serial", "coarse": True},
    {"backend": "thread", "num_workers": 2, "coarse": True},
    {"backend": "process", "num_workers": 2, "coarse": True},
    # The shared-memory arena runs the batch and sharded engines only.
    {"backend": "shm", "num_workers": 2, "coarse": True, "engine": "batch"},
]


@contextmanager
def serving(manager, **server_kwargs):
    server = make_server(manager, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    manager.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        manager.shutdown()


@pytest.fixture()
def client():
    with serving(JobManager(job_workers=2), port=0) as server:
        yield ServeClient(port=server.server_address[1])


class TestBasics:
    def test_health_and_stats(self, client):
        health = client.health()
        assert health["ok"] and health["protocol"] == 1
        stats = client.stats()
        assert stats["submitted"] == 0
        assert "pool" in stats and "cache" in stats

    def test_submit_poll_result(self, client):
        submitted = client.submit(edges=EDGES, config={"backend": "serial"})
        job_id = submitted["job_id"]
        status = client.wait(job_id)
        assert status["state"] == JOB_DONE
        result = client.result(job_id)
        assert result["job_id"] == job_id
        assert result["summary"]["num_edges"] == len(EDGES)
        assert len(result["edge_labels"]) == len(EDGES)

    def test_run_convenience(self, client):
        result = client.run(edges=EDGES, config={"backend": "serial"})
        assert result["summary"]["schema_version"] == 2


class TestBitwiseIdentity:
    @pytest.mark.parametrize(
        "config", BACKEND_CONFIGS, ids=[c["backend"] for c in BACKEND_CONFIGS]
    )
    def test_served_matches_direct(self, client, config):
        served = client.run(edges=EDGES, config=config)
        direct = LinkClustering(
            Graph.from_edge_list([tuple(e) for e in EDGES]),
            config=RunConfig.from_dict(config),
        ).run()
        assert served["dendrogram"] == dumps_dendrogram(direct.dendrogram)
        _, level, density = direct.best_partition()
        assert served["summary"]["best_cut"]["level"] == level
        assert served["summary"]["best_cut"]["density"] == pytest.approx(density)

    def test_cache_hit_on_duplicate_submit(self, client):
        config = {"backend": "serial"}
        first = client.submit(edges=EDGES, config=config)
        client.wait(first["job_id"])
        second = client.submit(edges=EDGES, config=config)
        assert second["cached"] and second["state"] == JOB_DONE
        assert second["cache_key"] == first["cache_key"]
        res1 = client.result(first["job_id"])
        res2 = client.result(second["job_id"])
        res1.pop("job_id"), res2.pop("job_id")
        assert res1 == res2


class TestErrors:
    def test_bad_submission_is_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client.submit(edges=[])
        with pytest.raises(ServeError, match="400"):
            client.submit(edges=EDGES, config={"engine": "quantum"})

    def test_chained_on_shm_is_400(self, client):
        config = {"backend": "shm", "num_workers": 2, "coarse": True}
        with pytest.raises(ServeError, match="400.*engine='chained'.*batch"):
            client.submit(edges=EDGES, config=config)

    def test_epsilon_key_is_400(self, client):
        config = {"coarse": True, "engine": "sharded", "epsilon": 0.5}
        with pytest.raises(ServeError, match="400.*unknown RunConfig keys.*epsilon"):
            client.submit(edges=EDGES, config=config)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.status("j999")
        with pytest.raises(ServeError, match="404"):
            client.result("j999")

    def test_result_before_done_is_409(self, client, monkeypatch):
        gate = _gate(monkeypatch)
        submitted = client.submit(edges=EDGES)
        try:
            with pytest.raises(ServeError, match="409"):
                client.result(submitted["job_id"])
        finally:
            gate.release.set()

    def test_queue_full_is_429(self, monkeypatch):
        gate = _gate(monkeypatch)
        manager = JobManager(job_workers=1, queue_size=1)
        with serving(manager, port=0) as server:
            client = ServeClient(port=server.server_address[1])
            running = client.submit(edges=EDGES)
            _wait_for_state(client, running["job_id"], JOB_RUNNING)
            client.submit(edges=EDGES, config={"seed": 1})  # fills the queue
            try:
                with pytest.raises(QueueFullError, match="full"):
                    client.submit(edges=EDGES, config={"seed": 2})
            finally:
                gate.release.set()


class TestHostileBodies:
    """Malformed request bodies get a 400 and leave the daemon serving."""

    @staticmethod
    def _post(port, headers, body=b""):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders()
            if body:
                conn.send(body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "headers, body",
        [
            ({"Content-Length": "abc"}, b"{}"),
            ({"Content-Length": "3"}, b"\x80{}"),
            # A negative length used to read until the client hung up.
            ({"Content-Length": "-5"}, b"{}"),
        ],
        ids=["non_integer_length", "undecodable_body", "negative_length"],
    )
    def test_bad_body_is_400_and_daemon_keeps_serving(self, headers, body):
        with serving(JobManager(job_workers=1), port=0) as server:
            port = server.server_address[1]
            status, payload = self._post(port, headers, body)
            assert status == 400
            assert "Content-Length" in payload["error"] or "JSON" in payload["error"]
            assert ServeClient(port=port).health()["ok"]


class _GateRun:
    started = None
    release = None

    def __init__(self, graph, *, config=None, tracer=None, cancel=None, runtime=None):
        self.tracer = tracer
        self.cancel = cancel

    def run(self):
        type(self).started.set()
        while not type(self).release.wait(0.01):
            if self.cancel is not None:
                self.cancel.raise_if_cancelled()
        from repro.graph import generators

        return LinkClustering(generators.caveman_graph(2, 3)).run()


def _gate(monkeypatch):
    class Gate(_GateRun):
        started = threading.Event()
        release = threading.Event()

    monkeypatch.setattr(jobs_module, "LinkClustering", Gate)
    return Gate


def _wait_for_state(client, job_id, state, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while client.status(job_id)["state"] != state:
        assert time.monotonic() < deadline, f"job never reached {state}"
        time.sleep(0.01)


class TestCancelOverHTTP:
    def test_cancel_running_job(self, client, monkeypatch):
        gate = _gate(monkeypatch)
        submitted = client.submit(edges=EDGES)
        job_id = submitted["job_id"]
        _wait_for_state(client, job_id, JOB_RUNNING)
        assert gate.started.wait(5)
        status = client.cancel(job_id, reason="stop it")
        assert status["cancel_requested"]
        final = client.wait(job_id)
        assert final["state"] == JOB_CANCELLED


class TestConcurrency:
    def test_two_jobs_running_at_once_over_http(self, client, monkeypatch):
        gate = _gate(monkeypatch)
        a = client.submit(edges=EDGES, use_cache=False)
        b = client.submit(edges=EDGES, config={"seed": 1}, use_cache=False)
        _wait_for_state(client, a["job_id"], JOB_RUNNING)
        _wait_for_state(client, b["job_id"], JOB_RUNNING)
        gate.release.set()
        assert client.wait(a["job_id"])["state"] == JOB_DONE
        assert client.wait(b["job_id"])["state"] == JOB_DONE


class TestEventStream:
    def test_replay_after_done(self, client):
        submitted = client.submit(edges=EDGES, config={"backend": "serial"})
        client.wait(submitted["job_id"])
        records = list(client.events(submitted["job_id"], follow=False))
        states = [
            r["attrs"]["state"]
            for r in records
            if r["kind"] == "event" and r["name"] == "job:state"
        ]
        assert states == ["queued", "running", "done"]
        # Real sweep telemetry rode along with the lifecycle events.
        assert any(r["kind"] == "span" for r in records)
        # Sequence numbers let a client resume: replay from the tail.
        tail = list(client.events(submitted["job_id"], start=len(records) - 1, follow=False))
        assert len(tail) == 1

    def test_live_follow_sees_completion(self, client, monkeypatch):
        gate = _gate(monkeypatch)
        submitted = client.submit(edges=EDGES)
        job_id = submitted["job_id"]
        seen = []

        def follow():
            for record in client.events(job_id, follow=True):
                seen.append(record)

        reader = threading.Thread(target=follow, daemon=True)
        reader.start()
        assert gate.started.wait(5)
        gate.release.set()
        reader.join(timeout=10)
        # The stream ended on its own when the job's tracer closed.
        assert not reader.is_alive()
        states = [
            r["attrs"]["state"]
            for r in seen
            if r["kind"] == "event" and r["name"] == "job:state"
        ]
        assert states == ["queued", "running", "done"]


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        with serving(JobManager(job_workers=1), socket_path=socket_path):
            client = ServeClient(socket_path=socket_path)
            assert client.health()["ok"]
            result = client.run(edges=EDGES, config={"backend": "serial"})
            direct = LinkClustering(
                Graph.from_edge_list([tuple(e) for e in EDGES])
            ).run()
            assert result["dendrogram"] == dumps_dendrogram(direct.dendrogram)

    def test_stale_socket_is_replaced(self, tmp_path):
        socket_path = tmp_path / "repro.sock"
        socket_path.write_text("stale")
        with serving(JobManager(job_workers=1), socket_path=str(socket_path)):
            client = ServeClient(socket_path=str(socket_path))
            assert client.health()["ok"]
        assert not socket_path.exists()  # server_close cleaned up


class TestServerConstruction:
    def test_exactly_one_transport(self):
        manager = JobManager(job_workers=1)
        try:
            with pytest.raises(Exception, match="exactly one"):
                make_server(manager)
            with pytest.raises(Exception, match="exactly one"):
                make_server(manager, port=0, socket_path="/tmp/x.sock")
        finally:
            manager.shutdown()

    def test_payloads_are_json_clean(self, client):
        submitted = client.submit(edges=EDGES, config={"backend": "serial"})
        client.wait(submitted["job_id"])
        json.dumps(client.result(submitted["job_id"]))
        json.dumps(client.stats())
