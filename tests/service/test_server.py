"""HTTP-level tests: routes, backpressure 503s, liveness under load."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graph import planted_partition
from repro.service import DetectionService, ServiceServer


def _request(base, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            raw = resp.read().decode()
            status, headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        status, headers = exc.code, dict(exc.headers)
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError:
        payload = raw
    return status, payload, headers


def _poll_done(base, job_id, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, doc, _ = _request(base, "GET", f"/jobs/{job_id}")
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} did not finish")


@pytest.fixture()
def edges():
    graph, _ = planted_partition(5, 12, 0.4, 0.02, seed=4)
    src, dst, _ = graph.edge_arrays()
    return [[int(u), int(v)] for u, v in zip(src, dst)]


@pytest.fixture()
def server():
    svc = DetectionService(num_workers=2, queue_capacity=4, seed=0)
    srv = ServiceServer(svc, port=0)
    srv.serve_background()
    yield srv
    srv.stop()


class TestRoutes:
    def test_full_workflow(self, server, edges):
        base = server.address
        status, doc, _ = _request(base, "POST", "/graph", {"edges": edges})
        assert status == 202 and doc["state"] == "pending"
        done = _poll_done(base, doc["job_id"])
        assert done["state"] == "done"
        version = done["result"]["version"]

        status, member, _ = _request(base, "GET", "/membership?vertex=0")
        assert status == 200 and member["version"] == version
        assert isinstance(member["community"], int)

        status, full, _ = _request(base, "GET", "/membership")
        assert len(full["membership"]) == done["result"]["num_vertices"]

        status, doc, _ = _request(
            base, "POST", "/edges",
            {"add": [[0, 13], [1, 25]], "remove": [edges[0]]},
        )
        assert status == 202
        upd = _poll_done(base, doc["job_id"])
        assert upd["state"] == "done"
        assert upd["result"]["base_version"] == version

        status, diff, _ = _request(
            base, "GET", f"/diff?from={version}&to={upd['result']['version']}"
        )
        assert status == 200
        assert diff["from_version"] == version
        assert isinstance(diff["moved_vertices"], list)

        status, versions, _ = _request(base, "GET", "/versions")
        assert [v["version"] for v in versions["versions"]] == [1, 2]
        assert versions["versions"][1]["parent_version"] == 1

    def test_healthz_and_metrics(self, server):
        status, health, _ = _request(server.address, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, text, _ = _request(server.address, "GET", "/metrics")
        assert status == 200
        assert "repro_service_queue_capacity 4" in text

    def test_unknown_routes_404(self, server):
        assert _request(server.address, "GET", "/nope")[0] == 404
        assert _request(server.address, "POST", "/nope")[0] == 404
        assert _request(server.address, "GET", "/jobs/job-none")[0] == 404
        assert _request(server.address, "GET", "/membership")[0] == 404  # no snapshot

    def test_bad_bodies_400(self, server):
        base = server.address
        assert _request(base, "POST", "/graph", {"nope": 1})[0] == 400
        assert _request(base, "POST", "/edges", {"zilch": 1})[0] == 400
        status, doc, _ = _request(base, "POST", "/graph", {"edges": [[1]]})
        assert status == 400 and "expected [u, v]" in doc["error"]
        assert _request(base, "GET", "/diff")[0] == 400

    def test_plain_text_graph_body(self, server):
        base = server.address
        body = "0 1\n1 2\n2 0\n".encode()
        req = urllib.request.Request(
            base + "/graph", data=body, method="POST",
            headers={"Content-Type": "text/plain"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            doc = json.loads(resp.read())
        assert resp.status == 202
        assert doc["num_vertices"] == 3 and doc["num_edges"] == 3

    def test_cancel_via_delete(self, server, edges):
        base = server.address
        release = threading.Event()
        # Jam the 2 workers so the next job stays pending and cancellable.
        original = server.service.pool.runner

        def blocking(job, ctx):
            release.wait(10)
            return original(job, ctx)

        server.service.pool.runner = blocking
        try:
            held = [
                _request(base, "POST", "/graph", {"edges": edges})[1]["job_id"]
                for _ in range(2)
            ]
            _, doc, _ = _request(base, "POST", "/graph", {"edges": edges})
            status, cancelled, _ = _request(
                base, "DELETE", f"/jobs/{doc['job_id']}"
            )
            assert status == 200 and cancelled["cancelled"] is True
            assert cancelled["state"] == "cancelled"
        finally:
            release.set()
            server.service.pool.runner = original
            for job_id in held:
                _poll_done(base, job_id)


class TestBackpressureAndLiveness:
    def test_queue_full_returns_503_with_retry_after(self, edges):
        release = threading.Event()

        def runner(job, ctx):
            release.wait(10)
            return {}

        svc = DetectionService(num_workers=1, queue_capacity=1, runner=runner)
        srv = ServiceServer(svc, port=0)
        srv.serve_background()
        try:
            base = srv.address
            first = _request(base, "POST", "/graph", {"edges": edges})
            assert first[0] == 202
            deadline = time.monotonic() + 5
            while not svc.pool.running_jobs:  # worker picked the job up
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert _request(base, "POST", "/graph", {"edges": edges})[0] == 202
            status, doc, headers = _request(
                base, "POST", "/graph", {"edges": edges}
            )
            assert status == 503
            assert "queue full" in doc["error"]
            assert headers.get("Retry-After") == "1"
            assert "repro_service_jobs_rejected 1" in svc.metrics_text()
        finally:
            release.set()
            srv.stop()

    def test_healthz_and_metrics_respond_during_inflight_job(self, edges):
        """The ISSUE acceptance bar: liveness endpoints never block on jobs."""
        release = threading.Event()
        entered = threading.Event()

        def runner(job, ctx):
            entered.set()
            release.wait(10)
            return {}

        svc = DetectionService(num_workers=1, runner=runner)
        srv = ServiceServer(svc, port=0)
        srv.serve_background()
        try:
            base = srv.address
            _request(base, "POST", "/graph", {"edges": edges})
            assert entered.wait(5)
            t0 = time.monotonic()
            status, health, _ = _request(base, "GET", "/healthz")
            assert status == 200
            assert health["jobs_running"] == 1
            status, metrics, _ = _request(base, "GET", "/metrics")
            assert status == 200
            assert "repro_service_jobs_running 1" in metrics
            assert time.monotonic() - t0 < 2  # answered while the job ran
        finally:
            release.set()
            srv.stop()

    def test_shutdown_endpoint_stops_server(self, edges):
        svc = DetectionService(num_workers=1)
        srv = ServiceServer(svc, port=0)
        srv.serve_background()
        base = srv.address
        status, doc, _ = _request(base, "POST", "/shutdown")
        assert status == 202
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                _request(base, "GET", "/healthz")
            except (ConnectionError, OSError):
                break
            time.sleep(0.05)
        assert svc.health()["status"] == "shutting_down"
        srv.stop()  # idempotent

    def test_refused_client_sees_service_shutting_down(self, monkeypatch):
        # /shutdown stops the server on a background thread, which may be
        # descheduled between the steps of stop(); a slow service.close()
        # stands in for that.  A client refused at the socket must already
        # find the service shutting down.
        svc = DetectionService(num_workers=1)
        close = svc.close

        def slow_close(*args, **kwargs):
            time.sleep(0.5)
            close(*args, **kwargs)

        monkeypatch.setattr(svc, "close", slow_close)
        srv = ServiceServer(svc, port=0)
        srv.serve_background()
        assert _request(srv.address, "POST", "/shutdown")[0] == 202
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                _request(srv.address, "GET", "/healthz")
            except (ConnectionError, OSError):
                break
            time.sleep(0.05)
        assert svc.health()["status"] == "shutting_down"
        srv.stop()


def test_submissions_after_close_get_503(edges):
    svc = DetectionService(num_workers=1)
    srv = ServiceServer(svc, port=0)
    srv.serve_background()
    try:
        svc.queue.close()
        status, doc, _ = _request(srv.address, "POST", "/graph", {"edges": edges})
        assert status == 503
        assert "closed" in doc["error"]
    finally:
        srv.stop()
