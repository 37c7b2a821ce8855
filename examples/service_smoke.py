"""End-to-end smoke test of the ``repro serve`` HTTP service.

Starts the server as a subprocess (exactly as an operator would), then
drives the full workflow over plain :mod:`urllib`:

1. generate an LFR benchmark graph and POST it as a detection job;
2. poll the job to completion and query a vertex's community;
3. POST an edge batch, wait for the warm-start repair, re-query;
4. check ``/healthz``, ``/diff``, and the ``/metrics`` job counters;
5. send back-to-back reads over one keep-alive connection and check that
   none waits on a delayed ACK;
6. POST the graph again with a ``timeout_s`` far below its detection time
   and check that the job fails as timed out and publishes nothing;
7. shut the server down cleanly via ``POST /shutdown``.

Run from the repository root::

    PYTHONPATH=src python examples/service_smoke.py

Exits non-zero (via assert) if any step misbehaves; the CI
``service-smoke`` job runs this script on every push.
"""

import http.client
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

PORT = int(os.environ.get("REPRO_SMOKE_PORT", "8737"))
BASE = f"http://127.0.0.1:{PORT}"
#: Back-to-back reads sent over one keep-alive connection.
KEEPALIVE_READS = 20
#: Linux's minimum delayed-ACK timeout: what each read would wait if the
#: server let Nagle hold a reply's body behind its headers.
DELAYED_ACK_S = 0.040


def request(method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        BASE + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        raw = resp.read().decode()
        try:
            return resp.status, json.loads(raw)
        except json.JSONDecodeError:
            return resp.status, raw


def wait_for(predicate, timeout=60, interval=0.1, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = predicate()
        if result is not None:
            return result
        time.sleep(interval)
    raise TimeoutError(f"timed out waiting for {what}")


def poll_job(job_id, state="done"):
    def check():
        _, doc = request("GET", f"/jobs/{job_id}")
        return doc if doc["state"] in ("done", "failed", "cancelled") else None

    doc = wait_for(check, what=f"job {job_id}")
    assert doc["state"] == state, f"job {job_id} ended {doc['state']}: {doc['error']}"
    return doc


def main():
    workdir = tempfile.mkdtemp(prefix="repro-smoke-")
    graph_path = os.path.join(workdir, "lfr.txt")
    trace_dir = os.path.join(workdir, "traces")

    subprocess.run(
        [sys.executable, "-m", "repro", "generate", "lfr",
         "--vertices", "800", "--avg-degree", "12", "--max-degree", "40",
         "--mixing", "0.2", "--seed", "42", "--output", graph_path],
        check=True,
    )
    with open(graph_path) as fh:
        edges = [
            [int(parts[0]), int(parts[1])]
            for parts in (ln.split() for ln in fh)
            if parts and not parts[0].startswith("#")
        ]

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(PORT),
         "--workers", "2", "--trace-dir", trace_dir],
    )
    try:
        # 1. The server comes up and reports healthy.
        def healthy():
            try:
                return request("GET", "/healthz")[1]
            except (urllib.error.URLError, ConnectionError, OSError):
                return None

        health = wait_for(healthy, timeout=30, what="server startup")
        assert health["status"] == "ok", health
        print(f"serve up: {health['workers']} workers")

        # 2. Submit the graph, poll the detection job, query membership.
        status, doc = request("POST", "/graph", {"edges": edges, "seed": 0})
        assert status == 202, (status, doc)
        job = poll_job(doc["job_id"])
        version = job["result"]["version"]
        q_full = job["result"]["modularity"]
        detect_s = job["finished_at"] - job["started_at"]
        print(f"detect done: version={version} Q={q_full:.4f} "
              f"levels={job['result']['num_levels']} in {detect_s * 1e3:.1f} ms")
        assert q_full > 0.3, "LFR mu=0.2 should yield strong communities"

        status, member = request("GET", "/membership?vertex=0")
        assert status == 200 and member["version"] == version

        # 3. Edge batch -> warm-start repair -> new version.
        add = [[i, (i + 37) % 800] for i in range(0, 60, 2)]
        status, doc = request("POST", "/edges", {"add": add})
        assert status == 202, (status, doc)
        upd = poll_job(doc["job_id"])
        new_version = upd["result"]["version"]
        assert upd["result"]["base_version"] == version
        print(f"update done: version={new_version} "
              f"Q={upd['result']['modularity']:.4f}")

        status, member2 = request("GET", "/membership?vertex=0")
        assert member2["version"] == new_version

        # Point-in-time query against the pre-update version still works.
        status, old = request("GET", f"/membership?vertex=0&version={version}")
        assert old["version"] == version

        # 4. Diff + metrics counters.
        status, diff = request("GET", f"/diff?from={version}&to={new_version}")
        assert status == 200 and diff["num_added"] == 0
        print(f"diff v{version}->v{new_version}: {diff['num_moved']} moved")

        status, metrics = request("GET", "/metrics")
        assert status == 200
        assert "repro_service_jobs_submitted 2" in metrics, metrics
        assert "repro_service_jobs_completed 2" in metrics, metrics
        assert "repro_service_latest_version 2" in metrics, metrics

        # The rotating trace sink wrote segments for both jobs.
        segments = [f for f in os.listdir(trace_dir) if f.endswith(".jsonl")]
        assert segments, "service trace segments missing"

        # 5. Back-to-back reads over one keep-alive connection.  A reply
        # leaves in two writes (headers, then body); unless the server sets
        # TCP_NODELAY, each read stalls on the client's delayed ACK.
        conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=30)
        try:
            t0 = time.perf_counter()
            for i in range(KEEPALIVE_READS):
                conn.request("GET", f"/membership?vertex={i}")
                resp = conn.getresponse()
                assert resp.status == 200, resp.read()
                json.loads(resp.read())
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        stall_s = KEEPALIVE_READS * DELAYED_ACK_S
        print(f"{KEEPALIVE_READS} keep-alive reads in {elapsed * 1e3:.1f} ms")
        assert elapsed < stall_s / 4, (
            f"{KEEPALIVE_READS} keep-alive reads took {elapsed:.3f}s; "
            f"delayed-ACK stalls would take {stall_s:.2f}s"
        )

        # 6. A deadline far below the detection time: the job's own
        # checkpoint trips at an event the run emits, and nothing is stored.
        timeout_s = detect_s / 20
        status, doc = request(
            "POST", "/graph", {"edges": edges, "seed": 0, "timeout_s": timeout_s}
        )
        assert status == 202, (status, doc)
        late = poll_job(doc["job_id"], state="failed")
        assert "timed out after" in late["error"], late
        assert late["result"] is None, late
        print(f"timeout_s={timeout_s:.4f}: {late['error']}")
        status, metrics = request("GET", "/metrics")
        assert "repro_service_jobs_timeout 1" in metrics, metrics
        assert "repro_service_latest_version 2" in metrics, metrics

        # 7. Clean shutdown via the API.
        status, doc = request("POST", "/shutdown")
        assert status == 202
        rc = server.wait(timeout=30)
        assert rc == 0, f"server exited {rc}"
        print("shutdown clean; service smoke test passed")
    finally:
        if server.poll() is None:
            server.terminate()
            server.wait(timeout=10)


if __name__ == "__main__":
    main()
