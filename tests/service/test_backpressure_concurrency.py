"""Backpressure correctness under real concurrent submitters.

The 503 protocol is only trustworthy if the capacity check is atomic with
admission: N racing submitters must see *either* a 202 with a unique job id
*or* a 503 -- never a lost submission, never two submitters sharing a job
slot, and never an admitted job that fails to reach a terminal state.  The
queue-level tests pin the exact accounting (nothing drains, so admissions
must equal capacity precisely); the HTTP tests check the same invariants
through the full server stack with workers draining concurrently.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graph import planted_partition
from repro.service import DetectionService, ServiceServer
from repro.service.jobs import Job, JobQueue, JobState, QueueFullError


class TestQueueLevelRace:
    """No drain: admissions must match capacity exactly."""

    def test_concurrent_submitters_fill_to_capacity_exactly(self):
        capacity = 8
        q = JobQueue(capacity=capacity)
        threads = 16
        per_thread = 4
        accepted: list[str] = []
        rejected = [0]
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        def submitter():
            barrier.wait()  # maximize contention on the capacity check
            for _ in range(per_thread):
                try:
                    job = q.submit(Job(kind="detect"))
                    with lock:
                        accepted.append(job.job_id)
                except QueueFullError:
                    with lock:
                        rejected[0] += 1

        pool = [threading.Thread(target=submitter) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=10)
        assert len(accepted) == capacity
        assert rejected[0] == threads * per_thread - capacity
        assert len(set(accepted)) == capacity  # unique ids, no double admit

    def test_claim_never_yields_duplicates_under_race(self):
        capacity = 12
        q = JobQueue(capacity=capacity)
        for _ in range(capacity):
            q.submit(Job(kind="detect"))
        claimed: list[str] = []
        lock = threading.Lock()

        def worker():
            while True:
                job = q.claim(timeout=0.2)
                if job is None:
                    return
                with lock:
                    claimed.append(job.job_id)

        pool = [threading.Thread(target=worker) for _ in range(6)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=10)
        assert len(claimed) == capacity
        assert len(set(claimed)) == capacity  # each job claimed exactly once

    def test_running_count_returns_to_zero_under_race(self):
        # Claims, retries and settles race on the running count; a lost
        # update would leave it off zero once every job is done.
        q = JobQueue(capacity=64)
        jobs = [q.submit(Job(kind="detect")) for _ in range(64)]

        def worker():
            while (job := q.claim(timeout=0.2)) is not None:
                if job.attempts == 1:
                    q.requeue(job)
                else:
                    q.finalize(job, JobState.DONE, result={})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(6)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not [t for t in pool if t.is_alive()]
        assert all(job.state == JobState.DONE for job in jobs)
        assert q.running_count == 0 and q.pending_count == 0


def _post_graph(base, edges):
    req = urllib.request.Request(
        base + "/graph",
        data=json.dumps({"edges": edges}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), dict(exc.headers)


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return json.loads(resp.read().decode())


class TestHttpBackpressure:
    @pytest.fixture()
    def edges(self):
        # Big enough that one detection takes visible time, so a burst from
        # many threads overruns the 2-slot queue before the worker drains it.
        graph, _ = planted_partition(8, 25, 0.3, 0.02, seed=2)
        src, dst, _ = graph.edge_arrays()
        return [[int(u), int(v)] for u, v in zip(src, dst)]

    @pytest.fixture()
    def server(self):
        svc = DetectionService(num_workers=1, queue_capacity=2, seed=0)
        srv = ServiceServer(svc, port=0)
        srv.serve_background()
        yield srv
        srv.stop()

    def test_burst_sees_deterministic_503_with_retry_after(self, server, edges):
        base = server.address
        threads = 8
        per_thread = 3
        outcomes: list[tuple[int, dict, dict]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        def submitter():
            barrier.wait()
            for _ in range(per_thread):
                status, doc, headers = _post_graph(base, edges)
                with lock:
                    outcomes.append((status, doc, headers))

        pool = [threading.Thread(target=submitter) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)

        assert len(outcomes) == threads * per_thread  # nothing lost
        statuses = {status for status, _, _ in outcomes}
        assert statuses <= {202, 503}, f"unexpected statuses {statuses}"
        accepted = [doc for status, doc, _ in outcomes if status == 202]
        rejected = [
            (doc, headers) for status, doc, headers in outcomes if status == 503
        ]
        # With 24 near-simultaneous submissions, 1 worker and 2 queue slots,
        # backpressure must actually fire.
        assert rejected, "expected at least one 503 from the burst"
        for doc, headers in rejected:
            assert "Retry-After" in headers
            assert float(headers["Retry-After"]) > 0
            assert "error" in doc

        # Every accepted id is unique (no double-claimed slots) ...
        ids = [doc["job_id"] for doc in accepted]
        assert len(ids) == len(set(ids))

        # ... and every accepted job reaches exactly one terminal state.
        deadline = time.monotonic() + 120
        final = {}
        for job_id in ids:
            while time.monotonic() < deadline:
                doc = _get(base, f"/jobs/{job_id}?wait=10")
                if doc["state"] in ("done", "failed", "cancelled"):
                    final[job_id] = doc["state"]
                    break
        assert set(final) == set(ids)
        assert set(final.values()) == {"done"}

        # The server counted each rejection.
        health = _get(base, "/healthz")
        assert health["queue_pending"] == 0

    def test_rejected_submission_succeeds_on_retry(self, server, edges):
        """The 503 contract: backpressure is transient, not a dead end."""
        base = server.address
        # Fill the queue (1 running + 2 waiting).
        for _ in range(3):
            _post_graph(base, edges)
        status, doc, headers = _post_graph(base, edges)
        if status == 503:  # the worker may already have drained one
            deadline = time.monotonic() + 60
            while status == 503 and time.monotonic() < deadline:
                time.sleep(float(headers.get("Retry-After", "1")))
                status, doc, headers = _post_graph(base, edges)
        assert status == 202
        final = _get(base, f"/jobs/{doc['job_id']}?wait=30")
        assert final["state"] == "done"
