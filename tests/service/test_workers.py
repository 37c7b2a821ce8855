"""Tests for the worker pool and the embeddable DetectionService.

Covers the service-concurrency edge cases the subsystem exists for:
queue-full backpressure, cancellation of a *running* job, per-job timeout,
retry/backoff exhaustion surfacing the last error, and the warm-start
update matching a cold full re-run on the same final graph.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.graph import planted_partition
from repro.metrics import modularity_from_labels
from repro.observability import ListSink
from repro.parallel import (
    EdgeBatch,
    apply_edge_batch,
    detect_communities,
    incremental_louvain,
)
from repro.service import (
    DetectionService,
    JobState,
    QueueFullError,
    TransientJobError,
)


@pytest.fixture(scope="module")
def graph():
    g, _ = planted_partition(6, 15, 0.4, 0.02, seed=3)
    return g


def blocking_service(**kwargs):
    """A one-worker service whose runner blocks until ``release`` is set."""
    release = threading.Event()
    entered = threading.Event()

    def runner(job, ctx):
        entered.set()
        while not release.wait(0.01):
            ctx.check_cancelled()
        ctx.check_cancelled()
        return {"ok": True}

    kwargs.setdefault("num_workers", 1)
    svc = DetectionService(runner=runner, **kwargs)
    return svc, release, entered


class TestBackpressure:
    def test_queue_full_raises_without_blocking(self, graph):
        svc, release, entered = blocking_service(queue_capacity=2)
        try:
            running = svc.submit_graph(graph)
            entered.wait(5)  # the worker holds this one; queue is empty again
            svc.submit_graph(graph)
            svc.submit_graph(graph)
            t0 = time.monotonic()
            with pytest.raises(QueueFullError, match="queue full"):
                svc.submit_graph(graph)
            assert time.monotonic() - t0 < 0.5  # rejected, not blocked
            release.set()
            assert svc.wait(running.job_id, timeout=10).state == JobState.DONE
        finally:
            release.set()
            svc.close()


class TestCancellation:
    def test_cancel_running_job(self, graph):
        svc, release, entered = blocking_service()
        try:
            job = svc.submit_graph(graph)
            assert entered.wait(5)
            assert svc.cancel(job.job_id) is True
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.CANCELLED
            assert job.result is None
            assert "cancel" in job.error
        finally:
            release.set()
            svc.close()

    def test_cancel_interrupts_real_detection_run(self):
        # A big enough graph that cancellation lands mid-run, observed
        # through the per-job trace sink rather than between jobs.
        big, _ = planted_partition(20, 60, 0.3, 0.01, seed=9)
        svc = DetectionService(num_workers=1)
        try:
            job = svc.submit_graph(big)
            deadline = time.monotonic() + 10
            while job.state != JobState.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.002)
            svc.cancel(job.job_id)
            job = svc.wait(job.job_id, timeout=30)
            assert job.state == JobState.CANCELLED
            assert job.result is None
            assert svc.store.latest_version() is None  # nothing published
        finally:
            svc.close()

    def test_cancel_pending_job(self, graph):
        svc, release, entered = blocking_service(queue_capacity=4)
        try:
            svc.submit_graph(graph)
            entered.wait(5)
            queued = svc.submit_graph(graph)
            assert svc.cancel(queued.job_id) is True
            assert queued.state == JobState.CANCELLED
        finally:
            release.set()
            svc.close()


class TestTimeout:
    def test_per_job_timeout_fails_the_job(self, graph):
        svc, release, entered = blocking_service()
        try:
            job = svc.submit_graph(graph, timeout=0.1)
            assert entered.wait(5)
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.FAILED
            assert "timed out after 0.1s" in job.error
            assert job.timed_out
        finally:
            release.set()
            svc.close()

    def test_timeout_is_not_retried(self, graph):
        svc, release, entered = blocking_service()
        try:
            job = svc.submit_graph(graph, timeout=0.1, max_retries=3)
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.FAILED
            assert job.attempts == 1
        finally:
            release.set()
            svc.close()

    def test_timeout_interrupts_real_detection_run(self):
        # No thread watches the clock: the deadline trips at the next event
        # the run emits.  The hash plane takes seconds on this graph, far
        # past the deadline.
        big, _ = planted_partition(40, 100, 0.2, 0.005, seed=9)
        sink = ListSink()
        with DetectionService(num_workers=1, sink=sink) as svc:
            job = svc.submit_graph(big, timeout=0.25, backend="hash")
            job = svc.wait(job.job_id, timeout=30)
            assert job.state == JobState.FAILED
            assert "timed out after 0.25s" in job.error
            assert job.timed_out
            assert svc.store.latest_version() is None  # nothing published
        kinds = [e.kind for e in sink.events if e.data.get("job_id") == job.job_id]
        assert "run_start" in kinds and "run_end" not in kinds  # stopped mid-run

    def test_fast_job_beats_its_timeout(self, graph):
        svc = DetectionService(num_workers=1)
        try:
            job = svc.submit_graph(graph, timeout=30)
            job = svc.wait(job.job_id, timeout=30)
            assert job.state == JobState.DONE
        finally:
            svc.close()


class TestRetries:
    def test_exhaustion_surfaces_last_error(self):
        calls = []

        def runner(job, ctx):
            calls.append(time.monotonic())
            raise TransientJobError(f"flaky #{len(calls)}")

        svc = DetectionService(
            num_workers=1, runner=runner
        )
        try:
            g, _ = planted_partition(2, 4, 0.5, 0.1, seed=0)
            job = svc.submit_graph(g, max_retries=2)
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.FAILED
            assert job.attempts == 3  # 1 initial + 2 retries
            assert "failed after 3 attempt(s)" in job.error
            assert "flaky #3" in job.error  # the *last* error, not the first
        finally:
            svc.close()

    def test_backoff_spaces_attempts(self):
        stamps = []

        def runner(job, ctx):
            stamps.append(time.monotonic())
            raise TransientJobError("again")

        svc = DetectionService(num_workers=1, runner=runner)
        try:
            g, _ = planted_partition(2, 4, 0.5, 0.1, seed=0)
            job = svc.submit_graph(g, max_retries=2)
            job.backoff_base = 0.1
            svc.wait(job.job_id, timeout=10)
            assert len(stamps) == 3
            assert stamps[1] - stamps[0] >= 0.09  # first backoff ~0.1s
            assert stamps[2] - stamps[1] >= 0.18  # doubled ~0.2s
        finally:
            svc.close()

    def test_transient_then_success(self):
        state = {"failures": 1}

        def runner(job, ctx):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise TransientJobError("transient hiccup")
            return {"ok": True}

        svc = DetectionService(num_workers=1, runner=runner)
        try:
            g, _ = planted_partition(2, 4, 0.5, 0.1, seed=0)
            job = svc.submit_graph(g, max_retries=2)
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.DONE
            assert job.attempts == 2
        finally:
            svc.close()

    def test_permanent_error_fails_first_attempt(self):
        def runner(job, ctx):
            raise ValueError("bad payload")

        svc = DetectionService(num_workers=1, runner=runner)
        try:
            g, _ = planted_partition(2, 4, 0.5, 0.1, seed=0)
            job = svc.submit_graph(g, max_retries=5)
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.FAILED
            assert job.attempts == 1
            assert job.error == "bad payload" or "ValueError" in job.error
        finally:
            svc.close()


class TestDetectionAndUpdates:
    def test_detect_publishes_snapshot(self, graph):
        with DetectionService(num_workers=2) as svc:
            job = svc.wait(svc.submit_graph(graph).job_id, timeout=60)
            assert job.state == JobState.DONE
            assert job.result["version"] == 1
            snap = svc.snapshot()
            assert snap.kind == "full"
            assert snap.membership.size == graph.num_vertices
            assert job.result["modularity"] == pytest.approx(snap.modularity)

    def test_warm_start_matches_cold_rerun(self, graph):
        """The ISSUE acceptance bar: warm-start Q within 0.01 of cold Q."""
        rng = np.random.default_rng(17)
        n = graph.num_vertices
        add_src = rng.integers(0, n, size=25)
        add_dst = (add_src + rng.integers(1, n, size=25)) % n
        batch = EdgeBatch(add_src=add_src, add_dst=add_dst)

        with DetectionService(num_workers=1, seed=0) as svc:
            svc.wait(svc.submit_graph(graph).job_id, timeout=60)
            upd = svc.wait(svc.submit_edge_batch(batch).job_id, timeout=60)
            assert upd.state == JobState.DONE
            warm_snap = svc.snapshot(upd.result["version"])

        final_graph = apply_edge_batch(graph, batch)
        cold = detect_communities(
            final_graph, algorithm="parallel", num_ranks=4, seed=0
        )
        assert warm_snap.modularity == pytest.approx(cold.modularity, abs=0.01)
        # Both results are genuine partitions of the same final graph.
        assert modularity_from_labels(
            final_graph, warm_snap.membership
        ) == pytest.approx(warm_snap.modularity, abs=1e-9)

    def test_jobs_run_vector_and_match_the_hash_reference(self, small_lfr):
        """Detect and update jobs run on the vector data plane and give the
        hash reference's membership and Q to the last bit."""
        graph = small_lfr.graph
        n = graph.num_vertices
        rng = np.random.default_rng(5)
        src, dst, _ = graph.edge_arrays()
        drop = rng.choice(src.size, size=20, replace=False)
        add_src = rng.integers(0, n, size=30)
        batches = [
            EdgeBatch(
                add_src=add_src, add_dst=(add_src + rng.integers(1, n, 30)) % n,
                remove_src=src[drop], remove_dst=dst[drop],
            ),
            # Grows the vertex set: new vertices start as singletons.
            EdgeBatch(add_src=np.array([0, n, n + 1]),
                      add_dst=np.array([n, n + 1, 7])),
        ]
        sink = ListSink()
        with DetectionService(num_workers=1, seed=0, sink=sink) as svc:
            jobs = [svc.submit_graph(graph)]
            jobs += [svc.submit_edge_batch(b) for b in batches]
            jobs = [svc.wait(job.job_id, timeout=60) for job in jobs]
            assert [job.state for job in jobs] == [JobState.DONE] * 3
            snaps = [svc.snapshot(job.result["version"]) for job in jobs]

        ref = detect_communities(
            graph, algorithm="parallel", num_ranks=4, seed=0, backend="hash"
        )
        expected = [(ref.membership, ref.modularity)]
        base_graph, base_membership = graph, ref.membership
        for batch in batches:
            base_graph, res = incremental_louvain(
                base_graph, batch, base_membership, num_ranks=4, backend="hash"
            )
            base_membership = res.membership
            q = (
                res.final_modularity
                if res.modularities  # a level was kept
                else modularity_from_labels(base_graph, res.membership)
            )
            expected.append((res.membership, q))
        for snap, (membership, q) in zip(snaps, expected):
            np.testing.assert_array_equal(snap.membership, membership)
            assert snap.modularity == q

        stats = [e for e in sink.events if e.kind == "table_stats"]
        assert {e.data["job_id"] for e in stats} == {j.job_id for j in jobs}
        assert {e.data["hash"] for e in stats} == {"csr"}

    def test_job_may_name_its_backend(self, graph):
        sink = ListSink()
        with DetectionService(num_workers=1, sink=sink) as svc:
            job = svc.wait(
                svc.submit_graph(graph, backend="hash").job_id, timeout=60
            )
            assert job.state == JobState.DONE
        stats = [e for e in sink.events if e.kind == "table_stats"]
        assert stats and all(e.data["hash"] != "csr" for e in stats)

    def test_job_is_done_once_its_version_is_visible(self, graph, monkeypatch):
        # A client that sees a job's version (say in /healthz) and then
        # reads the job must find it done.
        with DetectionService(num_workers=1) as svc:
            put = svc.store.put
            readers, seen = [], []

            def put_then_read(*args, **kwargs):
                snap = put(*args, **kwargs)
                reader = threading.Thread(
                    target=lambda: seen.append(svc.job(kwargs["job_id"]).state)
                )
                reader.start()
                reader.join(0.5)  # it waits on the queue lock until settled
                readers.append(reader)
                return snap

            monkeypatch.setattr(svc.store, "put", put_then_read)
            jobs = [svc.submit_graph(graph), svc.submit_edge_batch(
                EdgeBatch(add_src=np.array([0]), add_dst=np.array([7])))]
            jobs = [svc.wait(job.job_id, timeout=60) for job in jobs]
            for reader in readers:
                reader.join(5)
        assert [job.state for job in jobs] == [JobState.DONE] * 2
        assert seen == [JobState.DONE] * 2

    def test_update_chains_versions(self, graph):
        with DetectionService(num_workers=1) as svc:
            svc.wait(svc.submit_graph(graph).job_id, timeout=60)
            b1 = EdgeBatch(add_src=np.array([0]), add_dst=np.array([7]))
            b2 = EdgeBatch(add_src=np.array([1]), add_dst=np.array([8]))
            j1 = svc.submit_edge_batch(b1)
            j2 = svc.submit_edge_batch(b2)
            svc.wait(j1.job_id, timeout=60)
            svc.wait(j2.job_id, timeout=60)
            # base_version=None chains: 1 <- 2 <- 3.
            assert j1.result["base_version"] == 1
            assert j2.result["base_version"] == 2
            assert svc.store.latest_version() == 3

    def test_update_waiting_for_another_counts_as_queue_wait(self, graph):
        # Two workers claim both updates at once; the one that waits for
        # the other's lock starts only when it holds the lock.
        with DetectionService(num_workers=2) as svc:
            svc.wait(svc.submit_graph(graph).job_id, timeout=60)
            jobs = [
                svc.submit_edge_batch(
                    EdgeBatch(add_src=np.array([i]), add_dst=np.array([i + 7]))
                )
                for i in range(2)
            ]
            jobs = [svc.wait(job.job_id, timeout=60) for job in jobs]
        assert [job.state for job in jobs] == [JobState.DONE] * 2
        first, second = sorted(jobs, key=lambda job: job.result["version"])
        assert second.result["base_version"] == first.result["version"]
        assert second.started_at >= first.finished_at

    def test_update_before_any_snapshot_retries_then_fails(self):
        with DetectionService(num_workers=1) as svc:
            batch = EdgeBatch(add_src=np.array([0]), add_dst=np.array([1]))
            job = svc.submit_edge_batch(batch, max_retries=1)
            job.backoff_base = 0.01
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.FAILED
            assert job.attempts == 2
            assert "no snapshots" in job.error

    def test_update_against_evicted_version_is_permanent(self, graph):
        with DetectionService(num_workers=1) as svc:
            svc.wait(svc.submit_graph(graph).job_id, timeout=60)
            batch = EdgeBatch(add_src=np.array([0]), add_dst=np.array([1]))
            job = svc.submit_edge_batch(batch, base_version=42, max_retries=3)
            job = svc.wait(job.job_id, timeout=10)
            assert job.state == JobState.FAILED
            assert job.attempts == 1  # named-version misses are not retried


    def test_finished_jobs_do_not_pin_their_graphs(self):
        # The job registry outlives every job; once the store evicts a
        # graph's snapshot, nothing may keep the submitted graph alive.
        refs = []
        with DetectionService(num_workers=1, store_capacity=1) as svc:
            for seed in range(3):
                g, _ = planted_partition(4, 10, 0.5, 0.05, seed=seed)
                refs.append(weakref.ref(g))
                job = svc.submit_graph(g)
                assert svc.wait(job.job_id, timeout=60).state == JobState.DONE
                del g, job
            gc.collect()
            alive = [ref() is not None for ref in refs]
        assert alive == [False, False, True]  # only the stored snapshot's


class TestTracingAndMetrics:
    def test_job_events_are_tagged_and_shared(self, graph):
        sink = ListSink()
        with DetectionService(num_workers=1, sink=sink) as svc:
            job = svc.wait(svc.submit_graph(graph).job_id, timeout=60)
            assert job.state == JobState.DONE
        # Per-job events are tagged; service-wide counters carry no job id.
        tagged = [e for e in sink.events if "job_id" in e.data]
        assert tagged and {e.data["job_id"] for e in tagged} == {job.job_id}
        names = [e.name for e in sink.events]
        assert f"job:{job.job_id}" in names  # per-job envelope span
        assert any(n == "run" for n in names)  # real detection trace inside

    def test_metrics_text_counts_outcomes(self, graph):
        with DetectionService(num_workers=1) as svc:
            svc.wait(svc.submit_graph(graph).job_id, timeout=60)
            text = svc.metrics_text()
        assert "repro_service_jobs_submitted 1" in text
        assert "repro_service_jobs_completed 1" in text
        assert "repro_service_queue_capacity" in text
        assert "repro_service_latest_version 1" in text
        assert "# TYPE repro_service_jobs_completed counter" in text

    def test_health_reports_inflight_state(self, graph):
        svc, release, entered = blocking_service()
        try:
            svc.submit_graph(graph)
            assert entered.wait(5)
            h = svc.health()
            assert h["status"] == "ok"
            assert h["jobs_running"] == 1
            assert h["workers"] == 1
        finally:
            release.set()
            svc.close()

    def test_workers_are_the_only_threads(self):
        before = set(threading.enumerate())
        svc = DetectionService(num_workers=3)
        added = set(threading.enumerate()) - before
        svc.close()
        assert len(added) == 3
        assert not [t for t in added if t.is_alive()]

    def test_close_is_idempotent(self, graph):
        svc = DetectionService(num_workers=1)
        svc.close()
        svc.close()
        assert svc.health()["status"] == "shutting_down"
