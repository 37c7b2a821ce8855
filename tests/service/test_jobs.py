"""Tests for the job model and the bounded priority queue."""

import threading
import time

import pytest

from repro.service import (
    Job,
    JobQueue,
    JobState,
    QueueClosedError,
    QueueFullError,
)
from repro.service.jobs import MAX_SETTLED_JOBS


def make_job(**kwargs):
    kwargs.setdefault("kind", "detect")
    return Job(**kwargs)


class TestJob:
    def test_ids_are_unique(self):
        a, b = make_job(), make_job()
        assert a.job_id != b.job_id

    def test_validation(self):
        with pytest.raises(ValueError):
            make_job(timeout=0)
        with pytest.raises(ValueError):
            make_job(max_retries=-1)
        with pytest.raises(ValueError):
            make_job(backoff_base=0)
        with pytest.raises(ValueError):
            make_job(backoff_factor=0.5)

    def test_backoff_is_exponential_and_capped(self):
        job = make_job(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.35)
        delays = []
        for attempts in (1, 2, 3, 4):
            job.attempts = attempts
            delays.append(job.backoff_delay())
        assert delays == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.35),  # 0.4 capped
            pytest.approx(0.35),
        ]

    def test_as_dict_is_json_shaped(self):
        job = make_job(priority=3, timeout=1.5)
        doc = job.as_dict()
        assert doc["state"] == JobState.PENDING
        assert doc["priority"] == 3
        assert doc["timeout_s"] == 1.5
        assert doc["result"] is None and doc["error"] is None


class TestJobQueue:
    def test_backpressure_raises_queue_full(self):
        q = JobQueue(capacity=2)
        q.submit(make_job())
        q.submit(make_job())
        with pytest.raises(QueueFullError):
            q.submit(make_job())
        # Draining one job frees a slot.
        assert q.claim(timeout=0) is not None
        q.submit(make_job())

    def test_priority_then_fifo_order(self):
        q = JobQueue(capacity=8)
        low = q.submit(make_job(priority=20))
        first = q.submit(make_job(priority=1))
        second = q.submit(make_job(priority=1))
        assert q.claim(timeout=0) is first
        assert q.claim(timeout=0) is second
        assert q.claim(timeout=0) is low

    def test_claim_marks_running_and_counts_attempt(self):
        q = JobQueue(capacity=2)
        q.submit(make_job())
        job = q.claim(timeout=0)
        assert job.state == JobState.RUNNING
        assert job.attempts == 1
        assert job.started_at is not None
        assert q.pending_count == 0

    def test_claim_times_out_empty(self):
        q = JobQueue(capacity=2)
        assert q.claim(timeout=0.01) is None

    def test_claim_blocks_until_submit(self):
        q = JobQueue(capacity=2)
        got = []

        def claimer():
            got.append(q.claim(timeout=5))

        t = threading.Thread(target=claimer)
        t.start()
        time.sleep(0.05)
        submitted = q.submit(make_job())
        t.join(timeout=5)
        assert got == [submitted]

    def test_cancel_pending_is_immediate_and_skipped(self):
        q = JobQueue(capacity=4)
        victim = q.submit(make_job())
        survivor = q.submit(make_job())
        assert q.cancel(victim.job_id) is True
        assert victim.state == JobState.CANCELLED
        assert victim.error == "cancelled while queued"
        assert q.pending_count == 1
        assert q.claim(timeout=0) is survivor

    def test_cancel_running_sets_flag_only(self):
        q = JobQueue(capacity=2)
        q.submit(make_job())
        job = q.claim(timeout=0)
        assert q.cancel(job.job_id) is True
        assert job.state == JobState.RUNNING  # the worker finalizes it
        assert job.cancel_event.is_set()

    def test_cancel_terminal_returns_false_unknown_raises(self):
        q = JobQueue(capacity=2)
        job = q.submit(make_job())
        q.cancel(job.job_id)
        assert q.cancel(job.job_id) is False
        with pytest.raises(KeyError):
            q.cancel("job-nope")

    def test_requeue_with_delay_is_invisible_until_due(self):
        q = JobQueue(capacity=2)
        q.submit(make_job())
        job = q.claim(timeout=0)
        q.requeue(job, delay=0.15)
        assert q.claim(timeout=0) is None  # still backing off
        again = q.claim(timeout=2)
        assert again is job
        assert again.attempts == 2

    def test_requeue_bypasses_capacity(self):
        q = JobQueue(capacity=1)
        q.submit(make_job())
        job = q.claim(timeout=0)
        q.submit(make_job())  # the single slot is taken again
        q.requeue(job)  # must not raise QueueFullError
        assert q.pending_count == 2

    def test_get_and_forget(self):
        q = JobQueue(capacity=2)
        job = q.submit(make_job())
        assert q.get(job.job_id) is job
        with pytest.raises(ValueError):
            q.forget(job.job_id)  # not terminal yet
        q.cancel(job.job_id)
        q.forget(job.job_id)
        with pytest.raises(KeyError):
            q.get(job.job_id)

    def test_running_count_follows_claims(self):
        q = JobQueue(capacity=4)
        a, b, c = (q.submit(make_job()) for _ in range(3))
        for _ in range(3):
            q.claim(timeout=0)
        assert q.running_count == 3
        q.requeue(a)  # back to pending
        q.finalize(b, JobState.DONE, result={})
        assert q.running_count == 1
        q.close()
        q.requeue(c)  # a retry racing shutdown settles the job
        assert q.running_count == 0

    def test_registry_keeps_the_newest_settled_jobs(self):
        q = JobQueue(capacity=4)
        running = q.submit(make_job())
        assert q.claim(timeout=0) is running
        pending = q.submit(make_job())
        settled = []
        for _ in range(MAX_SETTLED_JOBS + 2):
            job = q.submit(make_job())
            q.cancel(job.job_id)
            settled.append(job)
        for job in settled[:2]:  # the oldest settled jobs are gone
            with pytest.raises(KeyError):
                q.get(job.job_id)
            with pytest.raises(KeyError):
                q.cancel(job.job_id)
        assert all(q.get(job.job_id) is job for job in settled[2:])
        # Live jobs are never dropped; settling one drops the next oldest.
        assert q.get(pending.job_id) is pending
        q.finalize(running, JobState.DONE, result={})
        assert q.get(running.job_id) is running
        with pytest.raises(KeyError):
            q.get(settled[2].job_id)

    def test_close_cancels_pending_and_rejects_submits(self):
        q = JobQueue(capacity=4)
        job = q.submit(make_job())
        q.close()
        assert job.state == JobState.CANCELLED
        assert q.claim(timeout=0) is None
        with pytest.raises(QueueClosedError):
            q.submit(make_job())

    def test_close_wakes_blocked_claimers(self):
        q = JobQueue(capacity=2)
        results = []

        def claimer():
            results.append(q.claim(timeout=10))

        t = threading.Thread(target=claimer)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=5)
        assert results == [None]


class TestPayloadRelease:
    """A terminal job drops its input; a retried job keeps it."""

    def test_finalize_drops_payload(self):
        q = JobQueue()
        job = q.submit(make_job(payload={"graph": object()}))
        q.claim(timeout=1)
        q.finalize(job, JobState.DONE, result={"ok": True})
        assert job.payload == {} and job.result == {"ok": True}

    def test_cancel_pending_drops_payload(self):
        q = JobQueue()
        job = q.submit(make_job(payload={"graph": object()}))
        assert q.cancel(job.job_id)
        assert job.payload == {}

    def test_close_drops_pending_payloads(self):
        q = JobQueue()
        job = q.submit(make_job(payload={"graph": object()}))
        q.close()
        assert job.state == JobState.CANCELLED and job.payload == {}

    def test_requeue_keeps_payload_until_closed(self):
        q = JobQueue()
        payload = {"graph": object()}
        job = q.submit(make_job(payload=payload))
        q.claim(timeout=1)
        q.requeue(job)
        assert job.payload is payload
        assert q.claim(timeout=1) is job
        q.close()
        q.requeue(job)  # a retry racing shutdown ends the job
        assert job.state == JobState.CANCELLED and job.payload == {}
