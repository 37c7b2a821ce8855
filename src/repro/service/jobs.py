"""Job model and bounded priority queue for the detection service.

A :class:`Job` is one unit of service work (a full detection run or an
edge-batch warm-start update) moving through the lifecycle

    PENDING -> RUNNING -> DONE | FAILED | CANCELLED

with PENDING re-entered on a retry.  The :class:`JobQueue` is the only
hand-off point between submitters and the worker pool:

* **bounded with backpressure** -- ``submit`` raises :class:`QueueFullError`
  once ``capacity`` jobs are waiting instead of blocking the submitter or
  silently dropping work (the HTTP layer maps this to ``503`` +
  ``Retry-After``);
* **priority + FIFO** -- lower ``priority`` runs first, ties break by
  submission order;
* **delayed re-entry** -- a retried job carries a ``not_before`` time
  (exponential backoff) and is invisible to :meth:`JobQueue.claim` until it
  comes due;
* **cancellation** -- cancelling a PENDING job removes it from contention
  immediately; cancelling a RUNNING job sets its ``cancel_event``, which the
  job's own checkpoint observes (see :mod:`repro.service.workers`): at each
  ``JobContext.check_cancelled()`` and, for real detection runs, at each
  event its trace sink receives, so a run aborts at its next emitted event
  rather than only at completion;
* **a bounded registry** -- every job stays reachable by id while it is
  pending or running, and afterwards until :data:`MAX_SETTLED_JOBS` newer
  jobs have settled.

The same checkpoint enforces a job's ``timeout``: it sets ``timed_out`` and
the worker records the outcome as FAILED ("timed out") instead of CANCELLED.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "JobState",
    "Job",
    "JobQueue",
    "QueueFullError",
    "QueueClosedError",
    "JobCancelled",
    "TransientJobError",
    "MAX_SETTLED_JOBS",
]

#: Settled (done, failed or cancelled) jobs the registry keeps; the oldest
#: one is forgotten when a newer one settles, so a long-lived service's job
#: records take bounded memory whatever its clients submit.
MAX_SETTLED_JOBS = 1024


class JobState:
    """String vocabulary of job states (class-as-namespace, like EventKind)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})
    ALL = frozenset({PENDING, RUNNING, DONE, FAILED, CANCELLED})


class QueueFullError(RuntimeError):
    """Backpressure: the queue is at capacity; retry later."""


class QueueClosedError(RuntimeError):
    """The queue no longer accepts work (service shutting down)."""


class JobCancelled(Exception):
    """Raised inside a worker when its job's cancel flag is observed.

    ``reason`` is ``"cancelled"`` for an explicit cancel and ``"timeout"``
    once the job has run longer than its ``timeout``.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


class TransientJobError(RuntimeError):
    """A failure worth retrying (queue hiccup, racing base snapshot, ...).

    Any other exception from a job runner is treated as permanent and fails
    the job on the first attempt.
    """


_job_ids = itertools.count(1)


@dataclass
class Job:
    """One unit of service work and its full lifecycle record."""

    kind: str  # "detect" (full run) | "update" (edge-batch warm start)
    #: The job's input; emptied when the job reaches a terminal state.
    payload: dict[str, Any] = field(default_factory=dict, repr=False)
    priority: int = 10
    #: Wall-clock budget for one attempt; None = unlimited.
    timeout: float | None = None
    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    job_id: str = field(default_factory=lambda: f"job-{next(_job_ids):06d}")
    state: str = JobState.PENDING
    attempts: int = 0
    result: dict[str, Any] | None = None
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: Monotonic time before which a retried job must not be claimed.
    not_before: float = 0.0
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    timed_out: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base <= 0 or self.backoff_factor < 1:
            raise ValueError("backoff_base must be > 0 and backoff_factor >= 1")

    @property
    def done(self) -> bool:
        return self.state in JobState.TERMINAL

    def backoff_delay(self) -> float:
        """Exponential backoff before the *next* attempt (attempts >= 1)."""
        exponent = max(0, self.attempts - 1)
        return min(self.backoff_max, self.backoff_base * self.backoff_factor**exponent)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable status record (the HTTP ``GET /jobs/<id>`` body)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_retries": self.max_retries,
            "timeout_s": self.timeout,
            "result": self.result,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobQueue:
    """Bounded, thread-safe priority queue with delayed retry re-entry.

    ``capacity`` bounds *waiting* jobs (ready + backing off); RUNNING jobs
    have left the queue but are counted (:attr:`running_count`).  The
    service's job registry is the queue itself: a job stays reachable
    through :meth:`get` while it is live, and once settled until
    :data:`MAX_SETTLED_JOBS` newer jobs have settled or :meth:`forget`
    drops it.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: Signalled whenever any job reaches a terminal state (long-poll).
        self._terminal = threading.Condition(self._lock)
        self._seq = itertools.count()
        #: Ready min-heap: (priority, seq, job).
        self._ready: list[tuple[int, int, Job]] = []
        #: Backing-off min-heap: (not_before, seq, job).
        self._delayed: list[tuple[float, int, Job]] = []
        self._jobs: dict[str, Job] = {}
        #: Ids of settled jobs, oldest first (the registry's eviction order).
        self._settled: deque[str] = deque()
        self._pending = 0
        self._running = 0
        self._closed = False

    # -------------------------------------------------------------- #
    # Submitter side
    # -------------------------------------------------------------- #

    def submit(self, job: Job) -> Job:
        """Enqueue ``job``; raises :class:`QueueFullError` at capacity."""
        with self._lock:
            if self._closed:
                raise QueueClosedError("queue is closed")
            if self._pending >= self.capacity:
                raise QueueFullError(
                    f"queue full: {self._pending}/{self.capacity} jobs waiting; "
                    "retry after a job drains"
                )
            job.state = JobState.PENDING
            self._jobs[job.job_id] = job
            self._push_ready(job)
            self._pending += 1
            self._not_empty.notify()
        return job

    def _push_ready(self, job: Job) -> None:
        heapq.heappush(self._ready, (job.priority, next(self._seq), job))

    def _settle(self, job: Job, state: str, error: str | None) -> None:
        """Move ``job`` to terminal ``state`` (queue lock held).

        The payload is dropped: a terminal job never runs again, and its
        input (a detect job's whole graph) must not outlive it in the job
        registry.  The registry then forgets its oldest settled jobs beyond
        :data:`MAX_SETTLED_JOBS`.
        """
        if job.state == JobState.RUNNING:
            self._running -= 1
        job.state = state
        if error is not None:
            job.error = error
        job.finished_at = time.time()
        job.payload = {}
        self._settled.append(job.job_id)
        while len(self._settled) > MAX_SETTLED_JOBS:
            self._jobs.pop(self._settled.popleft(), None)

    def requeue(self, job: Job, *, delay: float = 0.0) -> None:
        """Re-enter a job for retry after ``delay`` seconds (worker side).

        Retries bypass the capacity check: the job already held a queue slot
        when first admitted, and rejecting a retry would turn a transient
        failure into a permanent one exactly when the system is loaded.
        """
        with self._lock:
            if self._closed:
                self._settle(
                    job, JobState.CANCELLED,
                    job.error or "queue closed during retry",
                )
                self._terminal.notify_all()
                return
            job.state = JobState.PENDING
            self._running -= 1
            self._pending += 1
            if delay > 0:
                job.not_before = time.monotonic() + delay
                heapq.heappush(self._delayed, (job.not_before, next(self._seq), job))
            else:
                self._push_ready(job)
            self._not_empty.notify()

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns True if the cancellation had any effect.

        PENDING jobs become CANCELLED immediately (their heap entry is
        lazily skipped by :meth:`claim`); RUNNING jobs get their cancel flag
        set and the worker finalizes the state.  Terminal jobs return False.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.state == JobState.PENDING:
                self._settle(job, JobState.CANCELLED, "cancelled while queued")
                self._pending -= 1
                job.cancel_event.set()
                self._terminal.notify_all()
                return True
            if job.state == JobState.RUNNING:
                job.cancel_event.set()
                return True
            return False

    # -------------------------------------------------------------- #
    # Worker side
    # -------------------------------------------------------------- #

    def _promote_due(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _, _, job = heapq.heappop(self._delayed)
            if job.state == JobState.PENDING:
                self._push_ready(job)

    def _pop_ready(self) -> Job | None:
        while self._ready:
            _, _, job = heapq.heappop(self._ready)
            if job.state == JobState.PENDING:  # skip lazily-cancelled entries
                return job
        return None

    def claim(self, timeout: float | None = None) -> Job | None:
        """Take the next runnable job, blocking up to ``timeout`` seconds.

        Returns None on timeout or once the queue is closed.  The claimed
        job is already marked RUNNING with ``attempts`` incremented and
        ``started_at`` stamped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                if self._closed:
                    return None
                now = time.monotonic()
                self._promote_due(now)
                job = self._pop_ready()
                if job is not None:
                    job.state = JobState.RUNNING
                    job.attempts += 1
                    job.started_at = time.time()
                    self._pending -= 1
                    self._running += 1
                    return job
                wait: float | None = None
                if self._delayed:
                    wait = max(0.0, self._delayed[0][0] - now)
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._not_empty.wait(wait)

    def finalize(
        self,
        job: Job,
        state: str,
        *,
        result: dict[str, Any] | None = None,
        error: str | None = None,
        publish: Callable[[], dict[str, Any]] | None = None,
    ) -> bool:
        """Move a RUNNING job to a terminal state (worker side).

        All terminal transitions funnel through the queue lock so a worker
        finishing a job cannot race :meth:`cancel` or :meth:`close`
        rewriting the same ``state``/``error``/``finished_at`` fields.  A
        job that already reached a terminal state (cancelled during
        shutdown, say) is left untouched; returns whether the transition
        was applied.

        ``publish``, when given, runs under the queue lock just before the
        job settles, and what it returns is the job's result.  So a reader
        of the job (:meth:`get`, :meth:`wait_terminal`) never sees what
        ``publish`` made visible elsewhere while the job is still running,
        nor the job settled before it.
        """
        if state not in JobState.TERMINAL:
            raise ValueError(f"finalize requires a terminal state, got {state!r}")
        with self._lock:
            if job.done:
                return False
            if publish is not None:
                result = publish()
            if result is not None:
                job.result = result
            self._settle(job, state, error)
            self._terminal.notify_all()
            return True

    # -------------------------------------------------------------- #
    # Introspection / shutdown
    # -------------------------------------------------------------- #

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def wait_terminal(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` reaches a terminal state or ``timeout``.

        The long-poll primitive: waiters sleep on a condition variable that
        every terminal transition (:meth:`finalize`, :meth:`cancel` of a
        PENDING job, :meth:`close` cancelling the backlog) signals, so a
        waiter wakes at the transition instead of on a poll tick.  Returns
        the job in whatever state it holds when the wait ends -- callers
        check ``job.done`` to distinguish completion from expiry.  Raises
        :class:`KeyError` for an unknown job.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        with self._terminal:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None
            while not job.done:
                if self._closed and job.state != JobState.RUNNING:
                    break  # close() without cancel_pending: nothing will run
                wait: float | None = None
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        break
                self._terminal.wait(wait)
            return job

    def forget(self, job_id: str) -> None:
        """Drop a *terminal* job from the registry (bounding its memory)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and not job.done:
                raise ValueError(f"job {job_id} is {job.state}, not terminal")
            self._jobs.pop(job_id, None)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return self._pending

    @property
    def running_count(self) -> int:
        """Jobs claimed and not yet settled or requeued."""
        with self._lock:
            return self._running

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, cancel_pending: bool = True) -> None:
        """Stop accepting and handing out work; wake all blocked claimers."""
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            if cancel_pending:
                # A copy: settling may evict old jobs from the registry.
                for job in list(self._jobs.values()):
                    if job.state == JobState.PENDING:
                        self._settle(
                            job, JobState.CANCELLED,
                            "service shut down before the job ran",
                        )
                        job.cancel_event.set()
                self._pending = 0
                self._ready.clear()
                self._delayed.clear()
            self._not_empty.notify_all()
            self._terminal.notify_all()
