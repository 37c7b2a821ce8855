"""Worker threads and the embeddable :class:`DetectionService` facade.

The service drains its :class:`~repro.service.jobs.JobQueue` with N daemon
worker threads, each blocked in ``claim`` until a job arrives or the queue
closes:

* a **detect** job runs :func:`repro.parallel.detect_communities` on the
  submitted graph and publishes the result as a new *full* snapshot;
* an **update** job applies its :class:`~repro.parallel.EdgeBatch` to the
  latest snapshot's graph and repairs the communities with the
  :func:`~repro.parallel.dynamic.incremental_louvain` warm start, publishing
  an *update* snapshot chained to its base version.  Update jobs serialize
  on a service-wide lock so concurrent batches chain deterministically
  instead of racing for the same base; an update's ``started_at`` is
  stamped once it holds that lock, so the wait for another update counts
  as queue wait, not run time.

Both kinds run on the vector data plane (:data:`JOB_BACKEND`) unless the job
names its own backend: it is bitwise identical to the hash reference, which
stays the default of the library and of ``repro detect``, and it cuts an
update job's run time about threefold.

Every job runs under its own :class:`~repro.observability.Tracer` whose sink
(:class:`_JobTraceSink`) does two things per event: pass the job's
checkpoint, and tag the event with the job id and forward it into the
service-wide streaming sink (the rotating JSONL file of ``repro serve``).
Detection emits events throughout a run (iterations, supersteps, spans), so
cancellation and timeouts interrupt a real run at its next emitted event --
not only between jobs.  The worker wraps each attempt in a ``job:<id>``
span, giving the trace a per-job envelope with the outcome riding on the
span end.

Timeout semantics: no thread watches the clock.  The job's checkpoint
(:func:`_checkpoint`, run at each emitted event and at each
:meth:`JobContext.check_cancelled`) compares the job's age since
``started_at`` to its ``timeout``; past it, the checkpoint sets
``timed_out`` and raises, and the job surfaces as FAILED ("timed out after
...").  Timeouts are terminal -- a retried timeout would almost certainly
time out again on the same input.  Retries are reserved for
:class:`~repro.service.jobs.TransientJobError` failures and back off
exponentially per the job's backoff knobs; once ``max_retries`` is
exhausted the *last* error is what the job reports.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..observability.events import TraceEvent
from ..observability.sinks import NullSink, TraceSink
from ..observability.tracer import Tracer
from .jobs import Job, JobCancelled, JobQueue, JobState, TransientJobError
from .store import SnapshotStore

__all__ = ["JobContext", "DetectionService"]

#: Data plane of every ``parallel`` and ``naive`` job that names no backend.
JOB_BACKEND = "vector"


def _checkpoint(job: Job) -> None:
    """Raise :class:`JobCancelled` if ``job`` was cancelled or is past its deadline."""
    if job.cancel_event.is_set():
        raise JobCancelled("cancelled")
    if job.timeout is not None and time.time() - job.started_at > job.timeout:
        job.timed_out = True
        raise JobCancelled("timeout")


class _LockedSink:
    """Serialize writes from many per-job tracers into one shared sink."""

    def __init__(self, sink: TraceSink) -> None:
        self._sink = sink
        self._lock = threading.Lock()

    def write(self, event: TraceEvent) -> None:
        with self._lock:
            self._sink.write(event)

    def close(self) -> None:
        with self._lock:
            self._sink.close()


class _JobTraceSink:
    """Per-job sink: cancellation checkpoint + job-id tagging + forwarding.

    ``write`` raises :class:`JobCancelled` once the job is cancelled or past
    its deadline, which aborts the detection run at its next emitted event.
    Closing is a no-op -- the shared service sink outlives every job.
    """

    def __init__(self, job: Job, shared: _LockedSink | None) -> None:
        self._job = job
        self._shared = shared

    def write(self, event: TraceEvent) -> None:
        job = self._job
        _checkpoint(job)
        if self._shared is not None:
            self._shared.write(TraceEvent(
                seq=event.seq, ts=event.ts, kind=event.kind, name=event.name,
                rank=event.rank, data={**event.data, "job_id": job.job_id},
            ))

    def close(self) -> None:
        pass


class JobContext:
    """What a job runner gets to see: its job, a tracer, and a cancel check."""

    def __init__(self, job: Job, tracer: Tracer) -> None:
        self.job = job
        self.tracer = tracer

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelled` if the job was cancelled or timed out.

        Runners doing their own loops should call this periodically;
        detection runs get the same check for free through the trace sink.
        """
        _checkpoint(self.job)


Runner = Callable[[Job, JobContext], dict[str, Any]]


class DetectionService:
    """Long-lived, embeddable community-detection service.

    Composes the bounded :class:`~repro.service.jobs.JobQueue`, its
    ``num_workers`` worker threads, the versioned
    :class:`~repro.service.store.SnapshotStore` and a service-wide tracer
    whose cumulative counters back the ``/metrics`` endpoint.  The HTTP
    layer (:mod:`repro.service.server`) is a thin shell over this class;
    library users can embed it directly:

    >>> with DetectionService(num_workers=2) as svc:        # doctest: +SKIP
    ...     job = svc.submit_graph(graph)
    ...     svc.wait(job.job_id)
    ...     svc.membership(vertex=0)

    ``runner`` replaces the job runner (detect/update dispatch) that every
    worker calls; tests use it to run jobs that block or fail on demand.
    """

    def __init__(
        self,
        *,
        num_workers: int = 2,
        queue_capacity: int = 64,
        store_capacity: int | None = 32,
        num_ranks: int = 4,
        seed: int = 0,
        execution: str = "simulated",
        default_timeout: float | None = None,
        default_max_retries: int = 0,
        sink: TraceSink | None = None,
        runner: Runner | None = None,
    ) -> None:
        if execution not in ("simulated", "process"):
            raise ValueError(f"unknown execution mode {execution!r}")
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.queue = JobQueue(capacity=queue_capacity)
        self.store = SnapshotStore(capacity=store_capacity)
        self.num_ranks = int(num_ranks)
        self.seed = seed
        self.execution = execution
        self.default_timeout = default_timeout
        self.default_max_retries = int(default_max_retries)
        self._shared_sink = _LockedSink(sink) if sink is not None else None
        # Workers and submitters all bump counters on this one tracer.
        self.tracer = Tracer(
            sink=self._shared_sink if self._shared_sink is not None else NullSink(),
            buffer=False,
            threadsafe=True,
        )
        #: Updates serialize here so concurrent batches chain versions
        #: deterministically instead of both warm-starting from one base.
        self._update_lock = threading.Lock()
        self._started_at = time.time()
        self.runner: Runner = runner if runner is not None else self._run_job
        self.num_workers = int(num_workers)
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._work, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(self.num_workers)
        ]
        for t in self._threads:
            t.start()

    # -------------------------------------------------------------- #
    # Workers
    # -------------------------------------------------------------- #

    def _work(self) -> None:
        """One worker thread: run claimed jobs until the queue closes."""
        while (job := self.queue.claim()) is not None:
            self._run_one(job)

    def _run_one(self, job: Job) -> None:
        job_tracer = Tracer(sink=_JobTraceSink(job, self._shared_sink), buffer=False)
        ctx = JobContext(job, job_tracer)
        try:
            # Closed by _end_span on every exit path below, not in this
            # scope -- the close carries the job outcome as span data.
            job_tracer.begin_span(f"job:{job.job_id}")  # lint: allow(phase-nesting)
            ctx.check_cancelled()  # cancel may have landed while claimed
            result = self.runner(job, ctx)
            if not job.done:  # a publishing runner settles its own job
                ctx.check_cancelled()  # cancel mid-run: discard the result
                self.queue.finalize(job, JobState.DONE, result=result)
            self.tracer.add_counter("service_jobs_completed", 1)
            self._end_span(job_tracer, job)
        except JobCancelled as exc:
            if exc.reason == "timeout":
                self.queue.finalize(
                    job, JobState.FAILED,
                    error=f"timed out after {job.timeout:g}s",
                )
                self.tracer.add_counter("service_jobs_timeout", 1)
            else:
                self.queue.finalize(
                    job, JobState.CANCELLED,
                    error=job.error or "cancelled while running",
                )
                self.tracer.add_counter("service_jobs_cancelled", 1)
            self._end_span(job_tracer, job)
        except TransientJobError as exc:
            self._end_span(job_tracer, job, error=str(exc))
            if job.attempts <= job.max_retries:
                delay = job.backoff_delay()
                job.error = f"attempt {job.attempts} failed (will retry): {exc}"
                self.tracer.add_counter("service_jobs_retried", 1)
                self.queue.requeue(job, delay=delay)
            else:
                self.queue.finalize(
                    job, JobState.FAILED,
                    error=f"failed after {job.attempts} attempt(s); "
                    f"last error: {exc}",
                )
                self.tracer.add_counter("service_jobs_failed", 1)
        except Exception as exc:  # permanent failure: no retry
            self.queue.finalize(
                job, JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
            )
            self.tracer.add_counter("service_jobs_failed", 1)
            self._end_span(job_tracer, job)

    @staticmethod
    def _end_span(tracer: Tracer, job: Job, *, error: str | None = None) -> None:
        """Close the job span, tolerating a cancel tripping inside the sink."""
        try:
            if tracer.span_depth:
                tracer.end_span(  # lint: allow(phase-nesting)
                    state=job.state, attempts=job.attempts,
                    error=error if error is not None else job.error)
        except JobCancelled:
            pass  # flag raced the span close; the outcome is already recorded

    # -------------------------------------------------------------- #
    # Submission API
    # -------------------------------------------------------------- #

    def _job_kwargs(
        self, priority: int, timeout: float | None, max_retries: int | None
    ) -> dict[str, Any]:
        return dict(
            priority=int(priority),
            timeout=self.default_timeout if timeout is None else timeout,
            max_retries=(
                self.default_max_retries if max_retries is None else int(max_retries)
            ),
        )

    def submit_graph(
        self,
        graph,
        *,
        priority: int = 10,
        timeout: float | None = None,
        max_retries: int | None = None,
        **detect_options: Any,
    ) -> Job:
        """Queue a full detection run on ``graph``.

        ``detect_options`` pass through to
        :func:`~repro.parallel.detect_communities` (``algorithm``,
        ``num_ranks``, ``seed``, schedule overrides, ...).  Raises
        :class:`~repro.service.jobs.QueueFullError` under backpressure.
        """
        job = Job(
            kind="detect",
            payload={"graph": graph, "options": dict(detect_options)},
            **self._job_kwargs(priority, timeout, max_retries),
        )
        self.queue.submit(job)
        self.tracer.add_counter("service_jobs_submitted", 1)
        return job

    def submit_edge_batch(
        self,
        batch,
        *,
        base_version: int | None = None,
        priority: int = 10,
        timeout: float | None = None,
        max_retries: int | None = None,
        **config_options: Any,
    ) -> Job:
        """Queue an edge-batch warm-start update against ``base_version``.

        ``base_version=None`` resolves to the latest snapshot *at run time*,
        so back-to-back batches chain even while earlier ones are still in
        the queue.  The update fails (permanently) if the named base was
        evicted, or transiently -- and is retried -- if no snapshot exists
        yet while a detect job is still running.
        """
        job = Job(
            kind="update",
            payload={
                "batch": batch,
                "base_version": base_version,
                "options": dict(config_options),
            },
            **self._job_kwargs(priority, timeout, max_retries),
        )
        self.queue.submit(job)
        self.tracer.add_counter("service_jobs_submitted", 1)
        return job

    # -------------------------------------------------------------- #
    # The default runner
    # -------------------------------------------------------------- #

    def _run_job(self, job: Job, ctx: JobContext) -> dict[str, Any]:
        if job.kind == "detect":
            return self._run_detect(job, ctx)
        if job.kind == "update":
            return self._run_update(job, ctx)
        raise ValueError(f"unknown job kind {job.kind!r}")

    def _run_detect(self, job: Job, ctx: JobContext) -> dict[str, Any]:
        from ..parallel import detect_communities

        options = {
            "algorithm": "parallel",
            "num_ranks": self.num_ranks,
            "seed": self.seed,
            **job.payload["options"],
        }
        if options.get("algorithm") in ("parallel", "naive"):
            # The service-wide backend and execution mode apply unless the
            # job chose its own.
            options.setdefault("backend", JOB_BACKEND)
            options.setdefault("execution", self.execution)
        graph = job.payload["graph"]
        summary = detect_communities(graph, tracer=ctx.tracer, **options)
        return self._publish(
            job, ctx, {
                "algorithm": summary.algorithm,
                "modularity": float(summary.modularity),
                "num_communities": summary.num_communities,
                "num_levels": summary.num_levels,
                "num_vertices": int(graph.num_vertices),
                "num_edges": int(graph.num_edges),
            },
            graph, summary.membership, kind="full",
        )

    def _run_update(self, job: Job, ctx: JobContext) -> dict[str, Any]:
        import numpy as np

        from ..metrics import modularity_from_labels
        from ..parallel import ParallelLouvainConfig, incremental_louvain

        with self._update_lock:
            # The wait for another update was queue wait, not run time, and
            # the job's deadline runs from here.
            job.started_at = time.time()
            base_version = job.payload["base_version"]
            try:
                base = self.store.get(base_version)
            except KeyError as exc:
                if base_version is None:
                    # No snapshot yet -- likely racing the first detect job.
                    raise TransientJobError(str(exc)) from exc
                raise  # a named version that is gone will stay gone
            options = {
                "backend": JOB_BACKEND,
                "execution": self.execution,
                **job.payload["options"],
            }
            config = ParallelLouvainConfig(
                num_ranks=options.pop("num_ranks", self.num_ranks), **options
            )
            ctx.check_cancelled()
            # Serializing the warm start under _update_lock is the whole
            # point: concurrent batches must chain, not race one base.
            new_graph, result = incremental_louvain(  # lint: allow(blocking-call-under-lock)
                base.graph, job.payload["batch"], base.membership,
                config, tracer=ctx.tracer,
            )
            q = (
                result.final_modularity
                if result.modularities
                else modularity_from_labels(new_graph, result.membership)
            )
            # Published under _update_lock: the next batch's base is this
            # job's snapshot.
            return self._publish(
                job, ctx, {
                    "base_version": base.version,
                    "algorithm": "parallel",
                    "modularity": float(q),
                    "num_communities": int(np.unique(result.membership).size),
                    "num_levels": result.num_levels,
                    "num_vertices": int(new_graph.num_vertices),
                    "num_edges": int(new_graph.num_edges),
                },
                new_graph, result.membership,
                kind="update", parent_version=base.version,
            )

    def _publish(
        self,
        job: Job,
        ctx: JobContext,
        result: dict[str, Any],
        graph,
        membership,
        **snapshot: Any,
    ) -> dict[str, Any]:
        """Store the job's snapshot and settle the job DONE in one step.

        Both happen under the queue lock, so a client that sees the new
        version (``/healthz``, ``/membership``) finds its job done, and one
        that finds the job done finds its version.  A cancel that landed
        first discards the result: nothing is stored.
        """
        ctx.check_cancelled()
        self.queue.finalize(
            job, JobState.DONE,
            publish=lambda: {
                "version": self.store.put(
                    graph, membership, result["modularity"],
                    job_id=job.job_id, **snapshot,
                ).version,
                **result,
            },
        )
        return job.result

    # -------------------------------------------------------------- #
    # Read API
    # -------------------------------------------------------------- #

    def job(self, job_id: str) -> Job:
        return self.queue.get(job_id)

    def cancel(self, job_id: str) -> bool:
        cancelled = self.queue.cancel(job_id)
        if cancelled:
            self.tracer.add_counter("service_jobs_cancel_requests", 1)
        return cancelled

    def wait(self, job_id: str, timeout: float = 30.0) -> Job:
        """Block until the job reaches a terminal state (testing/embedding).

        Sleeps on the queue's terminal condition variable (no poll loop);
        raises :class:`TimeoutError` if the job is still live at expiry.
        """
        job = self.queue.wait_terminal(job_id, timeout)
        if not job.done:
            raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
        return job

    def membership(self, vertex: int | None = None, version: int | None = None):
        return self.store.membership(vertex, version)

    def snapshot(self, version: int | None = None):
        return self.store.get(version)

    def diff(self, from_version: int, to_version: int):
        return self.store.diff(from_version, to_version)

    def health(self) -> dict[str, Any]:
        latest = self.store.latest_version()
        return {
            "status": "ok" if not self._closed else "shutting_down",
            "uptime_seconds": time.time() - self._started_at,
            "workers": self.num_workers,
            "queue_pending": self.queue.pending_count,
            "queue_capacity": self.queue.capacity,
            "jobs_running": self.queue.running_count,
            "snapshots": len(self.store),
            "latest_version": latest,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition: job counters + live service gauges."""
        from ..observability.exporters import prometheus_counters, prometheus_gauges

        gauges: dict[str, float] = {
            "service_queue_pending": float(self.queue.pending_count),
            "service_queue_capacity": float(self.queue.capacity),
            "service_jobs_running": float(self.queue.running_count),
            "service_snapshots_retained": float(len(self.store)),
            "service_uptime_seconds": time.time() - self._started_at,
        }
        latest = self.store.latest_version()
        if latest is not None:
            snap = self.store.get(latest)
            gauges["service_latest_version"] = float(latest)
            gauges["service_latest_modularity"] = float(snap.modularity)
            gauges["service_latest_num_communities"] = float(snap.num_communities)
        return prometheus_counters(self.tracer.counters) + prometheus_gauges(gauges)

    # -------------------------------------------------------------- #
    # Shutdown
    # -------------------------------------------------------------- #

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        for t in self._threads:
            t.join(timeout)
        self.tracer.close()

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
