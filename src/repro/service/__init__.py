"""Long-lived community-detection service (the serve-traffic subsystem).

The paper closes by aiming its dynamic hash-based graph representation at
"large-scale dynamic graph problems ... where the topology of the graph
changes very frequently" (§IV-A, §VII).  This package turns the one-shot
library into that long-lived system:

* :mod:`repro.service.jobs` -- the job model and a bounded priority queue
  with backpressure, per-job timeout, cancellation,
  retry-with-exponential-backoff and a bounded job registry;
* :mod:`repro.service.workers` -- the embeddable :class:`DetectionService`
  facade, whose worker threads run full
  :func:`~repro.parallel.detect_communities` runs and
  :func:`~repro.parallel.dynamic.incremental_louvain` warm-start updates;
  every job is traced through :mod:`repro.observability` into a shared
  streaming sink, and each emitted event is also the job's cancellation
  and deadline checkpoint;
* :mod:`repro.service.store` -- the versioned snapshot store behind
  point-in-time membership queries and version diffs;
* :mod:`repro.service.server` -- the stdlib HTTP API (``repro serve``) with
  ``/healthz`` and Prometheus ``/metrics``.
"""

from .jobs import (
    Job,
    JobCancelled,
    JobQueue,
    JobState,
    QueueClosedError,
    QueueFullError,
    TransientJobError,
)
from .server import ServiceServer, run_server
from .store import Snapshot, SnapshotDiff, SnapshotStore
from .workers import DetectionService, JobContext

__all__ = [
    "Job",
    "JobState",
    "JobQueue",
    "JobContext",
    "JobCancelled",
    "QueueFullError",
    "QueueClosedError",
    "TransientJobError",
    "DetectionService",
    "Snapshot",
    "SnapshotDiff",
    "SnapshotStore",
    "ServiceServer",
    "run_server",
]
