"""Span recording around the program's layer boundaries.

The benchmark times each layer by replacing that layer's public functions
with wrappers from this file; the program itself is not changed.  A span
is ``(name, start, end, parent, self_time, thread)``: ``self_time`` is the
span's duration minus the time its direct child spans cover.  Spans are
kept in memory and summarised or written out when the run ends.

Times come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC``, so spans of the server process and the driver's
timestamps (``time.monotonic``) share one time axis.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Wrapped calls, by layer metric stem.
PARALLEL_METHODS = {
    "build_states": "parallel.build_states",
    "state_propagation": "parallel.state_propagation",
    "find_best": "parallel.find_best",
    "compute_modularity": "parallel.modularity",
    "reconstruct": "parallel.reconstruct",
}
KERNELS = ("coalesce_pairs", "coalesce_with_order", "segment_coalesce")
BUS_METHODS = (
    "exchange", "exchange_grouped", "allreduce_sum", "allreduce_max",
    "allgather", "barrier",
)
STORE_METHODS = ("put", "get", "membership", "diff")


class SpanRecorder:
    """Thread-aware span stack plus per-span-name counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, on_result=None):
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                recorder.spans.append((
                    name, start, end, stack[-1][0] if stack else None,
                    duration - frame[1], threading.get_ident(),
                ))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- #

    @staticmethod
    def within(spans, start: float, end: float) -> list:
        """The spans that began and ended inside ``[start, end]``."""
        return [s for s in spans if s[1] >= start and s[2] <= end]

    @staticmethod
    def self_times(spans) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _s, _e, _p, self_time, _t in spans:
            out[name] += self_time
        return out

    @staticmethod
    def calls(spans) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in spans:
            out[s[0]] += 1
        return out

    @staticmethod
    def root_time(spans) -> float:
        """Time covered by spans that have no wrapped parent."""
        return sum(s[2] - s[1] for s in spans if s[3] is None)


def _nbytes(*arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def install(recorder: SpanRecorder, *, service: bool = False) -> None:
    """Wrap every layer boundary the benchmark times.

    Must run after ``repro`` is importable and before the measured work.
    ``service`` adds the service and observability wrappers.
    """
    import repro.graph
    import repro.metrics
    import repro.parallel.driver
    import repro.parallel.louvain
    import repro.parallel.vectorized
    import repro.runtime.comm
    import repro.runtime.process
    import repro.runtime.shm

    recorder.patch(repro.graph, "read_edge_list", "graph.read_edge_list")

    for cls in (repro.parallel.vectorized.VectorBackend,
                repro.parallel.louvain._HashBackend):
        for method, name in PARALLEL_METHODS.items():
            recorder.patch(cls, method, name)

    def kernel_counts(args, kwargs, result):
        first = args[0]
        recorder.add("kernels.coalesce_items", int(getattr(first, "size", 0)))
        recorder.add("kernels.coalesce_bytes",
                     _nbytes(*args, *kwargs.values(), *result))

    for kernel in KERNELS:
        recorder.patch(repro.parallel.vectorized, kernel, "kernels.coalesce",
                       kernel_counts)

    for bus in (repro.runtime.comm.MessageBus, repro.runtime.shm.SharedMemoryBus):
        for method in BUS_METHODS:
            recorder.patch(bus, method, "runtime.exchange")
    recorder.patch(repro.runtime.process, "publish_arrays", "runtime.publish")

    # modularity_from_labels is bound by name in several modules; wrap the
    # one function once and rebind it everywhere the program looks it up.
    modularity_module = sys.modules["repro.metrics.modularity"]
    original = modularity_module.modularity_from_labels
    wrapped = recorder.wrap("metrics.modularity", original)
    for owner in (modularity_module, repro.metrics, repro.parallel.driver,
                  repro.parallel.louvain):
        recorder._undo.append((owner, "modularity_from_labels", original))
        setattr(owner, "modularity_from_labels", wrapped)

    if service:
        import repro.observability.sinks
        import repro.parallel.dynamic
        import repro.service.store

        recorder.patch(repro.parallel.dynamic, "apply_edge_batch",
                       "service.apply_edge_batch")
        for method in STORE_METHODS:
            recorder.patch(repro.service.store.SnapshotStore, method,
                           "service.store")
        recorder.patch(repro.observability.sinks.RotatingJsonlSink, "write",
                       "observability.sink_write", _event_counts(recorder))


def dump_rank_workers(recorder: SpanRecorder, out_dir: str) -> None:
    """Make every forked rank worker write its own spans when it ends.

    ``execution="process"`` forks one worker per rank; the wrappers are
    inherited through fork but their spans stay in the worker.  This wraps
    the worker entry point so that each worker starts with an empty record
    and writes ``{"start", "end", "spans", "counts"}`` to
    ``out_dir/rank<r>.json`` before it exits.
    """
    import repro.runtime.process as process

    original = process._worker_main

    def worker_main(ctx, rank):
        recorder.spans = []
        recorder.counts = defaultdict(float)
        start = time.perf_counter()
        try:
            original(ctx, rank)
        finally:
            end = time.perf_counter()
            with open(os.path.join(out_dir, f"rank{rank}.json"), "w") as fh:
                json.dump({"start": start, "end": end, "spans": recorder.spans,
                           "counts": recorder.counts}, fh)

    recorder._undo.append((process, "_worker_main", original))
    process._worker_main = worker_main


def _event_counts(recorder: SpanRecorder):
    """Count each job's algorithm work from the events the service writes.

    Fills ``recorder.job_counts[job_id]`` with ``levels``, ``iterations``,
    ``movers``, ``scanned`` (vertices scanned by FIND_BEST), ``supersteps``,
    ``records``, ``bytes`` and ``messages``.
    """
    job_counts: dict = defaultdict(lambda: defaultdict(float))
    level_vertices: dict = {}
    recorder.job_counts = job_counts

    def on_event(args, kwargs, result):
        event = args[1] if len(args) > 1 else kwargs["event"]
        data = event.data
        job = data.get("job_id")
        counts = job_counts[job]
        if event.kind == "iteration":
            counts["iterations"] += 1
            counts["movers"] += data.get("movers") or 0
            counts["scanned"] += level_vertices.get(job, 0)
        elif event.kind == "level_start":
            counts["levels"] += 1
            level_vertices[job] = data.get("num_vertices") or 0
        elif event.kind == "superstep":
            counts["supersteps"] += 1
            for key in ("records", "bytes", "messages"):
                counts[key] += data.get(key) or 0

    return on_event
