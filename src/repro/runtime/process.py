"""Process-parallel SPMD execution: one OS process per rank.

``execution="process"`` turns the simulated SPMD design into real
parallelism.  :func:`process_louvain` forks ``P`` workers; each worker binds
one rank of a :class:`~repro.runtime.shm.SharedMemoryBus`, reads its CSR
shard from the shared-memory manifest the parent published, and runs the
*same* control plane as the simulated mode
(:func:`repro.parallel.louvain._louvain_core`) over its single local rank
state.  Every branch in that control plane depends only on collective
results, which both buses fold in identical ascending-rank order, so the
trajectory -- every float, every mover count, every level -- is bitwise
identical to ``execution="simulated"`` (the zero-tolerance golden gate
proves it).

Responsibility split:

* parent: shards the graph's CSR arrays by owner rank exactly as
  ``VectorBackend.build_states`` does, publishes them (plus the warm-start
  membership) via :func:`~repro.runtime.shm.publish_arrays`, precomputes the
  level-0 modularity, forks workers, drains the streamed trace events into
  the caller's tracer, merges the per-worker profiler columns, and owns
  segment cleanup on **both** success and failure paths.
* workers: pure SPMD peers.  Rank 0 additionally streams trace events to
  the parent through a queue-backed
  :class:`~repro.observability.sinks.QueueTraceSink` and ships the result
  arrays back once.

Failure containment: a worker that raises reports its traceback and breaks
the shared barrier; a worker that dies outright (``os._exit``, signal) is
noticed by the parent, which breaks the barrier for the survivors.  Either
way no rank can hang in a superstep and the caller gets a
:class:`ProcessExecutionError` naming the failed rank.  Peers woken by the
broken barrier report too, possibly first; their reports are symptoms, so
the parent keeps collecting for a grace window and names the rank whose
failure was a cause.
"""

from __future__ import annotations

import os
import queue as _queue
import time
import traceback
from dataclasses import replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..analysis.sanitizer import NULL_SANITIZER, Sanitizer, resolve_sanitizer
from .comm import MessageBus
from .engine import Simulation
from .profiler import PhaseCounters, PhaseProfiler
from .shm import (
    SHM_PREFIX,
    BarrierBrokenError,
    ManifestReader,
    SharedMemoryBus,
    ShmBlock,
    ShmManifest,
    _unlink_quiet,
    leaked_segments,
    publish_arrays,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph import Graph
    from ..observability.tracer import Tracer
    from ..parallel.louvain import ParallelLouvainConfig, ParallelLouvainResult

__all__ = ["ProcessExecutionError", "process_louvain"]

#: Environment hook for crash tests: ``"<rank>:raise"`` makes that worker
#: raise after binding the bus; ``"<rank>:exit"`` makes it die instantly
#: without reporting (simulating a hard crash mid-superstep).
_FAULT_ENV = "REPRO_PROCESS_FAULT"


#: After the first failure report, how long the parent keeps collecting
#: reports while it only holds bystanders' broken-barrier errors.
_FAILURE_GRACE_S = 5.0


class ProcessExecutionError(RuntimeError):
    """A worker rank failed; carries the rank and its traceback/exit code."""


def _primary(errors: dict[int, tuple[bool, str]]) -> int | None:
    """Lowest rank whose failure is a cause, not a broken-barrier symptom."""
    causes = [rank for rank, (broken, _) in errors.items() if not broken]
    return min(causes) if causes else None


def _parse_fault(rank: int) -> str | None:
    spec = os.environ.get(_FAULT_ENV)
    if not spec or ":" not in spec:
        return None
    rank_s, mode = spec.split(":", 1)
    try:
        return mode if int(rank_s) == rank else None
    except ValueError:
        return None


# ===================================================================== #
# Worker side
# ===================================================================== #


class _WorkerCtx:
    """Everything a forked worker needs (inherited via fork, never pickled)."""

    def __init__(
        self,
        *,
        bus: SharedMemoryBus,
        manifest: ShmManifest,
        config: "ParallelLouvainConfig",
        num_vertices: int,
        num_edges: int,
        level0_q: float,
        sanitize: "bool | Sanitizer | None",
        tracing: bool,
        trace_queue,
        result_queue,
    ) -> None:
        self.bus = bus
        self.manifest = manifest
        self.config = config
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.level0_q = level0_q
        self.sanitize = sanitize
        self.tracing = tracing
        self.trace_queue = trace_queue
        self.result_queue = result_queue


def _worker_main(ctx: _WorkerCtx, rank: int) -> None:
    from ..observability.tracer import NULL_TRACER, Tracer
    from ..parallel.louvain import _louvain_core
    from ..parallel.partition import ModuloPartition
    from ..parallel.vectorized import (
        VectorBackend,
        _check_weights,
        _VectorRankState,
    )

    fault = _parse_fault(rank)
    if fault == "exit":
        os._exit(3)

    tracer = NULL_TRACER
    sink = None
    try:
        if ctx.tracing and rank == 0:
            from ..observability.sinks import QueueTraceSink

            sink = QueueTraceSink(ctx.trace_queue)
            tracer = Tracer(sink=sink, buffer=False)
        event_tracer = tracer if tracer.enabled else None
        sanitizer = resolve_sanitizer(ctx.sanitize, tracer=event_tracer)
        profiler = PhaseProfiler(ctx.config.num_ranks, tracer=event_tracer)
        ctx.bus.bind(
            rank,
            profiler=profiler,
            sanitizer=sanitizer,
            reorder_seed=ctx.config.reorder_seed,
        )
        if fault == "raise":
            raise RuntimeError(f"injected fault in worker rank {rank}")

        reader = ManifestReader(ctx.manifest)
        v = reader.read(f"rank{rank}/v")
        u = reader.read(f"rank{rank}/u")
        w = reader.read(f"rank{rank}/w")
        initial_membership = None
        if "shared/initial_membership" in ctx.manifest:
            initial_membership = reader.read("shared/initial_membership")
        reader.close()

        partition = ModuloPartition(ctx.num_vertices, ctx.config.num_ranks)
        _check_weights(sanitizer, rank, w)
        state = _VectorRankState(rank, partition, v, u, w)
        sim = Simulation(
            num_ranks=ctx.config.num_ranks,
            bus=ctx.bus,  # type: ignore[arg-type]
            profiler=profiler,
            tracer=event_tracer,
            sanitizer=sanitizer,
        )
        q0 = float(ctx.level0_q)
        membership, level_labels, modularities, levels = _louvain_core(
            sim,
            partition,
            VectorBackend(),
            [state],
            ctx.config,
            num_vertices=ctx.num_vertices,
            num_edges=ctx.num_edges,
            initial_membership=initial_membership,
            level0_q=lambda: q0,
            tracer=tracer,
        )

        payload: dict[str, Any] = {
            "phases": profiler.phases,
            "bytes_moved": ctx.bus.bytes_moved,
        }
        if rank == 0:
            payload["membership"] = membership
            payload["level_labels"] = level_labels
            payload["modularities"] = modularities
            payload["levels"] = levels
        else:
            payload["level_counters"] = [lv.phase_counters for lv in levels]
            payload["iter_counters"] = [
                [it.phase_counters for it in lv.iterations] for lv in levels
            ]
        ctx.result_queue.put(("ok", rank, payload))
        if sink is not None:
            tracer.close()
    except BaseException as exc:
        # Break the barrier first so peers error out instead of hanging,
        # then report; the parent turns this into ProcessExecutionError.
        # A broken barrier is a bystander's symptom, so it is reported as
        # such and the parent keeps waiting for the rank that caused it.
        try:
            ctx.bus.abort()
        except Exception:
            pass
        status = "broken" if isinstance(exc, BarrierBrokenError) else "error"
        try:
            ctx.result_queue.put((status, rank, traceback.format_exc()))
        except Exception:
            pass
        if sink is not None:
            try:
                tracer.close()
            except Exception:
                pass


# ===================================================================== #
# Parent side
# ===================================================================== #


def _replay_event(tracer: "Tracer", payload: dict) -> None:
    from ..observability.events import TraceEvent

    ev = TraceEvent.from_dict(payload)
    tracer.emit(ev.kind, ev.name, rank=ev.rank, **ev.data)


def _drain_trace(trace_queue, tracer: "Tracer | None", done: bool) -> bool:
    """Replay queued trace events; returns True once the sentinel arrived."""
    while True:
        try:
            item = trace_queue.get_nowait()
        except (_queue.Empty, OSError):
            return done
        if item is None:
            done = True
        elif tracer is not None and tracer.enabled:
            _replay_event(tracer, item)


def _merge_phase_dicts(
    dicts: list[dict[str, PhaseCounters]], num_ranks: int
) -> dict[str, PhaseCounters]:
    """Union per-worker counter dicts: sum rank columns, keep shared scalars.

    Each worker's arrays carry only its own rank's column, so summing
    reassembles the full per-rank breakdown.  Superstep/collective counts
    advance identically on every worker (same bus ops, same phases), so they
    come from the first worker that recorded the phase -- ``PhaseCounters.
    merge`` would multiply them by ``P``.  A phase can be missing from some
    workers (a rank with no local work in it), hence the union.
    """
    names: list[str] = []
    for d in dicts:
        for name in d:
            if name not in names:
                names.append(name)
    out: dict[str, PhaseCounters] = {}
    for name in names:
        merged = PhaseCounters(num_ranks=num_ranks)
        first = True
        for d in dicts:
            part = d.get(name)
            if part is None:
                continue
            merged.comp_ops += part.comp_ops
            merged.records_sent += part.records_sent
            merged.bytes_sent += part.bytes_sent
            merged.messages_sent += part.messages_sent
            if first:
                merged.supersteps = part.supersteps
                merged.collectives = part.collectives
                first = False
        out[name] = merged
    return out


def process_louvain(
    graph: "Graph",
    config: "ParallelLouvainConfig",
    *,
    initial_membership: np.ndarray | None = None,
    tracer: "Tracer | None" = None,
    sanitize: "bool | Sanitizer | None" = None,
) -> "ParallelLouvainResult":
    """Run parallel Louvain with one OS process per rank (the tentpole).

    Same contract as :func:`repro.parallel.louvain.parallel_louvain` (which
    dispatches here when ``config.execution == "process"``); the returned
    result carries a merged profiler whose per-rank counters match the
    simulated run's, plus ``shm_bytes_moved`` -- the raw bytes the
    shared-memory alltoallv actually carried.
    """
    import multiprocessing

    from ..metrics.modularity import modularity_from_labels
    from ..observability.tracer import NULL_TRACER
    from ..parallel.louvain import ParallelLouvainResult
    from ..parallel.partition import ModuloPartition

    tracer = tracer if tracer is not None else NULL_TRACER
    try:
        mp_ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        raise RuntimeError(
            "execution='process' requires the fork start method (POSIX)"
        ) from None

    P = config.num_ranks
    partition = ModuloPartition(graph.num_vertices, P)
    rows = graph.row_index()
    cols = graph.indices
    weights = graph.weights
    owners = partition.owner(cols)
    groups: dict[str, dict[str, np.ndarray]] = {}
    for r in range(P):
        mask = owners == r
        groups[f"rank{r}"] = {
            "v": rows[mask], "u": cols[mask], "w": weights[mask],
        }
    init_arr = None
    if initial_membership is not None:
        init_arr = np.asarray(initial_membership, dtype=np.int64)
        groups["shared"] = {"initial_membership": init_arr}

    # The overshoot guard's level-0 reference Q needs the whole graph, which
    # workers do not hold; precompute the float they all close over.  Only
    # meaningful when the run gets past the empty-graph early return.
    if graph.num_vertices and float(np.sum(weights)) > 0.0:
        q0 = modularity_from_labels(
            graph,
            (
                init_arr
                if init_arr is not None
                else np.arange(graph.num_vertices, dtype=np.int64)
            ),
            resolution=config.resolution,
        )
    else:
        q0 = 0.0

    prefix = f"{SHM_PREFIX}{os.getpid():x}x{os.urandom(4).hex()}"
    payloads: dict[int, dict[str, Any]] = {}
    #: rank -> (is a bystander's broken-barrier report, detail)
    errors: dict[int, tuple[bool, str]] = {}
    dead_since: dict[int, float] = {}
    grace_end: float | None = None  # set by the first failure report
    trace_done = not tracer.enabled
    # Everything from the first segment on is inside the try: setup can fail
    # part-way (a partial publish, a half-built bus) and still leave
    # /dev/shm clean.
    manifest_segments: list[ShmBlock] = []
    bus: SharedMemoryBus | None = None
    queues: list = []
    procs: list = []
    try:
        manifest, manifest_segments = publish_arrays(prefix, groups)
        bus = SharedMemoryBus.create(P, prefix, mp_ctx)
        trace_queue = mp_ctx.Queue()
        result_queue = mp_ctx.Queue()
        queues = [trace_queue, result_queue]
        ctx = _WorkerCtx(
            bus=bus,
            manifest=manifest,
            config=config,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            level0_q=q0,
            sanitize=sanitize,
            tracing=tracer.enabled,
            trace_queue=trace_queue,
            result_queue=result_queue,
        )
        procs = [
            mp_ctx.Process(target=_worker_main, args=(ctx, r), daemon=True)
            for r in range(P)
        ]
        for p in procs:
            p.start()
        while len(payloads) + len(errors) < P:
            trace_done = _drain_trace(trace_queue, tracer, trace_done)
            if grace_end is not None and (
                _primary(errors) is not None or time.monotonic() >= grace_end
            ):
                break
            try:
                status, rank, data = result_queue.get(timeout=0.05)
            except _queue.Empty:
                status = None
            if status == "ok":
                payloads[rank] = data
            elif status is not None:
                errors[rank] = (status == "broken", str(data))
            else:
                # A rank that died without a result gets a short window for
                # an in-flight message, then is declared lost.
                now = time.monotonic()
                for r, p in enumerate(procs):
                    if r in payloads or r in errors or p.is_alive():
                        continue
                    if now - dead_since.setdefault(r, now) >= 1.0:
                        errors[r] = (
                            False,
                            f"worker process exited with code {p.exitcode} "
                            "before reporting a result",
                        )
            if errors and grace_end is None:
                grace_end = time.monotonic() + _FAILURE_GRACE_S
        if errors:
            bus.abort()  # free peers blocked in a superstep barrier
            for p in procs:
                p.join(timeout=2.0)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=2.0)
            trace_done = _drain_trace(trace_queue, tracer, trace_done)
            rank = _primary(errors)
            if rank is None:
                rank = min(errors)
            raise ProcessExecutionError(
                f"execution='process' failed: rank {rank} died.\n"
                f"{errors[rank][1]}"
            )

        for p in procs:
            p.join(timeout=10.0)
        deadline = time.monotonic() + 5.0
        while not trace_done and time.monotonic() < deadline:
            trace_done = _drain_trace(trace_queue, tracer, trace_done)
            if not trace_done:
                time.sleep(0.01)
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for seg in manifest_segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - stray view
                pass
        if bus is not None:
            bus.cleanup()
        for name in leaked_segments(prefix):
            _unlink_quiet(name)
        for q in queues:
            q.close()

    workers = [payloads[r] for r in range(P)]
    profiler = PhaseProfiler(P, tracer=tracer if tracer.enabled else None)
    profiler.phases = _merge_phase_dicts([w["phases"] for w in workers], P)

    root = workers[0]
    base_levels = root["levels"]
    for r in range(1, P):
        if len(workers[r]["level_counters"]) != len(base_levels):
            raise ProcessExecutionError(
                f"rank {r} recorded {len(workers[r]['level_counters'])} "
                f"levels but rank 0 recorded {len(base_levels)}: the SPMD "
                "control flow diverged"
            )
    merged_levels = []
    for li, lv in enumerate(base_levels):
        iteration_dicts = [
            [it.phase_counters for it in lv.iterations]
        ] + [workers[r]["iter_counters"][li] for r in range(1, P)]
        its = []
        for ii, it in enumerate(lv.iterations):
            its.append(
                replace(
                    it,
                    phase_counters=_merge_phase_dicts(
                        [d[ii] for d in iteration_dicts], P
                    ),
                )
            )
        level_dicts = [lv.phase_counters] + [
            workers[r]["level_counters"][li] for r in range(1, P)
        ]
        merged_levels.append(
            replace(
                lv,
                iterations=tuple(its),
                phase_counters=_merge_phase_dicts(level_dicts, P),
            )
        )

    sim = Simulation(
        num_ranks=P,
        bus=MessageBus(P, profiler),
        profiler=profiler,
        tracer=tracer if tracer.enabled else None,
        sanitizer=NULL_SANITIZER,
    )
    result = ParallelLouvainResult(
        membership=root["membership"],
        level_labels=root["level_labels"],
        modularities=root["modularities"],
        levels=merged_levels,
        simulation=sim,
        config=config,
    )
    # Raw bytes the shared-memory alltoallv/collectives carried, summed over
    # workers (distinct from the profiler's modeled wire bytes).
    result.shm_bytes_moved = sum(int(w["bytes_moved"]) for w in workers)
    return result
