"""Process-parallel SPMD execution: one OS process per rank.

``execution="process"`` turns the simulated SPMD design into real
parallelism.  :func:`process_louvain` forks ``P`` workers; each worker binds
one rank of a :class:`~repro.runtime.shm.SharedMemoryBus`, reads its CSR
shard from the shared-memory manifest the parent published, and runs the
*same* control plane as the simulated mode
(:func:`repro.parallel.louvain._louvain_core`) over its single local rank
state.  Every branch in that control plane depends only on collective
results, which the bus front end both modes share
(:class:`~repro.runtime.comm.Bus`) folds in ascending rank order, so the
trajectory -- every float, every mover count, every level -- is bitwise
identical to ``execution="simulated"`` (the zero-tolerance golden gate
proves it).

Process mode differs from simulated mode only in how bytes cross between
ranks.  :func:`repro.parallel.louvain.parallel_louvain` builds the run's
simulation, computes the level-0 modularity and assembles the result for
both modes; the shard split is :meth:`ModuloPartition.in_edge_shards`, the
rank states come from :meth:`VectorBackend.local_states`, and each worker's
profiler, sanitizer and reorder RNG from
:meth:`~repro.runtime.engine.Simulation.create` over the shared-memory
transport.  What is left here:

* parent: publishes the shards (plus the warm-start membership) via
  :func:`~repro.runtime.shm.publish_arrays`, forks workers, replays the
  streamed trace events into the caller's tracer at the time rank 0
  emitted them, merges the per-worker profiler columns into the run's
  profiler and the workers' sanitizer check counts into its sanitizer,
  and owns segment cleanup on **both** success and failure paths.
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..analysis.sanitizer import Sanitizer
from .engine import Simulation
from .profiler import PhaseCounters
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
    from ..parallel.louvain import ParallelLouvainConfig
    from ..parallel.partition import ModuloPartition

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


@dataclass(frozen=True)
class _WorkerCtx:
    """Everything a forked worker needs (inherited via fork, never pickled)."""

    bus: SharedMemoryBus
    manifest: ShmManifest
    config: "ParallelLouvainConfig"
    partition: "ModuloPartition"
    num_edges: int
    level0_q: float
    sanitize: "bool | Sanitizer | None"
    #: Rank 0's tracer (``NULL_TRACER`` when the caller does not trace).
    tracer: "Tracer"
    result_queue: Any


def _worker_main(ctx: _WorkerCtx, rank: int) -> None:
    from ..observability.tracer import NULL_TRACER
    from ..parallel.louvain import _louvain_core
    from ..parallel.vectorized import VectorBackend

    fault = _parse_fault(rank)
    if fault == "exit":
        os._exit(3)

    tracer = ctx.tracer if rank == 0 else NULL_TRACER
    try:
        ctx.bus.bind(rank)
        sim = Simulation.create(
            ctx.config.num_ranks,
            reorder_seed=ctx.config.reorder_seed,
            tracer=tracer,
            sanitize=ctx.sanitize,
            bus=ctx.bus,
        )
        if fault == "raise":
            raise RuntimeError(f"injected fault in worker rank {rank}")

        reader = ManifestReader(ctx.manifest)
        shard = (rank, *(reader.read(f"rank{rank}/{col}") for col in "vuw"))
        initial_membership = None
        if "shared/initial_membership" in ctx.manifest:
            initial_membership = reader.read("shared/initial_membership")
        reader.close()

        backend = VectorBackend()
        membership, level_labels, modularities, levels = _louvain_core(
            sim,
            ctx.partition,
            backend,
            backend.local_states(sim, ctx.partition, [shard], ctx.config),
            ctx.config,
            num_vertices=ctx.partition.num_vertices,
            num_edges=ctx.num_edges,
            initial_membership=initial_membership,
            level0_q=lambda: ctx.level0_q,
            tracer=tracer,
        )

        payload: dict[str, Any] = {
            "scopes": sim.profiler.scopes,
            "num_levels": len(levels),
            "bytes_moved": ctx.bus.bytes_moved,
            "checks_run": sim.sanitizer.checks_run,
        }
        if rank == 0:
            payload["membership"] = membership
            payload["level_labels"] = level_labels
            payload["modularities"] = modularities
            payload["levels"] = levels
        ctx.result_queue.put(("ok", rank, payload))
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
        try:
            tracer.close()
        except Exception:
            pass


# ===================================================================== #
# Parent side
# ===================================================================== #


def _drain_trace(
    trace_queue, tracer: "Tracer", source: "Tracer", done: bool
) -> bool:
    """Replay rank 0's queued trace events; True once the sentinel arrived.

    ``source`` is rank 0's tracer: each event keeps the time it was
    emitted (:meth:`~repro.observability.tracer.Tracer.replay`).
    """
    from ..observability.events import TraceEvent

    while True:
        try:
            item = trace_queue.get_nowait()
        except (_queue.Empty, OSError):
            return done
        if item is None:
            done = True
        elif tracer.enabled:
            tracer.replay(TraceEvent.from_dict(item), source.origin)


def _merge_phase_dicts(
    dicts: list[dict[tuple[int, int, str], PhaseCounters]],
) -> dict[tuple[int, int, str], PhaseCounters]:
    """Union per-worker scoped counters: sum rank columns, keep shared scalars.

    Each worker's arrays carry only its own rank's column, so summing
    reassembles the full per-rank breakdown.  Superstep/collective counts
    advance identically on every worker (same bus ops, same scopes), so they
    come from the first worker that recorded the scope -- ``PhaseCounters.
    merge`` would multiply them by ``P``.  A scope can be missing from some
    workers (a rank with no local work in it), hence the union.
    """
    out: dict[tuple[int, int, str], PhaseCounters] = {}
    for scopes in dicts:
        for key, part in scopes.items():
            merged = out.setdefault(key, part)
            if merged is not part:
                merged.comp_ops += part.comp_ops
                merged.records_sent += part.records_sent
                merged.bytes_sent += part.bytes_sent
                merged.messages_sent += part.messages_sent
    return out


def process_louvain(
    sim: Simulation,
    partition: "ModuloPartition",
    graph: "Graph",
    config: "ParallelLouvainConfig",
    *,
    initial_membership: np.ndarray | None,
    level0_q: float,
    tracer: "Tracer",
    sanitize: "bool | Sanitizer | None",
) -> tuple[tuple, int]:
    """Run ``_louvain_core`` with one forked OS process per rank.

    :func:`repro.parallel.louvain.parallel_louvain` calls this when
    ``config.execution == "process"``.  The workers' per-rank counters are
    merged into ``sim.profiler``, so they match the simulated run's, and a
    sanitized run's ``sim.sanitizer`` counts every worker's checks.
    Returns rank 0's ``(membership, level_labels, modularities, levels)``
    and the raw bytes the shared-memory bus carried, summed over workers.
    """
    import multiprocessing

    from ..observability.sinks import QueueTraceSink
    from ..observability.tracer import NULL_TRACER, Tracer

    try:
        mp_ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        raise RuntimeError(
            "execution='process' requires the fork start method (POSIX)"
        ) from None

    P = config.num_ranks
    groups: dict[str, dict[str, np.ndarray]] = {
        f"rank{r}": {"v": v, "u": u, "w": w}
        for r, v, u, w in partition.in_edge_shards(graph)
    }
    if initial_membership is not None:
        groups["shared"] = {
            "initial_membership": np.asarray(initial_membership, dtype=np.int64)
        }

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
        # Rank 0's tracer is made before the fork, so its origin is known
        # here and the replay can put each event back at its time.
        worker_tracer = (
            Tracer(sink=QueueTraceSink(trace_queue), buffer=False)
            if tracer.enabled
            else NULL_TRACER
        )
        ctx = _WorkerCtx(
            bus=bus,
            manifest=manifest,
            config=config,
            partition=partition,
            num_edges=graph.num_edges,
            level0_q=level0_q,
            sanitize=sanitize,
            tracer=worker_tracer,
            result_queue=result_queue,
        )
        procs = [
            mp_ctx.Process(target=_worker_main, args=(ctx, r), daemon=True)
            for r in range(P)
        ]
        for p in procs:
            p.start()
        while len(payloads) + len(errors) < P:
            trace_done = _drain_trace(
                trace_queue, tracer, worker_tracer, trace_done
            )
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
            trace_done = _drain_trace(
                trace_queue, tracer, worker_tracer, trace_done
            )
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
            trace_done = _drain_trace(
                trace_queue, tracer, worker_tracer, trace_done
            )
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
    root = workers[0]
    for r in range(1, P):
        if workers[r]["num_levels"] != root["num_levels"]:
            raise ProcessExecutionError(
                f"rank {r} recorded {workers[r]['num_levels']} "
                f"levels but rank 0 recorded {root['num_levels']}: the SPMD "
                "control flow diverged"
            )
    sim.profiler.scopes = _merge_phase_dicts([w["scopes"] for w in workers])
    if sim.sanitizer.enabled:
        sim.sanitizer.checks_run += sum(int(w["checks_run"]) for w in workers)
    outcome = (
        root["membership"], root["level_labels"], root["modularities"],
        root["levels"],
    )
    return outcome, sum(int(w["bytes_moved"]) for w in workers)
