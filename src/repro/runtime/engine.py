"""SPMD simulation engine: ranks + bus + profiler wired together.

A :class:`Simulation` owns the pieces every distributed algorithm in this
repository needs: the rank count, the bus (:class:`~repro.runtime.comm.Bus`,
with optional delivery-order failure injection), the
:class:`~repro.runtime.profiler.PhaseProfiler` and a rank executor.

Algorithms are written as supersteps over per-rank state: every rank
computes, then the ranks exchange through the bus.  :meth:`Simulation.map_ranks`
runs one superstep's per-rank closures concurrently on the host's usable
cores (``min(ranks, CPUs)`` threads; inline when that is one, or when the
superstep is too small to pay for the thread handoffs) and hands the
results back in rank order.  The driver thread keeps everything with an
order -- bus exchanges and collectives, profiler charges, tracer and
sanitizer events -- and applies it in ascending rank order after the map,
so a run is bitwise identical however many threads computed it.  This is
sound because a closure touches only its own rank's state and the read-only
inbox the last exchange delivered: ranks never see each other's state
outside the bus, exactly as in the paper's barrier-per-superstep model.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

import numpy as np

from ..analysis.sanitizer import NULL_SANITIZER, Sanitizer, resolve_sanitizer
from .comm import Bus, MessageBus
from .profiler import PhaseProfiler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.tracer import Tracer

__all__ = ["Simulation", "usable_cpus", "MIN_THREADED_WORK"]

T = TypeVar("T")
R = TypeVar("R")

#: Supersteps touching fewer array elements than this (summed over ranks)
#: run inline.  Small numpy calls hold the GIL, so threads on a small
#: superstep mostly wait for each other: measured on 2 CPUs with 4 ranks,
#: threading every level made runs on graphs of 0.15-0.6 M adjacency
#: entries up to 1.9x slower, and runs on 0.8-1.9 M entries 25-35% faster.
MIN_THREADED_WORK = 1 << 19


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


@dataclass
class Simulation:
    """Execution context for one simulated SPMD run."""

    num_ranks: int
    bus: Bus
    profiler: PhaseProfiler
    tracer: "Tracer | None" = None
    sanitizer: Sanitizer = field(default=NULL_SANITIZER)
    _pool: ThreadPoolExecutor | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def create(
        num_ranks: int,
        *,
        reorder_seed: int | None = None,
        tracer: "Tracer | None" = None,
        sanitize: "bool | Sanitizer | None" = False,
        bus: Bus | None = None,
    ) -> "Simulation":
        """Build a simulation.

        ``reorder_seed`` enables failure injection: inboxes are delivered in
        a random (but seeded) order each superstep, which a correct
        superstep-synchronous algorithm must tolerate.  ``tracer`` attaches a
        :class:`~repro.observability.Tracer`: the profiler mirrors phases as
        spans and the bus emits per-superstep comm events into it.
        ``sanitize`` attaches a :class:`~repro.analysis.Sanitizer` (pass
        ``True``, an instance, or ``None`` to defer to ``REPRO_SANITIZE``);
        the bus then checks superstep participation and the algorithms run
        their invariant contracts against it.  ``bus`` is the transport to
        run over -- an in-process :class:`~repro.runtime.comm.MessageBus`
        by default, a bound :class:`~repro.runtime.shm.SharedMemoryBus` in a
        process-mode worker -- and gets this run's profiler, sanitizer and
        reorder RNG.  This is the one place a run resolves all three, so
        every rank of every execution mode draws the same RNG stream.
        """
        if num_ranks < 1:
            raise ValueError("need at least one rank")
        sanitizer = resolve_sanitizer(sanitize, tracer=tracer)
        profiler = PhaseProfiler(num_ranks, tracer=tracer)
        if bus is None:
            bus = MessageBus(num_ranks)
        bus.profiler = profiler
        bus.sanitizer = sanitizer
        bus.reorder_rng = (
            np.random.default_rng(reorder_seed) if reorder_seed is not None else None
        )
        return Simulation(
            num_ranks=num_ranks, bus=bus, profiler=profiler, tracer=tracer,
            sanitizer=sanitizer,
        )

    def phase(self, name: str):
        """Shorthand for ``self.profiler.phase(name)``."""
        return self.profiler.phase(name)

    # -------------------------------------------------------------- #
    # Rank executor
    # -------------------------------------------------------------- #

    def map_ranks(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        work: int | None = None,
    ) -> list[R]:
        """Run ``fn`` on each rank's item concurrently; results in rank order.

        ``items`` holds one entry per local rank (all ``P`` rank states in
        simulated mode, the single local state in a process-mode worker).
        ``fn`` must touch only its own item and read-only shared inputs, and
        must not write to the profiler, tracer, sanitizer or bus: it returns
        whatever the driver needs to charge or exchange afterwards.
        ``work`` is the number of array elements the closures touch in
        total; below :data:`MIN_THREADED_WORK`, like with one item or one
        usable CPU, the closures run inline on the calling thread.
        Otherwise they run on this simulation's thread pool, created on
        first use; every closure finishes before this returns, and if
        several raised, the lowest rank's exception is re-raised.
        """
        if len(items) <= 1 or (work is not None and work < MIN_THREADED_WORK):
            return [fn(item) for item in items]
        pool = self._pool
        if pool is None:
            workers = min(len(items), usable_cpus())
            if workers <= 1:
                return [fn(item) for item in items]
            pool = self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-rank"
            )
        futures = [pool.submit(fn, item) for item in items]
        results: list[Any] = []
        error: Exception | None = None
        for fut in futures:
            try:
                results.append(fut.result())
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def close(self) -> None:
        """Join and drop the rank executor's threads (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
