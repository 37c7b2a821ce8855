"""Run tracer: span + counter + typed-event capture with a no-op fallback.

A :class:`Tracer` accumulates :class:`~repro.observability.events.TraceEvent`
records in memory and/or streams them to a
:class:`~repro.observability.sinks.TraceSink` as they are emitted
(``Tracer(sink=..., buffer=False)`` keeps O(1) events resident -- long runs
never buffer the whole stream); the algorithms emit through the typed helpers
(:meth:`Tracer.iteration`, :meth:`Tracer.table_stats`, ...) and the
:class:`~repro.runtime.profiler.PhaseProfiler` bridges its phase context
manager onto :meth:`begin_span` / :meth:`end_span`, so span nesting mirrors
the profiler's phase hierarchy exactly.

When tracing is off the instrumented code paths hold :data:`NULL_TRACER`, a
:class:`NullTracer` whose ``enabled`` flag is False and whose methods are all
no-ops.  Hot call sites additionally guard with ``if tracer.enabled:`` so the
disabled cost is one attribute read -- the overhead budget
``benchmarks/bench_trace_overhead.py`` enforces (< 5% of a parallel run).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable

from .events import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sinks import TraceSink

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


class Tracer:
    """Collects a typed event stream plus named cumulative counters.

    ``sink`` receives every event at emission time (streaming export);
    ``buffer=False`` additionally stops the in-memory ``events`` list from
    growing, so a sink-backed tracer holds O(1) events regardless of run
    length.  ``buffer=False`` without a sink is rejected -- the events would
    be lost entirely.

    ``threadsafe=True`` guards the seq/events/counters mutations with an
    RLock so many threads may emit into one tracer (the detection service
    shares one across its worker pool; ``counters.get + store`` is a
    read-modify-write that drops increments when two workers interleave).
    It does **not** make the span stack multi-thread-aware -- spans are a
    per-thread nesting concept; give each thread its own tracer for spans
    (the worker pool does exactly that with per-job tracers).  The default
    stays lock-free: single-threaded detection runs sit on the hot path of
    the <5% disabled-overhead budget.
    """

    enabled: bool = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        sink: "TraceSink | None" = None,
        buffer: bool = True,
        threadsafe: bool = False,
    ) -> None:
        if sink is None and not buffer:
            raise ValueError("buffer=False requires a sink (events would be dropped)")
        self.events: list[TraceEvent] = []
        self.counters: dict[str, float] = {}
        self.sink = sink
        self._buffer = bool(buffer)
        self._lock = threading.RLock() if threadsafe else None
        self._clock = clock if clock is not None else time.perf_counter
        self._t0 = self._clock()
        self._seq = 0
        #: Open spans as (name, start_ts, rank_of_begin); LIFO.
        self._span_stack: list[tuple[str, float, int | None]] = []

    # -------------------------------------------------------------- #
    # Core emission
    # -------------------------------------------------------------- #

    def _now(self) -> float:
        return self._clock() - self._t0

    def emit(
        self,
        kind: str,
        name: str,
        *,
        rank: int | None = None,
        **data: Any,
    ) -> TraceEvent | None:
        """Append one event; returns it (mainly for tests, None when no-op)."""
        return self._guarded_emit(kind, name, rank, data)

    def replay(self, event: TraceEvent, origin: float) -> TraceEvent | None:
        """Re-emit another tracer's event at the time it was emitted.

        ``origin`` is that tracer's :attr:`origin` on this tracer's clock --
        a process-mode worker forked from this process shares its
        ``perf_counter`` -- so the event keeps its place on this tracer's
        time axis.  It takes this tracer's next ``seq``.
        """
        ts = event.ts + (origin - self._t0)
        return self._guarded_emit(event.kind, event.name, event.rank, event.data, ts)

    @property
    def origin(self) -> float:
        """The clock reading event times count from."""
        return self._t0

    def _guarded_emit(
        self,
        kind: str,
        name: str,
        rank: int | None,
        data: dict[str, Any],
        ts: float | None = None,
    ) -> TraceEvent:
        """:meth:`_emit` under the lock of a ``threadsafe`` tracer."""
        if self._lock is not None:
            with self._lock:
                return self._emit(kind, name, rank, data, ts)
        return self._emit(kind, name, rank, data, ts)

    def _emit(
        self,
        kind: str,
        name: str,
        rank: int | None,
        data: dict[str, Any],
        ts: float | None = None,
    ) -> TraceEvent:
        ev = TraceEvent(
            seq=self._seq, ts=self._now() if ts is None else ts, kind=kind,
            name=name, rank=rank, data=data,
        )
        self._seq += 1
        if self._buffer:
            self.events.append(ev)
        if self.sink is not None:
            self.sink.write(ev)
        return ev

    @property
    def num_emitted(self) -> int:
        """Events emitted so far (buffered or not)."""
        return self._seq

    def close(self) -> None:
        """Flush and close the attached sink, if any (idempotent)."""
        if self.sink is not None:
            self.sink.close()

    # -------------------------------------------------------------- #
    # Span API (feeds the Chrome-trace exporter)
    # -------------------------------------------------------------- #

    def begin_span(self, name: str, *, rank: int | None = None) -> None:
        ts = self._now()
        self._span_stack.append((name, ts, rank))
        self._guarded_emit(EventKind.SPAN_BEGIN, name, rank, {}, ts)

    def end_span(self, **data: Any) -> None:
        """Close the innermost span; ``data`` rides on the span_end event.

        The rank recorded at :meth:`begin_span` carries through, so both
        halves of a span attribute to the same rank in exports.  Each span
        edge reads the clock once, so ``span_end.ts - span_begin.ts`` equals
        the span's ``duration``.
        """
        if not self._span_stack:
            raise RuntimeError("end_span with no open span")
        name, start, rank = self._span_stack.pop()
        ts = self._now()
        self._guarded_emit(
            EventKind.SPAN_END, name, rank, {"duration": ts - start, **data}, ts
        )

    @contextmanager
    def span(self, name: str, *, rank: int | None = None):
        self.begin_span(name, rank=rank)
        try:
            yield self
        finally:
            self.end_span()

    @property
    def span_depth(self) -> int:
        return len(self._span_stack)

    # -------------------------------------------------------------- #
    # Counter API
    # -------------------------------------------------------------- #

    def add_counter(self, name: str, value: float, **labels: Any) -> None:
        """Increment a cumulative counter and log the increment.

        The read-modify-write on ``counters`` and its matching event emit
        land under one lock acquisition when the tracer is ``threadsafe``,
        so concurrent increments neither lose updates nor interleave a
        counter value with someone else's event.
        """
        if self._lock is not None:
            with self._lock:
                self._add_counter(name, value, labels)
        else:
            self._add_counter(name, value, labels)

    def _add_counter(self, name: str, value: float, labels: dict[str, Any]) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)
        self._emit(EventKind.COUNTER, name, None, {"value": float(value), **labels})

    # -------------------------------------------------------------- #
    # Typed events (the run/level/iteration vocabulary)
    # -------------------------------------------------------------- #

    def run_start(
        self,
        algorithm: str,
        *,
        num_vertices: int,
        num_edges: int,
        num_ranks: int | None = None,
    ) -> None:
        self.emit(
            EventKind.RUN_START, algorithm,
            algorithm=algorithm, num_vertices=int(num_vertices),
            num_edges=int(num_edges),
            num_ranks=None if num_ranks is None else int(num_ranks),
        )

    def run_end(self, *, modularity: float, num_levels: int) -> None:
        self.emit(
            EventKind.RUN_END, "run",
            modularity=float(modularity), num_levels=int(num_levels),
        )

    def level_start(self, level: int, *, num_vertices: int) -> None:
        self.emit(
            EventKind.LEVEL_START, f"level{level}",
            level=int(level), num_vertices=int(num_vertices),
        )

    def level_end(self, level: int, *, modularity: float, iterations: int) -> None:
        self.emit(
            EventKind.LEVEL_END, f"level{level}",
            level=int(level), modularity=float(modularity),
            iterations=int(iterations),
        )

    def iteration(
        self,
        level: int,
        iteration: int,
        *,
        movers: int,
        epsilon: float | None = None,
        dq_threshold: float | None = None,
        candidates: int | None = None,
        modularity: float | None = None,
    ) -> None:
        """One inner REFINE iteration (or sequential sweep)."""
        self.emit(
            EventKind.ITERATION, f"level{level}.iter{iteration}",
            level=int(level), iteration=int(iteration), movers=int(movers),
            epsilon=None if epsilon is None else float(epsilon),
            dq_threshold=None if dq_threshold is None else float(dq_threshold),
            candidates=None if candidates is None else int(candidates),
            modularity=None if modularity is None else float(modularity),
        )

    def superstep(
        self,
        phase: str,
        *,
        records: int,
        nbytes: int,
        messages: int,
        per_rank_records: list[int] | None = None,
    ) -> None:
        """One bus exchange (per-rank comm volumes for the phase)."""
        self.emit(
            EventKind.SUPERSTEP, phase,
            phase=phase, records=int(records), bytes=int(nbytes),
            messages=int(messages), per_rank_records=per_rank_records,
        )

    def table_stats(
        self,
        level: int,
        rank: int,
        table: str,
        stats: dict[str, Any],
    ) -> None:
        """Hash-table occupancy snapshot (load factor, probe lengths)."""
        self.emit(
            EventKind.TABLE_STATS, f"{table}_table",
            rank=rank, level=int(level), table=table, **stats,
        )


class NullTracer(Tracer):
    """Disabled tracer: every method is a no-op, ``enabled`` is False.

    Instrumented code holds this when no tracer was supplied, so call sites
    never need None checks; hot paths still guard on ``enabled`` to skip
    payload construction entirely.
    """

    enabled = False

    def __init__(self) -> None:  # no clock, no buffers, no sink
        self.events = []
        self.counters = {}
        self.sink = None
        self._buffer = True
        self._lock = None
        self._seq = 0
        self._span_stack = []

    def emit(self, kind, name, *, rank=None, **data):
        return None  # pragma: no cover - trivial

    def replay(self, event, origin):
        return None

    def close(self):
        pass

    def begin_span(self, name, *, rank=None):
        pass

    def end_span(self, **data):
        pass

    @contextmanager
    def span(self, name, *, rank=None):
        yield self

    def add_counter(self, name, value, **labels):
        pass

    def run_start(self, algorithm, *, num_vertices, num_edges, num_ranks=None):
        pass

    def run_end(self, *, modularity, num_levels):
        pass

    def level_start(self, level, *, num_vertices):
        pass

    def level_end(self, level, *, modularity, iterations):
        pass

    def iteration(self, level, iteration, *, movers, epsilon=None,
                  dq_threshold=None, candidates=None, modularity=None):
        pass

    def superstep(self, phase, *, records, nbytes, messages,
                  per_rank_records=None):
        pass

    def table_stats(self, level, rank, table, stats):
        pass


#: Shared no-op instance; safe because it is stateless.
NULL_TRACER = NullTracer()
