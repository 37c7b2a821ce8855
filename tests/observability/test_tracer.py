"""Tests for the Tracer / NullTracer core and the profiler span bridge."""

import numpy as np
import pytest

from repro.observability import EventKind, Tracer
from repro.observability.tracer import NULL_TRACER, NullTracer
from repro.runtime import PhaseProfiler, Simulation


class TestSpans:
    def test_span_events_pair_up(self):
        t = Tracer()
        with t.span("A"):
            with t.span("B"):
                pass
        kinds = [(e.kind, e.name) for e in t.events]
        assert kinds == [
            (EventKind.SPAN_BEGIN, "A"),
            (EventKind.SPAN_BEGIN, "B"),
            (EventKind.SPAN_END, "B"),
            (EventKind.SPAN_END, "A"),
        ]

    def test_span_end_carries_duration(self):
        # One clock read per span edge: t0, begin, end.
        clock_values = iter([0.0, 1.0, 5.0])
        t = Tracer(clock=lambda: next(clock_values))
        t.begin_span("X")
        t.end_span()
        begin, end = t.events
        assert (begin.ts, end.ts) == (1.0, 5.0)
        assert end.data["duration"] == end.ts - begin.ts == 4.0

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end_span()

    def test_span_depth(self):
        t = Tracer()
        assert t.span_depth == 0
        with t.span("A"):
            assert t.span_depth == 1
        assert t.span_depth == 0

    def test_seq_monotonic(self):
        t = Tracer()
        for i in range(5):
            t.emit(EventKind.COUNTER, f"c{i}")
        assert [e.seq for e in t.events] == list(range(5))

    def test_span_end_carries_begin_rank(self):
        """The rank recorded at begin_span must ride on the span_end event
        (regression: end_span used to drop it, so per-rank span attribution
        broke in the exporters)."""
        t = Tracer()
        t.begin_span("X", rank=3)
        t.end_span()
        begin, end = t.events
        assert begin.kind == EventKind.SPAN_BEGIN and begin.rank == 3
        assert end.kind == EventKind.SPAN_END and end.rank == 3

    def test_nested_spans_keep_their_own_ranks(self):
        t = Tracer()
        with t.span("outer", rank=1):
            with t.span("inner", rank=2):
                pass
            with t.span("rankless"):
                pass
        ends = {e.name: e.rank for e in t.events if e.kind == EventKind.SPAN_END}
        assert ends == {"outer": 1, "inner": 2, "rankless": None}

    def test_num_emitted_counts_without_buffering(self):
        t = Tracer()
        t.emit(EventKind.COUNTER, "c")
        assert t.num_emitted == 1 == len(t.events)


class TestProfilerBridge:
    def test_span_nesting_matches_profiler_phases(self):
        """The tracer's span names must be exactly the profiler's /-joined
        phase names, in phase entry order."""
        t = Tracer()
        p = PhaseProfiler(2, tracer=t)
        with p.phase("REFINE"):
            with p.phase("FIND_BEST"):
                p.add_ops(0, 3)
            with p.phase("UPDATE"):
                p.add_ops(1, 1)
        begins = [e.name for e in t.events if e.kind == EventKind.SPAN_BEGIN]
        assert begins == ["REFINE", "REFINE/FIND_BEST", "REFINE/UPDATE"]
        # Every profiler phase has a matching span.
        span_names = set(begins)
        assert set(p.phases) <= span_names

    def test_span_end_carries_per_rank_ops_delta(self):
        t = Tracer()
        p = PhaseProfiler(2, tracer=t)
        with p.phase("A"):
            p.add_ops(0, 5)
            p.add_ops(1, 7)
        end = [e for e in t.events if e.kind == EventKind.SPAN_END][0]
        assert end.data["comp_ops"] == [5.0, 7.0]

    def test_opless_span_has_no_comp_ops(self):
        t = Tracer()
        p = PhaseProfiler(2, tracer=t)
        with p.phase("EMPTY"):
            pass
        end = [e for e in t.events if e.kind == EventKind.SPAN_END][0]
        assert end.data["comp_ops"] is None

    def test_simulation_create_wires_tracer(self):
        t = Tracer()
        sim = Simulation.create(2, tracer=t)
        assert sim.tracer is t
        assert sim.profiler.tracer is t
        with sim.phase("T"):
            sim.bus.exchange([(np.array([1]), np.array([5])), None])
        kinds = {e.kind for e in t.events}
        assert EventKind.SPAN_BEGIN in kinds
        assert EventKind.SUPERSTEP in kinds

    def test_superstep_event_records_per_rank_volumes(self):
        t = Tracer()
        sim = Simulation.create(2, tracer=t)
        with sim.phase("T"):
            sim.bus.exchange([
                (np.array([1, 1]), np.array([5, 6])),
                (np.array([0]), np.array([7])),
            ])
        ev = [e for e in t.events if e.kind == EventKind.SUPERSTEP][0]
        assert ev.name == "T"
        assert ev.data["records"] == 3
        assert ev.data["per_rank_records"] == [2, 1]
        assert ev.data["bytes"] == 3 * 8  # one payload column, 8-byte words


class TestCounters:
    def test_counters_accumulate(self):
        t = Tracer()
        t.add_counter("x", 2.0)
        t.add_counter("x", 3.0)
        assert t.counters["x"] == 5.0
        assert len([e for e in t.events if e.kind == EventKind.COUNTER]) == 2


class TestNullTracer:
    def test_disabled_and_eventless(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.run_start("x", num_vertices=1, num_edges=1)
        NULL_TRACER.iteration(0, 1, movers=3)
        NULL_TRACER.add_counter("c", 1.0)
        NULL_TRACER.begin_span("s")
        NULL_TRACER.end_span()
        with NULL_TRACER.span("t"):
            pass
        NULL_TRACER.superstep("p", records=1, nbytes=8, messages=1)
        NULL_TRACER.table_stats(0, 0, "in", {})
        NULL_TRACER.run_end(modularity=0.0, num_levels=0)
        assert NULL_TRACER.events == []
        assert NULL_TRACER.counters == {}

    def test_null_is_a_tracer(self):
        assert isinstance(NULL_TRACER, Tracer)
        assert isinstance(NULL_TRACER, NullTracer)

    def test_profiler_without_tracer_emits_nothing(self):
        p = PhaseProfiler(1)
        with p.phase("A"):
            p.add_ops(0, 1)
        assert p.tracer is None

    def test_profiler_with_null_tracer_creates_no_phantom_phases(self):
        p = PhaseProfiler(1, tracer=NULL_TRACER)
        with p.phase("A"):
            pass
        # Disabled tracing must not materialize counter entries.
        assert "A" not in p.phases
