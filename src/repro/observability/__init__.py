"""Structured run tracing and metrics (spans, typed events, exporters).

The subsystem has six pieces:

* :class:`Tracer` / :data:`NULL_TRACER` -- span + counter + typed event
  capture with a no-op disabled path;
* :mod:`repro.observability.events` -- the typed event vocabulary and
  ``event_line``, the one JSONL serializer;
* :mod:`repro.observability.sinks` -- streaming sinks
  (:class:`JsonlWriterSink` writes and flushes each event as it is
  emitted, so long runs hold O(1) events in memory and the file can be
  followed live; :class:`RotatingJsonlSink` is the same write path over
  size-capped segments);
* :mod:`repro.observability.exporters` -- JSONL, Chrome ``trace_event`` and
  Prometheus text output, plus the streaming readers behind
  ``repro trace tail``;
* :mod:`repro.observability.report` -- per-iteration convergence and
  per-phase breakdown tables from a recorded trace (``repro report``);
* :mod:`repro.observability.golden` -- the golden-trace regression gate
  (``repro trace record`` / ``repro trace compare``): convergence/phase
  fingerprints with wall-clock noise projected out, compared under
  configurable tolerances against checked-in goldens.

Algorithms accept ``tracer=`` and emit through it; it is also the one
trace argument of :func:`~repro.parallel.detect_communities`.  The
runtime's :class:`~repro.runtime.profiler.PhaseProfiler` bridges its phase
stack onto tracer spans, so traces carry the same hierarchy Fig. 8
aggregates.
"""

from .aggregate import (
    PhaseAggregate,
    RunFacts,
    SuperstepVolume,
    aggregate_phases,
    iteration_counts,
    phase_durations,
    run_facts,
    superstep_volumes,
)
from .events import EventKind, TraceEvent
from .exporters import (
    DEFAULT_LATENCY_BUCKETS,
    TRACE_FORMATS,
    LatencyHistogram,
    chrome_trace,
    export_trace,
    follow_jsonl,
    iter_jsonl,
    prometheus_counters,
    prometheus_gauges,
    prometheus_histograms,
    prometheus_snapshot,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .golden import (
    GOLDEN_BENCHMARKS,
    Drift,
    GoldenSpec,
    LevelFingerprint,
    RunFingerprint,
    Tolerances,
    compare_fingerprints,
    compare_golden,
    fingerprint_events,
    format_drift_table,
    load_fingerprint,
    record_golden,
)
from .report import (
    format_convergence_table,
    format_event_line,
    format_phase_table,
    format_report,
    format_table_stats,
    run_header,
)
from .sinks import (
    JsonlWriterSink,
    ListSink,
    NullSink,
    QueueTraceSink,
    RotatingJsonlSink,
    TraceSink,
)
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "EventKind",
    "PhaseAggregate",
    "SuperstepVolume",
    "RunFacts",
    "aggregate_phases",
    "phase_durations",
    "superstep_volumes",
    "iteration_counts",
    "run_facts",
    "TraceSink",
    "JsonlWriterSink",
    "RotatingJsonlSink",
    "ListSink",
    "NullSink",
    "QueueTraceSink",
    "TRACE_FORMATS",
    "export_trace",
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl",
    "follow_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_snapshot",
    "prometheus_counters",
    "prometheus_gauges",
    "prometheus_histograms",
    "LatencyHistogram",
    "DEFAULT_LATENCY_BUCKETS",
    "write_prometheus",
    "format_report",
    "format_convergence_table",
    "format_phase_table",
    "format_table_stats",
    "format_event_line",
    "run_header",
    "RunFingerprint",
    "LevelFingerprint",
    "fingerprint_events",
    "Tolerances",
    "Drift",
    "compare_fingerprints",
    "format_drift_table",
    "GoldenSpec",
    "GOLDEN_BENCHMARKS",
    "record_golden",
    "compare_golden",
    "load_fingerprint",
]
