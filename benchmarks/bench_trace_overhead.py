"""Tracing overhead budgets on the parallel hot path.

The observability contract is that a *disabled* tracer costs almost nothing:
instrumented call sites hold the shared ``NULL_TRACER`` and guard payload
construction behind one ``tracer.enabled`` attribute read.  The streaming
sink extends the same budget to *enabled* runs that write JSONL as they go:
per-event serialization + write + flush must also stay < 5% of the run.
This benchmark enforces both budgets the same way:

1. **Measured bound** -- the per-hook cost (disabled: attribute check +
   no-op call; streaming: one ``JsonlWriterSink.write``), timed in a tight
   loop, multiplied by the number of hook executions a real run performs
   (counted from an enabled run's event stream) must be < 5% of the
   baseline run's wall time.  This is robust to machine noise because the
   per-hook cost is measured directly rather than inferred from the
   difference of two noisy run timings.
2. **Sanity** -- an enabled run must actually produce events, and the
   disabled run must produce none.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.generators import LFRParams, generate_lfr
from repro.observability import JsonlWriterSink, Tracer
from repro.observability.tracer import NULL_TRACER
from repro.parallel import parallel_louvain


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_tracer_overhead_under_5_percent():
    graph = generate_lfr(
        LFRParams(num_vertices=400, avg_degree=10, max_degree=40, mixing=0.2),
        seed=1,
    ).graph

    # Disabled-path wall time (the production configuration).
    run_seconds = _best_of(lambda: parallel_louvain(graph, num_ranks=4))

    # How many hook executions does this run perform?  Every emitted event of
    # an enabled run corresponds to one guarded call site execution; double it
    # to over-count guards that bail before emitting (span bridge, bus).
    tracer = Tracer()
    parallel_louvain(graph, num_ranks=4, tracer=tracer)
    hook_executions = 2 * len(tracer.events)
    assert hook_executions > 0, "enabled run must emit events"

    # Per-hook disabled cost: enabled check + no-op method dispatch.
    loops = 200_000
    t0 = time.perf_counter()
    for _ in range(loops):
        if NULL_TRACER.enabled:
            NULL_TRACER.iteration(0, 1, movers=0)  # pragma: no cover
    checked = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(loops):
        NULL_TRACER.begin_span("x")
        NULL_TRACER.end_span()
    noop_calls = time.perf_counter() - t0
    per_hook = (checked + noop_calls / 2) / loops

    overhead = hook_executions * per_hook
    fraction = overhead / run_seconds
    print(
        f"\ndisabled-tracer overhead: {overhead * 1e6:.1f}us over "
        f"{run_seconds * 1e3:.1f}ms run "
        f"({hook_executions} hooks x {per_hook * 1e9:.0f}ns) = {fraction:.4%}"
    )
    assert fraction < 0.05, (
        f"disabled tracing costs {fraction:.2%} of the parallel run "
        f"(budget 5%)"
    )


def test_streaming_sink_overhead_under_5_percent():
    """The streamed-trace budget: serializing + writing + flushing every
    event as it is emitted must cost < 5% of the (untraced) run."""
    graph = generate_lfr(
        LFRParams(num_vertices=400, avg_degree=10, max_degree=40, mixing=0.2),
        seed=1,
    ).graph

    run_seconds = _best_of(lambda: parallel_louvain(graph, num_ranks=4))

    # The events a streamed run writes (captured buffered, replayed below).
    tracer = Tracer()
    parallel_louvain(graph, num_ranks=4, tracer=tracer)
    events = tracer.events
    assert events, "enabled run must emit events"

    # Per-event streaming cost: replay the run's real event mix through the
    # sink (which flushes every event: the live-follow configuration) in a
    # tight loop.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.jsonl")
        repeats = max(1, 20_000 // len(events))
        sink = JsonlWriterSink(path)
        t0 = time.perf_counter()
        for _ in range(repeats):
            for ev in events:
                sink.write(ev)
        elapsed = time.perf_counter() - t0
        sink.close()
        per_event = elapsed / (repeats * len(events))

    overhead = len(events) * per_event
    fraction = overhead / run_seconds
    print(
        f"\nstreaming-sink overhead: {overhead * 1e6:.1f}us over "
        f"{run_seconds * 1e3:.1f}ms run "
        f"({len(events)} events x {per_event * 1e6:.2f}us) = {fraction:.4%}"
    )
    assert fraction < 0.05, (
        f"streaming trace costs {fraction:.2%} of the parallel run (budget 5%)"
    )


def test_disabled_run_emits_no_events():
    graph = generate_lfr(
        LFRParams(num_vertices=120, avg_degree=8, max_degree=24, mixing=0.2),
        seed=2,
    ).graph
    before = len(NULL_TRACER.events)
    parallel_louvain(graph, num_ranks=2)
    assert len(NULL_TRACER.events) == before == 0
