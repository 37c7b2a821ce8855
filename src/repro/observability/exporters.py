"""Trace exporters: JSONL event log, Chrome ``trace_event`` JSON, Prometheus.

All three consume the same :class:`~repro.observability.events.TraceEvent`
stream:

* **JSONL** is the lossless interchange format (one event per line) and the
  input of ``repro report``; :func:`read_jsonl` round-trips it.
* **Chrome trace** projects spans onto the ``trace_event`` array format
  understood by ``chrome://tracing`` and Perfetto.  Driver-global phase spans
  land on tid 0; when a ``span_end`` carries per-rank ``comp_ops`` deltas the
  span is mirrored onto each simulated rank's track (tid = rank + 1) with that
  rank's work in ``args``, so load imbalance is visible per lane.  Iteration
  events become instants, modularity a counter track.  Given a
  :class:`~repro.runtime.machine.MachineModel` and the run's
  :class:`~repro.runtime.profiler.PhaseProfiler`, a second process track
  ("pid 1: modeled <machine>") lays the profiler's scopes end to end on the
  *modeled* clock, so simulated and real time line up in one timeline.  The
  track reads the profiler, the run's one counter source, not the events.
* **Prometheus** renders an end-of-run text snapshot (``# HELP`` / ``# TYPE``
  + samples) suitable for a textfile-collector scrape.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .aggregate import aggregate_phases, iteration_counts, run_facts, superstep_volumes
from .events import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.machine import MachineModel
    from ..runtime.profiler import PhaseProfiler

__all__ = [
    "TRACE_FORMATS",
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
    "write_prometheus",
    "export_trace",
    "LatencyHistogram",
    "DEFAULT_LATENCY_BUCKETS",
]

TRACE_FORMATS = ("jsonl", "chrome", "prom")


# --------------------------------------------------------------------- #
# JSONL
# --------------------------------------------------------------------- #


def write_jsonl(events: Iterable[TraceEvent], path: str) -> None:
    """One JSON object per line, in stream order."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev.to_dict(), separators=(",", ":")))
            fh.write("\n")


def read_jsonl(path: str) -> list[TraceEvent]:
    return list(iter_jsonl(path))


def iter_jsonl(path: str) -> Iterator[TraceEvent]:
    """Lazily yield events from a JSONL trace (no whole-file buffer)."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield TraceEvent.from_dict(json.loads(line))


def follow_jsonl(
    path: str,
    *,
    poll_interval: float = 0.2,
    stop_on_run_end: bool = True,
    timeout: float | None = None,
) -> Iterator[TraceEvent]:
    """``tail -f`` over a JSONL trace being written by a streaming sink.

    Yields events as complete lines appear; a trailing partial line (the
    writer mid-flush) is kept back until its newline arrives.  Stops at a
    ``run_end`` event (``stop_on_run_end``), after ``timeout`` seconds with
    no run_end (``None`` = wait forever), or on ``GeneratorExit``.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    with open(path, "r", encoding="utf-8") as fh:
        pending = ""
        while True:
            chunk = fh.read()
            if chunk:
                pending += chunk
                while "\n" in pending:
                    line, pending = pending.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    ev = TraceEvent.from_dict(json.loads(line))
                    yield ev
                    if stop_on_run_end and ev.kind == EventKind.RUN_END:
                        return
            else:
                if deadline is not None and time.monotonic() >= deadline:
                    return
                time.sleep(poll_interval)


# --------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------- #

_US = 1e6  # trace_event timestamps are microseconds


def chrome_trace(
    events: Sequence[TraceEvent],
    *,
    machine: "MachineModel | None" = None,
    profiler: "PhaseProfiler | None" = None,
) -> dict:
    """Project the event stream onto the Chrome ``trace_event`` JSON object.

    Spans are emitted as matched B/E (duration) pairs so nesting survives;
    per-rank mirrors use complete ("X") events.  The result validates against
    the trace_event format: every entry carries ``name``/``ph``/``ts``/``pid``
    /``tid`` and "X" entries carry ``dur``.

    With ``machine`` and the run's ``profiler``, a second process track
    (pid 1) lays the profiler's scopes end to end on the *modeled* clock:
    one complete event per ``(level, iteration, phase)`` scope with anything
    charged, in the profiler's scope order, lasting
    :func:`~repro.runtime.machine.model_phase_time` of its counters -- the
    inputs Fig. 8's breakdowns read, merged from every worker in process
    mode.  Each scope waits for its own slowest rank, so the track is longer
    than the run's modeled total, which folds each phase's scopes before it
    takes the per-rank maximum.
    """
    out: list[dict] = []
    pid = 0

    def meta(tid: int, label: str) -> dict:
        return {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "ts": 0, "args": {"name": label},
        }

    out.append(meta(0, "driver"))
    ranks_seen: set[int] = set()
    # Track open spans to pair B/E and to know per-rank mirrors' start times.
    open_spans: list[TraceEvent] = []

    for ev in events:
        ts = ev.ts * _US
        if ev.kind == EventKind.SPAN_BEGIN:
            open_spans.append(ev)
            out.append({
                "name": ev.name, "cat": "phase", "ph": "B",
                "ts": ts, "pid": pid, "tid": 0, "args": {},
            })
        elif ev.kind == EventKind.SPAN_END:
            begin = open_spans.pop() if open_spans else None
            dur = float(ev.data.get("duration", 0.0)) * _US
            out.append({
                "name": ev.name, "cat": "phase", "ph": "E",
                "ts": ts, "pid": pid, "tid": 0,
                "args": {k: v for k, v in ev.data.items() if k != "comp_ops"},
            })
            comp_ops = ev.data.get("comp_ops")
            if comp_ops and begin is not None:
                start_ts = begin.ts * _US
                for rank, ops in enumerate(comp_ops):
                    if not ops:
                        continue
                    ranks_seen.add(rank)
                    out.append({
                        "name": ev.name, "cat": "rank", "ph": "X",
                        "ts": start_ts, "dur": max(dur, 1.0),
                        "pid": pid, "tid": rank + 1,
                        "args": {"comp_ops": ops},
                    })
        elif ev.kind == EventKind.ITERATION:
            out.append({
                "name": ev.name, "cat": "iteration", "ph": "i",
                "ts": ts, "pid": pid, "tid": 0, "s": "g",
                "args": {k: v for k, v in ev.data.items() if v is not None},
            })
            q = ev.data.get("modularity")
            if q is not None:
                out.append({
                    "name": "modularity", "cat": "metric", "ph": "C",
                    "ts": ts, "pid": pid, "tid": 0,
                    "args": {"Q": q},
                })
        elif ev.kind == EventKind.SUPERSTEP:
            per_rank = ev.data.get("per_rank_records") or []
            for rank, recs in enumerate(per_rank):
                if not recs:
                    continue
                ranks_seen.add(rank)
                out.append({
                    "name": f"send:{ev.name}", "cat": "comm", "ph": "C",
                    "ts": ts, "pid": pid, "tid": rank + 1,
                    "args": {"records": recs},
                })

    for rank in sorted(ranks_seen):
        out.insert(1, meta(rank + 1, f"rank {rank}"))
    if machine is not None and profiler is not None:
        out.extend(_modeled_clock_events(profiler, machine))
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def _modeled_clock_events(
    profiler: "PhaseProfiler", machine: "MachineModel"
) -> list[dict]:
    """The pid-1 track: each profiler scope's modeled seconds, end to end."""
    from ..runtime.machine import model_phase_time

    pid = 1
    out: list[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": f"modeled {machine.name}"},
        },
        {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": "modeled phases"},
        },
    ]
    cursor = 0.0
    for (level, iteration, phase), counters in profiler.scopes.items():
        secs = model_phase_time(counters, machine)
        if secs <= 0.0:
            continue
        out.append({
            "name": phase, "cat": "modeled", "ph": "X",
            "ts": cursor * _US, "dur": secs * _US, "pid": pid, "tid": 0,
            "args": {"level": level, "iteration": iteration, "modeled_s": secs},
        })
        cursor += secs
    return out


def write_chrome_trace(
    events: Sequence[TraceEvent],
    path: str,
    *,
    machine: "MachineModel | None" = None,
    profiler: "PhaseProfiler | None" = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(events, machine=machine, profiler=profiler), fh)


# --------------------------------------------------------------------- #
# Prometheus text snapshot
# --------------------------------------------------------------------- #


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def prometheus_snapshot(events: Sequence[TraceEvent]) -> str:
    """End-of-run metrics in the Prometheus text exposition format."""
    lines: list[str] = []

    def metric(name: str, mtype: str, help_: str, samples: list[tuple[dict, float]]):
        if not samples:
            return
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            lines.append(f"{name}{_prom_labels(labels)} {value:g}")

    facts = run_facts(events)
    movers_per_level: dict[int, int] = {}
    level_q: dict[int, float] = {}
    table_load: dict[tuple[int, str], float] = {}
    table_probes: dict[tuple[int, str], float] = {}

    for ev in events:
        if ev.kind == EventKind.ITERATION:
            lvl = int(ev.data["level"])
            movers_per_level[lvl] = movers_per_level.get(lvl, 0) + int(ev.data["movers"])
        elif ev.kind == EventKind.LEVEL_END:
            level_q[int(ev.data["level"])] = float(ev.data["modularity"])
        elif ev.kind == EventKind.TABLE_STATS and ev.rank is not None:
            key = (ev.rank, str(ev.data.get("table", ev.name)))
            table_load[key] = float(ev.data.get("load_factor", 0.0))
            table_probes[key] = float(ev.data.get("probes_per_insert", 0.0))
    volumes = sorted(superstep_volumes(events).items())

    if facts.modularity is not None:
        metric("repro_run_modularity", "gauge",
               "Final modularity of the run", [({}, facts.modularity)])
    if facts.num_levels is not None:
        metric("repro_run_levels", "gauge",
               "Number of hierarchy levels", [({}, float(facts.num_levels))])
    metric("repro_level_modularity", "gauge", "Modularity after each level",
           [({"level": lvl}, q) for lvl, q in sorted(level_q.items())])
    metric("repro_iterations_total", "counter", "Inner iterations per level",
           [({"level": lvl}, float(n))
            for lvl, n in sorted(iteration_counts(events).items())])
    metric("repro_vertex_migrations_total", "counter",
           "Vertices migrated per level",
           [({"level": lvl}, float(n)) for lvl, n in sorted(movers_per_level.items())])
    metric("repro_records_sent_total", "counter",
           "Records exchanged per phase",
           [({"phase": p}, float(v.records)) for p, v in volumes])
    metric("repro_supersteps_total", "counter",
           "Bus supersteps per phase",
           [({"phase": p}, float(v.supersteps)) for p, v in volumes])
    metric("repro_phase_wall_seconds_total", "counter",
           "Wall-clock seconds per phase span",
           [({"phase": p}, agg.wall_seconds)
            for p, agg in sorted(aggregate_phases(events).items())])
    metric("repro_table_load_factor", "gauge",
           "Hash-table load factor per rank at last snapshot",
           [({"rank": r, "table": t}, v)
            for (r, t), v in sorted(table_load.items())])
    metric("repro_table_probes_per_insert", "gauge",
           "Mean probes per insert per rank at last snapshot",
           [({"rank": r, "table": t}, v)
            for (r, t), v in sorted(table_probes.items())])
    return "\n".join(lines) + ("\n" if lines else "")


_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    return prefix + _PROM_NAME_BAD.sub("_", name)


def prometheus_counters(
    counters: Mapping[str, float],
    *,
    prefix: str = "repro_",
    help_text: Mapping[str, str] | None = None,
) -> str:
    """Render a :attr:`Tracer.counters` dict as Prometheus counter metrics.

    The service layer scrapes live cumulative counters rather than an
    end-of-run event stream, so this renders the counter *dict* directly
    (names are sanitized and prefixed; values must be monotone, which
    :meth:`Tracer.add_counter` guarantees for non-negative increments).
    """
    help_text = help_text or {}
    lines: list[str] = []
    for name in sorted(counters):
        metric = _prom_name(name, prefix)
        lines.append(f"# HELP {metric} {help_text.get(name, 'Cumulative counter')}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]:g}")
    return "\n".join(lines) + ("\n" if lines else "")


#: Request-duration bucket upper bounds in seconds (Prometheus convention:
#: cumulative ``le`` buckets; ``+Inf`` is implicit).  Spans sub-millisecond
#: metadata reads through multi-second detection-job waits.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class LatencyHistogram:
    """Thread-safe fixed-bucket latency histogram (Prometheus semantics).

    Buckets are *cumulative upper bounds* (``le``): an observation lands in
    every bucket whose bound is >= the value, matching what a Prometheus
    server expects to scrape.  ``observe`` is a couple of integer increments
    under a lock, cheap enough to sit on every HTTP request.
    """

    def __init__(
        self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("buckets must be positive upper bounds")
        if list(bounds) != sorted(bounds):
            raise ValueError("buckets must be sorted ascending")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    def snapshot(self) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count) -- atomic."""
        with self._lock:
            raw = list(self._counts)
            total_sum = self._sum
        cumulative: list[int] = []
        running = 0
        for count in raw:
            running += count
            cumulative.append(running)
        return cumulative, total_sum, running

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)


def prometheus_histograms(
    histograms: Mapping[str, "LatencyHistogram"],
    *,
    name: str = "request_duration_seconds",
    label: str = "endpoint",
    prefix: str = "repro_",
    help_text: str = "Request duration by endpoint",
) -> str:
    """Render labelled :class:`LatencyHistogram` instances as Prometheus text.

    ``histograms`` maps a label value (e.g. the normalized HTTP route) to its
    histogram; all series share one metric ``name``.  Empty histograms are
    skipped so a scrape never shows all-zero series for routes nobody hit.
    """
    metric = _prom_name(name, prefix)
    lines: list[str] = []
    for key in sorted(histograms):
        hist = histograms[key]
        cumulative, total_sum, count = hist.snapshot()
        if count == 0:
            continue
        if not lines:
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} histogram")
        for bound, cum in zip(hist.bounds, cumulative):
            labels = _prom_labels({label: key, "le": f"{bound:g}"})
            lines.append(f"{metric}_bucket{labels} {cum}")
        labels = _prom_labels({label: key, "le": "+Inf"})
        lines.append(f"{metric}_bucket{labels} {cumulative[-1]}")
        lines.append(f"{metric}_sum{_prom_labels({label: key})} {total_sum:.9g}")
        lines.append(f"{metric}_count{_prom_labels({label: key})} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def prometheus_gauges(
    gauges: Mapping[str, float],
    *,
    prefix: str = "repro_",
    help_text: Mapping[str, str] | None = None,
) -> str:
    """Render point-in-time values as Prometheus gauge metrics."""
    help_text = help_text or {}
    lines: list[str] = []
    for name in sorted(gauges):
        metric = _prom_name(name, prefix)
        lines.append(f"# HELP {metric} {help_text.get(name, 'Point-in-time gauge')}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauges[name]:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(events: Sequence[TraceEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_snapshot(events))


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #


def export_trace(
    events: Sequence[TraceEvent],
    path: str,
    fmt: str = "jsonl",
    *,
    machine: "MachineModel | None" = None,
    profiler: "PhaseProfiler | None" = None,
) -> None:
    """Write ``events`` to ``path`` in ``fmt`` (one of :data:`TRACE_FORMATS`).

    ``machine`` and the run's ``profiler`` only affect the ``chrome``
    format, where together they add the modeled-clock track.
    """
    if fmt == "jsonl":
        write_jsonl(events, path)
    elif fmt == "chrome":
        write_chrome_trace(events, path, machine=machine, profiler=profiler)
    elif fmt == "prom":
        write_prometheus(events, path)
    else:
        raise ValueError(f"unknown trace format {fmt!r} (use one of {TRACE_FORMATS})")
