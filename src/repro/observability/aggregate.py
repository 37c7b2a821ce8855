"""Stream aggregation helpers shared by reports, exporters and the bench harness.

A recorded trace is a flat event stream; every consumer (``repro report``,
``repro bench``, the golden-trace fingerprints, the Prometheus snapshot)
needs the same handful of projections over it: wall seconds per phase span,
communication volumes per superstep phase, iteration counts per level, and
the run's header/footer facts.  Implementing them once keeps the event
vocabulary's interpretation in one place -- a new consumer reads
aggregates, not raw events.  Modeled machine time is not among them: its
counters live in the run's profiler, and the Chrome export's modeled track
reads them there.

All functions accept any iterable of :class:`TraceEvent` and are single-pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .events import EventKind, TraceEvent

__all__ = [
    "PhaseAggregate",
    "SuperstepVolume",
    "RunFacts",
    "aggregate_phases",
    "phase_durations",
    "superstep_volumes",
    "iteration_counts",
    "run_facts",
    "top_level",
]


@dataclass
class PhaseAggregate:
    """Wall-clock and per-rank work aggregated over one phase's spans."""

    name: str
    spans: int = 0
    wall_seconds: float = 0.0
    #: Sum over spans of the maximum per-rank comp_ops delta (the critical
    #: path a real machine would wait on).
    comp_ops_max: float = 0.0
    #: Present only when at least one span_end carried per-rank deltas.
    has_comp_ops: bool = False


@dataclass
class SuperstepVolume:
    """Communication volume summed over one phase's supersteps."""

    phase: str
    supersteps: int = 0
    records: int = 0
    messages: int = 0
    nbytes: int = 0
    #: Element-wise sum of ``per_rank_records`` when the events carried it.
    per_rank_records: list[int] = field(default_factory=list)


@dataclass
class RunFacts:
    """Header/footer facts of a run (``run_start`` / ``run_end`` payloads)."""

    algorithm: str | None = None
    num_vertices: int | None = None
    num_edges: int | None = None
    num_ranks: int | None = None
    modularity: float | None = None
    num_levels: int | None = None


def aggregate_phases(events: Iterable[TraceEvent]) -> dict[str, PhaseAggregate]:
    """Per-phase wall time and critical-path work from ``span_end`` events."""
    out: dict[str, PhaseAggregate] = {}
    for ev in events:
        if ev.kind != EventKind.SPAN_END:
            continue
        agg = out.get(ev.name)
        if agg is None:
            agg = out[ev.name] = PhaseAggregate(name=ev.name)
        agg.spans += 1
        agg.wall_seconds += float(ev.data.get("duration", 0.0))
        ops = ev.data.get("comp_ops")
        if ops:
            agg.has_comp_ops = True
            agg.comp_ops_max += max(ops)
    return out


def phase_durations(
    events: Iterable[TraceEvent], *, top: bool = False
) -> dict[str, float]:
    """Wall seconds per phase span name (optionally rolled up to top level).

    With ``top=True``, only top-level (non-nested) span names are summed --
    nested spans' durations are already contained in their parents', so
    summing every prefix would double-count.
    """
    durations = {
        name: agg.wall_seconds for name, agg in aggregate_phases(events).items()
    }
    if not top:
        return durations
    out: dict[str, float] = {}
    for name, secs in durations.items():
        if "/" in name:
            continue
        out[name] = out.get(name, 0.0) + secs
    return out


def superstep_volumes(events: Iterable[TraceEvent]) -> dict[str, SuperstepVolume]:
    """Per-phase communication volumes from ``superstep`` events."""
    out: dict[str, SuperstepVolume] = {}
    for ev in events:
        if ev.kind != EventKind.SUPERSTEP:
            continue
        vol = out.get(ev.name)
        if vol is None:
            vol = out[ev.name] = SuperstepVolume(phase=ev.name)
        vol.supersteps += 1
        vol.records += int(ev.data.get("records", 0))
        vol.messages += int(ev.data.get("messages", 0))
        vol.nbytes += int(ev.data.get("bytes", 0))
        per_rank = ev.data.get("per_rank_records")
        if per_rank:
            if len(vol.per_rank_records) < len(per_rank):
                vol.per_rank_records.extend(
                    [0] * (len(per_rank) - len(vol.per_rank_records))
                )
            for rank, records in enumerate(per_rank):
                vol.per_rank_records[rank] += int(records)
    return out


def iteration_counts(events: Iterable[TraceEvent]) -> dict[int, int]:
    """Inner iterations per level from ``iteration`` events."""
    out: dict[int, int] = {}
    for ev in events:
        if ev.kind == EventKind.ITERATION:
            lvl = int(ev.data["level"])
            out[lvl] = out.get(lvl, 0) + 1
    return out


def run_facts(events: Iterable[TraceEvent]) -> RunFacts:
    """Header (run_start) and footer (run_end) facts in one pass."""
    facts = RunFacts()
    for ev in events:
        if ev.kind == EventKind.RUN_START:
            facts.algorithm = _maybe(ev.data.get("algorithm"), str)
            facts.num_vertices = _maybe(ev.data.get("num_vertices"), int)
            facts.num_edges = _maybe(ev.data.get("num_edges"), int)
            facts.num_ranks = _maybe(ev.data.get("num_ranks"), int)
        elif ev.kind == EventKind.RUN_END:
            facts.modularity = _maybe(ev.data.get("modularity"), float)
            facts.num_levels = _maybe(ev.data.get("num_levels"), int)
    return facts


def top_level(name: str) -> str:
    """Top-level component of a ``/``-joined phase name."""
    return name.split("/", 1)[0]


def _maybe(value: Any, cast) -> Any:
    return None if value is None else cast(value)
