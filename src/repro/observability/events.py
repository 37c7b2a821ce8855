"""Typed trace events for the observability subsystem.

Every record a :class:`~repro.observability.tracer.Tracer` captures is one
:class:`TraceEvent`: a flat, JSON-serializable envelope with a monotonically
increasing sequence number, a wall-clock timestamp relative to tracer
creation, a *kind* from :class:`EventKind`, an optional simulated rank, and a
kind-specific payload dict.  Keeping the envelope uniform makes the exporters
trivial (JSONL is a straight dump through :func:`event_line`, Chrome trace
and Prometheus are projections) while the ``kind`` vocabulary keeps the
stream typed enough to reconstruct the paper's figures:

===================  =========================================================
kind                 payload (``data``) fields
===================  =========================================================
``run_start``        algorithm, num_vertices, num_edges, num_ranks
``run_end``          modularity, num_levels
``level_start``      level, num_vertices
``level_end``        level, modularity, iterations
``iteration``        level, iteration, epsilon, dq_threshold, candidates,
                     movers, modularity  (Figs. 2 & 4's raw material; the
                     sequential baseline leaves the threshold fields None)
``span_begin``       (name only -- phase entry)
``span_end``         duration, plus optional per-rank ``comp_ops`` deltas
``superstep``        phase, records, bytes, messages, per_rank_records
                     (per-rank comm volumes behind Fig. 8)
``table_stats``      level, table ("in"/"out"), entries, capacity,
                     load_factor, probes_per_insert, avg_probe_length,
                     max_probe_length  (Fig. 6's raw material, per rank)
``counter``          value (+ free-form labels)
``invariant``        invariant, message, rank, level, iteration, phase (+
                     invariant-specific context; emitted by the
                     :mod:`repro.analysis` sanitizer just before it raises)
===================  =========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["EventKind", "TraceEvent", "event_line"]


class EventKind:
    """String vocabulary of event kinds (class-as-namespace, not an enum,

    so payloads stay plain strings in JSONL without custom encoders)."""

    RUN_START = "run_start"
    RUN_END = "run_end"
    LEVEL_START = "level_start"
    LEVEL_END = "level_end"
    ITERATION = "iteration"
    SPAN_BEGIN = "span_begin"
    SPAN_END = "span_end"
    SUPERSTEP = "superstep"
    TABLE_STATS = "table_stats"
    COUNTER = "counter"
    INVARIANT = "invariant"

    ALL = frozenset({
        RUN_START, RUN_END, LEVEL_START, LEVEL_END, ITERATION,
        SPAN_BEGIN, SPAN_END, SUPERSTEP, TABLE_STATS, COUNTER, INVARIANT,
    })


@dataclass(frozen=True)
class TraceEvent:
    """One captured event (immutable; the stream is append-only)."""

    seq: int
    ts: float  # seconds since tracer creation (monotonic clock)
    kind: str
    name: str
    rank: int | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Flat dict for JSONL serialization (stable key order)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "name": self.name,
            "rank": self.rank,
            "data": self.data,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "TraceEvent":
        return TraceEvent(
            seq=int(d["seq"]),
            ts=float(d["ts"]),
            kind=str(d["kind"]),
            name=str(d["name"]),
            rank=None if d.get("rank") is None else int(d["rank"]),
            data=dict(d.get("data") or {}),
        )


#: The JSONL encoder: compact separators, ASCII output.  Built once --
#: ``json.dumps`` with a non-default argument builds a fresh encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def event_line(event: TraceEvent) -> str:
    """``event`` as one JSONL line, newline included.

    The only code that turns an event into JSONL: the goldens, the sinks'
    files and :func:`~repro.observability.exporters.write_jsonl` share these
    bytes.  The line is ASCII, so ``len(line)`` is its size in bytes.
    """
    return _ENCODER.encode(event.to_dict()) + "\n"
