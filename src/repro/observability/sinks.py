"""Streaming trace sinks: events leave the tracer as they are emitted.

The in-memory :class:`~repro.observability.tracer.Tracer` buffer is fine for
short runs, but a long benchmark run emits an event stream proportional to
``levels x iterations x ranks`` and buffering all of it defeats the point of
tracing *large* runs.  A :class:`TraceSink` receives every event at emission
time; :class:`JsonlWriterSink` appends each one to a JSONL file (the same
format :func:`~repro.observability.exporters.write_jsonl` produces), so

* ``Tracer(sink=JsonlWriterSink(path), buffer=False)`` holds **O(1)** events
  in memory no matter how long the run is, and
* the partially-written file is valid JSONL at every line boundary, which is
  what makes ``repro trace tail --follow`` (live monitoring) and the golden
  regression gate's record mode work off the same file.

:class:`RotatingJsonlSink` is the same writer over size-capped segment files,
for a process whose stream never ends (``repro serve``).
"""

from __future__ import annotations

import os
import threading
from typing import Protocol, TextIO, runtime_checkable

from .events import TraceEvent, event_line

__all__ = [
    "TraceSink",
    "JsonlWriterSink",
    "RotatingJsonlSink",
    "ListSink",
    "NullSink",
    "QueueTraceSink",
]


@runtime_checkable
class TraceSink(Protocol):
    """Anything that accepts events one at a time and can be closed."""

    def write(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class JsonlWriterSink:
    """Incremental JSONL writer (one event per line, append-as-emitted).

    Each event is serialized by :func:`~repro.observability.events.event_line`
    before the lock is taken, then written in one ``write()`` and flushed
    under it: a concurrent reader is never more than one event behind the
    run, and threads sharing a sink (a service traces many concurrent jobs
    into one) interleave whole lines, never partial ones.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.num_events = 0
        self._lock = threading.Lock()
        self._closed = False
        self._fh = self._open_file()

    def _open_file(self) -> TextIO:
        return open(self.path, "w", encoding="utf-8")

    def _make_room(self, nbytes: int) -> None:
        """Called under the lock before a line of ``nbytes`` is written."""

    def write(self, event: TraceEvent) -> None:
        line = event_line(event)
        with self._lock:
            if self._closed:
                raise ValueError(f"sink for {self.path} is closed")
            self._make_room(len(line))
            self._fh.write(line)
            self._fh.flush()
            self.num_events += 1

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._fh.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "JsonlWriterSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RotatingJsonlSink(JsonlWriterSink):
    """JSONL sink that rotates into size-capped segment files.

    A long-lived process (``repro serve``) emits an unbounded event stream;
    a single append-only file would grow forever.  This sink writes the same
    lines as :class:`JsonlWriterSink`, but into numbered segments next to
    ``path``: ``trace.jsonl`` becomes ``trace.00000.jsonl``,
    ``trace.00001.jsonl``, ... A segment is closed once writing the next
    event would push it past ``max_segment_bytes`` (events are never split
    across segments, so every segment is valid JSONL on its own and a
    single oversized event still lands whole).  With ``max_segments`` set,
    the oldest segment is deleted on rotation, bounding total disk use to
    roughly ``max_segments * max_segment_bytes``.
    """

    def __init__(
        self,
        path: str,
        *,
        max_segment_bytes: int = 4_000_000,
        max_segments: int | None = None,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be >= 1")
        if max_segments is not None and max_segments < 1:
            raise ValueError("max_segments must be >= 1 (or None for unlimited)")
        self.max_segment_bytes = int(max_segment_bytes)
        self.max_segments = max_segments
        self.segment_paths: list[str] = []
        self._index = -1
        self._segment_bytes = 0
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        super().__init__(path)

    def _open_file(self) -> TextIO:
        """Open the next numbered segment."""
        self._index += 1
        root, ext = os.path.splitext(self.path)
        path = f"{root}.{self._index:05d}{ext or '.jsonl'}"
        self.segment_paths.append(path)
        self._segment_bytes = 0
        return open(path, "w", encoding="utf-8")

    @property
    def current_segment(self) -> str:
        return self.segment_paths[-1]

    def _make_room(self, nbytes: int) -> None:
        if self._segment_bytes and self._segment_bytes + nbytes > self.max_segment_bytes:
            self._rotate()
        self._segment_bytes += nbytes

    def _rotate(self) -> None:
        self._fh.close()
        self._fh = self._open_file()
        if self.max_segments is not None:
            while len(self.segment_paths) > self.max_segments:
                oldest = self.segment_paths.pop(0)
                try:
                    os.remove(oldest)
                except OSError:
                    pass  # already gone; bounding disk use is best-effort


class ListSink:
    """Collects events in a plain list (tests and notebook use)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class QueueTraceSink:
    """Streams events (as plain dicts) into a ``multiprocessing`` queue.

    The process execution mode gives this sink to the tracing worker's
    ``Tracer(sink=..., buffer=False)``: every event crosses to the parent as
    its ``to_dict()`` form the moment it is emitted, the parent replays the
    stream into the caller's tracer
    (:func:`~repro.observability.events.TraceEvent.from_dict`), and nothing
    accumulates in the worker.  ``close()`` enqueues a single ``None``
    sentinel so the parent knows the stream is complete.
    """

    def __init__(self, queue) -> None:
        self._queue = queue
        self._closed = False
        self.num_events = 0

    def write(self, event: TraceEvent) -> None:
        if self._closed:
            raise ValueError("queue trace sink is closed")
        self._queue.put(event.to_dict())
        self.num_events += 1

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._queue.put(None)

    @property
    def closed(self) -> bool:
        return self._closed


class NullSink:
    """Discards every event (a sink-shaped /dev/null).

    Lets long-lived components run a ``Tracer(sink=..., buffer=False)`` for
    its *counters* alone -- the cumulative counter dict survives even though
    no event is retained -- without growing an in-memory event list.
    """

    def write(self, event: TraceEvent) -> None:
        pass

    def close(self) -> None:
        pass
