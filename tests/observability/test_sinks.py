"""Tests for streaming trace sinks and the live JSONL reader."""

import json
from pathlib import Path

import pytest

from repro.generators import generate_lfr
from repro.observability import (
    GOLDEN_BENCHMARKS,
    EventKind,
    JsonlWriterSink,
    ListSink,
    RotatingJsonlSink,
    TraceEvent,
    Tracer,
    follow_jsonl,
    iter_jsonl,
    read_jsonl,
)
from repro.observability.events import event_line
from repro.observability.golden import golden_path
from repro.observability.sinks import TraceSink
from repro.parallel import detect_communities

GOLDEN_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks" / "goldens")


@pytest.fixture(scope="module")
def small_graph():
    return generate_lfr(
        num_vertices=300, avg_degree=10, max_degree=30, mixing=0.15,
        min_community=10, max_community=60, seed=5,
    ).graph


class TestJsonlWriterSink:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(sink=JsonlWriterSink(str(path)))
        t.run_start("x", num_vertices=3, num_edges=2)
        t.iteration(0, 1, movers=2)
        t.run_end(modularity=0.5, num_levels=1)
        t.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["kind"] for line in lines)

    def test_stream_matches_buffered_export(self, tmp_path):
        streamed = tmp_path / "s.jsonl"
        t = Tracer(sink=JsonlWriterSink(str(streamed)))
        with t.span("A"):
            t.add_counter("c", 1.0)
        t.close()
        # The sink's file round-trips through the standard reader and agrees
        # with the in-memory buffer event for event.
        assert [e.to_dict() for e in read_jsonl(str(streamed))] == [
            e.to_dict() for e in t.events
        ]

    def test_valid_jsonl_at_every_line_boundary(self, tmp_path):
        """A concurrent reader must be able to parse the partial file."""
        path = tmp_path / "t.jsonl"
        sink = JsonlWriterSink(str(path))  # flush_every=1
        t = Tracer(sink=sink)
        for i in range(5):
            t.emit(EventKind.COUNTER, f"c{i}")
            events = read_jsonl(str(path))
            assert len(events) == i + 1
        t.close()

    def test_close_idempotent_and_write_after_close_raises(self, tmp_path):
        sink = JsonlWriterSink(str(tmp_path / "t.jsonl"))
        assert not sink.closed
        sink.close()
        sink.close()
        assert sink.closed
        t = Tracer()
        t.emit(EventKind.COUNTER, "c")
        with pytest.raises(ValueError):
            sink.write(t.events[0])

    def test_context_manager_closes(self, tmp_path):
        with JsonlWriterSink(str(tmp_path / "t.jsonl")) as sink:
            pass
        assert sink.closed

    def test_satisfies_protocol(self, tmp_path):
        assert isinstance(JsonlWriterSink(str(tmp_path / "t.jsonl")), TraceSink)
        assert isinstance(ListSink(), TraceSink)


class TestOneSerializer:
    """The goldens, ``repro trace tail`` and the service trace share one
    line format; these pin it to the checked-in bytes."""

    def test_goldens_reserialize_to_themselves(self):
        checked = 0
        for spec in GOLDEN_BENCHMARKS.values():
            with open(golden_path(spec, GOLDEN_DIR), encoding="utf-8") as fh:
                for line in fh:
                    event = TraceEvent.from_dict(json.loads(line))
                    assert event_line(event) == line, spec.name
                    checked += 1
        assert checked > 0

    def test_rotating_segment_matches_writer_file(self, tmp_path):
        events = read_jsonl(golden_path(GOLDEN_BENCHMARKS["lfr-small"], GOLDEN_DIR))
        with JsonlWriterSink(str(tmp_path / "w.jsonl")) as writer:
            for ev in events:
                writer.write(ev)
        with RotatingJsonlSink(str(tmp_path / "r.jsonl")) as rotating:
            for ev in events:
                rotating.write(ev)
        assert rotating.segment_paths == [str(tmp_path / "r.00000.jsonl")]
        assert writer.num_events == rotating.num_events == len(events)
        assert (tmp_path / "r.00000.jsonl").read_bytes() == (
            tmp_path / "w.jsonl"
        ).read_bytes()


class TestStreamingTracer:
    def test_buffer_false_without_sink_rejected(self):
        with pytest.raises(ValueError):
            Tracer(buffer=False)

    def test_buffer_false_keeps_no_events(self, tmp_path):
        sink = JsonlWriterSink(str(tmp_path / "t.jsonl"))
        t = Tracer(sink=sink, buffer=False)
        for i in range(100):
            t.emit(EventKind.COUNTER, f"c{i}")
        assert t.events == []
        assert t.num_emitted == 100
        assert sink.num_events == 100

    def test_streaming_run_holds_o1_events(self, small_graph, tmp_path):
        """The acceptance criterion: a full streamed parallel run keeps the
        in-memory event list empty while the file receives everything."""
        path = tmp_path / "run.jsonl"
        tracer = Tracer(sink=JsonlWriterSink(str(path)), buffer=False)
        summary = detect_communities(small_graph, num_ranks=4, tracer=tracer)
        tracer.close()
        assert summary.events == []  # O(1) resident (nothing buffered)
        events = read_jsonl(str(path))
        assert len(events) > 100  # the run itself emitted plenty
        kinds = {e.kind for e in events}
        assert EventKind.RUN_START in kinds and EventKind.RUN_END in kinds

    def test_caller_supplied_sink_left_open(self, small_graph, tmp_path):
        """The driver never closes the caller's tracer: a caller-owned
        tracer can keep recording across multiple runs."""
        sink = JsonlWriterSink(str(tmp_path / "t.jsonl"))
        t = Tracer(sink=sink, buffer=False)
        detect_communities(small_graph, num_ranks=2, tracer=t)
        assert not sink.closed
        first = sink.num_events
        detect_communities(small_graph, num_ranks=2, tracer=t)
        assert sink.num_events > first
        t.close()
        assert sink.closed


class TestFollowJsonl:
    @staticmethod
    def _event_line(t, i):
        ev = t.emit(EventKind.COUNTER, f"c{i}")
        return json.dumps(ev.to_dict(), separators=(",", ":")) + "\n"

    def test_tail_yields_events_as_they_land(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer()
        with open(path, "w") as fh:
            fh.write(self._event_line(t, 0))
            fh.flush()
            it = follow_jsonl(str(path), poll_interval=0.01)
            first = next(it)
            assert first.name == "c0"
            # The writer appends while the follower waits: the next poll
            # must pick the new line up.
            fh.write(self._event_line(t, 1))
            fh.flush()
            assert next(it).name == "c1"
            it.close()

    def test_partial_line_held_back(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer()
        line = self._event_line(t, 0)
        with open(path, "w") as fh:
            fh.write(line[: len(line) // 2])
            fh.flush()
            it = follow_jsonl(str(path), poll_interval=0.01, timeout=0.05)
            # Mid-write: nothing to yield yet, and no JSON decode error.
            fh.write(line[len(line) // 2:])
            fh.flush()
            got = list(it)
        assert [e.name for e in got] == ["c0"]

    def test_stops_on_run_end(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(sink=JsonlWriterSink(str(path)))
        t.run_start("x", num_vertices=1, num_edges=0)
        t.run_end(modularity=0.0, num_levels=0)
        t.emit(EventKind.COUNTER, "after")
        t.close()
        got = list(follow_jsonl(str(path), poll_interval=0.01))
        assert [e.kind for e in got] == [EventKind.RUN_START, EventKind.RUN_END]

    def test_timeout_without_run_end(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        got = list(follow_jsonl(str(path), poll_interval=0.01, timeout=0.05))
        assert got == []

    def test_iter_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer()
        path.write_text(self._event_line(t, 0) + "\n" + self._event_line(t, 1))
        assert len(list(iter_jsonl(str(path)))) == 2


class TestRotatingJsonlSink:
    @staticmethod
    def _emit(sink, n, payload_bytes=0):
        t = Tracer(sink=sink, buffer=False)
        for i in range(n):
            t.emit(EventKind.COUNTER, f"c{i}", pad="x" * payload_bytes)

    def test_single_small_segment(self, tmp_path):
        from repro.observability import RotatingJsonlSink

        sink = RotatingJsonlSink(str(tmp_path / "t.jsonl"))
        self._emit(sink, 3)
        sink.close()
        assert sink.segment_paths == [str(tmp_path / "t.00000.jsonl")]
        lines = (tmp_path / "t.00000.jsonl").read_text().splitlines()
        assert [json.loads(ln)["name"] for ln in lines] == ["c0", "c1", "c2"]

    def test_rotates_on_size(self, tmp_path):
        from repro.observability import RotatingJsonlSink

        sink = RotatingJsonlSink(
            str(tmp_path / "t.jsonl"), max_segment_bytes=400
        )
        self._emit(sink, 12, payload_bytes=100)
        sink.close()
        assert len(sink.segment_paths) > 1
        # Every segment stays under the cap and is independently valid JSONL.
        total = 0
        for seg in sink.segment_paths:
            data = (tmp_path / seg.split("/")[-1]).read_bytes()
            assert len(data) <= 400
            total += len(data.splitlines())
        assert total == 12

    def test_oversized_event_lands_whole(self, tmp_path):
        from repro.observability import RotatingJsonlSink

        sink = RotatingJsonlSink(str(tmp_path / "t.jsonl"), max_segment_bytes=50)
        self._emit(sink, 2, payload_bytes=300)  # each line alone exceeds cap
        sink.close()
        assert len(sink.segment_paths) == 2  # one event per segment, unsplit
        for seg in sink.segment_paths:
            (line,) = (tmp_path / seg.split("/")[-1]).read_text().splitlines()
            json.loads(line)

    def test_max_segments_prunes_oldest(self, tmp_path):
        from repro.observability import RotatingJsonlSink

        sink = RotatingJsonlSink(
            str(tmp_path / "t.jsonl"), max_segment_bytes=200, max_segments=2
        )
        self._emit(sink, 10, payload_bytes=100)
        sink.close()
        kept = sorted(p.name for p in tmp_path.glob("t.*.jsonl"))
        assert len(kept) == 2
        assert kept == sorted(s.split("/")[-1] for s in sink.segment_paths)
        assert "t.00000.jsonl" not in kept  # the oldest was deleted

    def test_segments_readable_by_standard_reader(self, tmp_path):
        from repro.observability import RotatingJsonlSink

        sink = RotatingJsonlSink(str(tmp_path / "t.jsonl"), max_segment_bytes=300)
        self._emit(sink, 6, payload_bytes=80)
        sink.close()
        names = []
        for seg in sink.segment_paths:
            names += [e.name for e in read_jsonl(seg)]
        assert names == [f"c{i}" for i in range(6)]

    def test_validation_and_closed_write(self, tmp_path):
        from repro.observability import RotatingJsonlSink

        with pytest.raises(ValueError):
            RotatingJsonlSink(str(tmp_path / "t.jsonl"), max_segment_bytes=0)
        with pytest.raises(ValueError):
            RotatingJsonlSink(str(tmp_path / "t.jsonl"), max_segments=0)
        sink = RotatingJsonlSink(str(tmp_path / "u.jsonl"))
        sink.close()
        t = Tracer(sink=sink, buffer=False)
        with pytest.raises(ValueError, match="closed"):
            t.emit(EventKind.COUNTER, "late")


class TestNullSink:
    def test_discards_events_but_keeps_counters(self):
        from repro.observability import NullSink

        t = Tracer(sink=NullSink(), buffer=False)
        t.add_counter("jobs", 1)
        t.add_counter("jobs", 2)
        assert t.events == []
        assert t.counters["jobs"] == 3.0
