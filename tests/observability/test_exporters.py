"""Exporter tests: JSONL round-trip, Chrome-trace schema, Prometheus text."""

import json
from collections import defaultdict

import pytest

from repro.observability import (
    EventKind,
    TraceEvent,
    Tracer,
    chrome_trace,
    export_trace,
    prometheus_snapshot,
    read_jsonl,
    write_jsonl,
)
from repro.parallel import detect_communities
from repro.runtime import P7IH, model_phase_time, model_times


@pytest.fixture
def traced_run():
    """A small hand-built trace exercising every event kind."""
    t = Tracer(clock=iter(float(i) for i in range(1000)).__next__)
    t.run_start("parallel", num_vertices=10, num_edges=20, num_ranks=2)
    t.level_start(0, num_vertices=10)
    t.table_stats(0, 0, "in", {
        "entries": 8, "capacity": 64, "load_factor": 0.125,
        "probes_per_insert": 1.2, "avg_probe_length": 0.3, "max_probe_length": 2,
    })
    t.begin_span("REFINE")
    t.begin_span("REFINE/FIND_BEST")
    t.superstep("REFINE/FIND_BEST", records=6, nbytes=48, messages=2,
                per_rank_records=[4, 2])
    t.end_span(comp_ops=[3.0, 5.0])
    t.end_span()
    t.iteration(0, 1, movers=4, epsilon=0.8, dq_threshold=1e-3,
                candidates=6, modularity=0.21)
    t.level_end(0, modularity=0.21, iterations=1)
    t.add_counter("rehashes", 1.0)
    t.run_end(modularity=0.21, num_levels=1)
    return t.events


class TestJsonl:
    def test_round_trip(self, traced_run, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(traced_run, str(path))
        back = read_jsonl(str(path))
        assert back == list(traced_run)  # TraceEvent is a frozen dataclass

    def test_one_object_per_line(self, traced_run, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(traced_run, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(traced_run)
        for line in lines:
            d = json.loads(line)
            assert set(d) == {"seq", "ts", "kind", "name", "rank", "data"}
            assert d["kind"] in EventKind.ALL

    def test_from_dict_tolerates_missing_optionals(self):
        ev = TraceEvent.from_dict({"seq": 0, "ts": 0.0, "kind": "counter",
                                   "name": "x"})
        assert ev.rank is None and ev.data == {}


class TestChromeTrace:
    def test_schema_sanity(self, traced_run):
        doc = chrome_trace(traced_run)
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"], "trace must not be empty"
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(ev)
            assert ev["ph"] in {"B", "E", "X", "i", "C", "M"}
            if ev["ph"] == "X":
                assert "dur" in ev and ev["dur"] > 0
        # Must serialize to valid JSON.
        json.loads(json.dumps(doc))

    def test_begin_end_balanced(self, traced_run):
        doc = chrome_trace(traced_run)
        b = sum(1 for e in doc["traceEvents"] if e["ph"] == "B")
        e = sum(1 for e in doc["traceEvents"] if e["ph"] == "E")
        assert b == e == 2

    def test_per_rank_lanes_for_span_ops(self, traced_run):
        doc = chrome_trace(traced_run)
        lanes = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert lanes == {1, 2}  # ranks 0 and 1 on tid rank+1
        names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert {"driver", "rank 0", "rank 1"} <= names

    def test_timestamps_microseconds(self, traced_run):
        doc = chrome_trace(traced_run)
        begin = next(e for e in doc["traceEvents"] if e["ph"] == "B")
        src = next(e for e in traced_run if e.kind == EventKind.SPAN_BEGIN)
        assert begin["ts"] == pytest.approx(src.ts * 1e6)


class TestModeledClock:
    """The pid-1 track lays the run's profiler scopes end to end."""

    @pytest.fixture(scope="class", params=["parallel", "naive"])
    def run(self, request):
        from repro.generators import LFRParams, generate_lfr

        graph = generate_lfr(LFRParams(num_vertices=300), seed=1).graph
        tracer = Tracer()
        summary = detect_communities(
            graph, algorithm=request.param, num_ranks=4, machine=P7IH,
            tracer=tracer,
        )
        profiler = summary.raw.simulation.profiler
        doc = chrome_trace(tracer.events, machine=P7IH, profiler=profiler)
        track = [e for e in doc["traceEvents"] if e["pid"] == 1 and e["ph"] == "X"]
        return profiler, track

    def test_each_event_is_one_scope(self, run):
        profiler, track = run
        assert track
        for ev in track:
            key = (ev["args"]["level"], ev["args"]["iteration"], ev["name"])
            secs = model_phase_time(profiler.scopes[key], P7IH)
            assert ev["dur"] == secs * 1e6
            assert ev["dur"] > 0

    def test_events_are_laid_end_to_end(self, run):
        _, track = run
        for prev, ev in zip(track, track[1:]):
            assert ev["ts"] == pytest.approx(prev["ts"] + prev["dur"], rel=1e-9)

    def test_iteration_sums_match_model_times(self, run):
        profiler, track = run
        per_scope = defaultdict(float)
        for ev in track:
            per_scope[(ev["args"]["level"], ev["args"]["iteration"])] += ev["dur"]
        keys = {(level, iteration) for level, iteration, _ in profiler.scopes}
        for level, iteration in keys:
            expected = sum(
                model_times(profiler.select(level, iteration), P7IH).values()
            )
            got = per_scope.get((level, iteration), 0.0) / 1e6
            assert got == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_no_profiler_no_track(self, traced_run):
        doc = chrome_trace(traced_run, machine=P7IH)
        assert not [e for e in doc["traceEvents"] if e["pid"] == 1]


class TestPrometheus:
    def test_snapshot_contents(self, traced_run):
        text = prometheus_snapshot(traced_run)
        assert "# HELP repro_run_modularity" in text
        assert "# TYPE repro_run_modularity gauge" in text
        assert "repro_run_modularity 0.21" in text
        assert 'repro_vertex_migrations_total{level="0"} 4' in text
        assert 'repro_records_sent_total{phase="REFINE/FIND_BEST"} 6' in text
        assert 'repro_table_load_factor{rank="0",table="in"} 0.125' in text

    def test_empty_trace_yields_empty_snapshot(self):
        assert prometheus_snapshot([]) == ""


class TestExportDispatch:
    @pytest.mark.parametrize("fmt", ["jsonl", "chrome", "prom"])
    def test_formats_write(self, traced_run, tmp_path, fmt):
        path = tmp_path / f"out.{fmt}"
        export_trace(traced_run, str(path), fmt)
        assert path.exists() and path.stat().st_size > 0

    def test_unknown_format_rejected(self, traced_run, tmp_path):
        with pytest.raises(ValueError):
            export_trace(traced_run, str(tmp_path / "x"), "yaml")
