"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.harness import experiments


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "g.txt"
    rc = main([
        "generate", "lfr", "--vertices", "300", "--avg-degree", "10",
        "--max-degree", "30", "--mixing", "0.15",
        "--output", str(path), "--seed", "5",
    ])
    assert rc == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect", "x.txt"])
        assert args.algorithm == "parallel"
        assert args.ranks == 4


class TestGenerate:
    def test_lfr_with_ground_truth(self, tmp_path):
        out = tmp_path / "lfr.txt"
        gt = tmp_path / "gt.txt"
        rc = main([
            "generate", "lfr", "--vertices", "200", "--output", str(out),
            "--ground-truth", str(gt),
        ])
        assert rc == 0
        assert out.exists() and gt.exists()
        n_gt = sum(1 for line in gt.open() if not line.startswith("#"))
        assert n_gt == 200

    def test_rmat(self, tmp_path):
        out = tmp_path / "rmat.txt"
        rc = main(["generate", "rmat", "--scale", "8", "--output", str(out)])
        assert rc == 0
        lines = [l for l in out.open() if not l.startswith("#")]
        assert len(lines) > 100

    def test_bter(self, tmp_path):
        out = tmp_path / "bter.txt"
        rc = main([
            "generate", "bter", "--vertices", "300", "--rho", "0.5",
            "--output", str(out),
        ])
        assert rc == 0

    def test_ground_truth_rejected_for_rmat(self, tmp_path):
        rc = main([
            "generate", "rmat", "--scale", "7",
            "--output", str(tmp_path / "x.txt"),
            "--ground-truth", str(tmp_path / "gt.txt"),
        ])
        assert rc == 2


class TestDetect:
    def test_parallel_with_outputs(self, edge_file, tmp_path, capsys):
        comm = tmp_path / "comm.txt"
        dend = tmp_path / "dend.json"
        rc = main([
            "detect", str(edge_file), "--ranks", "4", "--machine", "p7ih",
            "--output", str(comm), "--dendrogram", str(dend),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parallel: Q=" in out
        assert "modeled P7-IH time" in out
        data = json.loads(dend.read_text())
        assert data["depth"] >= 1
        lines = [l for l in comm.open() if not l.startswith("#")]
        assert len(lines) == 300

    def test_sequential(self, edge_file, capsys):
        rc = main(["detect", str(edge_file), "--algorithm", "sequential"])
        assert rc == 0
        assert "sequential: Q=" in capsys.readouterr().out

    def test_lpa(self, edge_file, capsys):
        rc = main(["detect", str(edge_file), "--algorithm", "lpa"])
        assert rc == 0
        assert "label propagation: Q=" in capsys.readouterr().out

    def test_lpa_dendrogram_rejected(self, edge_file, tmp_path):
        rc = main([
            "detect", str(edge_file), "--algorithm", "lpa",
            "--dendrogram", str(tmp_path / "d.json"),
        ])
        assert rc == 2

    def test_process_execution_rejects_hash_backend(self, edge_file, capsys):
        rc = main([
            "detect", str(edge_file), "--execution", "process",
            "--backend", "hash",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "--execution process requires --backend vector\n"


#: Every command that reads an edge list, as argv before the path.
EDGE_LIST_COMMANDS = [["detect"], ["info"], ["serve", "--graph"]]


class TestEdgeListErrors:
    """A bad edge list ends a command with one stderr line and exit code 2."""

    @pytest.mark.parametrize("command", EDGE_LIST_COMMANDS)
    def test_missing_file(self, command, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: {path}: No such file or directory\n"
        assert captured.out == ""

    # `serve --graph` reads through the same `_read_graph`; left out here
    # because a serve that accepted the file would block the test.
    @pytest.mark.parametrize("command", [["detect"], ["info"]])
    @pytest.mark.parametrize("weight", ["nan", "inf", "-5"])
    def test_bad_weight(self, command, weight, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1 {weight}\n1 2 1\n2 0 1\n")
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: {path}: line 1: weight '{weight}' is not a finite "
            "non-negative number\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", EDGE_LIST_COMMANDS)
    def test_malformed_file(self, command, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n\n0 1\n1 x\n")
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: {path}: line 4: vertex id 'x' is not an integer\n"
        )
        assert captured.out == ""


class TestTrace:
    def test_detect_trace_then_report(self, edge_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(["detect", str(edge_file), "--trace", str(trace)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert trace.exists()

        rc = main(["report", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        # The acceptance surface: per-iteration eps, movers and per-level Q.
        assert "eps" in out and "movers" in out and "Q" in out
        assert "Convergence (per inner iteration)" in out
        assert "Phase breakdown" in out

    def test_chrome_trace_is_valid_trace_event_json(self, edge_file, tmp_path):
        trace = tmp_path / "t.json"
        rc = main([
            "detect", str(edge_file), "--trace", str(trace),
            "--trace-format", "chrome",
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert all(
            {"name", "ph", "ts", "pid", "tid"} <= set(ev)
            for ev in doc["traceEvents"]
        )

    def test_chrome_modeled_track_reads_the_profiler(self, edge_file, tmp_path):
        """The modeled (pid 1) track needs a rank runtime's profiler: a
        sequential run has none, so its export has no such track."""
        tracks = {}
        for algorithm in ("sequential", "parallel"):
            trace = tmp_path / f"{algorithm}.json"
            rc = main([
                "detect", str(edge_file), "--algorithm", algorithm,
                "--machine", "p7ih", "--trace", str(trace),
                "--trace-format", "chrome",
            ])
            assert rc == 0
            doc = json.loads(trace.read_text())
            tracks[algorithm] = [e for e in doc["traceEvents"] if e["pid"] == 1]
        assert tracks["sequential"] == []
        assert any(e["ph"] == "X" and e["dur"] > 0 for e in tracks["parallel"])

    def test_prom_snapshot(self, edge_file, tmp_path):
        trace = tmp_path / "t.prom"
        rc = main([
            "detect", str(edge_file), "--trace", str(trace),
            "--trace-format", "prom",
        ])
        assert rc == 0
        text = trace.read_text()
        assert "# TYPE repro_run_modularity gauge" in text

    def test_trace_rejected_for_lpa(self, edge_file, tmp_path):
        rc = main([
            "detect", str(edge_file), "--algorithm", "lpa",
            "--trace", str(tmp_path / "t.jsonl"),
        ])
        assert rc == 2

    def test_report_sections(self, edge_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["detect", str(edge_file), "--trace", str(trace)])
        capsys.readouterr()
        rc = main(["report", str(trace), "--section", "convergence"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Convergence" in out and "Phase breakdown" not in out

    def test_report_missing_file(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestTraceStreaming:
    def test_detect_trace_streams_jsonl(self, edge_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(["detect", str(edge_file), "--trace", str(trace)])
        assert rc == 0
        assert "streamed" in capsys.readouterr().out
        lines = [l for l in trace.open() if l.strip()]
        assert len(lines) > 100
        assert all(json.loads(l)["kind"] for l in lines)


class TestTraceGolden:
    @pytest.fixture(scope="class")
    def golden_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("goldens")
        rc = main(["trace", "record", "lfr-small", "--dir", str(d)])
        assert rc == 0
        return d

    def test_list(self, capsys):
        rc = main(["trace", "list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lfr-small" in out and "rmat-small" in out
        assert "social-amazon" in out

    def test_record_writes_golden(self, golden_dir, capsys):
        assert (golden_dir / "lfr-small.jsonl").exists()

    def test_compare_clean_run_passes(self, golden_dir, capsys):
        rc = main(["trace", "compare", "lfr-small", "--dir", str(golden_dir)])
        assert rc == 0
        assert "ok (matches" in capsys.readouterr().out

    def test_compare_perturbed_run_fails(self, golden_dir, capsys):
        """The gate's self-test knob: a perturbed schedule must exit 1 and
        print the drift table."""
        rc = main([
            "trace", "compare", "lfr-small", "--dir", str(golden_dir),
            "--perturb-p1", "4.0",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "DRIFT" in captured.out
        assert "Golden-trace drift" in captured.out
        assert "golden-trace gate failed" in captured.err

    def test_compare_rejects_process_with_hash_backend(self, capsys):
        # The same refusal `repro detect` prints, before any golden runs.
        rc = main([
            "trace", "compare", "--execution", "process", "--backend", "hash",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "--execution process requires --backend vector\n"
        assert captured.out == ""

    def test_compare_missing_golden_hints_record(self, tmp_path, capsys):
        rc = main(["trace", "compare", "lfr-small", "--dir", str(tmp_path)])
        assert rc == 2
        assert "repro trace record" in capsys.readouterr().err

    def test_unknown_benchmark_rejected(self, tmp_path, capsys):
        rc = main(["trace", "record", "nope", "--dir", str(tmp_path)])
        assert rc == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_tail_prints_event_lines(self, golden_dir, capsys):
        rc = main(["trace", "tail", str(golden_dir / "lfr-small.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run_start" in out and "run_end" in out

    def test_tail_missing_file(self, tmp_path, capsys):
        rc = main(["trace", "tail", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestInfo:
    def test_info(self, edge_file, capsys):
        rc = main(["info", str(edge_file), "--clustering"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vertices          : 300" in out
        assert "global clustering" in out


class TestExperiment:
    @pytest.mark.parametrize("exp", ["table1"])
    def test_small_experiments_run(self, exp, capsys):
        rc = main(["experiment", exp, "--scale", "0.15"])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_fig2(self, capsys):
        rc = main(["experiment", "fig2", "--scale", "0.4"])
        assert rc == 0
        assert "fitted p1=" in capsys.readouterr().out

    @pytest.mark.parametrize("exp", sorted(experiments.FIGURE_MATRICES))
    def test_routed_ids_reject_scale(self, exp, capsys):
        rc = main(["experiment", exp, "--scale", "0.5"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in experiments.FIGURE_MATRICES[exp]:
            assert (experiments.MATRIX_DIR / name).is_file()
            assert str(experiments.MATRIX_DIR / name) in err

    def test_routed_id_without_matrix_dir(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "matrices"
        monkeypatch.setattr(experiments, "MATRIX_DIR", missing)
        rc = main(["experiment", "table3"])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_routed_id_runs_its_matrix(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "table3_quality.toml").write_text(
            'label = "table3-tiny"\nrepetitions = 1\nwarmup = 0\n'
            '[factors]\ngraph = ["lfr-mu04"]\n'
            'variant = ["sequential", "parallel"]\n'
            '[cell]\nvariant = "{variant}"\ngraph = "{graph}"\nranks = 2\n'
            '[graphs.lfr-mu04]\nfamily = "lfr"\nnum_vertices = 200\n'
            "avg_degree = 10\nmax_degree = 30\nmixing = 0.4\n"
        )
        monkeypatch.setattr(experiments, "MATRIX_DIR", tmp_path)
        rc = main(["experiment", "table3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("Table III: parallel-vs-sequential")
        assert "LFR(mu=0.4)" in out

    def test_fig5_and_table4_run_their_matrices(self, tmp_path, monkeypatch, capsys):
        """Fig. 5 projects the Table III matrix, Table IV the Fig. 8 one."""
        (tmp_path / "table3_quality.toml").write_text(
            'label = "table3-tiny"\nrepetitions = 1\nwarmup = 0\n'
            '[factors]\ngraph = ["lfr-mu04"]\n'
            'variant = ["sequential", "parallel"]\n'
            '[cell]\nvariant = "{variant}"\ngraph = "{graph}"\nranks = 2\n'
            '[graphs.lfr-mu04]\nfamily = "lfr"\nnum_vertices = 200\n'
            "avg_degree = 10\nmax_degree = 30\nmixing = 0.4\n"
        )
        (tmp_path / "fig8_breakdown.toml").write_text(
            'label = "fig8-tiny"\nrepetitions = 1\nwarmup = 0\n'
            "[factors]\nnodes = [4, 2]\n"
            '[cell]\nvariant = "parallel"\ngraph = "lfr"\nranks = "{nodes}"\n'
            'nodes = "{nodes}"\nmachine = "p7ih"\n'
            '[graphs.lfr]\nfamily = "lfr"\nnum_vertices = 200\n'
        )
        monkeypatch.setattr(experiments, "MATRIX_DIR", tmp_path)
        assert main(["experiment", "fig5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Fig. 5: community size distribution")
        assert "LFR(mu=0.4): largest community" in out
        assert main(["experiment", "table4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Table IV: UK-2007 performance vs the literature")
        assert "4 simulated P7-IH nodes" in out


class TestTraceDiff:
    @staticmethod
    def _write_trace(path, modularity=0.4, movers=6):
        from repro.observability import JsonlWriterSink, Tracer

        t = Tracer(sink=JsonlWriterSink(str(path)))
        t.run_start("parallel", num_vertices=10, num_edges=20, num_ranks=2)
        t.level_start(0, num_vertices=10)
        t.iteration(0, 1, movers=movers, epsilon=1.0, dq_threshold=0.0,
                    candidates=10, modularity=modularity)
        t.level_end(0, modularity=modularity, iterations=1)
        t.run_end(modularity=modularity, num_levels=1)
        t.close()
        return path

    def test_identical_traces_exit_0(self, tmp_path, capsys):
        a = self._write_trace(tmp_path / "a.jsonl")
        b = self._write_trace(tmp_path / "b.jsonl")
        rc = main(["trace", "diff", str(a), str(b)])
        assert rc == 0
        assert "within tolerances" in capsys.readouterr().out

    def test_drifting_traces_exit_1_with_table(self, tmp_path, capsys):
        a = self._write_trace(tmp_path / "a.jsonl", modularity=0.4)
        b = self._write_trace(tmp_path / "b.jsonl", modularity=0.9)
        rc = main(["trace", "diff", str(a), str(b)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "modularity" in out

    def test_tolerance_flags_are_honoured(self, tmp_path, capsys):
        a = self._write_trace(tmp_path / "a.jsonl", movers=6)
        b = self._write_trace(tmp_path / "b.jsonl", movers=7)
        assert main(["trace", "diff", str(a), str(b)]) == 1
        capsys.readouterr()
        rc = main([
            "trace", "diff", str(a), str(b), "--movers-tol", "0.5",
        ])
        assert rc == 0

    def test_unreadable_input_exit_2(self, tmp_path, capsys):
        a = self._write_trace(tmp_path / "a.jsonl")
        rc = main(["trace", "diff", str(a), str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "cannot fingerprint" in capsys.readouterr().err

    def test_garbage_input_exit_2(self, tmp_path, capsys):
        a = self._write_trace(tmp_path / "a.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        rc = main(["trace", "diff", str(a), str(bad)])
        assert rc == 2


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8737
        assert args.workers == 2
        assert args.queue_capacity == 64
        assert args.ranks == 4
        assert args.trace_dir == "service-traces"
        assert args.trace_segment_bytes == 4_000_000
        assert args.trace_segments == 8
        assert args.no_trace is False
        assert args.graph is None

    def test_overrides(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--workers", "4", "--no-trace",
            "--job-timeout", "2.5", "--max-retries", "3",
        ])
        assert args.port == 0 and args.workers == 4
        assert args.no_trace is True
        assert args.job_timeout == 2.5
        assert args.max_retries == 3
