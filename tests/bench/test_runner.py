"""Tests for matrix execution, the run-table CSV schema and the BENCH json."""

import csv

import pytest

from repro.bench import (
    BenchConfigError,
    RUN_TABLE_COLUMNS,
    build_summary,
    parse_config,
    run_matrix,
    write_run_table,
    write_summary,
)

GRAPH = {
    "family": "lfr",
    "seed": 7,
    "num_vertices": 120,
    "avg_degree": 8,
    "max_degree": 20,
    "mixing": 0.2,
    "min_community": 10,
    "max_community": 40,
}


def tiny_config(**overrides):
    data = {
        "label": "tiny",
        "repetitions": 2,
        "warmup": 1,
        "factors": {"variant": ["parallel", "lpa"]},
        "cell": {
            "variant": "{variant}",
            "graph": "g",
            "ranks": 2,
            "seed": 0,
            "machine": "p7ih",
            "work_scale": 2.0,
        },
        "graphs": {"g": dict(GRAPH)},
    }
    data.update(overrides)
    return parse_config(data)


@pytest.fixture(scope="module")
def tiny_result():
    return run_matrix(tiny_config())


class TestRunMatrix:
    def test_repetition_counts(self, tiny_result):
        for cell_result in tiny_result.cells:
            assert len(cell_result.timed) == 2
            warmups = [r for r in cell_result.reps if r.kind == "warmup"]
            assert len(warmups) == 1
            assert not cell_result.timed_out

    def test_peak_memory_sampled_on_warmup_only(self, tiny_result):
        for cell_result in tiny_result.cells:
            warmup = [r for r in cell_result.reps if r.kind == "warmup"]
            assert warmup[-1].peak_mem_bytes is not None
            assert all(r.peak_mem_bytes is None for r in cell_result.timed)

    def test_parallel_cell_has_model_metrics(self, tiny_result):
        [par] = [
            c for c in tiny_result.cells if c.cell.params["variant"] == "parallel"
        ]
        for rep in par.timed:
            assert rep.modeled_s is not None and rep.modeled_s > 0
            assert rep.seq_reference_s is not None
            assert rep.gteps is not None and rep.gteps > 0
            assert rep.modularity is not None

    def test_lpa_cell_has_phases_and_iterations(self, tiny_result):
        [lpa] = [
            c for c in tiny_result.cells if c.cell.params["variant"] == "lpa"
        ]
        for rep in lpa.timed:
            assert rep.num_iterations >= 1
            assert rep.num_levels == 1
            assert any("PROPAGATE" in k for k in rep.phases)

    def test_membership_kept_only_on_request(self, tiny_result):
        assert all(
            r.membership is None
            for c in tiny_result.cells
            for r in c.reps
        )
        kept = run_matrix(
            tiny_config(
                repetitions=1, warmup=0, factors={"variant": ["parallel"]}
            ),
            keep_membership=True,
        )
        [cell] = kept.cells
        assert cell.timed[0].membership is not None
        assert len(cell.timed[0].membership) == GRAPH["num_vertices"]

    def test_process_cell_without_backend_runs_vector(self):
        config = tiny_config(
            repetitions=1, warmup=0, factors={"variant": ["parallel"]}
        )
        config.cell["execution"] = "process"
        [cell] = run_matrix(config, keep_raw=True).cells
        rep = cell.timed[0]
        assert rep.raw.config.backend == "vector"
        assert rep.modularity is not None and rep.modeled_s > 0


class TestRunnerErrors:
    def test_work_scale_and_work_edges_conflict(self):
        config = tiny_config(factors={"variant": ["parallel"]})
        config.cell["work_edges"] = 1000
        with pytest.raises(BenchConfigError, match="not both"):
            run_matrix(config)

    def test_sequential_rejects_extras(self):
        config = tiny_config(factors={"variant": ["sequential"]})
        config.cell["max_levels"] = 2
        with pytest.raises(BenchConfigError, match="no extra options"):
            run_matrix(config)

    def test_unknown_variant(self):
        config = tiny_config(factors={"variant": ["simulated-annealing"]})
        with pytest.raises(BenchConfigError, match="unknown variant"):
            run_matrix(config)

    def test_unknown_machine(self):
        config = tiny_config(factors={"variant": ["parallel"]})
        config.cell["machine"] = "cray"
        with pytest.raises(BenchConfigError, match="unknown machine"):
            run_matrix(config)

    def test_cell_without_graph(self):
        config = tiny_config(factors={"variant": ["parallel"]})
        del config.cell["graph"]
        with pytest.raises(BenchConfigError, match="names no graph"):
            run_matrix(config)

    def test_work_edges_alone_scales_work(self):
        config = tiny_config(
            repetitions=1, warmup=0, factors={"variant": ["parallel"]}
        )
        del config.cell["work_scale"]
        config.cell["work_edges"] = 10_000_000
        result = run_matrix(config)
        rep = result.cells[0].timed[0]
        # 1e7 target edges on a ~500-edge proxy: modeled time must reflect
        # the scaled workload, far above the unscaled microseconds regime.
        assert rep.gteps is not None
        assert rep.modeled_s > 0.01


class TestRunTableCsv:
    def test_schema_and_rows(self, tiny_result, tmp_path):
        path = tmp_path / "run_table.csv"
        write_run_table(tiny_result, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == ["label", "cell", "rep", "kind", "factor:variant",
                          *RUN_TABLE_COLUMNS]
        # 2 cells x (1 warmup + 2 timed) repetitions.
        assert len(body) == 6
        by_col = dict(zip(header, zip(*body)))
        assert set(by_col["label"]) == {"tiny"}
        assert sorted(set(by_col["factor:variant"])) == ["lpa", "parallel"]
        assert set(by_col["kind"]) == {"warmup", "timed"}
        assert all(float(w) > 0 for w in by_col["wall_s"])

    def test_outlier_column_only_flags_timed_reps(self, tiny_result, tmp_path):
        path = tmp_path / "run_table.csv"
        write_run_table(tiny_result, str(path))
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                assert row["outlier"] in ("0", "1")
                if row["kind"] == "warmup":
                    assert row["outlier"] == "0"


class TestBenchSummary:
    def test_structure(self, tiny_result):
        summary = build_summary(tiny_result)
        assert summary["schema"] == 1
        assert summary["label"] == "tiny"
        assert summary["config"]["repetitions"] == 2
        assert {"python", "numpy", "platform"} <= set(summary["environment"])
        assert set(summary["cells"]) == {"variant=parallel", "variant=lpa"}

    def test_parallel_cell_metrics(self, tiny_result):
        summary = build_summary(tiny_result)
        cell = summary["cells"]["variant=parallel"]
        for metric in ("wall_s", "modularity", "modeled_s",
                       "seq_reference_s", "gteps", "peak_mem_bytes"):
            stats = cell["metrics"][metric]
            assert stats["n"] >= 1
            assert stats["min"] <= stats["median"] <= stats["max"]
        assert cell["scalars"]["num_levels"] >= 1
        assert cell["repetitions"] == 2
        assert cell["timed_out"] is False

    def test_lpa_cell_omits_model_metrics(self, tiny_result):
        cell = build_summary(tiny_result)["cells"]["variant=lpa"]
        assert "modeled_s" not in cell["metrics"]
        assert "wall_s" in cell["metrics"]
        assert cell["phases"]

    def test_write_summary_json(self, tiny_result, tmp_path):
        import json

        path = tmp_path / "BENCH_tiny.json"
        doc = write_summary(tiny_result, str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))
