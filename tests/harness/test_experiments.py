"""Smoke tests for every experiment runner and figure projection.

The benchmarks run paper-sized configurations; these tests only assert that
each runner produces structurally valid, qualitatively sane output quickly.
The matrix-backed figures (Figs. 4, 5, 7, 8, 9, Tables III and IV) run their
projections over small in-memory matrices shaped like the checked-in ones.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import build_summary, parse_config, run_matrix, runner
from repro.harness import (
    UK2007_LITERATURE,
    first_level_seconds,
    gteps,
    run_fig2,
    run_fig6,
    run_table1,
)
from repro.harness import experiments as hx
from repro.parallel import parallel_louvain
from repro.runtime import P7IH


@pytest.fixture(scope="module", autouse=True)
def _no_peak_memory_sampling():
    """The projections never read peak memory; the runner's tracemalloc
    repetition would make these tiny matrices 5-25x slower."""
    stub = SimpleNamespace(
        start=lambda: None, stop=lambda: None, get_traced_memory=lambda: (0, 0)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "tracemalloc", stub)
        yield


def _run(factors: dict, cell: dict, graphs: dict, **keep):
    """Run a one-repetition in-memory matrix shaped like a checked-in one."""
    return run_matrix(parse_config({
        "label": "tiny", "repetitions": 1, "warmup": 0,
        "factors": factors, "cell": cell, "graphs": graphs,
    }), **keep)


def _social(*names: str, scale: float) -> dict:
    return {n: {"family": "social", "name": n, "scale": scale} for n in names}


class TestTable1:
    def test_all_rows_present(self):
        rows = run_table1(scale=0.15)
        names = [r.name for r in rows]
        assert "Amazon" in names and "R-MAT" in names and "BTER" in names
        assert len(rows) == 12
        for r in rows:
            assert r.proxy_vertices > 0 and r.proxy_edges > 0


class TestFig2:
    def test_fit_produces_decaying_schedule(self):
        res = run_fig2(num_vertices=300, runs_per_config=2, seed=1)
        assert res.fitted_p1 > 0 and res.fitted_p2 > 0
        assert len(res.traces) >= 4
        assert res.predicted[0] > res.predicted[-1]

    def test_traces_decay(self):
        res = run_fig2(num_vertices=300, runs_per_config=2, seed=2)
        for t in res.traces:
            if len(t) >= 3:
                assert t[0] > t[-1] - 1e-9


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        naive = {"_name": "naive", "variant": "naive", "max_inner": 6,
                 "max_levels": 6}
        return hx.fig4_rows(_run(
            {"graph": ["Amazon", "Wikipedia"],
             "variant": ["sequential", "parallel", naive]},
            {"graph": "{graph}", "ranks": 4},
            _social("Amazon", "Wikipedia", scale=0.2), keep_raw=True,
        ))

    def test_heuristic_tracks_sequential(self, rows):
        for r in rows:
            assert r.parallel_q[-1] >= r.sequential_q[-1] - 0.12

    def test_naive_loses(self, rows):
        amazon = rows[0]
        assert amazon.naive_q[-1] < amazon.parallel_q[-1]

    def test_evolution_ratio_decreasing(self, rows):
        for r in rows:
            ev = r.parallel_evolution
            assert all(a >= b - 1e-9 for a, b in zip(ev, ev[1:]))

    def test_first_level_merges_most_vertices(self, rows):
        assert "Wikipedia" in hx.format_fig4(rows)
        for r in rows:
            assert r.first_level_merge_fraction > 0.5


class TestFig5:
    @pytest.fixture(scope="class")
    def matrix(self):
        graphs = _social("Amazon", scale=0.2)
        graphs["lfr-mu04"] = {"family": "lfr", "num_vertices": 400,
                              "avg_degree": 16, "max_degree": 64, "mixing": 0.4}
        return _run(
            {"graph": list(graphs), "variant": ["sequential", "parallel"]},
            {"graph": "{graph}", "ranks": 4}, graphs, keep_membership=True,
        )

    def test_distributions_similar(self, matrix):
        r = hx.fig5_rows(matrix)[0]
        assert r.graph == "Amazon"
        assert r.seq_largest > 1 and r.par_largest > 1
        # largest communities within 3x of each other (paper: 278 vs 358)
        ratio = r.par_largest / r.seq_largest
        assert 1 / 3 < ratio < 3

    def test_printed_rows_count_every_community(self, matrix):
        """Each printed count row sums to its partition's community count,
        with both partitions under the one printed set of bin edges."""
        text = hx.format_fig5(hx.fig5_rows(matrix))
        printed = {}
        graph = None
        for line in text.splitlines()[1:]:
            if "largest community" in line:
                graph = line.split(":")[0].strip()
            elif "count" in line:
                variant = line.split()[0]
                printed[(graph, variant)] = sum(int(x) for x in line.split()[2:])
        memberships = {
            (c.cell.factors["graph"], c.cell.factors["variant"][:3]):
                c.timed[0].membership
            for c in matrix.cells
        }
        labels = {"Amazon": "Amazon", "lfr-mu04": "LFR(mu=0.4)"}
        assert len(printed) == len(memberships) == 4
        for (graph, variant), membership in memberships.items():
            assert printed[(labels[graph], variant)] == np.unique(membership).size


class TestTable3:
    def test_high_similarity_rows(self):
        graphs = _social("Amazon", "ND-Web", scale=0.2)
        for name, mu in (("lfr-mu04", 0.4), ("lfr-mu05", 0.5)):
            graphs[name] = {"family": "lfr", "num_vertices": 400,
                            "avg_degree": 16, "max_degree": 64, "mixing": mu}
        reports = hx.table3_reports(_run(
            {"graph": list(graphs), "variant": ["sequential", "parallel"]},
            {"graph": "{graph}", "ranks": 4}, graphs, keep_membership=True,
        ))
        assert list(reports) == [
            "Amazon", "ND-Web", "LFR(mu=0.4)", "LFR(mu=0.5)"
        ]
        for name, rep in reports.items():
            # Tiny-scale smoke thresholds; the bench asserts tighter values
            # at full proxy scale (see benchmarks/bench_table3_quality.py).
            # LFR(mu=0.5) at n=400 is near-structureless, so only the pair-
            # counting metric is meaningful there.
            assert rep.rand_index > 0.8
            if name != "LFR(mu=0.5)":
                assert rep.nmi > 0.5
                assert rep.nvd < 0.45
        assert "LFR(mu=0.5)" in hx.format_table3(reports)


class TestFig6:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig6(rmat_scale=12, num_nodes=4, threads_per_node=8)

    def test_entry_counts_cover_graph(self, res):
        total = res.entries["fibonacci"].sum()
        assert total == res.entries["linear_congruential"].sum()
        assert total > 0

    def test_fibonacci_no_worse_than_lcg(self, res):
        assert res.max_bin["fibonacci"].max() <= res.max_bin["linear_congruential"].max() + 1

    def test_load_factor_sweep_monotone(self, res):
        lfs = sorted(res.load_factor_avg_bin, reverse=True)
        means = [res.load_factor_avg_bin[lf].mean() for lf in lfs]
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))


class TestFig7:
    @staticmethod
    def _speedups(axis: str, values: list[int], cell: dict) -> list[float]:
        summary = build_summary(_run(
            {"graph": ["LiveJournal"], axis: values},
            {"graph": "{graph}", "machine": "p7ih", "work_scale": "paper",
             **cell},
            _social("LiveJournal", scale=0.3),
        ))
        curves = hx.speedup_curves(summary, axis)
        assert "LiveJournal: " in hx.format_speedups(curves, axis)
        x, speedup = curves["LiveJournal"]
        assert x == values
        return speedup

    def test_thread_speedup_monotone(self):
        speedup = self._speedups("threads", [2, 8, 32], {"ranks": 1, "nodes": 1})
        assert speedup == sorted(speedup)
        assert speedup[-1] < 32  # sublinear
        assert speedup[-1] > speedup[0]  # grows with threads

    def test_node_speedup_grows(self):
        # The paper's Fig. 7b/c uses medium/large graphs; small graphs do
        # not node-scale (latency-bound), which the model reproduces.
        speedup = self._speedups(
            "nodes", [1, 4, 16], {"ranks": "{nodes}", "threads": 32}
        )
        assert speedup[-1] > speedup[0]


class TestFig8:
    @pytest.fixture(scope="class")
    def res(self):
        return hx.fig8_breakdowns(_run(
            {"nodes": [4]},
            {"graph": "UK-2005", "ranks": "{nodes}", "machine": "p7ih",
             "work_scale": "paper"},
            _social("UK-2005", scale=0.15), keep_raw=True,
        ))

    def test_refine_dominates(self, res):
        outer = res.outer_breakdown[0]
        refine_total = sum(lv.get("REFINE", 0.0) for lv in outer)
        recon_total = sum(lv.get("GRAPH_RECONSTRUCTION", 0.0) for lv in outer)
        assert refine_total > recon_total

    def test_first_level_dominates(self, res):
        outer = res.outer_breakdown[0]
        t0 = sum(outer[0].values())
        total = sum(sum(lv.values()) for lv in outer)
        assert t0 > 0.5 * total

    def test_inner_iterations_recorded(self, res):
        inner = res.inner_breakdown[0]
        assert len(inner) >= 2
        assert any("FIND_BEST" in it for it in inner)
        assert "first outer loop (4 nodes)" in hx.format_fig8(res)


class TestTable4:
    @pytest.fixture(scope="class")
    def matrix(self):
        return _run(
            {"nodes": [4, 2]},
            {"graph": "UK-2007", "ranks": "{nodes}", "machine": "p7ih",
             "work_scale": "paper"},
            _social("UK-2007", scale=0.15),
        )

    def test_row_structure(self, matrix):
        res = hx.table4_result(matrix)
        assert res.our_modularity > 0.7
        assert res.our_time_s > 0
        assert len(res.literature) == len(UK2007_LITERATURE)
        assert "This reproduction (modeled)" in hx.format_table4(res)

    def test_reports_the_largest_node_count(self, matrix):
        res = hx.table4_result(matrix)
        largest = next(c for c in matrix.cells if c.cell.params["nodes"] == 4)
        assert res.nodes == 4
        assert res.our_time_s == largest.timed[0].modeled_s
        assert res.our_modularity == largest.timed[0].modularity
        assert "4 simulated nodes" in res.note


class TestFig9:
    def test_weak_scaling_gteps_grows(self):
        # 128 vertices per node on the BG/Q model, extrapolated to the
        # paper's 2^24 edges per node.
        points = [
            {"_name": f"rmat/n{n}", "graph": f"rmat-n{n}", "machine": "bgq",
             "threads": 64, "nodes": n, "ranks": n, "work_edges": 2**24 * n}
            for n in (2, 8)
        ]
        graphs = {f"rmat-n{n}": {"family": "rmat", "scale": s, "edge_factor": 16}
                  for n, s in ((2, 8), (8, 10))}
        curves = hx.weak_curves(build_summary(
            _run({"point": points}, {"max_levels": 2}, graphs)
        ))
        nodes, rates, _mods = curves["rmat"]
        assert nodes == [2, 8]
        assert rates[-1] > rates[0]
        assert "rmat GTEPS: 2=" in hx.format_fig9a(curves)

    def test_strong_scaling_runs(self):
        workload = {"_name": "uk2005", "graph": "UK-2005", "machine": "p7ih",
                    "threads": 32, "work_scale": "paper"}
        matrix = _run(
            {"workload": [workload], "nodes": [2, 8]},
            {"ranks": "{nodes}", "max_levels": 2},
            _social("UK-2005", scale=0.15),
        )
        curves = hx.strong_curves(build_summary(matrix))
        nodes, rates = curves["uk2005"]
        assert nodes == [2, 8]
        assert all(g > 0 for g in rates)
        # One fixed workload: every point extrapolates the same edge count.
        assert len({c.timed[0].work_scale for c in matrix.cells}) == 1
        assert "uk2005 GTEPS: 2=" in hx.format_fig9bc(curves)


class TestTeps:
    def test_first_level_seconds_positive(self, small_lfr):
        res = parallel_louvain(small_lfr.graph, num_ranks=4)
        secs = first_level_seconds(res, P7IH, nodes=4)
        assert secs > 0

    def test_gteps_scale(self, small_lfr):
        res = parallel_louvain(small_lfr.graph, num_ranks=4)
        g = gteps(small_lfr.graph.num_edges, res, P7IH, nodes=4)
        assert 0 < g < 1e3
