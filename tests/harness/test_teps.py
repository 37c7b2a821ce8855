"""Unit tests for the TEPS accounting helpers."""

import pytest

from repro.generators import generate_lfr
from repro.harness import first_level_seconds, gteps, teps
from repro.parallel import parallel_louvain
from repro.runtime import BGQ, P7IH


@pytest.fixture(scope="module")
def run():
    g = generate_lfr(
        num_vertices=600, avg_degree=12, max_degree=40, mixing=0.2, seed=2
    ).graph
    return g, parallel_louvain(g, num_ranks=4)


class TestFirstLevelSeconds:
    def test_positive_and_below_total(self, run):
        from repro.runtime import total_time

        g, res = run
        t0 = first_level_seconds(res, P7IH, nodes=4)
        total = total_time(res.simulation.profiler.phases, P7IH, nodes=4)
        assert 0 < t0 <= total + 1e-12

    def test_machines_differ(self, run):
        _, res = run
        assert first_level_seconds(res, P7IH, nodes=4) != first_level_seconds(
            res, BGQ, nodes=4
        )

    def test_work_scale_increases_time(self, run):
        _, res = run
        assert first_level_seconds(res, P7IH, nodes=4, work_scale=100.0) > (
            first_level_seconds(res, P7IH, nodes=4)
        )

    def test_no_levels_raises(self):
        from repro.graph import Graph

        res = parallel_louvain(Graph.from_edges([], []), num_ranks=2)
        with pytest.raises(ValueError):
            first_level_seconds(res, P7IH, nodes=2)


class TestTeps:
    def test_teps_is_edges_over_seconds(self, run):
        g, res = run
        secs = first_level_seconds(res, P7IH, nodes=4)
        assert teps(g.num_edges, res, P7IH, nodes=4) == pytest.approx(
            g.num_edges / secs
        )

    def test_gteps_is_scaled(self, run):
        g, res = run
        assert gteps(g.num_edges, res, P7IH, nodes=4) == pytest.approx(
            teps(g.num_edges, res, P7IH, nodes=4) / 1e9
        )

    def test_more_threads_more_teps(self, run):
        g, res = run
        slow = teps(g.num_edges, res, P7IH, threads=1, nodes=4)
        fast = teps(g.num_edges, res, P7IH, threads=32, nodes=4)
        assert fast > slow

    def test_consistent_scaling_of_edges_and_work(self, run):
        """TEPS at scale w with w-scaled edges >= unscaled TEPS (fixed
        per-superstep overheads amortize over more work)."""
        g, res = run
        base = teps(g.num_edges, res, P7IH, nodes=4)
        scaled = teps(g.num_edges * 100, res, P7IH, nodes=4, work_scale=100.0)
        assert scaled >= base * 0.99
