"""End-to-end integration tests across all subsystems."""

import io

import numpy as np
import pytest

from repro import P7IH, detect_communities, modularity
from repro.generators import generate_bter, generate_lfr, generate_rmat, load_social_graph
from repro.graph import Graph, read_edge_list, write_edge_list
from repro.harness import first_level_seconds
from repro.metrics import compare_partitions, evolution_ratio
from repro.parallel import naive_parallel_louvain, parallel_louvain
from repro.sequential import louvain as sequential_louvain


class TestFullPipeline:
    """Generate -> persist -> reload -> detect -> evaluate, all subsystems."""

    def test_generate_save_load_detect(self, tmp_path):
        inst = generate_lfr(
            num_vertices=500, avg_degree=10, max_degree=40, mixing=0.2,
            min_community=10, max_community=60, seed=9,
        )
        buf = io.StringIO()
        write_edge_list(inst.graph, buf)
        buf.seek(0)
        g = read_edge_list(buf)
        assert g.num_edges == inst.graph.num_edges

        summary = detect_communities(g, num_ranks=4, machine=P7IH)
        assert summary.modularity > 0.5
        rep = compare_partitions(summary.membership, inst.ground_truth)
        assert rep.nmi > 0.7
        assert summary.modeled_total_seconds > 0

    def test_three_algorithms_agree_on_structure(self):
        inst = generate_lfr(
            num_vertices=600, avg_degree=12, max_degree=40, mixing=0.15,
            min_community=15, max_community=80, seed=4,
        )
        seq = detect_communities(inst.graph, algorithm="sequential")
        par = detect_communities(inst.graph, algorithm="parallel", num_ranks=6)
        assert abs(seq.modularity - par.modularity) < 0.06
        rep = compare_partitions(seq.membership, par.membership)
        assert rep.nmi > 0.75


class TestPaperNarrative:
    """The paper's headline claims, end to end on one medium proxy."""

    @pytest.fixture(scope="class")
    def runs(self):
        g = load_social_graph("Amazon", seed=0, scale=0.5).graph
        return {
            "graph": g,
            "seq": sequential_louvain(g, seed=0),
            "par": parallel_louvain(g, num_ranks=8),
            "naive": naive_parallel_louvain(g, num_ranks=8, max_inner=10, max_levels=4),
        }

    def test_parallel_on_par_with_sequential(self, runs):
        assert runs["par"].final_modularity >= runs["seq"].final_modularity - 0.05

    def test_naive_parallel_is_worse(self, runs):
        assert runs["naive"].final_modularity < runs["par"].final_modularity

    def test_most_vertices_merge_in_first_level(self, runs):
        par = runs["par"]
        n0 = runs["graph"].num_vertices
        level1 = np.unique(par.membership_at_level(0)).size
        assert evolution_ratio(level1, n0) < 0.5  # >50% merged immediately

    def test_hierarchical_levels_found(self, runs):
        assert runs["par"].num_levels >= 2
        assert runs["seq"].num_levels >= 2

    def test_first_level_dominates_modeled_time(self, runs):
        par = runs["par"]
        t0 = first_level_seconds(par, P7IH, nodes=8)
        # compare against all levels' counters
        from repro.runtime import total_time

        t_all = total_time(par.simulation.profiler.phases, P7IH, nodes=8)
        # The paper reports >90% on UK-2007; at proxy scale later levels are
        # relatively more expensive (sync-bound), so the bar is lower here.
        assert t0 > 0.45 * t_all

    def test_distributed_q_equals_metric_q(self, runs):
        assert modularity(runs["graph"], runs["par"].membership) == pytest.approx(
            runs["par"].final_modularity, abs=1e-9
        )


class TestCrossGeneratorDetection:
    @pytest.mark.parametrize("maker", ["lfr", "bter", "rmat"])
    def test_detection_runs_on_all_generators(self, maker):
        if maker == "lfr":
            g = generate_lfr(num_vertices=400, avg_degree=10, max_degree=30, seed=1).graph
        elif maker == "bter":
            g = generate_bter(num_vertices=400, avg_degree=10, rho=0.5, seed=1).graph
        else:
            g = generate_rmat(scale=9, edge_factor=8, seed=1)
        s = detect_communities(g, num_ranks=4)
        assert s.membership.size == g.num_vertices
        assert modularity(g, s.membership) == pytest.approx(s.modularity, abs=1e-9)

    def test_rmat_low_modularity_vs_bter(self):
        """Paper §V-A: R-MAT has no marked community structure; BTER does."""
        rmat = generate_rmat(scale=10, edge_factor=8, seed=2)
        bter = generate_bter(num_vertices=1024, avg_degree=16, rho=0.8, seed=2).graph
        q_rmat = detect_communities(rmat, num_ranks=4).modularity
        q_bter = detect_communities(bter, num_ranks=4).modularity
        assert q_bter > q_rmat


class TestHierarchyConsistency:
    def test_levels_nest(self, small_lfr):
        """Every level's communities must refine the next level's."""
        res = parallel_louvain(small_lfr.graph, num_ranks=4)
        for lvl in range(res.num_levels - 1):
            fine = res.membership_at_level(lvl)
            coarse = res.membership_at_level(lvl + 1)
            # two vertices together at the fine level stay together coarser
            order = np.argsort(fine)
            f, c = fine[order], coarse[order]
            same_fine = f[1:] == f[:-1]
            assert np.all(c[1:][same_fine] == c[:-1][same_fine])

    def test_modularity_improves_with_depth(self, small_lfr):
        res = parallel_louvain(small_lfr.graph, num_ranks=4)
        qs = [
            modularity(small_lfr.graph, res.membership_at_level(i))
            for i in range(res.num_levels)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(qs, qs[1:]))
