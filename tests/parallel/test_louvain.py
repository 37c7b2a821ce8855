"""Tests for the parallel Louvain algorithm (Algorithms 2-5)."""

import gc

import numpy as np
import pytest

import repro.runtime.engine as engine
from repro.generators import generate_lfr
from repro.graph import Graph
from repro.metrics import modularity, normalized_mutual_information
from repro.parallel import (
    ExponentialSchedule,
    ParallelLouvainConfig,
    naive_parallel_louvain,
    parallel_louvain,
)
from repro.sequential import louvain as sequential_louvain
from tests.conftest import random_graph


@pytest.fixture(scope="module")
def lfr_graph():
    return generate_lfr(
        num_vertices=800, avg_degree=12, max_degree=40, mixing=0.25,
        min_community=12, max_community=100, seed=21,
    )


class TestCorrectness:
    def test_reported_q_matches_global_metric(self, lfr_graph):
        """The distributed Σ_in/Σ_tot bookkeeping must agree exactly with
        the direct modularity computation on the assembled labeling."""
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        assert modularity(lfr_graph.graph, res.membership) == pytest.approx(
            res.final_modularity, abs=1e-9
        )

    def test_per_level_q_matches_metric(self, lfr_graph):
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        for level in range(res.num_levels):
            labels = res.membership_at_level(level)
            assert modularity(lfr_graph.graph, labels) == pytest.approx(
                res.modularities[level], abs=1e-9
            )

    def test_two_cliques_exact(self, two_cliques):
        res = parallel_louvain(two_cliques, num_ranks=3)
        m = res.membership
        assert np.unique(m[:6]).size == 1
        assert np.unique(m[6:]).size == 1
        assert m[0] != m[6]

    def test_membership_composition(self, lfr_graph):
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        assert np.array_equal(
            res.membership_at_level(res.num_levels - 1), res.membership
        )

    def test_modularity_nondecreasing_over_levels(self, lfr_graph):
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        assert all(
            a <= b + 1e-9 for a, b in zip(res.modularities, res.modularities[1:])
        )

    def test_weighted_graph(self):
        src = [0, 2, 0, 1]
        dst = [1, 3, 2, 3]
        w = [10.0, 10.0, 0.1, 0.1]
        g = Graph.from_edges(src, dst, w)
        res = parallel_louvain(g, num_ranks=2)
        m = res.membership
        assert m[0] == m[1] and m[2] == m[3] and m[0] != m[2]

    def test_self_loops_handled(self):
        g = Graph.from_edges([0, 0, 1, 2], [0, 1, 2, 2], [5.0, 1.0, 1.0, 3.0])
        res = parallel_louvain(g, num_ranks=2)
        assert modularity(g, res.membership) == pytest.approx(
            res.final_modularity, abs=1e-9
        )


class TestQualityVsSequential:
    """Paper Fig. 4 / Table III claims."""

    def test_parallel_on_par_with_sequential(self, lfr_graph):
        seq = sequential_louvain(lfr_graph.graph, seed=0)
        par = parallel_louvain(lfr_graph.graph, num_ranks=8)
        assert par.final_modularity >= seq.final_modularity - 0.05

    def test_high_similarity_to_sequential(self, lfr_graph):
        seq = sequential_louvain(lfr_graph.graph, seed=0)
        par = parallel_louvain(lfr_graph.graph, num_ranks=8)
        nmi = normalized_mutual_information(seq.membership, par.membership)
        assert nmi > 0.75

    def test_recovers_planted_partition(self, lfr_graph):
        par = parallel_louvain(lfr_graph.graph, num_ranks=8)
        nmi = normalized_mutual_information(par.membership, lfr_graph.ground_truth)
        assert nmi > 0.8

    def test_heuristic_beats_naive(self, lfr_graph):
        """The central Fig. 4 claim: without the threshold the parallel
        algorithm stalls at much lower modularity."""
        par = parallel_louvain(lfr_graph.graph, num_ranks=8)
        naive = naive_parallel_louvain(
            lfr_graph.graph, num_ranks=8, max_inner=10, max_levels=4
        )
        assert par.final_modularity > naive.final_modularity + 0.05


class TestRankInvariance:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 8, 16])
    def test_quality_stable_across_rank_counts(self, lfr_graph, num_ranks):
        res = parallel_louvain(lfr_graph.graph, num_ranks=num_ranks)
        assert res.final_modularity > 0.5

    def test_single_rank_works(self, two_cliques):
        res = parallel_louvain(two_cliques, num_ranks=1)
        assert np.unique(res.membership).size == 2

    def test_more_ranks_than_vertices(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0])
        res = parallel_louvain(g, num_ranks=8)
        assert res.membership.size == 3

    def test_deterministic_given_config(self, lfr_graph):
        a = parallel_louvain(lfr_graph.graph, num_ranks=4)
        b = parallel_louvain(lfr_graph.graph, num_ranks=4)
        assert np.array_equal(a.membership, b.membership)
        assert a.modularities == b.modularities


class TestMessageOrderInvariance:
    """Failure injection: the algorithm must be exactly invariant to the
    delivery order of records within a superstep (the paper's messaging
    layer gives no ordering guarantees)."""

    def test_reordered_delivery_identical_result(self, lfr_graph):
        base = parallel_louvain(lfr_graph.graph, num_ranks=4)
        shuffled = parallel_louvain(
            lfr_graph.graph, num_ranks=4, reorder_seed=12345
        )
        assert np.array_equal(base.membership, shuffled.membership)
        assert base.modularities == shuffled.modularities

    @pytest.mark.parametrize("seed", [1, 99])
    def test_multiple_reorder_seeds(self, two_cliques, seed):
        base = parallel_louvain(two_cliques, num_ranks=3)
        shuffled = parallel_louvain(two_cliques, num_ranks=3, reorder_seed=seed)
        assert np.array_equal(base.membership, shuffled.membership)


class TestEdgeCases:
    def test_empty_graph(self):
        res = parallel_louvain(Graph.from_edges([], []), num_ranks=2)
        assert res.membership.size == 0
        assert res.num_levels == 0

    def test_no_edges(self):
        g = Graph.from_edges([], [], num_vertices=5)
        res = parallel_louvain(g, num_ranks=2)
        assert res.membership.size == 5

    def test_single_edge(self):
        g = Graph.from_edges([0], [1])
        res = parallel_louvain(g, num_ranks=2)
        assert res.membership[0] == res.membership[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParallelLouvainConfig(num_ranks=0)
        with pytest.raises(ValueError):
            ParallelLouvainConfig(max_inner=0)

    def test_config_and_kwargs_conflict(self, two_cliques):
        with pytest.raises(TypeError):
            parallel_louvain(two_cliques, ParallelLouvainConfig(), num_ranks=2)

    def test_max_levels_one(self, lfr_graph):
        res = parallel_louvain(lfr_graph.graph, num_ranks=4, max_levels=1)
        assert res.num_levels == 1


class TestDiagnostics:
    def test_iteration_stats_recorded(self, lfr_graph):
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        level0 = res.levels[0]
        assert level0.num_vertices == lfr_graph.graph.num_vertices
        its = level0.iterations
        assert len(its) >= 2
        assert its[0].epsilon >= its[-1].epsilon
        assert its[0].movers > 0
        prof = res.simulation.profiler
        assert all(prof.select(0, it.iteration) for it in its)

    def test_epsilon_follows_schedule(self, lfr_graph):
        sched = ExponentialSchedule(p1=0.05, p2=0.4)
        res = parallel_louvain(lfr_graph.graph, num_ranks=4, schedule=sched)
        for it in res.levels[0].iterations:
            assert it.epsilon == pytest.approx(sched.epsilon(it.iteration))

    def test_profiler_phases_present(self, lfr_graph):
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        tops = res.simulation.profiler.top_level_phases()
        assert "REFINE" in tops
        assert "GRAPH_RECONSTRUCTION" in tops
        assert "STATE_PROPAGATION" in tops

    def test_refine_dominates_counters(self, lfr_graph):
        """Fig. 8's qualitative claim at the counter level."""
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        prof = res.simulation.profiler
        refine_ops = prof.aggregate("REFINE").comp_ops.sum()
        recon_ops = prof.aggregate("GRAPH_RECONSTRUCTION").comp_ops.sum()
        assert refine_ops > recon_ops

    def test_level_counters_sum_to_total(self, lfr_graph):
        res = parallel_louvain(lfr_graph.graph, num_ranks=4)
        prof = res.simulation.profiler
        per_level = sum(
            c.comp_ops.sum()
            for lv in res.levels
            for c in prof.select(lv.level).values()
        )
        total = res.simulation.profiler.total().comp_ops.sum()
        # All but the final (non-improving, unrecorded) refine pass.
        assert per_level <= total
        assert per_level > 0.4 * total


class TestMemory:
    @pytest.mark.parametrize(
        "backend, cpus", [("hash", 1), ("vector", 1), ("vector", 2)]
    )
    def test_run_leaves_no_cyclic_garbage(
        self, lfr_graph, monkeypatch, backend, cpus
    ):
        """A level's rank states are freed by reference counting as soon as
        the run drops them.  A reference cycle would leave them, and every
        array they hold, to the cyclic GC, and in a long-lived server they
        pile up between collections."""
        monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(engine, "MIN_THREADED_WORK", 0)
        gc.collect()
        gc.disable()
        try:
            result = parallel_louvain(
                lfr_graph.graph, num_ranks=4, backend=backend
            )
            assert result.num_levels >= 2
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()
