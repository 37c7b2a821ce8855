"""Tests for the naive parallel baseline -- the paper's §III failure mode."""

import numpy as np
import pytest

from repro.generators import generate_lfr
from repro.metrics import modularity
from repro.parallel import (
    ParallelLouvainConfig,
    detect_communities,
    naive_parallel_louvain,
    parallel_louvain,
)


@pytest.fixture(scope="module")
def strong_graph():
    return generate_lfr(
        num_vertices=800, avg_degree=12, max_degree=40, mixing=0.15,
        min_community=15, max_community=100, seed=13,
    ).graph


class TestNaiveBehavior:
    def test_schedule_forced_to_none(self, strong_graph):
        res = naive_parallel_louvain(strong_graph, num_ranks=4, max_inner=5)
        assert res.config.schedule is None

    def test_config_object_also_overridden(self, strong_graph):
        cfg = ParallelLouvainConfig(num_ranks=4, max_inner=5)
        res = naive_parallel_louvain(strong_graph, cfg)
        assert res.config.schedule is None

    def test_every_iteration_moves_all_candidates(self, strong_graph):
        """Without the threshold, movers == candidates each iteration."""
        res = naive_parallel_louvain(strong_graph, num_ranks=4, max_inner=6)
        for it in res.levels[0].iterations:
            assert it.movers == it.candidates
            assert it.dq_threshold == 0.0
            assert it.epsilon == 1.0

    def test_chaotic_first_iterations(self, strong_graph):
        """The paper's 'chaotic motion': early naive iterations keep nearly
        every vertex moving, unlike the throttled version."""
        naive = naive_parallel_louvain(strong_graph, num_ranks=4, max_inner=6)
        throttled = parallel_louvain(strong_graph, num_ranks=4)
        n = strong_graph.num_vertices
        naive_m2 = naive.levels[0].iterations[1].movers
        throttled_m2 = throttled.levels[0].iterations[1].movers
        assert naive_m2 > 0.5 * n
        assert throttled_m2 < naive_m2

    def test_lower_final_modularity(self, strong_graph):
        naive = naive_parallel_louvain(
            strong_graph, num_ranks=4, max_inner=8, max_levels=4
        )
        throttled = parallel_louvain(strong_graph, num_ranks=4)
        assert naive.final_modularity < throttled.final_modularity

    def test_reported_q_still_exact(self, strong_graph):
        """Even while oscillating, the distributed bookkeeping stays exact."""
        naive = naive_parallel_louvain(strong_graph, num_ranks=4, max_inner=5)
        assert modularity(strong_graph, naive.membership) == pytest.approx(
            naive.final_modularity, abs=1e-9
        )

    def test_same_iteration_cap_as_detect_communities(self, two_cliques):
        direct = naive_parallel_louvain(two_cliques, num_ranks=4)
        driven = detect_communities(two_cliques, algorithm="naive", num_ranks=4)
        assert direct.config.max_inner == driven.raw.config.max_inner

    def test_kwargs_and_config_conflict(self, strong_graph):
        with pytest.raises(TypeError):
            naive_parallel_louvain(
                strong_graph, ParallelLouvainConfig(), num_ranks=2
            )
