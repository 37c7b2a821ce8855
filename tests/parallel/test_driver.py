"""Tests for the high-level detect_communities API."""

import numpy as np
import pytest

from repro import P7IH, detect_communities
from repro.generators import generate_rmat
from repro.parallel import ConstantSchedule


class TestDetectCommunities:
    def test_parallel_default(self, small_lfr):
        s = detect_communities(small_lfr.graph, num_ranks=4)
        assert s.algorithm == "parallel"
        assert s.membership.size == small_lfr.graph.num_vertices
        assert s.modularity > 0.5
        assert s.num_communities == np.unique(s.membership).size
        assert len(s.level_modularities) == s.num_levels

    def test_sequential(self, small_lfr):
        s = detect_communities(small_lfr.graph, algorithm="sequential")
        assert s.algorithm == "sequential"
        assert s.modularity > 0.5

    def test_naive(self, small_lfr):
        s = detect_communities(
            small_lfr.graph, algorithm="naive", num_ranks=4, max_inner=8
        )
        assert s.algorithm == "naive"
        par = detect_communities(small_lfr.graph, num_ranks=4)
        assert s.modularity < par.modularity

    def test_machine_model_attached(self, small_lfr):
        s = detect_communities(small_lfr.graph, num_ranks=4, machine=P7IH)
        assert s.modeled_total_seconds is not None
        assert s.modeled_total_seconds > 0
        assert "REFINE" in s.modeled_phase_seconds

    def test_modeled_phase_seconds_sum_to_total(self):
        graph = generate_rmat(scale=12, edge_factor=8, seed=1)
        s = detect_communities(graph, num_ranks=8, machine=P7IH)
        assert sum(s.modeled_phase_seconds.values()) == pytest.approx(
            s.modeled_total_seconds, rel=1e-12
        )

    def test_no_machine_no_times(self, small_lfr):
        s = detect_communities(small_lfr.graph, num_ranks=2)
        assert s.modeled_total_seconds is None
        assert s.modeled_phase_seconds == {}

    def test_custom_schedule(self, small_lfr):
        s = detect_communities(
            small_lfr.graph, num_ranks=4, schedule=ConstantSchedule(0.3)
        )
        assert s.modularity > 0.3

    def test_config_overrides_forwarded(self, small_lfr):
        s = detect_communities(small_lfr.graph, num_ranks=2, max_levels=1)
        assert s.num_levels == 1

    def test_community_sizes_property(self, small_lfr):
        s = detect_communities(small_lfr.graph, num_ranks=2)
        sizes = s.community_sizes
        assert sizes.sum() == small_lfr.graph.num_vertices
        assert sizes.size == s.num_communities

    def test_unknown_algorithm_raises(self, small_lfr):
        with pytest.raises(ValueError):
            detect_communities(small_lfr.graph, algorithm="quantum")

    def test_sequential_rejects_parallel_options(self, small_lfr):
        with pytest.raises(TypeError):
            detect_communities(
                small_lfr.graph, algorithm="sequential", max_inner=3
            )

    @pytest.mark.parametrize(
        "option,value",
        [("schedule", ConstantSchedule(0.3)), ("machine", P7IH), ("threads", 3)],
    )
    def test_sequential_refuses_options_it_would_ignore(
        self, small_lfr, option, value
    ):
        with pytest.raises(TypeError, match=option):
            detect_communities(
                small_lfr.graph, algorithm="sequential", **{option: value}
            )

    def test_sequential_accepts_num_ranks(self, small_lfr):
        s = detect_communities(small_lfr.graph, algorithm="sequential", num_ranks=64)
        assert s.algorithm == "sequential"
