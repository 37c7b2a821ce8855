"""Tests for the phase profiler."""

import numpy as np
import pytest

from repro.generators import generate_lfr
from repro.parallel import parallel_louvain
from repro.runtime import PhaseCounters, PhaseProfiler


class TestPhases:
    def test_default_phase_unattributed(self):
        p = PhaseProfiler(2)
        p.add_ops(0, 5)
        assert p.phases["UNATTRIBUTED"].comp_ops[0] == 5

    def test_phase_context(self):
        p = PhaseProfiler(2)
        with p.phase("A"):
            p.add_ops(1, 3)
        assert p.phases["A"].comp_ops[1] == 3

    def test_nested_phases_join_with_slash(self):
        p = PhaseProfiler(1)
        with p.phase("REFINE"):
            with p.phase("FIND_BEST"):
                p.add_ops(0, 2)
        assert "REFINE/FIND_BEST" in p.phases

    def test_phase_restored_after_exception(self):
        p = PhaseProfiler(1)
        with pytest.raises(RuntimeError):
            with p.phase("X"):
                raise RuntimeError("boom")
        assert p.current_phase == "UNATTRIBUTED"

    def test_add_ops_all(self):
        p = PhaseProfiler(3)
        with p.phase("A"):
            p.add_ops_all(np.array([1.0, 2.0, 3.0]))
        assert p.phases["A"].comp_ops.tolist() == [1.0, 2.0, 3.0]


class TestAggregation:
    def make(self):
        p = PhaseProfiler(2)
        with p.phase("REFINE"):
            with p.phase("FIND_BEST"):
                p.add_ops(0, 10)
            with p.phase("UPDATE"):
                p.add_ops(0, 5)
                p.add_send(1, records=4, nbytes=64, messages=2)
        with p.phase("RECON"):
            p.add_ops(1, 7)
        return p

    def test_aggregate_prefix(self):
        p = self.make()
        agg = p.aggregate("REFINE")
        assert agg.comp_ops[0] == 15
        assert agg.records_sent[1] == 4

    def test_aggregate_exact_name_only(self):
        p = self.make()
        assert p.aggregate("RECON").comp_ops[1] == 7
        assert p.aggregate("RECO").comp_ops.sum() == 0  # no partial-prefix match

    def test_top_level_names(self):
        p = self.make()
        assert p.top_level_phases() == ["RECON", "REFINE"]

    def test_total(self):
        p = self.make()
        t = p.total()
        assert t.comp_ops.sum() == 22
        assert t.records_sent.sum() == 4

    def test_superstep_and_collective_counters(self):
        p = PhaseProfiler(1)
        with p.phase("A"):
            p.add_superstep()
            p.add_collective()
        assert p.phases["A"].supersteps == 1
        assert p.phases["A"].collectives == 1


class TestScopes:
    def make(self):
        p = PhaseProfiler(2)
        with p.phase("INIT"):
            p.add_collective()
        p.level = 0
        with p.phase("REFINE"):
            for it in (1, 2):
                p.iteration = it
                with p.phase("FIND_BEST"):
                    p.add_ops(0, 10 * it)
                with p.phase("UPDATE"):
                    p.add_send(1, records=it, nbytes=8 * it, messages=1)
            p.iteration = 0
        with p.phase("RECON"):
            p.add_ops(1, 7)
        return p

    def test_counters_land_in_their_scope(self):
        p = self.make()
        assert set(p.scopes) == {
            (-1, 0, "INIT"),
            (0, 1, "REFINE/FIND_BEST"), (0, 1, "REFINE/UPDATE"),
            (0, 2, "REFINE/FIND_BEST"), (0, 2, "REFINE/UPDATE"),
            (0, 0, "RECON"),
        }

    def test_phases_fold_every_scope(self):
        p = self.make()
        assert p.phases["REFINE/FIND_BEST"].comp_ops.tolist() == [30.0, 0.0]
        assert p.phases["REFINE/UPDATE"].records_sent.tolist() == [0.0, 3.0]
        assert p.phases["INIT"].collectives == 1

    def test_select_level(self):
        p = self.make()
        level0 = p.select(0)
        assert sorted(level0) == ["RECON", "REFINE/FIND_BEST", "REFINE/UPDATE"]
        assert level0["REFINE/FIND_BEST"].comp_ops[0] == 30
        assert sorted(p.select(-1)) == ["INIT"]
        assert p.select(5) == {}

    def test_select_iteration(self):
        p = self.make()
        it2 = p.select(0, 2)
        assert sorted(it2) == ["REFINE/FIND_BEST", "REFINE/UPDATE"]
        assert it2["REFINE/FIND_BEST"].comp_ops[0] == 20
        assert it2["REFINE/UPDATE"].bytes_sent[1] == 16
        assert sorted(p.select(0, 0)) == ["RECON"]

    def test_select_skips_phases_with_nothing_charged(self):
        p = PhaseProfiler(1)
        with p.phase("A"):
            p.add_ops(0, 0)
        assert "A" in p.phases
        assert p.select(-1) == {}


def _assert_partitioned(profiler):
    """Every phase's run total is exactly the sum of its per-level counters."""
    levels = sorted({level for level, _, _ in profiler.scopes})
    per_level = [profiler.select(level) for level in levels]
    for name, total in profiler.phases.items():
        summed = PhaseCounters(num_ranks=profiler.num_ranks)
        for counters in per_level:
            if name in counters:
                summed.merge(counters[name])
        for field in ("comp_ops", "records_sent", "bytes_sent", "messages_sent"):
            np.testing.assert_array_equal(
                getattr(summed, field), getattr(total, field), err_msg=name
            )
        assert summed.supersteps == total.supersteps, name
        assert summed.collectives == total.collectives, name
    return levels


@pytest.mark.parametrize(
    "backend,execution",
    [("hash", "simulated"), ("vector", "simulated"), ("vector", "process")],
)
def test_levels_partition_the_run(backend, execution):
    graph = generate_lfr(
        num_vertices=300, avg_degree=8, max_degree=30, mixing=0.2, seed=7
    ).graph
    result = parallel_louvain(
        graph, num_ranks=3, backend=backend, execution=execution
    )
    profiler = result.simulation.profiler
    levels = _assert_partitioned(profiler)
    # INIT, every recorded level, and the last level the run discarded.
    assert levels == list(range(-1, len(result.levels) + 1))
    assert set(profiler.select(-1)) == {"INIT"}
    for lv in result.levels:
        outside = set(profiler.select(lv.level, 0))
        assert outside == {"STATE_PROPAGATION", "GRAPH_RECONSTRUCTION"}
        for it in lv.iterations:
            inside = profiler.select(lv.level, it.iteration)
            assert inside and all(name.startswith("REFINE/") for name in inside)
