"""Tests for the machine performance models."""

import numpy as np
import pytest

from repro.runtime import BGQ, P7IH, PhaseProfiler, model_phase_time, model_times, total_time
from repro.runtime.profiler import PhaseCounters


def make_counters(nranks=4, ops=1000.0, records=100, nbytes=1600, msgs=4, steps=2):
    c = PhaseCounters(num_ranks=nranks)
    c.comp_ops[:] = ops
    c.records_sent[:] = records
    c.bytes_sent[:] = nbytes
    c.messages_sent[:] = msgs
    c.supersteps = steps
    return c


class TestThreadModel:
    def test_speedup_monotone(self):
        s = [P7IH.thread_speedup(t) for t in (1, 2, 8, 32)]
        assert all(a < b for a, b in zip(s, s[1:]))

    def test_speedup_sublinear(self):
        assert P7IH.thread_speedup(32) < 32
        assert P7IH.thread_speedup(32) > 16  # but still substantial

    def test_one_thread_is_one(self):
        assert P7IH.thread_speedup(1) == 1.0


class TestPhaseTime:
    def test_more_threads_faster(self):
        c = make_counters()
        t1 = model_phase_time(c, P7IH, threads=1, nodes=4)
        t32 = model_phase_time(c, P7IH, threads=32, nodes=4)
        assert t32 < t1

    def test_comp_dominates_when_no_comm(self):
        c = PhaseCounters(num_ranks=2)
        c.comp_ops[:] = 1e6
        t = model_phase_time(c, P7IH, threads=1, nodes=2)
        assert t == pytest.approx(1e6 * P7IH.t_op, rel=0.05)

    def test_max_over_ranks_not_sum(self):
        balanced = PhaseCounters(num_ranks=2)
        balanced.comp_ops[:] = 500.0
        skewed = PhaseCounters(num_ranks=2)
        skewed.comp_ops[0] = 1000.0
        t_bal = model_phase_time(balanced, P7IH, threads=1, nodes=2)
        t_skew = model_phase_time(skewed, P7IH, threads=1, nodes=2)
        assert t_skew > t_bal  # imbalance hurts

    def test_single_node_has_no_network_latency(self):
        c = make_counters(nranks=1)
        t = model_phase_time(c, P7IH, threads=1, nodes=1)
        c2 = make_counters(nranks=1, msgs=1000)
        t2 = model_phase_time(c2, P7IH, threads=1, nodes=1)
        assert t == pytest.approx(t2)  # message count irrelevant on-node

    def test_sync_grows_with_nodes(self):
        assert P7IH.sync_cost(1024) > P7IH.sync_cost(4)

    def test_machines_differ(self):
        c = make_counters()
        assert model_phase_time(c, P7IH, threads=1, nodes=4) != model_phase_time(
            c, BGQ, threads=1, nodes=4
        )

    def test_bgq_slower_per_core(self):
        assert BGQ.t_op > P7IH.t_op
        assert BGQ.threads_per_node == 64


class TestProfilerIntegration:
    def make_profiler(self):
        p = PhaseProfiler(2)
        with p.phase("REFINE"):
            with p.phase("FIND_BEST"):
                p.add_ops(0, 5000)
        with p.phase("RECON"):
            p.add_ops(0, 100)
        return p

    def test_model_times_all_phases(self):
        p = self.make_profiler()
        times = model_times(p.phases, P7IH, threads=4, nodes=2)
        assert set(times) == {"REFINE/FIND_BEST", "RECON"}

    def test_model_times_top_level(self):
        p = self.make_profiler()
        times = model_times(p.phases, P7IH, threads=4, nodes=2, top_level=True)
        assert set(times) == {"REFINE", "RECON"}
        assert times["REFINE"] > times["RECON"]

    def test_total_time_is_sum(self):
        p = self.make_profiler()
        assert total_time(p.phases, P7IH, threads=4, nodes=2) == pytest.approx(
            sum(model_times(p.phases, P7IH, threads=4, nodes=2).values())
        )

    def test_with_overrides(self):
        fast = P7IH.with_overrides(t_op=1e-12)
        assert fast.t_op == 1e-12
        assert fast.name == P7IH.name
