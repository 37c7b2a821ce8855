"""The rank executor: simulated ranks computing concurrently, bitwise-exact.

``Simulation.map_ranks`` runs one superstep's per-rank closures on
``min(ranks, usable CPUs)`` threads.  The CPU count and the small-superstep
cutoff are monkeypatched here so 1-CPU hosts and small graphs exercise the
threaded path too.  The contract pinned below:
the thread count changes nothing observable (membership, modularities,
per-level and per-iteration counters, trace fingerprint), a failure names
the lowest failing rank after every closure finished, and a run leaves no
executor thread behind -- not even for a later process-mode fork.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.parallel.vectorized as vectorized
import repro.runtime.engine as engine
from repro.analysis import InvariantViolation
from repro.generators import generate_lfr
from repro.graph import Graph
from repro.observability import ListSink, Tracer
from repro.observability.golden import (
    Tolerances,
    compare_fingerprints,
    fingerprint_events,
)
from repro.parallel import ParallelLouvainConfig, parallel_louvain
from repro.runtime import Simulation

EXACT = Tolerances(
    **{f.name: 0 for f in Tolerances.__dataclass_fields__.values()}
)


@pytest.fixture(scope="module")
def lfr():
    return generate_lfr(
        num_vertices=1500, avg_degree=10, max_degree=40, mixing=0.25, seed=3
    ).graph


def _force_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(engine, "MIN_THREADED_WORK", 0)


def _traced_run(graph, **kwargs):
    sink = ListSink()
    tracer = Tracer(sink=sink, buffer=False)
    cfg = ParallelLouvainConfig(backend="vector", **kwargs)
    result = parallel_louvain(graph, cfg, tracer=tracer, sanitize=True)
    tracer.close()
    return result, fingerprint_events(sink.events)


def _assert_counters_equal(a, b, where):
    assert sorted(a) == sorted(b), where
    for name in a:
        for field in ("comp_ops", "records_sent", "bytes_sent", "messages_sent"):
            np.testing.assert_array_equal(
                getattr(a[name], field), getattr(b[name], field),
                err_msg=f"{where}:{name}:{field}",
            )
        assert a[name].supersteps == b[name].supersteps, f"{where}:{name}"
        assert a[name].collectives == b[name].collectives, f"{where}:{name}"


class TestMapRanks:
    def test_results_come_back_in_rank_order(self, monkeypatch):
        _force_cpus(monkeypatch, 4)
        sim = Simulation.create(4)
        try:
            delays = [0.03, 0.0, 0.02, 0.01]
            out = sim.map_ranks(
                lambda r: (time.sleep(delays[r]), r * r)[1], range(4)
            )
        finally:
            sim.close()
        assert out == [0, 1, 4, 9]

    def test_one_cpu_runs_inline(self, monkeypatch):
        _force_cpus(monkeypatch, 1)
        sim = Simulation.create(4)
        names = sim.map_ranks(
            lambda _: threading.current_thread().name, range(4)
        )
        assert names == [threading.current_thread().name] * 4
        assert sim._pool is None

    def test_one_item_runs_inline(self, monkeypatch):
        _force_cpus(monkeypatch, 4)
        sim = Simulation.create(4)
        assert sim.map_ranks(lambda _: threading.get_ident(), [0]) == [
            threading.get_ident()
        ]
        assert sim._pool is None

    def test_small_supersteps_run_inline(self, monkeypatch):
        monkeypatch.setattr(engine, "usable_cpus", lambda: 4)
        sim = Simulation.create(4)
        me = threading.current_thread().name
        try:
            small = sim.map_ranks(
                lambda _: threading.current_thread().name, range(4),
                work=engine.MIN_THREADED_WORK - 1,
            )
            assert small == [me] * 4 and sim._pool is None
            big = sim.map_ranks(
                lambda _: threading.current_thread().name, range(4),
                work=engine.MIN_THREADED_WORK,
            )
            assert all(name.startswith("repro-rank") for name in big)
        finally:
            sim.close()

    def test_lowest_rank_error_wins_after_all_finish(self, monkeypatch):
        _force_cpus(monkeypatch, 4)
        sim = Simulation.create(4)
        finished = []

        def work(rank):
            if rank == 1:
                time.sleep(0.05)  # fails last in time, but is the lowest
                raise ValueError("rank 1")
            if rank == 3:
                raise ValueError("rank 3")
            time.sleep(0.1)
            finished.append(rank)
            return rank

        try:
            with pytest.raises(ValueError, match="rank 1"):
                sim.map_ranks(work, range(4))
        finally:
            sim.close()
        assert sorted(finished) == [0, 2]

    def test_close_is_idempotent_and_joins(self, monkeypatch):
        _force_cpus(monkeypatch, 2)
        before = threading.active_count()
        sim = Simulation.create(2)
        sim.map_ranks(lambda r: r, range(2))
        assert threading.active_count() > before
        sim.close()
        sim.close()
        assert threading.active_count() == before


class TestThreadCountInvariance:
    @pytest.mark.parametrize("extra", [{}, {"reorder_seed": 5}])
    def test_runs_identical_across_worker_counts(self, lfr, monkeypatch, extra):
        runs = {}
        for cpus in (1, 2, 4):
            _force_cpus(monkeypatch, cpus)
            runs[cpus] = _traced_run(lfr, num_ranks=4, **extra)
        base, base_fp = runs[1]
        assert base.num_levels >= 2  # reconstruction ran on the executor
        for cpus in (2, 4):
            res, fp = runs[cpus]
            np.testing.assert_array_equal(res.membership, base.membership)
            assert res.modularities == base.modularities  # bitwise
            assert len(res.levels) == len(base.levels)
            pa, pb = res.simulation.profiler, base.simulation.profiler
            for i, (la, lb) in enumerate(zip(res.levels, base.levels)):
                _assert_counters_equal(
                    pa.select(i), pb.select(i), f"{cpus}:level{i}"
                )
                assert len(la.iterations) == len(lb.iterations)
                for ia, ib in zip(la.iterations, lb.iterations):
                    j = ia.iteration
                    assert ia.movers == ib.movers
                    _assert_counters_equal(
                        pa.select(i, j), pb.select(i, j),
                        f"{cpus}:level{i}/it{j}",
                    )
            drifts = compare_fingerprints(base_fp, fp, EXACT)
            assert not drifts, "\n".join(str(d) for d in drifts)

    def test_stress_more_workers_than_cores(self, lfr, monkeypatch):
        # Eight ranks on eight threads with a tiny switch interval: a lost
        # update on anything the closures shared would change the run.
        _force_cpus(monkeypatch, 1)
        reference = parallel_louvain(
            lfr, ParallelLouvainConfig(backend="vector", num_ranks=8)
        )
        _force_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = parallel_louvain(
                lfr, ParallelLouvainConfig(backend="vector", num_ranks=8)
            )
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(stressed.membership, reference.membership)
        assert stressed.modularities == reference.modularities

    def test_kernels_really_run_on_executor_threads(self, lfr, monkeypatch):
        _force_cpus(monkeypatch, 2)
        names = set()
        real = vectorized._VectorRankState.find_best

        def spy(st, *args):
            names.add(threading.current_thread().name)
            return real(st, *args)

        monkeypatch.setattr(vectorized._VectorRankState, "find_best", spy)
        parallel_louvain(lfr, ParallelLouvainConfig(backend="vector", num_ranks=4))
        assert names and all(n.startswith("repro-rank") for n in names)


class TestFailures:
    def test_nonfinite_weight_names_its_rank(self, monkeypatch):
        _force_cpus(monkeypatch, 4)
        # A NaN self-loop on vertex 6 lands in rank 6 % 4 = 2's in-edges only.
        src = np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.int64)
        dst = np.array([1, 2, 3, 4, 5, 6, 6], dtype=np.int64)
        w = np.array([1, 1, 1, 1, 1, 1, np.nan])
        graph = Graph.from_edges(src, dst, w, num_vertices=8)
        before = threading.active_count()
        with pytest.raises(InvariantViolation) as info:
            parallel_louvain(
                graph, ParallelLouvainConfig(backend="vector", num_ranks=4),
                sanitize=True,
            )
        assert info.value.rank == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("k", [0, 2])
    def test_seeded_violation_surfaces_lowest_rank(self, lfr, monkeypatch, k):
        _force_cpus(monkeypatch, 4)
        real = vectorized._VectorRankState.find_best

        def seeded(st, *args):
            if st.rank == k:
                time.sleep(0.05)  # the higher rank fails first in time
                raise InvariantViolation("seeded", "injected", rank=k)
            if st.rank == k + 1:
                raise InvariantViolation("seeded", "injected", rank=k + 1)
            return real(st, *args)

        monkeypatch.setattr(vectorized._VectorRankState, "find_best", seeded)
        before = threading.active_count()
        with pytest.raises(InvariantViolation) as info:
            parallel_louvain(
                lfr, ParallelLouvainConfig(backend="vector", num_ranks=4)
            )
        assert info.value.rank == k
        assert f"rank={k}" in str(info.value)
        assert threading.active_count() == before


class TestPoolLifetime:
    def test_no_thread_outlives_the_run(self, lfr, monkeypatch):
        _force_cpus(monkeypatch, 4)
        before = threading.active_count()
        result = parallel_louvain(
            lfr, ParallelLouvainConfig(backend="vector", num_ranks=4)
        )
        assert threading.active_count() == before
        assert result.simulation._pool is None

    def test_simulated_then_process_run(self, lfr, monkeypatch):
        _force_cpus(monkeypatch, 2)
        sim = parallel_louvain(
            lfr, ParallelLouvainConfig(backend="vector", num_ranks=2)
        )
        proc = parallel_louvain(
            lfr,
            ParallelLouvainConfig(
                backend="vector", num_ranks=2, execution="process"
            ),
        )
        np.testing.assert_array_equal(sim.membership, proc.membership)
        assert sim.modularities == proc.modularities
