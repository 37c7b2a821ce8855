"""Tests for ``execution="process"``: true SPMD workers over shared memory.

The process runtime's correctness claim mirrors the vector backend's:
*trajectory equivalence* with the simulated bus, bitwise, for any input --
identical membership, modularity, per-phase counters, and observability
fingerprints at zero tolerance.  On top of that it owns real OS resources,
so the tests also pin the hygiene properties: a crashed worker surfaces a
descriptive error instead of hanging the barrier, shared-memory segments
are unlinked on success *and* failure, and rank payloads are never pickled.
"""

import mmap
import pickle
import sys
import time
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import generate_lfr
from repro.graph import Graph
from repro.observability import EventKind, ListSink, Tracer
from repro.observability.golden import (
    GOLDEN_BENCHMARKS,
    Tolerances,
    compare_fingerprints,
    fingerprint_events,
)
from repro.parallel import (
    ParallelLouvainConfig,
    detect_communities,
    parallel_louvain,
)
from repro.runtime import SharedMemoryBus, leaked_segments, publish_arrays
from repro.runtime.process import ProcessExecutionError
from repro.runtime.shm import ManifestReader, ShmBlock

EXACT = Tolerances(
    movers_rel=0.0,
    candidates_rel=0.0,
    epsilon_abs=0.0,
    dq_rel=0.0,
    modularity_abs=0.0,
    records_rel=0.0,
)


@pytest.fixture(scope="module")
def lfr300():
    return generate_lfr(
        num_vertices=300, avg_degree=8, max_degree=30, mixing=0.2, seed=7
    ).graph


def _run(graph, execution, **kwargs):
    cfg = ParallelLouvainConfig(
        backend="vector", execution=execution, **kwargs
    )
    return parallel_louvain(graph, cfg)


def _assert_counters_equal(a, b, where=""):
    assert sorted(a) == sorted(b), where
    for name in a:
        pa, pb = a[name], b[name]
        np.testing.assert_array_equal(pa.comp_ops, pb.comp_ops, err_msg=f"{where}:{name}")
        np.testing.assert_array_equal(pa.records_sent, pb.records_sent, err_msg=f"{where}:{name}")
        np.testing.assert_array_equal(pa.bytes_sent, pb.bytes_sent, err_msg=f"{where}:{name}")
        np.testing.assert_array_equal(pa.messages_sent, pb.messages_sent, err_msg=f"{where}:{name}")
        assert pa.supersteps == pb.supersteps, f"{where}:{name}"
        assert pa.collectives == pb.collectives, f"{where}:{name}"


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("num_ranks", [1, 2, 4])
    def test_bitwise_identical_run(self, lfr300, num_ranks):
        sim = _run(lfr300, "simulated", num_ranks=num_ranks)
        proc = _run(lfr300, "process", num_ranks=num_ranks)
        np.testing.assert_array_equal(sim.membership, proc.membership)
        assert sim.modularities == proc.modularities  # bitwise, not approx
        assert len(sim.levels) == len(proc.levels)
        ps, pp = sim.simulation.profiler, proc.simulation.profiler
        for i, (ls, lp) in enumerate(zip(sim.levels, proc.levels)):
            assert ls.num_vertices == lp.num_vertices
            assert len(ls.iterations) == len(lp.iterations)
            _assert_counters_equal(ps.select(i), pp.select(i), f"level{i}")
            for its, itp in zip(ls.iterations, lp.iterations):
                j = its.iteration
                assert itp.iteration == j
                _assert_counters_equal(
                    ps.select(i, j), pp.select(i, j), f"level{i}/it{j}"
                )
        _assert_counters_equal(
            sim.simulation.profiler.phases,
            proc.simulation.profiler.phases,
            "run",
        )
        assert proc.shm_bytes_moved > 0  # the alltoallv really moved bytes

    def test_fingerprint_identical_at_zero_tolerance(self, lfr300):
        fps = {}
        for execution in ("simulated", "process"):
            sink = ListSink()
            tracer = Tracer(sink=sink, buffer=False)
            cfg = ParallelLouvainConfig(
                num_ranks=3, backend="vector", execution=execution
            )
            parallel_louvain(lfr300, cfg, tracer=tracer, sanitize=True)
            tracer.close()
            fps[execution] = fingerprint_events(sink.events)
        drifts = compare_fingerprints(fps["simulated"], fps["process"], EXACT)
        assert not drifts, "\n".join(str(d) for d in drifts)

    def test_warm_start_and_reorder_seed(self, lfr300):
        init = np.arange(lfr300.num_vertices) % 10
        sim = parallel_louvain(
            lfr300,
            ParallelLouvainConfig(
                num_ranks=2, backend="vector", reorder_seed=3
            ),
            initial_membership=init,
        )
        proc = parallel_louvain(
            lfr300,
            ParallelLouvainConfig(
                num_ranks=2, backend="vector", execution="process",
                reorder_seed=3,
            ),
            initial_membership=init,
        )
        np.testing.assert_array_equal(sim.membership, proc.membership)
        assert sim.modularities == proc.modularities

    def test_driver_defaults_backend_to_vector(self, lfr300):
        summary = detect_communities(
            lfr300, num_ranks=2, execution="process"
        )
        reference = detect_communities(
            lfr300, num_ranks=2, backend="vector"
        )
        np.testing.assert_array_equal(
            summary.membership, reference.membership
        )
        assert summary.modularity == reference.modularity

    def test_naive_matches_simulated_vector(self):
        """The naive variant runs in forked workers too (the lfr-naive
        golden's graph, 4 ranks)."""
        graph = GOLDEN_BENCHMARKS["lfr-naive"].build_graph()
        sim = detect_communities(
            graph, algorithm="naive", num_ranks=4, backend="vector"
        )
        proc = detect_communities(
            graph, algorithm="naive", num_ranks=4, execution="process"
        )
        np.testing.assert_array_equal(sim.membership, proc.membership)
        assert sim.level_modularities == proc.level_modularities
        _assert_counters_equal(
            sim.raw.simulation.profiler.scopes,
            proc.raw.simulation.profiler.scopes,
            "scopes",
        )
        assert proc.raw.shm_bytes_moved > 0

    def test_incremental_defaults_backend_to_vector(self, lfr300):
        from repro.parallel import EdgeBatch, incremental_louvain

        base = detect_communities(lfr300, num_ranks=2, backend="vector")
        batch = EdgeBatch(
            add_src=np.array([0, 5]),
            add_dst=np.array([17, 250]),
            add_weight=np.array([1.0, 2.0]),
        )
        runs = [
            incremental_louvain(
                lfr300, batch, base.membership, num_ranks=2, **kwargs
            )[1]
            for kwargs in ({"execution": "process"}, {"backend": "vector"})
        ]
        assert runs[0].config.backend == "vector"
        np.testing.assert_array_equal(runs[0].membership, runs[1].membership)
        assert runs[0].modularities == runs[1].modularities


class TestWorkerReports:
    """What the workers report besides the result reaches the caller."""

    def test_sanitizer_counts_every_workers_checks(self):
        graph = generate_lfr(
            num_vertices=300, avg_degree=10, max_degree=30, mixing=0.2,
            min_community=10, max_community=60, seed=1,
        ).graph

        def checks(execution, num_ranks):
            cfg = ParallelLouvainConfig(
                num_ranks=num_ranks, backend="vector", execution=execution
            )
            result = parallel_louvain(graph, cfg, sanitize=True)
            return result.simulation.sanitizer.checks_run

        one_rank = checks("simulated", 1)
        assert one_rank > 0
        assert checks("process", 1) == one_rank
        # Each of two workers runs the run-wide checks and its own rank's,
        # which is what a one-rank run runs.
        assert checks("process", 2) == 2 * one_rank

    def test_trace_events_keep_their_emission_time(self, lfr300):
        sink = ListSink()
        tracer = Tracer(sink=sink, buffer=False)
        cfg = ParallelLouvainConfig(
            num_ranks=2, backend="vector", execution="process"
        )
        parallel_louvain(lfr300, cfg, tracer=tracer)
        tracer.close()
        events = sink.events
        assert [ev.seq for ev in events] == list(range(len(events)))
        assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))
        begins = []
        for ev in events:
            if ev.kind == EventKind.SPAN_BEGIN:
                begins.append(ev)
            elif ev.kind == EventKind.SPAN_END:
                begin = begins.pop()
                assert begin.name == ev.name
                # One clock read per span edge, so the gap is the span's
                # duration up to the rounding of the replay's clock offset;
                # events stamped at replay missed by up to the parent's
                # 50 ms poll.
                gap = ev.ts - begin.ts
                assert abs(gap - ev.data["duration"]) < 1e-9, ev.name
        assert not begins


@st.composite
def graphs(draw, max_vertices=20, max_edges=50):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    k = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    w = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=9.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    return Graph.from_edges(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(w),
        num_vertices=n,
    )


@given(graphs(), st.integers(1, 3))
@settings(max_examples=8, deadline=None)
def test_differential_sweep_simulated_vs_process(graph, num_ranks):
    # Degenerate shapes included: empty graphs, self-loops, multi-edges,
    # disconnected vertices.  Forking per example keeps this deliberately
    # small; the seeded LFR tests above carry the heavy comparisons.
    sim = _run(graph, "simulated", num_ranks=num_ranks)
    proc = _run(graph, "process", num_ranks=num_ranks)
    np.testing.assert_array_equal(sim.membership, proc.membership)
    assert sim.modularities == proc.modularities
    assert sim.num_levels == proc.num_levels


class TestGoldens:
    def test_all_goldens_exact_under_process(self):
        # The acceptance gate: every checked-in golden trace reproduces
        # bitwise (all tolerances zero) when the parallel-family benchmarks
        # run as true SPMD worker processes.
        from pathlib import Path

        from repro.observability.golden import compare_golden, golden_path

        goldens = str(Path(__file__).parents[2] / "benchmarks" / "goldens")
        zero = Tolerances(
            **{f.name: 0 for f in Tolerances.__dataclass_fields__.values()}
        )
        for name, spec in GOLDEN_BENCHMARKS.items():
            path = golden_path(spec, goldens)
            drifts = compare_golden(spec, path, zero, execution="process")
            assert not drifts, f"{name}: " + "\n".join(str(d) for d in drifts)


class TestFailureHandling:
    def test_worker_exception_surfaces(self, lfr300, monkeypatch):
        # The failing rank aborts the bus before it reports.  Holding its
        # report back (the traceback formatting, inherited through fork)
        # makes the bystanders' broken-barrier reports always arrive
        # first; the parent must still blame rank 1, not the first report.
        real_format_exc = traceback.format_exc

        def late_format_exc(*args, **kwargs):
            if "injected fault" in str(sys.exc_info()[1]):
                time.sleep(1.0)
            return real_format_exc(*args, **kwargs)

        monkeypatch.setattr(traceback, "format_exc", late_format_exc)
        monkeypatch.setenv("REPRO_PROCESS_FAULT", "1:raise")
        with pytest.raises(ProcessExecutionError, match="rank 1 died") as info:
            _run(lfr300, "process", num_ranks=3)
        assert "injected fault in worker rank 1" in str(info.value)
        assert leaked_segments() == []

    def test_worker_hard_exit_surfaces(self, lfr300, monkeypatch):
        # os._exit(3) before the first superstep: no traceback crosses the
        # queue, the exit code does -- and nobody hangs on the barrier.
        monkeypatch.setenv("REPRO_PROCESS_FAULT", "2:exit")
        with pytest.raises(ProcessExecutionError, match="rank 2 died"):
            _run(lfr300, "process", num_ranks=3)
        assert leaked_segments() == []

    def test_diverged_level_count_raises(self, lfr300, monkeypatch):
        import repro.parallel.louvain as louvain

        real_core = louvain._louvain_core

        def core_losing_a_level_on_rank1(sim, partition, backend, ranks, *a, **kw):
            membership, labels, mods, levels = real_core(
                sim, partition, backend, ranks, *a, **kw
            )
            if ranks[0].rank == 1:
                levels = levels[:-1]
            return membership, labels, mods, levels

        monkeypatch.setattr(louvain, "_louvain_core", core_losing_a_level_on_rank1)
        with pytest.raises(ProcessExecutionError, match="control flow diverged"):
            _run(lfr300, "process", num_ranks=2)
        assert leaked_segments() == []

    def test_config_resolves_backend_from_execution(self):
        assert ParallelLouvainConfig().backend == "hash"
        assert ParallelLouvainConfig(execution="process").backend == "vector"
        assert (
            ParallelLouvainConfig(execution="simulated", backend="vector").backend
            == "vector"
        )

    def test_config_rejects_process_with_hash_backend(self):
        with pytest.raises(ValueError, match="backend='vector'"):
            ParallelLouvainConfig(execution="process", backend="hash")

    def test_config_rejects_unknown_execution(self):
        with pytest.raises(ValueError, match="execution"):
            ParallelLouvainConfig(execution="threads")


class TestShmHygiene:
    def test_no_leaked_segments_after_success(self, lfr300):
        _run(lfr300, "process", num_ranks=2)
        assert leaked_segments() == []

    def test_manifest_round_trip(self):
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
            "c": np.zeros(0, dtype=np.int32),
        }
        manifest, segments = publish_arrays(
            "reproshm-test-rt", {"g": arrays}
        )
        try:
            reader = ManifestReader(manifest)
            for name, arr in arrays.items():
                out = reader.read(f"g/{name}")
                assert out.dtype == arr.dtype
                np.testing.assert_array_equal(out, arr)
            reader.close()
        finally:
            for seg in segments:
                seg.close()
                seg.unlink()
        assert leaked_segments("reproshm-test-rt") == []

    def test_shm_block_create_is_exclusive(self):
        block = ShmBlock.create("reproshm-test-excl", 64)
        try:
            with pytest.raises(FileExistsError):
                ShmBlock.create("reproshm-test-excl", 64)
        finally:
            block.close()
            block.unlink()

    def test_shm_block_create_unlinks_on_mmap_failure(self, monkeypatch):
        def no_mmap(*args, **kwargs):
            raise OSError("injected mmap failure")

        monkeypatch.setattr(mmap, "mmap", no_mmap)
        with pytest.raises(OSError, match="injected mmap failure"):
            ShmBlock.create("reproshm-test-mmap", 64)
        assert leaked_segments() == []

    @pytest.mark.parametrize("fail_at", ["bus", 2, 3, 4, 5])
    def test_setup_failure_leaves_no_segments(self, lfr300, monkeypatch, fail_at):
        # Two ranks create seven segments before any worker forks: the two
        # manifest shards, the bus header, then two payload slots per rank.
        # Whether the nth creation or the whole bus fails, the error must
        # surface and /dev/shm must end up clean.
        real_create = ShmBlock.create
        calls = []

        def failing_create(name, size):
            calls.append(name)
            if len(calls) == fail_at:
                raise OSError(f"injected failure creating {name}")
            return real_create(name, size)

        def failing_bus(*args, **kwargs):
            raise OSError("injected failure creating the bus")

        if fail_at == "bus":
            monkeypatch.setattr(SharedMemoryBus, "create", staticmethod(failing_bus))
        else:
            monkeypatch.setattr(ShmBlock, "create", staticmethod(failing_create))
        with pytest.raises(OSError, match="injected failure creating"):
            _run(lfr300, "process", num_ranks=2)
        assert leaked_segments() == []

    def test_bus_refuses_pickling(self):
        import multiprocessing

        bus = SharedMemoryBus.create(
            2, "reproshm-test-pickle", multiprocessing.get_context("fork")
        )
        try:
            with pytest.raises(TypeError, match="never as pickled"):
                pickle.dumps(bus)
        finally:
            bus.cleanup()
        assert leaked_segments("reproshm-test-pickle") == []
