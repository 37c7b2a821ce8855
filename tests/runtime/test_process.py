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
from repro.observability import ListSink, Tracer
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
        for i, (ls, lp) in enumerate(zip(sim.levels, proc.levels)):
            assert ls.num_vertices == lp.num_vertices
            assert len(ls.iterations) == len(lp.iterations)
            _assert_counters_equal(
                ls.phase_counters, lp.phase_counters, f"level{i}"
            )
            for j, (its, itp) in enumerate(zip(ls.iterations, lp.iterations)):
                _assert_counters_equal(
                    its.phase_counters, itp.phase_counters, f"level{i}/it{j}"
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
