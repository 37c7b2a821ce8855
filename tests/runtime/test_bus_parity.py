"""``SharedMemoryBus`` matches ``MessageBus`` op by op.

Both buses share one front end (:class:`repro.runtime.comm.Bus`) and differ
only in transport.  One scripted sequence of bus ops runs once on the
in-process bus with every rank local, and once on the shared-memory bus
with two forked workers each passing only its own rank's entries.  Every
inbox, every collective result, every expected error and every profiler
charge must come out the same.
"""

import multiprocessing
import os
import traceback

import numpy as np
import pytest

from repro.analysis import InvariantViolation
from repro.runtime import SharedMemoryBus, Simulation, leaked_segments

P = 2


def _outbox(rank):
    """An ungrouped outbox: mixed destinations, int64 and float64 columns."""
    dest = np.array([1, 0, 1, 1, 0][: 3 + rank], dtype=np.int64)
    ids = np.arange(dest.size, dtype=np.int64) + 10 * rank
    return dest, ids, ids * 0.5 + rank


def _grouped(rank):
    """A grouped outbox: one part per destination, one of them empty."""
    sizes = [(2, 0), (1, 4)][rank]
    return [
        (
            np.arange(n, dtype=np.int64) + 100 * rank + 10 * d,
            np.full(n, rank, dtype=np.int32),
            np.linspace(0.0, 1.0, n),
        )
        for d, n in enumerate(sizes)
    ]


def _empty_parts(rank):
    return [(np.empty(0, dtype=np.int64), np.empty(0)) for _ in range(P)]


def _arity(rank):
    """Rank 0 sends two columns, rank 1 three: a cross-rank mismatch."""
    return (np.array([1], dtype=np.int64),) + (np.array([rank]),) * (2 + rank)


def _script(sim, ranks):
    """Run the op sequence; one record per op, keyed by local rank."""
    bus = sim.bus
    records = []

    def run(name, call):
        try:
            out = call()
        except (InvariantViolation, ValueError) as exc:
            records.append((name, {r: ("raised", type(exc).__name__) for r in ranks}))
            return
        if hasattr(out, "inbox"):
            records.append((name, {r: out.inbox(r) for r in ranks}))
        else:
            records.append((name, {r: out for r in ranks}))

    with sim.phase("EXCHANGE"):
        run("exchange", lambda: bus.exchange([_outbox(r) for r in ranks]))
        run("grouped", lambda: bus.exchange_grouped([_grouped(r) for r in ranks]))
        run("all-empty parts",
            lambda: bus.exchange_grouped([_empty_parts(r) for r in ranks]))
        run("no outbox anywhere", lambda: bus.exchange([None for _ in ranks]))
        run("skipped outbox", lambda: bus.exchange(
            [None if r == 1 else _outbox(r) for r in ranks]))
        run("arity mismatch", lambda: bus.exchange([_arity(r) for r in ranks]))
    with sim.phase("COLLECTIVES"):
        run("sum scalars", lambda: bus.allreduce_sum([0.1 * (r + 1) for r in ranks]))
        run("sum arrays", lambda: bus.allreduce_sum(
            [np.arange(3, dtype=np.int64) * (r + 2) for r in ranks]))
        run("max scalars", lambda: bus.allreduce_max([3 - r for r in ranks]))
        run("max arrays", lambda: bus.allreduce_max(
            [np.array([r, 1.5 - r, 0.25]) for r in ranks]))
        run("allgather", lambda: bus.allgather(
            [np.arange(r + 1, dtype=np.int64) for r in ranks]))
        run("side_sum", lambda: bus.side_sum([r + 7 for r in ranks]))
        run("side_gather", lambda: bus.side_gather(
            [np.full(2, r, dtype=np.float64) for r in ranks]))
        run("barrier", bus.barrier)
    return records, sim.profiler.scopes


def _worker(bus, rank, reorder_seed, results):
    try:
        bus.bind(rank)
        sim = Simulation.create(
            P, reorder_seed=reorder_seed, sanitize=True, bus=bus
        )
        results.put(("ok", rank, _script(sim, [rank])))
    except BaseException:
        bus.abort()
        results.put(("error", rank, traceback.format_exc()))


def _run_processes(reorder_seed):
    ctx = multiprocessing.get_context("fork")
    prefix = f"reproshm-test-parity{os.getpid():x}"
    bus = SharedMemoryBus.create(P, prefix, ctx, timeout=60.0)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_worker, args=(bus, r, reorder_seed, results))
        for r in range(P)
    ]
    try:
        for p in procs:
            p.start()
        reports = [results.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=10)
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)
        bus.cleanup()
        results.close()
    assert leaked_segments(prefix) == []
    errors = [detail for status, _, detail in reports if status != "ok"]
    assert not errors, "\n".join(errors)
    return {rank: out for _, rank, out in reports}


def _arrays(value):
    """An op's result as a list of arrays (inbox columns, gathered values)."""
    if isinstance(value, (tuple, list)):
        return [np.asarray(v) for v in value]
    return [np.asarray(value)]


def _assert_same(want, got, where):
    want, got = _arrays(want), _arrays(got)
    assert len(want) == len(got), where
    for i, (a, b) in enumerate(zip(want, got)):
        assert a.dtype == b.dtype, f"{where}[{i}]: {a.dtype} != {b.dtype}"
        np.testing.assert_array_equal(a, b, err_msg=f"{where}[{i}]")


@pytest.mark.parametrize("reorder_seed", [None, 11])
def test_shared_memory_bus_matches_message_bus(reorder_seed):
    sim = Simulation.create(P, reorder_seed=reorder_seed, sanitize=True)
    expected, expected_scopes = _script(sim, list(range(P)))
    workers = _run_processes(reorder_seed)

    # The script reaches every front-end path, the error paths included.
    outcomes = dict(expected)
    assert outcomes["skipped outbox"][0] == ("raised", "InvariantViolation")
    assert outcomes["arity mismatch"][0] == ("raised", "ValueError")
    assert [c.size for c in outcomes["no outbox anywhere"][0]] == [0]
    assert [c.size for c in outcomes["all-empty parts"][1]] == [0, 0]

    for rank, (records, scopes) in workers.items():
        assert [name for name, _ in records] == [name for name, _ in expected]
        for (name, got), (_, want) in zip(records, expected):
            _assert_same(want[rank], got[rank], f"rank {rank} {name}")

        assert sorted(scopes) == sorted(expected_scopes), f"rank {rank}"
        for key, want in expected_scopes.items():
            got = scopes[key]
            where = f"rank {rank} {key}"
            assert got.supersteps == want.supersteps, where
            assert got.collectives == want.collectives, where
            for field in ("comp_ops", "records_sent", "bytes_sent", "messages_sent"):
                mine = getattr(got, field)
                assert mine[rank] == getattr(want, field)[rank], f"{where} {field}"
                others = np.delete(mine, rank)
                assert not others.any(), f"{where} {field}: charged another rank"
