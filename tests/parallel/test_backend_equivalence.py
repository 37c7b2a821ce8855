"""Differential tests: the vector backend must match the hash reference.

The vectorized backend (:mod:`repro.parallel.vectorized`) re-expresses the
hash-table data-plane as flat-array kernels.  Its correctness claim is not
"close enough" but *trajectory equivalence*: identical membership, identical
modularity to the last bit, identical iteration/superstep structure, for any
input graph -- including the degenerate shapes hypothesis likes (self-loops,
multi-edges folded into weights, disconnected vertices, single vertices).

Three layers of evidence:

* property-based: random small graphs, every rank count, both backends,
  bitwise-equal results;
* fingerprint: the full observability fingerprint (per-level iteration
  counts, movers, epsilon, per-phase superstep records/bytes) is equal at
  zero tolerance;
* sanitizer: the runtime invariant sanitizer stays green under the vector
  backend on the same graphs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.observability import Tracer
from repro.observability.golden import Tolerances, compare_fingerprints, fingerprint_events
from repro.parallel import parallel_louvain

EXACT = Tolerances(
    movers_rel=0.0,
    candidates_rel=0.0,
    epsilon_abs=0.0,
    dq_rel=0.0,
    modularity_abs=0.0,
    records_rel=0.0,
)


@st.composite
def graphs(draw, max_vertices=24, max_edges=60):
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


def _run(graph, num_ranks, backend, **kwargs):
    return parallel_louvain(graph, num_ranks=num_ranks, backend=backend, **kwargs)


@given(graphs(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_membership_and_modularity_identical(graph, num_ranks):
    h = _run(graph, num_ranks, "hash")
    v = _run(graph, num_ranks, "vector")
    np.testing.assert_array_equal(h.membership, v.membership)
    assert h.final_modularity == v.final_modularity  # bitwise, not approx
    assert h.num_levels == v.num_levels
    assert h.modularities == v.modularities


@given(graphs(max_vertices=16, max_edges=40), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_fingerprints_identical_at_zero_tolerance(graph, num_ranks):
    traces = {}
    scopes = {}
    for backend in ("hash", "vector"):
        tracer = Tracer()
        result = _run(graph, num_ranks, backend, tracer=tracer)
        traces[backend] = fingerprint_events(tracer.events)
        scopes[backend] = result.simulation.profiler.scopes
    drifts = compare_fingerprints(traces["hash"], traces["vector"], EXACT)
    assert not drifts, "\n".join(str(d) for d in drifts)
    # Both charge the same traffic to every (level, iteration, phase)
    # scope, first charged in the same order.  comp_ops differ: the hash
    # backend charges probes where the vector backend charges records.
    assert list(scopes["hash"]) == list(scopes["vector"])
    for key, h in scopes["hash"].items():
        v = scopes["vector"][key]
        for name in ("records_sent", "bytes_sent", "messages_sent"):
            np.testing.assert_array_equal(
                getattr(h, name), getattr(v, name), err_msg=f"{key} {name}"
            )
        assert (h.supersteps, h.collectives) == (v.supersteps, v.collectives), key


@given(graphs(max_vertices=16, max_edges=40), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_vector_backend_passes_sanitizer(graph, num_ranks):
    # InvariantViolation would raise; green means the vector data-plane
    # upholds the same runtime invariants the hash path is checked against.
    _run(graph, num_ranks, "vector", sanitize=True)


@given(graphs(), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_equivalence_survives_message_reordering(graph, num_ranks, seed):
    # Reorder injection disables the static-inbox fast paths; the slow
    # (plain-exchange) vector paths must still match the hash reference
    # under the same permutations.
    h = _run(graph, num_ranks, "hash", reorder_seed=seed)
    v = _run(graph, num_ranks, "vector", reorder_seed=seed)
    np.testing.assert_array_equal(h.membership, v.membership)
    assert h.final_modularity == v.final_modularity


def test_modularity_independent_of_hash_function():
    # Pinned regression: with hash-slot-ordered table read-out, the last
    # ulp of Q depended on the hash family (fibonacci disagreed with the
    # other three on this graph).  Canonical (key-sorted) read-out makes
    # every family -- and the vector backend -- produce bitwise-equal runs.
    src = np.array([0, 0, 0], dtype=np.int64)
    dst = np.array([0, 1, 5], dtype=np.int64)
    w = np.array([118.048265355, 8.80350985, 2.0])
    g = Graph.from_edges(src, dst, w, num_vertices=21)
    results = {
        hf: parallel_louvain(g, num_ranks=1, backend="hash", hash_function=hf)
        for hf in ("fibonacci", "linear_congruential", "bitwise", "concatenated")
    }
    results["vector"] = parallel_louvain(g, num_ranks=1, backend="vector")
    baseline = results.pop("fibonacci")
    for name, res in results.items():
        np.testing.assert_array_equal(baseline.membership, res.membership)
        assert baseline.modularities == res.modularities, name


def test_differential_sweep_seeded_graphs():
    # ~50 seeded random graphs spanning the shapes the sweep brief calls
    # out: weighted multi-edges (from_edges folds duplicates), self-loops,
    # skewed weights, disconnected vertices.  Every graph must produce a
    # bitwise-identical run under both backends at several rank counts.
    rng = np.random.default_rng(2026)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(2, 120))
        k = int(rng.integers(1, 4 * n))
        src = rng.integers(0, n, k)
        dst = rng.integers(0, n, k)
        if trial % 3 == 0:  # every third graph gets extra self-loops
            loops = rng.integers(0, n, max(1, n // 4))
            src = np.concatenate([src, loops])
            dst = np.concatenate([dst, loops])
        w = rng.random(src.size) * np.where(
            rng.random(src.size) < 0.15, 1e6, 1.0
        ) + 1e-3
        g = Graph.from_edges(src, dst, w, num_vertices=n)
        for ranks in (1, 2, 5):
            h = _run(g, ranks, "hash")
            v = _run(g, ranks, "vector")
            np.testing.assert_array_equal(h.membership, v.membership)
            assert h.modularities == v.modularities, f"trial={trial} ranks={ranks}"
            checked += 1
    assert checked == 150


def test_self_loop_heavy_graph_matches():
    # Self-loops feed the sigma_in bookkeeping and the RECONSTRUCTION
    # self-weight path; a regression here shifts modularity, not crashes.
    rng = np.random.default_rng(0)
    n = 40
    src = np.concatenate([rng.integers(0, n, 120), np.arange(n)])
    dst = np.concatenate([rng.integers(0, n, 120), np.arange(n)])
    w = rng.random(src.size) + 0.1
    g = Graph.from_edges(src, dst, w, num_vertices=n)
    for ranks in (1, 3, 4):
        h = _run(g, ranks, "hash")
        v = _run(g, ranks, "vector")
        np.testing.assert_array_equal(h.membership, v.membership)
        assert h.final_modularity == v.final_modularity
