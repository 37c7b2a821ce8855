"""Fig. 7 -- speedup with medium and large social graphs.

(a) thread speedup on a single P7-IH node (2-32 threads); (b, c) node
speedup from 1 to 64 nodes, all relative to the modeled single-threaded
sequential implementation, with per-rank work extrapolated to the real
dataset sizes.

Runs ``matrices/fig7a_threads.toml`` and ``fig7bc_nodes.toml`` through the
projection that ``repro experiment fig7`` prints, and asserts the paper's
claims.
"""

from conftest import once

from repro.harness import experiments as hx


def test_fig7a_thread_speedup(benchmark):
    summary = once(benchmark, hx.run_summary, "fig7a_threads.toml")
    curves = hx.speedup_curves(summary, "threads")

    print()
    print(hx.format_speedups(curves, "threads"))

    for graph, (_x, speedup) in curves.items():
        assert speedup == sorted(speedup), graph  # monotone
        assert 4 < speedup[-1] < 32, graph  # substantial but sublinear


def test_fig7bc_node_speedup(benchmark):
    summary = once(benchmark, hx.run_summary, "fig7bc_nodes.toml")
    curves = hx.speedup_curves(summary, "nodes")

    print()
    print(hx.format_speedups(curves, "nodes"))

    for graph, (x, speedup) in curves.items():
        # every graph gains from distribution at moderate node counts
        assert max(speedup) > 2 * speedup[0], graph
    # Large graphs keep scaling to 64 nodes; the medium ones saturate first
    # (paper: UK-2005 reaches 49.8x at 64 nodes).
    uk_x, uk = curves["UK-2005"]
    assert uk[-1] == max(uk)
    assert uk[-1] > 30
    lj_x, lj = curves["LiveJournal"]
    assert lj.index(max(lj)) < len(lj_x) - 1  # knee before 64
