"""Capacity planning for a web-crawl workload (paper §V-D/E scenario).

Runs the UK-2005 proxy across node counts on the simulated P7-IH, with
per-rank work extrapolated to the real 936 M-edge crawl, and reports the
modeled phase breakdown (Fig. 8), node speedup (Fig. 7) and TEPS (Fig. 9)
-- the workflow a user would follow to size a cluster for their graph.

Run:  python examples/web_graph_scaling.py
"""

from repro.generators import load_social_graph
from repro.generators.social import SOCIAL_GRAPHS
from repro.harness import first_level_seconds, gteps
from repro.parallel import parallel_louvain
from repro.runtime import P7IH, model_times, total_time


def main() -> None:
    name = "UK-2005"
    inst = load_social_graph(name, seed=0)
    graph = inst.graph
    spec = SOCIAL_GRAPHS[name]
    # Extrapolate per-rank work from the proxy to the real crawl size.
    work_scale = spec.orig_edges * 1e6 / graph.num_edges
    real_edges = int(graph.num_edges * work_scale)
    print(
        f"{name}: proxy {graph.num_edges} edges, target {real_edges:.3g} edges "
        f"(work x{work_scale:.0f})"
    )

    baseline = None
    print(f"\n{'nodes':>5s} {'total (s)':>10s} {'speedup':>8s} {'GTEPS':>7s}   phase breakdown")
    for nodes in (1, 2, 4, 8, 16, 32, 64):
        result = parallel_louvain(graph, num_ranks=nodes)
        counters = result.simulation.profiler.phases
        secs = total_time(
            counters, P7IH,
            threads=P7IH.threads_per_node, nodes=nodes, work_scale=work_scale,
        )
        if baseline is None:
            baseline = secs
        phases = model_times(
            counters, P7IH,
            threads=P7IH.threads_per_node, nodes=nodes,
            work_scale=work_scale, top_level=True,
        )
        rate = gteps(
            real_edges, result, P7IH,
            threads=P7IH.threads_per_node, nodes=nodes, work_scale=work_scale,
        )
        top = "  ".join(
            f"{k}={v:.2f}s" for k, v in sorted(phases.items(), key=lambda kv: -kv[1])[:3]
        )
        print(
            f"{nodes:>5d} {secs:>10.2f} {baseline / secs:>8.1f} {rate:>7.3f}   {top}"
        )

    result = parallel_louvain(graph, num_ranks=32)
    print(
        f"\nfirst level takes "
        f"{first_level_seconds(result, P7IH, nodes=32, work_scale=work_scale):.2f}s "
        f"of the 32-node run -- the paper's TEPS denominator"
    )
    print(f"final modularity: {result.final_modularity:.4f} "
          f"({result.num_levels} hierarchy levels)")


if __name__ == "__main__":
    main()
