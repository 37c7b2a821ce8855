"""Paper tables and figures (see DESIGN.md §4).

Table I, Figs. 2 and 6 have a runner here.  Every other figure and table
has one source, a matrix in ``benchmarks/matrices/``; ``repro experiment``
(:func:`render_figure`) and the bench wrappers print it through the same
projection, which takes its graph and curve names from the matrix (so tests
feed it small in-memory ones).  Fig. 5 and Table III project one matrix's
partitions, and Table IV is the largest-``nodes`` cell of Fig. 8's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..bench import MatrixResult, build_summary, load_config, run_matrix
from ..generators import (
    BTERParams,
    LFRParams,
    RMATParams,
    generate_bter,
    generate_lfr,
    generate_rmat,
    load_social_graph,
)
from ..generators.social import SOCIAL_GRAPHS
from ..hashing import load_factor_sweep, pack_key, per_thread_stats
from ..metrics import (
    SimilarityReport,
    community_sizes,
    compare_partitions,
    evolution_ratio,
    log_binned_size_distribution,
)
from ..parallel import ModuloPartition, fit_schedule
from ..runtime import P7IH, MachineModel, model_times
from ..sequential import louvain as sequential_louvain
from .tables import format_series, format_table

__all__ = [
    "run_table1",
    "run_fig2",
    "fig4_rows",
    "format_fig4",
    "fig5_rows",
    "format_fig5",
    "table3_reports",
    "format_table3",
    "run_fig6",
    "speedup_curves",
    "format_speedups",
    "fig8_level_breakdown",
    "fig8_iteration_breakdown",
    "fig8_breakdowns",
    "format_fig8",
    "table4_result",
    "format_table4",
    "weak_curves",
    "strong_curves",
    "format_fig9a",
    "format_fig9bc",
    "UK2007_LITERATURE",
    "paper_work_scale",
    "sequential_reference_seconds",
    "FIGURE_MATRICES",
    "run_matrix_file",
    "run_summary",
    "render_figure",
]


# --------------------------------------------------------------------- #
# Table I -- graph inventory
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table1Row:
    category: str
    size_class: str
    name: str
    description: str
    orig_vertices: str
    orig_edges: str
    proxy_vertices: int
    proxy_edges: int


def run_table1(*, seed: int = 0, scale: float = 0.5) -> list[Table1Row]:
    """Generate every Table I graph (proxies at ``scale``) and report sizes."""
    rows: list[Table1Row] = []
    for name, spec in SOCIAL_GRAPHS.items():
        g = load_social_graph(name, seed=seed, scale=scale).graph
        rows.append(
            Table1Row(
                category="Real-world (proxy)",
                size_class=spec.size_class,
                name=name,
                description=spec.description,
                orig_vertices=f"{spec.orig_vertices:g}M",
                orig_edges=f"{spec.orig_edges:g}M",
                proxy_vertices=g.num_vertices,
                proxy_edges=g.num_edges,
            )
        )
    lfr = generate_lfr(
        LFRParams(num_vertices=int(2000 * scale) or 500, avg_degree=16), seed=seed
    ).graph
    rows.append(
        Table1Row(
            "Synthetic", "Small", "LFR", "Generator with built-in communities",
            "0.1M", "1.6M", lfr.num_vertices, lfr.num_edges,
        )
    )
    rmat = generate_rmat(RMATParams(scale=max(8, int(12 * scale)), edge_factor=16), seed=seed)
    rows.append(
        Table1Row(
            "Synthetic", "Very Large", "R-MAT", "Graph500 specification",
            "2^SCALE", "2^(SCALE+4)", rmat.num_vertices, rmat.num_edges,
        )
    )
    bter = generate_bter(
        BTERParams(num_vertices=int(4000 * scale) or 1000, avg_degree=16), seed=seed
    ).graph
    rows.append(
        Table1Row(
            "Synthetic", "Very Large", "BTER", "Block two-level Erdős-Rényi",
            "4295M", "138000M", bter.num_vertices, bter.num_edges,
        )
    )
    return rows


# --------------------------------------------------------------------- #
# Fig. 2 -- migration traces + Eq. 7 regression
# --------------------------------------------------------------------- #


@dataclass
class Fig2Result:
    configs: list[dict]
    traces: list[list[float]]  # one per run (fraction moved per sweep)
    fitted_p1: float
    fitted_p2: float
    predicted: list[float]  # eps(iter) for iter = 1..max observed


def run_fig2(
    *,
    num_vertices: int = 800,
    runs_per_config: int = 5,
    seed: int = 0,
) -> Fig2Result:
    """Trace sequential-Louvain migration on LFR sweeps and fit Eq. 7.

    The paper varies average degree k, degree exponent γ, community-size
    exponent β and mixing μ to cover modularity 0.2-0.8 (100 runs per
    config; scaled down here).
    """
    configs = [
        dict(avg_degree=10, degree_exponent=2.5, community_exponent=1.5, mixing=0.1),
        dict(avg_degree=16, degree_exponent=2.5, community_exponent=1.5, mixing=0.3),
        dict(avg_degree=16, degree_exponent=2.8, community_exponent=1.2, mixing=0.5),
        dict(avg_degree=24, degree_exponent=2.2, community_exponent=1.8, mixing=0.6),
    ]
    traces: list[list[float]] = []
    run_seed = seed
    for cfg in configs:
        for _ in range(runs_per_config):
            run_seed += 1
            lfr = generate_lfr(
                LFRParams(num_vertices=num_vertices, max_degree=num_vertices // 10, **cfg),
                seed=run_seed,
            )
            res = sequential_louvain(lfr.graph, seed=run_seed, max_levels=1)
            if res.traces:
                trace = list(res.traces[0].moved_fraction)
                if trace:
                    traces.append(trace)
    schedule = fit_schedule(traces)
    max_iter = max(len(t) for t in traces)
    return Fig2Result(
        configs=configs,
        traces=traces,
        fitted_p1=schedule.p1,
        fitted_p2=schedule.p2,
        predicted=[schedule.epsilon(i) for i in range(1, max_iter + 1)],
    )


# --------------------------------------------------------------------- #
# Fig. 4 -- convergence & evolution ratio, three algorithms
# --------------------------------------------------------------------- #


@dataclass
class Fig4Row:
    graph: str
    sequential_q: list[float]  # modularity per outer level
    parallel_q: list[float]
    naive_q: list[float]
    sequential_evolution: list[float]  # |V_level| / |V_0| per level
    parallel_evolution: list[float]
    first_level_merge_fraction: float  # parallel, level 0


def _factor_values(matrix: MatrixResult, factor: str) -> list[str]:
    """Distinct display values of one factor, in cell order."""
    return list(dict.fromkeys(c.cell.factors[factor] for c in matrix.cells))


def _level_sizes(result) -> list[int]:
    return [
        int(np.unique(result.membership_at_level(i)).size)
        for i in range(result.num_levels)
    ]


def fig4_rows(matrix: MatrixResult) -> list[Fig4Row]:
    """One row per graph of a (graph x variant) matrix run with
    ``keep_raw=True``; the variants are sequential, parallel and naive."""
    raws = {
        (c.cell.factors["graph"], c.cell.factors["variant"]): c.timed[0].raw
        for c in matrix.cells
    }
    rows = []
    for graph in _factor_values(matrix, "graph"):
        seq = raws[(graph, "sequential")]
        par = raws[(graph, "parallel")]
        naive = raws[(graph, "naive")]
        n0 = int(par.membership.size)
        seq_sizes = _level_sizes(seq)
        par_sizes = _level_sizes(par)
        rows.append(
            Fig4Row(
                graph=graph,
                sequential_q=list(seq.modularities),
                parallel_q=list(par.modularities),
                naive_q=list(naive.modularities),
                sequential_evolution=[evolution_ratio(s, n0) for s in seq_sizes],
                parallel_evolution=[evolution_ratio(s, n0) for s in par_sizes],
                first_level_merge_fraction=(
                    1.0 - (par_sizes[0] / n0 if par_sizes else 1.0)
                ),
            )
        )
    return rows


def format_fig4(rows: list[Fig4Row]) -> str:
    fmt = lambda xs: " ".join(f"{x:.3f}" for x in xs)  # noqa: E731
    return format_table(
        ["Graph", "Seq Q/level", "Par Q/level", "Naive Q/level", "Par evol. ratio", "1st-iter merge"],
        [
            [r.graph, fmt(r.sequential_q), fmt(r.parallel_q), fmt(r.naive_q),
             fmt(r.parallel_evolution), f"{r.first_level_merge_fraction:.1%}"]
            for r in rows
        ],
        title="Fig. 4: modularity per outer loop (a) and evolution ratio (b)",
    )


# --------------------------------------------------------------------- #
# Fig. 5 and Table III -- sequential vs parallel partitions, one matrix
# --------------------------------------------------------------------- #


#: Matrix graph names -> the paper's Table III row labels.
TABLE3_LABELS = {
    "Amazon": "Amazon",
    "ND-Web": "ND-Web",
    "lfr-mu04": "LFR(mu=0.4)",
    "lfr-mu05": "LFR(mu=0.5)",
}


def _partition_pairs(matrix: MatrixResult) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Row label -> (sequential, parallel) final membership, from a (graph x
    variant) matrix run with ``keep_membership=True``."""
    memberships = {
        (c.cell.factors["graph"], c.cell.factors["variant"]): c.timed[0].membership
        for c in matrix.cells
    }
    return {
        TABLE3_LABELS.get(graph, graph): (
            memberships[(graph, "sequential")], memberships[(graph, "parallel")]
        )
        for graph in _factor_values(matrix, "graph")
    }


@dataclass
class Fig5Row:
    graph: str
    seq_largest: int
    par_largest: int
    #: Upper bin edges both partitions are counted under.
    bins: np.ndarray
    seq_counts: np.ndarray
    par_counts: np.ndarray


def fig5_rows(matrix: MatrixResult) -> list[Fig5Row]:
    """Per graph, the sequential and parallel community-size histograms on
    one set of log bins (the one that covers both largest communities)."""
    rows = []
    for label, (seq, par) in _partition_pairs(matrix).items():
        seq_largest = int(community_sizes(seq)[0])
        par_largest = int(community_sizes(par)[0])
        top = max(seq_largest, par_largest)
        bins, seq_counts = log_binned_size_distribution(seq, top=top)
        _, par_counts = log_binned_size_distribution(par, top=top)
        rows.append(Fig5Row(
            label, seq_largest, par_largest, bins, seq_counts, par_counts
        ))
    return rows


def format_fig5(rows: list[Fig5Row]) -> str:
    fmt = lambda xs: " ".join(f"{int(x):>6d}" for x in xs)  # noqa: E731
    lines = ["Fig. 5: community size distribution (log-binned)"]
    for r in rows:
        lines += [
            f"  {r.graph}: largest community seq={r.seq_largest} par={r.par_largest}",
            "    size<=   " + fmt(r.bins),
            "    seq count" + fmt(r.seq_counts),
            "    par count" + fmt(r.par_counts),
        ]
    return "\n".join(lines)


def table3_reports(matrix: MatrixResult) -> dict[str, SimilarityReport]:
    """Row label -> sequential-vs-parallel similarity."""
    return {
        label: compare_partitions(seq, par)
        for label, (seq, par) in _partition_pairs(matrix).items()
    }


def format_table3(reports: dict[str, SimilarityReport]) -> str:
    return format_table(
        ["Graphs", "NMI", "F-measure", "NVD", "RI", "ARI", "JI"],
        [
            [name, rep.nmi, rep.f_measure, rep.nvd, rep.rand_index,
             rep.adjusted_rand_index, rep.jaccard_index]
            for name, rep in reports.items()
        ],
        title="Table III: parallel-vs-sequential partition similarity",
        float_fmt="{:.4f}",
    )


# --------------------------------------------------------------------- #
# Fig. 6 -- hash behavior
# --------------------------------------------------------------------- #


@dataclass
class Fig6Result:
    hash_names: list[str]
    #: per hash: per-(node,thread) entries / avg / max bin length
    entries: dict[str, np.ndarray]
    avg_bin: dict[str, np.ndarray]
    max_bin: dict[str, np.ndarray]
    #: Fig. 6d: load factor -> per-thread avg bin lengths (fibonacci)
    load_factor_avg_bin: dict[float, np.ndarray]


def run_fig6(
    *,
    rmat_scale: int = 16,
    num_nodes: int = 16,
    threads_per_node: int = 32,
    load_factor: float = 0.25,
    hashes: tuple[str, str] = ("fibonacci", "linear_congruential"),
    seed: int = 0,
) -> Fig6Result:
    """Hash load-balance study on a 1D-partitioned R-MAT graph.

    Paper setup: scale-25 R-MAT over 16 nodes x 32 threads; we default to a
    scale-16 (laptop) instance with identical structure: per-node tables
    store the in-edges of owned vertices keyed by Eq. 5, bins partitioned
    uniformly over threads.
    """
    g = generate_rmat(RMATParams(scale=rmat_scale, edge_factor=16), seed=seed)
    partition = ModuloPartition(g.num_vertices, num_nodes)
    entries: dict[str, list] = {h: [] for h in hashes}
    avg_bin: dict[str, list] = {h: [] for h in hashes}
    max_bin: dict[str, list] = {h: [] for h in hashes}
    lf_sweep: dict[float, list] = {}
    for node, v, u, _ in partition.in_edge_shards(g):
        keys = pack_key(v.astype(np.uint64), u.astype(np.uint64), shift=32)
        num_bins = max(threads_per_node, int(np.ceil(keys.size / load_factor)))
        for h in hashes:
            st = per_thread_stats(keys, num_bins, threads_per_node, h)
            entries[h].append(st.entries)
            avg_bin[h].append(st.avg_bin_length)
            max_bin[h].append(st.max_bin_length)
        if node == 0:
            sweep = load_factor_sweep(
                keys, [2.0, 1.0, 0.5, 0.25, 0.125], threads_per_node, "fibonacci"
            )
            lf_sweep = {lf: st.avg_bin_length for lf, st in sweep.items()}
    return Fig6Result(
        hash_names=list(hashes),
        entries={h: np.concatenate(v) for h, v in entries.items()},
        avg_bin={h: np.concatenate(v) for h, v in avg_bin.items()},
        max_bin={h: np.concatenate(v) for h, v in max_bin.items()},
        load_factor_avg_bin=lf_sweep,
    )


def paper_work_scale(graph_name: str, proxy_edges: int) -> float:
    """Extrapolation factor from a proxy to the paper's dataset size.

    The bench harness resolves ``work_scale = "paper"`` cells through this;
    ``graph_name`` must be a Table I social graph.
    """
    spec = SOCIAL_GRAPHS[graph_name]
    return (spec.orig_edges * 1e6) / max(1, proxy_edges)


# --------------------------------------------------------------------- #
# Fig. 7 -- thread / node speedup (machine-model driven)
# --------------------------------------------------------------------- #


#: Machine ops the sequential reference spends per adjacency entry per sweep
#: (one neighbor-map find/update, no messaging).
_SEQ_OPS_PER_ENTRY = 4.0


def sequential_reference_seconds(
    result, machine: MachineModel, work_scale: float = 1.0
) -> float:
    """Modeled single-thread time of the *original sequential* implementation.

    The paper's Fig. 7 speedups are measured against Blondel's single-thread
    code [41], which touches each adjacency entry once per sweep with a
    neighbor-community map lookup and pays no hashing/messaging overhead.
    Sweep counts are taken from the parallel run's per-level iteration counts
    (the two algorithms need comparable numbers of passes).
    """
    ops = 0.0
    for lv in result.levels:
        sweeps = max(1, len(lv.iterations))
        ops += lv.num_adjacency_entries * (sweeps + 1) * _SEQ_OPS_PER_ENTRY
    return ops * machine.t_op * work_scale


def _curves(points: dict[str, list[tuple]]) -> dict[str, tuple[list, ...]]:
    """Sort each curve's points and unzip them into per-field lists."""
    return {
        name: tuple(list(field) for field in zip(*sorted(pts)))
        for name, pts in points.items()
    }


def speedup_curves(summary: dict, axis: str) -> dict[str, tuple[list, list]]:
    """Graph -> (``axis`` values, speedups) from a (graph x ``axis``)
    summary, against the modeled sequential reference of the graph's
    smallest-``axis`` cell."""
    points: dict[str, list[tuple]] = {}
    for cell in summary["cells"].values():
        points.setdefault(cell["factors"]["graph"], []).append((
            int(cell["factors"][axis]),
            cell["metrics"]["seq_reference_s"]["median"],
            cell["metrics"]["modeled_s"]["median"],
        ))
    return {
        graph: (x, [ref[0] / t for t in modeled])
        for graph, (x, ref, modeled) in _curves(points).items()
    }


#: Fig. 7 panel title per speedup axis.
_FIG7_TITLES = {
    "threads": "Fig. 7a: thread speedup on one P7-IH node (vs 1-thread sequential)",
    "nodes": "Fig. 7b/c: node speedup, 32 threads/node (vs 1-thread sequential)",
}


def format_speedups(curves, axis: str) -> str:
    return "\n".join([_FIG7_TITLES[axis]] + [
        "  " + format_series(graph, x, speedup, fmt="{:.1f}")
        for graph, (x, speedup) in curves.items()
    ])


# --------------------------------------------------------------------- #
# Fig. 8 -- execution-time breakdown (UK-2007 proxy)
# --------------------------------------------------------------------- #


@dataclass
class Fig8Result:
    node_counts: list[int]
    #: per node count: per outer level: {phase: seconds} (REFINE vs RECON)
    outer_breakdown: list[list[dict[str, float]]]
    #: per node count: level-0 per-inner-iteration {phase: seconds}
    inner_breakdown: list[list[dict[str, float]]]
    modularities: list[float]


def fig8_level_breakdown(
    result,
    *,
    machine: MachineModel = P7IH,
    nodes: int,
    work_scale: float = 1.0,
) -> list[dict[str, float]]:
    """Fig. 8a projection: per outer level, modeled seconds per top phase."""
    profiler = result.simulation.profiler
    return [
        model_times(
            profiler.select(lv.level), machine,
            threads=machine.threads_per_node, nodes=nodes,
            work_scale=work_scale, top_level=True,
        )
        for lv in result.levels
    ]


def fig8_iteration_breakdown(
    result,
    *,
    machine: MachineModel = P7IH,
    nodes: int,
    work_scale: float = 1.0,
) -> list[dict[str, float]]:
    """Fig. 8b projection: level-0 per-inner-iteration modeled seconds,
    keyed by leaf phase name (``FIND_BEST``, ``UPDATE``, ...)."""
    if not result.levels:
        return []
    profiler = result.simulation.profiler
    return [
        {
            name.rsplit("/", 1)[-1]: secs
            for name, secs in model_times(
                profiler.select(0, it.iteration), machine,
                threads=machine.threads_per_node, nodes=nodes,
                work_scale=work_scale,
            ).items()
        }
        for it in result.levels[0].iterations
    ]


def fig8_breakdowns(matrix: MatrixResult) -> Fig8Result:
    """Both Fig. 8 breakdowns per node count, from a ``nodes`` sweep run
    with ``keep_raw=True``."""
    res = Fig8Result([], [], [], [])
    for cell in sorted(matrix.cells, key=lambda c: int(c.cell.params["nodes"])):
        rep, nodes = cell.timed[0], int(cell.cell.params["nodes"])
        ws = 1.0 if rep.work_scale is None else rep.work_scale
        res.node_counts.append(nodes)
        res.outer_breakdown.append(
            fig8_level_breakdown(rep.raw, nodes=nodes, work_scale=ws)
        )
        res.inner_breakdown.append(
            fig8_iteration_breakdown(rep.raw, nodes=nodes, work_scale=ws)
        )
        res.modularities.append(rep.modularity)
    return res


def format_fig8(res: Fig8Result) -> str:
    lines = ["Fig. 8a: outer-loop breakdown (modeled seconds, UK-2007 proxy)"]
    for nodes, levels in zip(res.node_counts, res.outer_breakdown):
        lines.append(f"  {nodes} nodes:")
        for i, phases in enumerate(levels):
            row = "  ".join(f"{k}={v:.3f}s" for k, v in sorted(phases.items()))
            lines.append(f"    level {i}: {row}")
    lines.append(
        "Fig. 8b: inner-loop breakdown, first outer loop "
        f"({res.node_counts[-1]} nodes)"
    )
    for i, phases in enumerate(res.inner_breakdown[-1][:8]):
        row = "  ".join(f"{k}={v:.4f}s" for k, v in sorted(phases.items()))
        lines.append(f"    iter {i + 1}: {row}")
    lines.append(
        f"  modularity per node count: {[round(q, 3) for q in res.modularities]}"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Table IV -- UK-2007 vs the literature
# --------------------------------------------------------------------- #

#: The paper's Table IV rows (recorded constants for comparison printing).
UK2007_LITERATURE: list[dict] = [
    {"reference": "[7] Riedy et al.", "time_s": 504.9, "modularity": None,
     "processors": "4x Intel E7-8870"},
    {"reference": "[10] Staudt et al.", "time_s": 480.0, "modularity": None,
     "processors": "2x Intel E5-2680"},
    {"reference": "[12] Ovelgonne", "time_s": 3600.0 * 3, "modularity": 0.994,
     "processors": "50 nodes Intel Xeon"},
    {"reference": "Que et al. (paper)", "time_s": 44.90, "modularity": 0.996,
     "processors": "128 nodes Power 7"},
]


@dataclass
class Table4Result:
    literature: list[dict]
    our_time_s: float
    our_modularity: float
    nodes: int
    #: Paper-scale extrapolation factor applied (edges_paper / edges_proxy).
    note: str


def table4_result(matrix: MatrixResult) -> Table4Result:
    """Our Table IV row: the largest-``nodes`` cell of the Fig. 8 sweep."""
    cell = max(matrix.cells, key=lambda c: int(c.cell.params["nodes"]))
    rep, nodes = cell.timed[0], int(cell.cell.params["nodes"])
    ws = 1.0 if rep.work_scale is None else rep.work_scale
    return Table4Result(
        literature=UK2007_LITERATURE,
        our_time_s=rep.modeled_s,
        our_modularity=rep.modularity,
        nodes=nodes,
        note=(
            f"{cell.cell.params['graph']} proxy on {nodes} simulated nodes; "
            f"per-rank work extrapolated x{ws:.0f} to the real dataset size"
        ),
    )


def format_table4(res: Table4Result) -> str:
    rows = [
        [lit["reference"], f"{lit['time_s']:.1f}",
         lit["modularity"] if lit["modularity"] is not None else "N/A",
         lit["processors"]]
        for lit in res.literature
    ]
    rows.append(
        ["This reproduction (modeled)", f"{res.our_time_s:.1f}",
         f"{res.our_modularity:.3f}", f"{res.nodes} simulated P7-IH nodes"]
    )
    return format_table(
        ["Reference", "Time (s)", "Modularity", "Processors"],
        rows,
        title="Table IV: UK-2007 performance vs the literature",
    ) + f"\n  note: {res.note}"


# --------------------------------------------------------------------- #
# Fig. 9 -- weak & strong scaling (GTEPS)
# --------------------------------------------------------------------- #


def weak_curves(summary: dict) -> dict[str, tuple[list, ...]]:
    """Curve -> (nodes, GTEPS, modularity) from a weak-scaling summary whose
    ``point`` factor names each cell ``<curve>/n<nodes>``."""
    points: dict[str, list[tuple]] = {}
    for cell in summary["cells"].values():
        curve, _, node_tag = cell["factors"]["point"].partition("/")
        points.setdefault(curve, []).append((
            int(node_tag.lstrip("n")),
            cell["metrics"]["gteps"]["median"],
            cell["metrics"]["modularity"]["median"],
        ))
    return _curves(points)


def strong_curves(summary: dict) -> dict[str, tuple[list, ...]]:
    """Workload -> (nodes, GTEPS) from a (workload x nodes) summary."""
    points: dict[str, list[tuple]] = {}
    for cell in summary["cells"].values():
        points.setdefault(cell["factors"]["workload"], []).append(
            (int(cell["factors"]["nodes"]), cell["metrics"]["gteps"]["median"])
        )
    return _curves(points)


def format_fig9a(curves) -> str:
    lines = ["Fig. 9a: weak scaling"] + [
        "  " + format_series(f"{name} GTEPS", nodes, gteps, fmt="{:.4f}")
        for name, (nodes, gteps, _mods) in curves.items()
    ]
    if "bter-lo" in curves and "bter-hi" in curves:
        lines.append(
            f"  BTER modularity: GCC~0.15 -> {curves['bter-lo'][2][-1]:.3f}, "
            f"GCC~0.55 -> {curves['bter-hi'][2][-1]:.3f} (paper: 0.693 and 0.926)"
        )
    return "\n".join(lines)


#: fig9bc_strong.toml workload -> (panel title, series name).
_STRONG_PANELS = {
    "uk2007": ("Fig. 9b: strong scaling, UK-2007 (3.78G edges extrapolated)",
               "UK-2007 GTEPS"),
    "rmat15": ("Fig. 9c: strong scaling, R-MAT (scale-30 workload extrapolated)",
               "R-MAT GTEPS"),
}


def format_fig9bc(curves) -> str:
    lines = []
    for workload, (nodes, gteps) in curves.items():
        title, series = _STRONG_PANELS.get(
            workload, (f"Fig. 9: strong scaling, {workload}", f"{workload} GTEPS")
        )
        lines += [title, "  " + format_series(series, nodes, gteps, fmt="{:.4f}")]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Matrix-backed figures: the checked-in files and ``repro experiment``
# --------------------------------------------------------------------- #

#: The source checkout's ``benchmarks/matrices`` directory.
MATRIX_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "matrices"

#: ``repro experiment`` id -> the matrix files it runs, in print order.
FIGURE_MATRICES: dict[str, tuple[str, ...]] = {
    "fig4": ("fig4_convergence.toml",),
    "fig5": ("table3_quality.toml",),
    "table3": ("table3_quality.toml",),
    "fig7": ("fig7a_threads.toml", "fig7bc_nodes.toml"),
    "fig8": ("fig8_breakdown.toml",),
    "table4": ("fig8_breakdown.toml",),
    "fig9": ("fig9a_weak.toml", "fig9bc_strong.toml"),
}


def run_matrix_file(name: str, **kwargs) -> MatrixResult:
    """Run one checked-in matrix; ``kwargs`` go to :func:`run_matrix`."""
    return run_matrix(load_config(str(MATRIX_DIR / name)), **kwargs)


def run_summary(name: str) -> dict:
    """Run one checked-in matrix and reduce it to its BENCH summary."""
    return build_summary(run_matrix_file(name))


def render_figure(figure: str) -> str:
    """Run ``figure``'s :data:`FIGURE_MATRICES` and return its paper text."""
    if figure == "fig4":
        matrix = run_matrix_file("fig4_convergence.toml", keep_raw=True)
        return format_fig4(fig4_rows(matrix))
    if figure == "fig5":
        matrix = run_matrix_file("table3_quality.toml", keep_membership=True)
        return format_fig5(fig5_rows(matrix))
    if figure == "table3":
        matrix = run_matrix_file("table3_quality.toml", keep_membership=True)
        return format_table3(table3_reports(matrix))
    if figure == "fig7":
        return "\n".join(
            format_speedups(speedup_curves(run_summary(name), axis), axis)
            for name, axis in zip(FIGURE_MATRICES["fig7"], ("threads", "nodes"))
        )
    if figure == "fig8":
        matrix = run_matrix_file("fig8_breakdown.toml", keep_raw=True)
        return format_fig8(fig8_breakdowns(matrix))
    if figure == "table4":
        return format_table4(table4_result(run_matrix_file("fig8_breakdown.toml")))
    if figure == "fig9":
        weak, strong = FIGURE_MATRICES["fig9"]
        return (
            format_fig9a(weak_curves(run_summary(weak))) + "\n"
            + format_fig9bc(strong_curves(run_summary(strong)))
        )
    raise KeyError(f"no matrix-backed figure {figure!r}")
