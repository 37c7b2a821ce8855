"""Fig. 8 and Table IV -- execution time breakdown with UK-2007.

(a) per-outer-loop breakdown into REFINE and GRAPH RECONSTRUCTION;
(b) per-inner-iteration breakdown of the first outer loop into FIND BEST
COMMUNITY / UPDATE COMMUNITY INFORMATION / STATE PROPAGATION -- modeled on
the P7-IH machine at several node counts.  Table IV is the sweep's 128-node
cell (per-rank work extrapolated to the real 3.78 G-edge dataset), printed
next to the paper's recorded literature rows.

Runs ``matrices/fig8_breakdown.toml`` once, through the projections that
``repro experiment fig8`` and ``repro experiment table4`` print, and
asserts the paper's claims.
"""

from conftest import once

from repro.harness import experiments as hx


def _run_matrix():
    return hx.run_matrix_file("fig8_breakdown.toml", keep_raw=True)


def test_fig8_time_breakdown_and_table4(benchmark):
    matrix = once(benchmark, _run_matrix)
    res = hx.fig8_breakdowns(matrix)
    table4 = hx.table4_result(matrix)

    print()
    print(hx.format_fig8(res))
    print(hx.format_table4(table4))

    for nodes, levels in zip(res.node_counts, res.outer_breakdown):
        refine = sum(lv.get("REFINE", 0.0) for lv in levels)
        recon = sum(lv.get("GRAPH_RECONSTRUCTION", 0.0) for lv in levels)
        # Paper: REFINE dominates; GRAPH RECONSTRUCTION is negligible.
        assert refine > 5 * recon, f"{nodes} nodes"
        # Paper: the first outer loop takes >90% of the total.
        t0 = sum(levels[0].values())
        total = sum(sum(lv.values()) for lv in levels)
        assert t0 > 0.6 * total, f"{nodes} nodes"

    # More nodes -> faster inner loops (strong scaling of the breakdown).
    first_iter_cost = [
        sum(inner[0].values()) for inner in res.inner_breakdown if inner
    ]
    assert first_iter_cost[-1] < first_iter_cost[0]

    # Fig. 8b: FIND_BEST / UPDATE shrink across iterations as vertices
    # settle, while STATE_PROPAGATION stays roughly flat.
    inner = res.inner_breakdown[-1]
    if len(inner) >= 4:
        fb = [it.get("FIND_BEST", 0.0) for it in inner]
        sp = [it.get("STATE_PROPAGATION", 0.0) for it in inner]
        assert fb[0] >= fb[-1] * 0.9
        assert max(sp) < 4 * min(x for x in sp if x > 0)

    paper_row = next(r for r in table4.literature if "paper" in r["reference"])
    # Shape claims: our modeled run beats every literature baseline by a
    # wide margin and lands within ~4x of the paper's own 44.9 s.
    slowest_lit = max(
        r["time_s"] for r in table4.literature if r is not paper_row
    )
    assert table4.our_time_s < slowest_lit / 5
    assert paper_row["time_s"] / 4 < table4.our_time_s < paper_row["time_s"] * 4
    # Modularity in the high-0.8s/0.9s band (paper: 0.996 on the real crawl).
    assert table4.our_modularity > 0.85
