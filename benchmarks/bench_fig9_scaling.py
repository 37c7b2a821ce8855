"""Fig. 9 -- scaling analysis (weak and strong, GTEPS).

(a) weak scaling: R-MAT on the BG/Q model and BTER (two GCC settings) on
the P7-IH model, fixed per-node workload; (b) strong scaling of UK-2007 on
P7-IH; (c) strong scaling of R-MAT.  TEPS = input edges / modeled time of
the first level, with per-rank work extrapolated to the paper's per-node
workloads (R-MAT 2^24 edges/node, BTER 2^26 edges/node).

Runs ``matrices/fig9a_weak.toml`` and ``fig9bc_strong.toml`` through the
projections that ``repro experiment fig9`` prints, and asserts the paper's
claims.  Each matrix runs once: the strong-scaling test takes its
weak-scaling reference from the first test's run.
"""

import functools

from conftest import once

from repro.harness import experiments as hx

_summary = functools.cache(hx.run_summary)


def test_fig9a_weak_scaling(benchmark):
    curves = hx.weak_curves(once(benchmark, _summary, "fig9a_weak.toml"))

    print()
    print(hx.format_fig9a(curves))

    for name, (nodes, gteps, _mods) in curves.items():
        # processing rate grows with node count...
        assert all(a < b for a, b in zip(gteps, gteps[1:])), name
        # ...roughly proportionally (within 3x of linear across the sweep).
        growth = (gteps[-1] / gteps[0]) / (nodes[-1] / nodes[0])
        assert growth > 1 / 3, name

    # Paper: higher GCC -> higher modularity and slightly faster processing.
    assert curves["bter-hi"][2][-1] > curves["bter-lo"][2][-1] + 0.1
    assert curves["bter-hi"][1][-1] > 0.5 * curves["bter-lo"][1][-1]


def test_fig9bc_strong_scaling(benchmark):
    curves = hx.strong_curves(once(benchmark, _summary, "fig9bc_strong.toml"))

    print()
    print(hx.format_fig9bc(curves))

    uk_nodes, uk = curves["uk2007"]
    assert all(a < b for a, b in zip(uk, uk[1:]))  # monotone speedup
    # sublinear: doubling nodes never doubles the rate at the top end
    assert uk[-1] / uk[-2] < 2.0

    rm_nodes, rm = curves["rmat15"]
    assert all(a < b for a, b in zip(rm, rm[1:]))
    # Paper: strong-scaled R-MAT rate is below the weak-scaled rate at the
    # same node count ("the problem scale is not big enough").
    weak_nodes, weak_gteps, _mods = hx.weak_curves(_summary("fig9a_weak.toml"))["rmat"]
    assert rm[-1] < weak_gteps[weak_nodes.index(rm_nodes[-1])] * 1.5
