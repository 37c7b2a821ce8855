"""One cold ``detect_communities`` call in a fresh process.

Run by ``run.py``; prints one JSON object.  ``--launched`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, ``import repro`` and ``read_edge_list``.

    python3 perfbench/detect_sample.py --workload detect-lfr \\
        --input perfbench/_work/inputs/detect-lfr.txt --launched 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

WORKLOAD_OPTIONS = {
    "detect-lfr": {"backend": "vector", "num_ranks": 4},
    "detect-rmat-proc": {"backend": "vector", "execution": "process",
                         "num_ranks": 2},
}

#: Layer times summed over the parent and, in process mode, every rank.
LAYER_STEMS = ("parallel.build_states", "parallel.state_propagation",
               "parallel.find_best", "parallel.modularity",
               "parallel.reconstruct", "kernels.coalesce", "runtime.exchange",
               "metrics.modularity", "runtime.publish")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_OPTIONS))
    ap.add_argument("--input", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="move vertex 0 to another community before the "
                    "output checks (selftest.py)")
    args = ap.parse_args()

    import repro
    from repro.metrics import modularity_from_labels
    from repro.runtime.shm import leaked_segments

    from common import WORK, fingerprint, vm_hwm_kib
    from spans import SpanRecorder, dump_rank_workers, install

    options = WORKLOAD_OPTIONS[args.workload]
    recorder = rank_dir = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
        if options.get("execution") == "process":
            WORK.mkdir(parents=True, exist_ok=True)
            rank_dir = tempfile.mkdtemp(prefix="ranks-", dir=WORK)
            dump_rank_workers(recorder, rank_dir)
    graph = repro.graph.read_edge_list(args.input)
    setup_s = time.monotonic() - args.launched

    before = set(leaked_segments())
    t0 = time.perf_counter()
    summary = repro.detect_communities(graph, **options)
    t1 = time.perf_counter()
    leaked = sorted(set(leaked_segments()) - before)
    if recorder is not None:
        recorder.uninstall()
    if args.corrupt:
        summary.membership[0] = summary.membership.max() + 1

    result = summary.raw
    levels = result.levels
    totals = result.simulation.profiler.total()
    out = {
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "modularity": float(summary.modularity),
        "recomputed_modularity": float(
            modularity_from_labels(graph, summary.membership)),
        "fingerprint": fingerprint(summary.membership),
        "leaked_segments": leaked,
        "self_rss_kib": vm_hwm_kib(),
        "parallel.levels": len(levels),
        "parallel.iterations": sum(len(lv.iterations) for lv in levels),
        "parallel.movers": sum(it.movers for lv in levels for it in lv.iterations),
        "scanned": sum(lv.num_vertices * len(lv.iterations) for lv in levels),
        "runtime.bytes_sent": float(totals.bytes_sent.sum()),
        "runtime.records_sent": float(totals.records_sent.sum()),
        "runtime.messages_sent": float(totals.messages_sent.sum()),
        "runtime.supersteps": sum(
            c.supersteps for c in result.simulation.profiler.phases.values()),
        "runtime.shm_bytes_moved": float(getattr(result, "shm_bytes_moved", 0)),
    }
    if recorder is not None:
        ranks = []
        if rank_dir is not None:
            ranks = [json.loads(path.read_text())
                     for path in sorted(Path(rank_dir).glob("rank*.json"))]
            shutil.rmtree(rank_dir)
        out["layers"] = layer_times(recorder, t0, t1, ranks)
    print(json.dumps(out))


def layer_times(recorder, t0: float, t1: float, ranks: list) -> dict[str, float]:
    """Per-layer self seconds of one traced call (see METRICS.md).

    ``ranks`` holds the records forked rank workers wrote (process mode);
    layer times and counts add the parent's and every rank's.
    """
    during = recorder.within(recorder.spans, t0, t1)
    own = recorder.self_times(during)
    calls = recorder.calls(during)
    counts = dict(recorder.counts)
    for rank in ranks:
        spans = [tuple(s) for s in rank["spans"]]
        for name, value in recorder.self_times(spans).items():
            own[name] += value
        for name, value in recorder.calls(spans).items():
            calls[name] += value
        for name, value in rank["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    layers = {stem + "_s": own[stem] for stem in LAYER_STEMS}
    layers["graph.read_edge_list_s"] = recorder.self_times(
        recorder.spans)["graph.read_edge_list"]
    layers["kernels.coalesce_calls"] = calls["kernels.coalesce"]
    for name in ("kernels.coalesce_items", "kernels.coalesce_bytes"):
        layers[name] = counts.get(name, 0.0)
    wall = t1 - t0
    if not ranks:  # simulated ranks: every wrapper ran in this process
        layers["parallel.control_s"] = wall - recorder.root_time(during)
        layers["runtime.parent_s"] = 0.0
        return layers
    # Process ranks: control is each rank's time outside wrapped calls; the
    # parent's own share is the wall time outside its wrapped calls and
    # outside the window in which ranks ran.
    layers["parallel.control_s"] = sum(
        (r["end"] - r["start"]) - recorder.root_time([tuple(s) for s in r["spans"]])
        for r in ranks)
    window = max(r["end"] for r in ranks) - min(r["start"] for r in ranks)
    layers["runtime.parent_s"] = wall - window - recorder.root_time(during)
    return layers


if __name__ == "__main__":
    main()
