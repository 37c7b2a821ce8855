"""Record the input hashes and membership fingerprints the benchmark checks.

    python3 perfbench/reference.py

Rewrites ``reference.json`` and prints, for each detect input, the
workload's parallel Q beside the sequential Louvain Q, the quality
reference in METRICS.md.  Run it only when a workload is meant to change (a
generator or the algorithm's output changed on purpose), and say so in the
change.
"""

from __future__ import annotations

import json

from common import DETECT_INPUTS, REFERENCE, fingerprint, use_program
from detect_sample import WORKLOAD_OPTIONS
from serve_driver import serve_input


def main() -> None:
    use_program()
    import repro
    from run import detect_input

    ref = {"inputs": {}, "fingerprints": {}}
    for workload in DETECT_INPUTS:
        path, digest = detect_input(workload)
        ref["inputs"][workload] = digest
        graph = repro.graph.read_edge_list(path)
        summary = repro.detect_communities(graph, **WORKLOAD_OPTIONS[workload])
        ref["fingerprints"][workload] = fingerprint(summary.membership)
        seq = repro.detect_communities(graph, algorithm="sequential")
        print(f"{workload}: parallel Q {summary.modularity:.4f}, "
              f"sequential Q {seq.modularity:.4f}")
    _, digest = serve_input()
    ref["inputs"]["serve-mixed"] = digest
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
