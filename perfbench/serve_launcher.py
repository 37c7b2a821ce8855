"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS.json [repro serve options]

Installs the wrappers of ``spans.py``, runs the same entry point as
``python3 -m repro serve`` and, once the server has shut down, writes the
recorded spans and per-job event counts to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

from spans import SpanRecorder, install


def main() -> int:
    out_path, serve_args = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder, service=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        with open(out_path, "w") as fh:
            json.dump({
                "spans": recorder.spans,
                "counts": recorder.counts,
                "job_counts": recorder.job_counts,
            }, fh)


if __name__ == "__main__":
    sys.exit(main())
