"""Show that the output checks catch a wrong answer and a refused request.

    python3 perfbench/selftest.py

1. A ``detect-lfr`` call whose membership is corrupted after the run (one
   vertex moved to a new community) must fail the recomputed-Q and
   fingerprint checks, and lower ``success_rate``.
2. ``repro serve`` with one worker and a one-job queue, sent four edge
   batches at once, must refuse some with 503.  Each refusal must count as
   a failed operation and lower ``success_rate``.

Exits 0 when both faults are caught.
"""

from __future__ import annotations

import sys

from common import Run, load_reference, program_present
from run import check_sample, detect_input, detect_sample
from serve_driver import Plan, Server, Session, serve_input


def success_rate(run: Run) -> float:
    return 1.0 - len(run.failures) / max(run.attempted, 1)


def corrupted_membership() -> bool:
    run = Run()
    path, _ = detect_input("detect-lfr")
    sample = detect_sample("detect-lfr", path, False, "--corrupt")
    run.attempted += 1
    check_sample(run, "detect-lfr", sample, load_reference())
    print(f"corrupted membership: success_rate {success_rate(run):.3f}, "
          f"failures {run.failures}")
    return success_rate(run) < 1.0 and not run.correct


def refused_request() -> bool:
    run = Run()
    path, _ = serve_input()
    plan = Plan(1, 1.0)
    plan.phase1 = [(0.0, "edges", plan.batches[i]) for i in range(4)]
    server = Server(path, "selftest", extra_args=(
        "--workers", "1", "--queue-capacity", "1"))
    try:
        server.wait_ready()
        session = Session(server, plan, run)
        session.phase1()
    finally:
        server.stop()
    refused = [f for f in run.failures if "-> 503" in f]
    print(f"refused request: success_rate {success_rate(run):.3f}, "
          f"{len(refused)} of {run.attempted} refused with 503")
    return bool(refused) and success_rate(run) < 1.0


def main() -> int:
    if not program_present():
        print("selftest: run from the root of a checkout", file=sys.stderr)
        return 2
    results = [corrupted_membership(), refused_request()]
    print("selftest", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
