"""Benchmark of the Louvain program: batch detection and the HTTP service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect-lfr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (METRICS.md says why each was chosen):

* ``detect-lfr``       cold ``detect_communities`` on LFR-60k, vector backend,
                       4 simulated ranks;
* ``detect-rmat-proc`` cold ``detect_communities`` on R-MAT scale 16, vector
                       backend, 2 forked rank processes over shared memory;
* ``serve-mixed``      ``repro serve`` under an open-loop read/update mix,
                       then read and update saturation.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics with the benchmark's wrappers installed, next to an
untraced reference.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an output check fails and 2 when the program is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    BENCH_DIR,
    DETECT_INPUTS,
    Q_TOLERANCE,
    ChildPeakRss,
    Run,
    ensure_input,
    load_reference,
    metric_units,
    program_env,
    program_present,
)

WORKLOADS = ("detect-lfr", "detect-rmat-proc", "serve-mixed")

#: Detect samples taken per run at least (medians need three).
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120
#: No sample starts that would end past this many seconds into the run.
RUN_LIMIT_S = 140


# --------------------------------------------------------------------- #
# detect-*
# --------------------------------------------------------------------- #


def detect_input(workload: str) -> tuple[Path, str]:
    kind, params, gen_seed = DETECT_INPUTS[workload]
    return ensure_input(workload, kind, params, gen_seed)


def detect_sample(workload: str, path: Path, trace: bool, *extra: str) -> dict:
    """One fresh process: setup, one cold call, output checks."""
    cmd = [sys.executable, str(BENCH_DIR / "detect_sample.py"),
           "--workload", workload, "--input", str(path),
           "--trace", str(int(trace)), *extra, "--launched"]
    cmd.append(repr(time.monotonic()))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=program_env(), text=True)
    with ChildPeakRss(proc.pid) as workers:
        try:
            out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            for pid in (proc.pid, *workers.peaks):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.communicate()
            return {"error": f"sample exceeded {SAMPLE_TIMEOUT_S}s"}
    if proc.returncode != 0:
        return {"error": f"sample exited {proc.returncode}: {err.strip()[-400:]}"}
    sample = json.loads(out.strip().splitlines()[-1])
    sample["peak_rss_mb"] = (sample["self_rss_kib"] + workers.total_kib) / 1024.0
    return sample


def check_sample(run: Run, workload: str, sample: dict, reference: dict) -> bool:
    if "error" in sample:
        run.fail(sample["error"])
        return False
    problems = []
    if abs(sample["modularity"] - sample["recomputed_modularity"]) > Q_TOLERANCE:
        problems.append(
            f"reported Q {sample['modularity']!r} != recomputed "
            f"{sample['recomputed_modularity']!r}")
    if sample["fingerprint"] != reference["fingerprints"][workload]:
        problems.append(f"membership fingerprint {sample['fingerprint'][:16]} "
                        "differs from the recorded one")
    if sample["leaked_segments"]:
        problems.append(f"leaked shm segments {sample['leaked_segments']}")
    if problems:
        run.fail("; ".join(problems))
    return not problems


def run_detect(workload: str, seconds: float, trace: bool) -> Run:
    run = Run()
    reference = load_reference()
    path, digest = detect_input(workload)
    if digest != reference["inputs"][workload]:
        run.fail(f"input hash {digest[:16]} differs from the recorded one: "
                 "a generator changed, so the workload is not the recorded one")
        run.attempted = 1
        return run
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            sample = detect_sample(workload, path, is_traced)
            run.attempted += 1
            if check_sample(run, workload, sample, reference):
                (traced if is_traced else plain).append(sample)
        if not plain:
            break
        finish_next = time.monotonic() - start + (time.monotonic() - t0)
        enough = trace or run.attempted >= MIN_SAMPLES
        if finish_next > RUN_LIMIT_S or (enough and finish_next > seconds):
            break
    if not plain:
        return run
    if trace:
        detect_layers(run, workload, plain, traced)
        return run
    for name in ("wall_s", "setup_s", "peak_rss_mb", "modularity"):
        run.put(name, np.median([s[name] for s in plain]), len(plain))
    return run


def detect_layers(run: Run, workload: str, plain: list[dict],
                  traced: list[dict]) -> None:
    if not traced:
        return
    for s in traced:
        if (s["fingerprint"], s["modularity"]) != (
                plain[0]["fingerprint"], plain[0]["modularity"]):
            run.fail("traced call returned a different membership or Q")
    n = len(traced)
    for name in sorted(traced[0]["layers"]):
        run.put(name, np.median([s["layers"][name] for s in traced]), n)
    if workload == "detect-rmat-proc":
        run.notes["parallel.build_states_s"] = (
            "process mode splits rank states in process_louvain, not build_states")
    first = traced[0]
    for name in ("parallel.levels", "parallel.iterations", "parallel.movers",
                 "runtime.bytes_sent", "runtime.records_sent",
                 "runtime.messages_sent", "runtime.supersteps",
                 "runtime.shm_bytes_moved"):
        run.put(name, first[name], n)
    run.put("parallel.move_ratio", first["parallel.movers"] / first["scanned"], n)
    for name in SERVICE_LAYER_METRICS:
        run.put(name, 0.0, n, "no service on this workload")
    run.put("driver.late_p99_ms", 0.0, n, "no open loop on this workload")
    run.put("trace.overhead", np.median([s["wall_s"] for s in traced])
            / np.median([s["wall_s"] for s in plain]), n)


SERVICE_LAYER_METRICS = (
    "service.queue_wait_ms.p50", "service.queue_wait_ms.p90",
    "service.run_ms.p50", "service.run_ms.p90", "service.admit_ms.p50",
    *(f"service.handler_ms.{ep}.{q}"
      for ep in ("membership", "diff", "edges", "healthz") for q in ("p50", "p99")),
    "service.outside_handler_ms.p50", "service.outside_handler_ms.p99",
    "service.queue_depth_max", "service.apply_edge_batch_s", "service.store_s",
    "observability.sink_write_s", "observability.events_written",
    "serve.update_p50_ms", "serve.update_p90_ms", "serve.read_p50_ms",
    "serve.read_p99_ms", "serve.max_read_rps", "serve.max_update_rps",
)


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    if workload == "serve-mixed":
        from serve_driver import run_serve

        run = run_serve(seed, seconds, trace)
    else:
        run = run_detect(workload, seconds, trace)
    if trace:
        run.put("driver.attempted", run.attempted)
        run.put("driver.failed", len(run.failures))
    else:
        run.put("success_rate", 1.0 - len(run.failures) / max(run.attempted, 1),
                max(run.attempted, 1))
    return run


def report(workload: str, run: Run, units: dict[str, str]) -> dict:
    if run.correct:
        for name in units.keys() - run.metrics.keys():
            run.fail(f"metric {name} was not measured")
        for name in run.metrics.keys() - units.keys():
            run.fail(f"metric {name} is not declared in BENCHMARK.json")
    print(f"== {workload}: {run.attempted} operations, "
          f"{len(run.failures)} failed")
    for name in sorted(units.keys() & run.metrics.keys()):
        note = f"  [{run.notes[name]}]" if name in run.notes else ""
        print(f"  {name:40s} {run.metrics[name]:>16.6g} {units[name]:6s} "
              f"n={run.samples[name]}{note}")
    for why in run.failures[:20]:
        print(f"  FAILED: {why}")
    return {
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in units.items() if name in run.metrics},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not program_present():
        print("perfbench: no src/repro in the current directory; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        results[workload] = report(workload, run, units)
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    sys.stdout.flush()
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
