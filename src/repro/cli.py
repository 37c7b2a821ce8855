"""Command-line interface: ``python -m repro <command> ...``.

Ten subcommands cover the library's main workflows:

* ``detect``      -- community detection on an edge-list file (optionally
  recording a structured trace with ``--trace`` / ``--trace-format`` --
  JSONL traces stream to disk incrementally -- or running under the
  invariant sanitizer with ``--sanitize``);
* ``generate``    -- write an LFR / R-MAT / BTER / proxy graph to disk;
* ``info``        -- structural statistics of an edge-list file;
* ``experiment``  -- regenerate one of the paper's tables/figures by id
  (Figs. 4, 7, 8, 9 and Table III run their checked-in benchmark matrix);
* ``report``      -- render a recorded JSONL trace as convergence and
  phase-breakdown tables (the data behind Figs. 2, 4 and 8);
* ``trace``       -- the golden-trace regression gate (``record`` /
  ``compare`` over the checked-in goldens), ``diff`` for fingerprinting two
  arbitrary recorded traces against each other, and ``tail`` for live
  monitoring of a streaming trace;
* ``serve``       -- long-lived detection service with a job queue, worker
  pool, versioned snapshot store and HTTP API (:mod:`repro.service`);
* ``bench``       -- declarative benchmark matrix (:mod:`repro.bench`):
  ``run`` a TOML/JSON matrix into ``run_table.csv`` + ``BENCH_<label>.json``,
  ``report`` a summary as markdown, ``compare`` two summaries as the CI perf
  gate, ``cells`` to dry-run the expansion;
* ``load``        -- load-test + SLO harness (:mod:`repro.loadgen`): ``run``
  a TOML traffic scenario against a self-booted or external ``repro
  serve``, ``report`` a stored ``LOAD_<label>.json``, ``compare`` two runs
  as a latency/throughput regression gate;
* ``check``       -- run the :mod:`repro.analysis` superstep-safety linter
  over source files or directories.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scalable Community Detection with the Louvain "
            "Algorithm' (Que et al., IPDPS 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="detect communities in an edge list")
    detect.add_argument("input", help="edge-list file (src dst [weight] per line)")
    detect.add_argument(
        "--algorithm",
        choices=["parallel", "sequential", "naive", "lpa"],
        default="parallel",
    )
    detect.add_argument("--ranks", type=int, default=4, help="simulated rank count")
    detect.add_argument(
        "--backend", choices=["hash", "vector"], default=None,
        help="parallel data-plane: paper-faithful hash tables or the "
        "numpy CSR kernels (identical output, ~10x faster); defaults to "
        "hash, or vector under --execution process",
    )
    detect.add_argument(
        "--execution", choices=["simulated", "process"], default="simulated",
        help="run the parallel algorithm in-process (simulated ranks) or "
        "as true SPMD worker processes over shared memory "
        "(--algorithm parallel|naive only; bitwise-identical results)",
    )
    detect.add_argument(
        "--machine", choices=["p7ih", "bgq"], default=None,
        help="attach modeled execution times for this machine",
    )
    detect.add_argument("--seed", type=int, default=0)
    detect.add_argument("--output", help="write 'vertex community' lines here")
    detect.add_argument("--dendrogram", help="write the hierarchy as JSON here")
    detect.add_argument(
        "--trace", metavar="PATH",
        help="record a structured run trace and write it here",
    )
    detect.add_argument(
        "--trace-format", choices=["jsonl", "chrome", "prom"], default="jsonl",
        help="trace output format: JSONL event log (repro report input), "
        "Chrome trace_event JSON (chrome://tracing / Perfetto), or a "
        "Prometheus text snapshot",
    )
    detect.add_argument(
        "--sanitize", action="store_true",
        help="run under the runtime invariant sanitizer (parallel/naive "
        "only); violated invariants abort with a structured report",
    )

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument(
        "family", choices=["lfr", "rmat", "bter"], help="generator family"
    )
    gen.add_argument("--output", required=True, help="edge-list output path")
    gen.add_argument("--vertices", type=int, default=1000)
    gen.add_argument("--avg-degree", type=float, default=16.0)
    gen.add_argument("--max-degree", type=int, default=64)
    gen.add_argument("--mixing", type=float, default=0.3, help="LFR mu")
    gen.add_argument("--scale", type=int, default=10, help="R-MAT scale (2^s vertices)")
    gen.add_argument("--edge-factor", type=int, default=16, help="R-MAT edges/vertex")
    gen.add_argument("--rho", type=float, default=0.6, help="BTER block density")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--ground-truth", help="also write planted communities here (LFR only)"
    )

    info = sub.add_parser("info", help="structural statistics of an edge list")
    info.add_argument("input")
    info.add_argument(
        "--clustering", action="store_true",
        help="also compute the global clustering coefficient (slow on big graphs)",
    )

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument(
        "id",
        choices=[
            "table1", "fig2", "fig4", "fig5", "table3",
            "fig6", "fig7", "fig8", "table4", "fig9",
        ],
    )
    exp.add_argument(
        "--scale", type=float, default=None,
        help="proxy size multiplier for table1/fig2/fig6 (default 0.5; 1.0 = "
        "full laptop scale); the other ids run their checked-in benchmark "
        "matrix at its own sizes",
    )

    rep = sub.add_parser(
        "report", help="render a recorded JSONL trace as run-dynamics tables"
    )
    rep.add_argument("trace", help="JSONL trace recorded with detect --trace")
    rep.add_argument(
        "--section", choices=["all", "convergence", "phases", "tables"],
        default="all", help="which table(s) to print",
    )

    trc = sub.add_parser(
        "trace",
        help="golden-trace regression gate + live trace monitoring",
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)

    trc_rec = trc_sub.add_parser(
        "record", help="record golden traces for the gated benchmarks"
    )
    trc_rec.add_argument(
        "names", nargs="*",
        help="benchmark names (default: all registered benchmarks)",
    )
    trc_rec.add_argument(
        "--dir", default=None, dest="golden_dir", metavar="DIR",
        help="golden directory (default: benchmarks/goldens)",
    )

    trc_cmp = trc_sub.add_parser(
        "compare",
        help="re-run the gated benchmarks and diff against the goldens "
        "(non-zero exit on drift)",
    )
    trc_cmp.add_argument("names", nargs="*", help="benchmark names (default: all)")
    trc_cmp.add_argument(
        "--dir", default=None, dest="golden_dir", metavar="DIR",
        help="golden directory (default: benchmarks/goldens)",
    )
    trc_cmp.add_argument(
        "--backend", choices=["hash", "vector"], default=None,
        help="re-run the benchmarks under this backend (goldens are "
        "recorded with the hash reference; --backend vector gates the "
        "vectorized kernels against them)",
    )
    trc_cmp.add_argument(
        "--execution", choices=["simulated", "process"], default=None,
        help="re-run the parallel, naive and dynamic benchmarks under this "
        "runtime (--execution process is the zero-tolerance "
        "SPMD-equivalence gate for the multi-process runtime; implies "
        "--backend vector)",
    )
    trc_cmp.add_argument(
        "--perturb-p1", type=float, default=1.0, metavar="FACTOR",
        help="self-test knob: multiply the Eq.-7 schedule's p1 by FACTOR "
        "for the current run (the gate must then report drift)",
    )
    _add_tolerance_flags(trc_cmp)

    trc_diff = trc_sub.add_parser(
        "diff",
        help="fingerprint-diff two recorded traces (no golden registry "
        "needed; non-zero exit on drift)",
    )
    trc_diff.add_argument("golden", help="baseline JSONL trace (or .fingerprint.json)")
    trc_diff.add_argument("current", help="trace to compare against the baseline")
    _add_tolerance_flags(trc_diff)

    trc_sub.add_parser("list", help="list the registered golden benchmarks")

    trc_tail = trc_sub.add_parser(
        "tail", help="print a JSONL trace event-per-line (optionally live)"
    )
    trc_tail.add_argument("path", help="JSONL trace (may still be being written)")
    trc_tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling for new events until run_end (tail -f style)",
    )
    trc_tail.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="poll interval in follow mode",
    )
    trc_tail.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up after this long with no run_end (follow mode)",
    )

    srv = sub.add_parser(
        "serve",
        help="long-lived detection service: job queue + worker pool + "
        "versioned snapshot store behind an HTTP API",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8737)
    srv.add_argument("--workers", type=int, default=2, help="worker threads")
    srv.add_argument(
        "--queue-capacity", type=int, default=64,
        help="max waiting jobs before submissions get 503 backpressure",
    )
    srv.add_argument("--ranks", type=int, default=4, help="default simulated ranks")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument(
        "--execution", choices=["simulated", "process"], default="simulated",
        help="default runtime for detection jobs: in-process simulated "
        "ranks or true SPMD worker processes over shared memory",
    )
    srv.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock budget (default: unlimited)",
    )
    srv.add_argument(
        "--max-retries", type=int, default=0,
        help="default retries for transiently-failing jobs",
    )
    srv.add_argument(
        "--store-capacity", type=int, default=32,
        help="snapshots retained for point-in-time queries (oldest evicted)",
    )
    srv.add_argument(
        "--graph", metavar="PATH", default=None,
        help="edge-list file to load and submit as the first detection job",
    )
    srv.add_argument(
        "--trace-dir", default="service-traces", metavar="DIR",
        help="directory for the rotating JSONL trace segments",
    )
    srv.add_argument(
        "--trace-segment-bytes", type=int, default=4_000_000, metavar="N",
        help="rotate the service trace after a segment reaches N bytes",
    )
    srv.add_argument(
        "--trace-segments", type=int, default=8, metavar="N",
        help="segments kept before the oldest is deleted",
    )
    srv.add_argument(
        "--no-trace", action="store_true",
        help="disable the service trace sink entirely",
    )
    srv.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )

    ben = sub.add_parser(
        "bench",
        help="declarative benchmark matrix: run / report / compare / cells",
    )
    ben_sub = ben.add_subparsers(dest="bench_command", required=True)

    ben_run = ben_sub.add_parser(
        "run", help="execute a matrix file; write run_table.csv + BENCH_<label>.json"
    )
    ben_run.add_argument("matrix", help="TOML/JSON matrix file (benchmarks/matrices/)")
    ben_run.add_argument(
        "--out-dir", default="bench-results", metavar="DIR",
        help="artifact directory (created if missing)",
    )
    ben_run.add_argument(
        "--label", default=None,
        help="override the matrix label (names the BENCH json)",
    )
    ben_run.add_argument(
        "--repetitions", type=int, default=None, metavar="N",
        help="override the matrix repetition count",
    )

    ben_rep = ben_sub.add_parser(
        "report", help="render a BENCH_*.json summary as a markdown run table"
    )
    ben_rep.add_argument("summary", help="BENCH_*.json produced by `bench run`")
    ben_rep.add_argument(
        "--group-by", default=None, metavar="FACTOR",
        help="split the table into one section per value of this factor",
    )

    ben_cmp = ben_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json files; non-zero exit when a cell's "
        "median regresses beyond tolerance (the CI perf gate)",
    )
    ben_cmp.add_argument("baseline", help="checked-in baseline BENCH json")
    ben_cmp.add_argument("current", help="freshly produced BENCH json")
    ben_cmp.add_argument(
        "--tolerance", type=float, default=None, metavar="FRAC",
        help="allowed relative wall-clock median increase (default 0.25)",
    )
    ben_cmp.add_argument(
        "--modeled-tolerance", type=float, default=None, metavar="FRAC",
        help="allowed relative modeled-seconds median increase (default "
        "0.05; modeled time is deterministic, so keep this tight)",
    )
    ben_cmp.add_argument(
        "--mem-tolerance", type=float, default=None, metavar="FRAC",
        help="allowed relative peak-memory median increase (default 0.5)",
    )
    ben_cmp.add_argument(
        "--show-ok", action="store_true",
        help="also list in-tolerance comparisons",
    )

    ben_cells = ben_sub.add_parser(
        "cells", help="expand a matrix file and list its cells (dry run)"
    )
    ben_cells.add_argument("matrix", help="TOML/JSON matrix file")

    lod = sub.add_parser(
        "load",
        help="load-test the service: run / report / compare TOML scenarios",
    )
    lod_sub = lod.add_subparsers(dest="load_command", required=True)

    lod_run = lod_sub.add_parser(
        "run",
        help="drive a scenario against repro serve; write load_table.csv "
        "+ LOAD_<label>.json; non-zero exit on SLO violation",
    )
    lod_run.add_argument("scenario", help="TOML/JSON scenario (benchmarks/load/)")
    lod_run.add_argument(
        "--url", default=None, metavar="URL",
        help="target an already-running server instead of booting one "
        "(the scenario's [service] table is ignored)",
    )
    lod_run.add_argument(
        "--out-dir", default="load-results", metavar="DIR",
        help="artifact directory (created if missing)",
    )
    lod_run.add_argument(
        "--label", default=None,
        help="override the scenario label (names the LOAD json)",
    )
    lod_run.add_argument(
        "--duration-scale", type=float, default=1.0, metavar="FACTOR",
        help="multiply ramp/steady durations (CI shrinks, soak runs grow)",
    )
    lod_run.add_argument(
        "--slo", action="append", default=[], metavar="TARGET.KEY=VALUE",
        help="add or override an SLO assertion (repeatable), e.g. "
        "total.p99_ms=500 -- the CI must-fail self-test sets an "
        "impossible bound this way",
    )
    lod_run.add_argument(
        "--no-slo-exit", action="store_true",
        help="report SLO violations but exit 0 anyway (exploratory runs)",
    )

    lod_rep = lod_sub.add_parser(
        "report", help="render a LOAD_*.json summary as markdown"
    )
    lod_rep.add_argument("summary", help="LOAD_*.json produced by `load run`")
    lod_rep.add_argument(
        "--check-slo", action="store_true",
        help="also re-evaluate the stored SLO verdict; non-zero exit if "
        "the stored run had violations",
    )

    lod_cmp = lod_sub.add_parser(
        "compare",
        help="diff two LOAD_*.json files; non-zero exit when p99 grows or "
        "throughput drops beyond tolerance",
    )
    lod_cmp.add_argument("baseline", help="checked-in baseline LOAD json")
    lod_cmp.add_argument("current", help="freshly produced LOAD json")
    lod_cmp.add_argument(
        "--p99-tolerance", type=float, default=None, metavar="FRAC",
        help="allowed relative p99 increase (default 1.0 -- load latency "
        "on shared machines is noisy; this catches step changes)",
    )
    lod_cmp.add_argument(
        "--throughput-tolerance", type=float, default=None, metavar="FRAC",
        help="allowed relative throughput decrease (default 0.3)",
    )
    lod_cmp.add_argument(
        "--show-ok", action="store_true",
        help="also list in-tolerance comparisons",
    )

    chk = sub.add_parser(
        "check",
        help="lint source files for SPMD superstep-safety and lock hazards",
        description=(
            "Static analysis over the repro sources: the spmd profile "
            "checks superstep-protocol discipline in the parallel kernels, "
            "the concurrency profile runs the lock-set dataflow checkers "
            "over threaded code (repro.service, observability sinks)."
        ),
        epilog=(
            "exit codes: 0 = clean (no findings, or all findings "
            "baselined), 1 = findings, 2 = usage error (bad path, unknown "
            "checker/profile, unreadable baseline)"
        ),
    )
    chk.add_argument(
        "paths", nargs="*", default=["src/repro/parallel"],
        help="files or directories to lint (default: src/repro/parallel)",
    )
    chk.add_argument(
        "--select", metavar="CHECKER", action="append", default=None,
        help="run only this checker (repeatable; overrides --profile)",
    )
    chk.add_argument(
        "--profile", choices=["spmd", "concurrency", "all"], default="spmd",
        help="checker family to run (default: spmd)",
    )
    chk.add_argument(
        "--severity", choices=["error", "warning"], default="warning",
        help=(
            "minimum severity to report: 'error' hides warnings, "
            "'warning' (default) shows everything"
        ),
    )
    chk.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    chk.add_argument(
        "--baseline", metavar="PATH", default=None,
        help=(
            "subtract known findings recorded in this JSON baseline; only "
            "new findings fail the run (stale entries are reported)"
        ),
    )
    chk.add_argument(
        "--write-baseline", metavar="PATH", default=None,
        help="write the current findings as a baseline JSON file and exit 0",
    )
    chk.add_argument(
        "--list-checkers", action="store_true",
        help="list registered checkers (with profile/severity) and exit",
    )
    chk.add_argument(
        "--list-suppressions", action="store_true",
        help="audit every '# lint: allow(...)' comment under the paths",
    )
    return parser


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    """Fingerprint tolerance overrides shared by ``trace compare``/``diff``."""
    parser.add_argument(
        "--iterations-tol", type=int, default=None, metavar="N",
        help="allowed per-level iteration-count drift (default 0)",
    )
    parser.add_argument(
        "--movers-tol", type=float, default=None, metavar="FRAC",
        help="allowed relative per-iteration mover-count drift (default 0.02)",
    )
    parser.add_argument(
        "--modularity-tol", type=float, default=None, metavar="ABS",
        help="allowed absolute modularity drift (default 1e-6)",
    )
    parser.add_argument(
        "--records-tol", type=float, default=None, metavar="FRAC",
        help="allowed relative superstep record/byte drift (default 0.02)",
    )
    parser.add_argument(
        "--exact", action="store_true",
        help="zero out every tolerance: the fingerprints must match "
        "bitwise (individual --*-tol flags still apply on top)",
    )


def _tolerances_from_args(args):
    import dataclasses

    from .observability.golden import Tolerances

    tol_kwargs = {}
    if args.exact:
        tol_kwargs = {f.name: 0 for f in dataclasses.fields(Tolerances)}
    if args.iterations_tol is not None:
        tol_kwargs["iterations_abs"] = args.iterations_tol
    if args.movers_tol is not None:
        tol_kwargs["movers_rel"] = args.movers_tol
    if args.modularity_tol is not None:
        tol_kwargs["modularity_abs"] = args.modularity_tol
    if args.records_tol is not None:
        tol_kwargs["records_rel"] = args.records_tol
    return Tolerances(**tol_kwargs)


# --------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------- #


def _read_graph(path):
    """The graph in edge-list file ``path``, or ``None`` after printing
    ``repro: <path>: <cause>`` to stderr (missing file, malformed line)."""
    from .graph import read_edge_list

    try:
        return read_edge_list(path)
    except OSError as exc:
        cause = exc.strerror or str(exc)
    except ValueError as exc:
        cause = str(exc)
    print(f"repro: {path}: {cause}", file=sys.stderr)
    return None


def _rejects_process_hash(args) -> bool:
    """Refuse ``--execution process --backend hash`` on stderr.

    Process mode keeps rank state as flat CSR arrays in shared memory, so
    ``ParallelLouvainConfig`` rejects the hash backend there; every command
    taking both flags says so up front, before any work starts.
    """
    if args.execution == "process" and args.backend == "hash":
        print("--execution process requires --backend vector", file=sys.stderr)
        return True
    return False


def _cmd_detect(args) -> int:
    from .analysis import InvariantViolation
    from .metrics import modularity
    from .observability import JsonlWriterSink, Tracer, export_trace
    from .parallel import build_dendrogram, detect_communities, label_propagation
    from .runtime import BGQ, P7IH

    if args.sanitize and args.algorithm == "sequential":
        print("--sanitize requires --algorithm parallel|naive|lpa", file=sys.stderr)
        return 2
    if args.backend is not None and args.algorithm not in ("parallel", "naive"):
        print("--backend requires --algorithm parallel|naive", file=sys.stderr)
        return 2
    if args.execution == "process" and args.algorithm not in ("parallel", "naive"):
        print(
            "--execution process requires --algorithm parallel|naive",
            file=sys.stderr,
        )
        return 2
    if _rejects_process_hash(args):
        return 2

    graph = _read_graph(args.input)
    if graph is None:
        return 2
    print(f"loaded {graph.num_vertices} vertices / {graph.num_edges} edges")
    machine = {"p7ih": P7IH, "bgq": BGQ, None: None}[args.machine]
    # JSONL traces stream to disk as events are emitted (O(1) events in
    # memory; the file can be followed live with `repro trace tail -f`).
    # Chrome/Prometheus exports are whole-stream projections, so those
    # buffer and export at the end.
    sink = None
    tracer = None
    if args.trace:
        if args.trace_format == "jsonl":
            sink = JsonlWriterSink(args.trace)
            tracer = Tracer(sink=sink, buffer=False)
        else:
            tracer = Tracer()
    t0 = time.perf_counter()
    try:
        if args.algorithm == "lpa":
            res = label_propagation(
                graph, num_ranks=args.ranks, seed=args.seed, tracer=tracer,
                sanitize=args.sanitize or None,
            )
            membership = res.membership
            q = modularity(graph, membership)
            print(
                f"label propagation: Q={q:.4f}, {res.num_communities} "
                f"communities, {res.iterations} iterations"
            )
            raw = None
            profiler = res.simulation.profiler
        else:
            backend_kwargs = {}
            if args.algorithm in ("parallel", "naive"):
                if args.backend is not None:
                    backend_kwargs["backend"] = args.backend
                backend_kwargs["execution"] = args.execution
            summary = detect_communities(
                graph, algorithm=args.algorithm, num_ranks=args.ranks,
                machine=machine, seed=args.seed, tracer=tracer,
                sanitize=args.sanitize or None, **backend_kwargs,
            )
            membership = summary.membership
            print(
                f"{summary.algorithm}: Q={summary.modularity:.4f}, "
                f"{summary.num_communities} communities, "
                f"{summary.num_levels} levels"
            )
            if summary.modeled_total_seconds is not None:
                print(
                    f"modeled {machine.name} time: "
                    f"{summary.modeled_total_seconds:.4f}s"
                )
            raw = summary.raw
            # Only the rank runtimes keep a profiler.
            profiler = (
                raw.simulation.profiler if args.algorithm != "sequential" else None
            )
    except InvariantViolation as exc:
        if tracer is not None:
            tracer.close()  # the streamed prefix is still valid JSONL
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    print(f"wall clock: {time.perf_counter() - t0:.2f}s")

    if tracer is not None:
        tracer.close()
        if sink is not None:
            print(
                f"wrote {args.trace} ({sink.num_events} events, jsonl, streamed)"
            )
        else:
            # The Chrome export's modeled track reads the profiler.
            export_trace(
                tracer.events, args.trace, args.trace_format, machine=machine,
                profiler=profiler,
            )
            print(
                f"wrote {args.trace} ({len(tracer.events)} events, "
                f"{args.trace_format})"
            )

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("# vertex community\n")
            for v, c in enumerate(membership.tolist()):
                fh.write(f"{v} {c}\n")
        print(f"wrote {args.output}")
    if args.dendrogram:
        if raw is None:
            print("--dendrogram requires a Louvain algorithm", file=sys.stderr)
            return 2
        with open(args.dendrogram, "w", encoding="utf-8") as fh:
            fh.write(build_dendrogram(raw).to_json())
        print(f"wrote {args.dendrogram}")
    return 0


def _cmd_generate(args) -> int:
    from .generators import (
        BTERParams,
        LFRParams,
        RMATParams,
        generate_bter,
        generate_lfr,
        generate_rmat,
    )
    from .graph import write_edge_list

    ground_truth = None
    if args.family == "lfr":
        inst = generate_lfr(
            LFRParams(
                num_vertices=args.vertices,
                avg_degree=args.avg_degree,
                max_degree=args.max_degree,
                mixing=args.mixing,
            ),
            seed=args.seed,
        )
        graph, ground_truth = inst.graph, inst.ground_truth
    elif args.family == "rmat":
        graph = generate_rmat(
            RMATParams(scale=args.scale, edge_factor=args.edge_factor), seed=args.seed
        )
    else:
        graph = generate_bter(
            BTERParams(
                num_vertices=args.vertices,
                avg_degree=args.avg_degree,
                max_degree=args.max_degree,
                rho=args.rho,
            ),
            seed=args.seed,
        ).graph
    write_edge_list(graph, args.output, write_weights=False)
    print(
        f"wrote {args.output}: {graph.num_vertices} vertices / {graph.num_edges} edges"
    )
    if args.ground_truth:
        if ground_truth is None:
            print("--ground-truth is only available for LFR", file=sys.stderr)
            return 2
        with open(args.ground_truth, "w", encoding="utf-8") as fh:
            fh.write("# vertex community\n")
            for v, c in enumerate(ground_truth.tolist()):
                fh.write(f"{v} {c}\n")
        print(f"wrote {args.ground_truth}")
    return 0


def _cmd_info(args) -> int:
    from .graph import (
        approximate_diameter,
        connected_components,
        global_clustering_coefficient,
    )

    graph = _read_graph(args.input)
    if graph is None:
        return 2
    deg = graph.degrees()
    comps = connected_components(graph)
    print(f"vertices          : {graph.num_vertices}")
    print(f"edges             : {graph.num_edges}")
    print(f"total weight (m)  : {graph.total_weight:g}")
    if deg.size:
        print(f"degree min/avg/max: {deg.min()} / {deg.mean():.2f} / {deg.max()}")
    print(f"components        : {np.unique(comps).size}")
    print(f"diameter (approx) : >= {approximate_diameter(graph)}")
    if args.clustering:
        print(f"global clustering : {global_clustering_coefficient(graph):.4f}")
    return 0


def _cmd_experiment(args) -> int:
    from . import harness as hx
    from .harness import experiments

    matrices = experiments.FIGURE_MATRICES.get(args.id)
    if matrices is not None:
        paths = ", ".join(str(experiments.MATRIX_DIR / m) for m in matrices)
        if args.scale is not None:
            print(
                f"--scale does not apply to {args.id}; its sizes are "
                f"fixed by {paths}",
                file=sys.stderr,
            )
            return 2
        if not experiments.MATRIX_DIR.is_dir():
            print(
                f"{args.id} runs the checked-in benchmark matrices, "
                f"but {experiments.MATRIX_DIR} does not exist (run from a "
                "source checkout)",
                file=sys.stderr,
            )
            return 2
        print(experiments.render_figure(args.id))
        return 0

    scale = 0.5 if args.scale is None else args.scale
    if args.id == "table1":
        rows = hx.run_table1(scale=scale)
        print(hx.format_table(
            ["Category", "Size", "Name", "Orig |V|", "Orig |E|", "Proxy |V|", "Proxy |E|"],
            [[r.category, r.size_class, r.name, r.orig_vertices, r.orig_edges,
              r.proxy_vertices, r.proxy_edges] for r in rows],
            title="Table I",
        ))
    elif args.id == "fig2":
        res = hx.run_fig2(num_vertices=int(800 * scale) or 300, runs_per_config=4)
        print(f"fitted p1={res.fitted_p1:.4f} p2={res.fitted_p2:.4f}")
        print(hx.format_series(
            "eq7", list(range(1, len(res.predicted) + 1)), res.predicted
        ))
    elif args.id == "fig6":
        res = hx.run_fig6(rmat_scale=max(12, int(17 * scale)))
        for h in res.hash_names:
            print(
                f"{h}: avg bin {res.avg_bin[h].mean():.2f}, "
                f"max bin {res.max_bin[h].max()}"
            )
    return 0


def _cmd_report(args) -> int:
    from .observability import (
        format_convergence_table,
        format_phase_table,
        format_report,
        format_table_stats,
        read_jsonl,
        run_header,
    )

    try:
        events = read_jsonl(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"trace {args.trace} holds no events", file=sys.stderr)
        return 2
    if args.section == "all":
        print(format_report(events))
    elif args.section == "convergence":
        print(run_header(events))
        print(format_convergence_table(events))
    elif args.section == "phases":
        print(run_header(events))
        print(format_phase_table(events))
    else:
        print(run_header(events))
        print(format_table_stats(events) or "no table_stats events in trace")
    return 0


def _cmd_trace(args) -> int:
    from .observability.golden import (
        DEFAULT_GOLDEN_DIR,
        GOLDEN_BENCHMARKS,
        compare_fingerprints,
        compare_golden,
        format_drift_table,
        golden_path,
        load_fingerprint,
        record_golden,
    )

    if args.trace_command == "list":
        for spec in GOLDEN_BENCHMARKS.values():
            print(
                f"{spec.name:<16s} {spec.family:<7s} "
                f"ranks={spec.num_ranks} seed={spec.seed}  {spec.description}"
            )
        return 0

    if args.trace_command == "tail":
        from .observability import follow_jsonl, iter_jsonl
        from .observability.report import format_event_line

        try:
            if args.follow:
                events = follow_jsonl(
                    args.path, poll_interval=args.poll, timeout=args.timeout
                )
            else:
                events = iter_jsonl(args.path)
            for ev in events:
                print(format_event_line(ev), flush=args.follow)
        except BrokenPipeError:  # e.g. `repro trace tail ... | head`
            return 0
        except OSError as exc:
            print(f"cannot read trace {args.path}: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
        return 0

    if args.trace_command == "diff":
        import json as _json

        fps = []
        for path in (args.golden, args.current):
            try:
                fps.append(load_fingerprint(path))
            except (OSError, ValueError, KeyError, _json.JSONDecodeError) as exc:
                print(f"cannot fingerprint {path}: {exc}", file=sys.stderr)
                return 2
        drifts = compare_fingerprints(fps[0], fps[1], _tolerances_from_args(args))
        if drifts:
            print(f"DRIFT: {args.current} vs {args.golden}")
            print(format_drift_table(drifts))
            return 1
        print(
            f"ok: {args.current} matches {args.golden} within tolerances "
            f"({fps[0].algorithm}, {fps[0].num_levels} levels, "
            f"Q={fps[0].final_modularity:.4f})"
        )
        return 0

    # record / compare share benchmark-name resolution.
    directory = args.golden_dir if args.golden_dir else DEFAULT_GOLDEN_DIR
    names = args.names or list(GOLDEN_BENCHMARKS)
    unknown = [n for n in names if n not in GOLDEN_BENCHMARKS]
    if unknown:
        print(
            f"unknown benchmark(s) {unknown}; "
            f"available: {list(GOLDEN_BENCHMARKS)}",
            file=sys.stderr,
        )
        return 2

    if args.trace_command == "record":
        for name in names:
            spec = GOLDEN_BENCHMARKS[name]
            path = golden_path(spec, directory)
            n_events = record_golden(spec, path)
            print(f"recorded {path} ({n_events} events, streamed)")
        return 0

    # compare
    if _rejects_process_hash(args):
        return 2
    tol = _tolerances_from_args(args)

    total_drift = 0
    for name in names:
        spec = GOLDEN_BENCHMARKS[name]
        path = golden_path(spec, directory)
        try:
            drifts = compare_golden(
                spec, path, tol, perturb_p1=args.perturb_p1,
                backend=args.backend, execution=args.execution,
            )
        except OSError as exc:
            print(
                f"{name}: cannot read golden {path}: {exc} "
                f"(run `repro trace record {name}` first)",
                file=sys.stderr,
            )
            return 2
        if drifts:
            total_drift += len(drifts)
            print(f"{name}: DRIFT vs {path}")
            print(format_drift_table(drifts))
        else:
            print(f"{name}: ok (matches {path})")
    if total_drift:
        print(
            f"golden-trace gate failed: {total_drift} violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    import os

    from .observability import RotatingJsonlSink
    from .service import DetectionService, ServiceServer, run_server

    graph = None
    if args.graph:
        graph = _read_graph(args.graph)
        if graph is None:
            return 2
    sink = None
    if not args.no_trace:
        sink = RotatingJsonlSink(
            os.path.join(args.trace_dir, "service.jsonl"),
            max_segment_bytes=args.trace_segment_bytes,
            max_segments=args.trace_segments,
        )
    service = DetectionService(
        num_workers=args.workers,
        queue_capacity=args.queue_capacity,
        store_capacity=args.store_capacity,
        num_ranks=args.ranks,
        seed=args.seed,
        execution=args.execution,
        default_timeout=args.job_timeout,
        default_max_retries=args.max_retries,
        sink=sink,
    )
    if graph is not None:
        job = service.submit_graph(graph)
        print(
            f"submitted {args.graph} ({graph.num_vertices} vertices / "
            f"{graph.num_edges} edges) as {job.job_id}"
        )
    server = ServiceServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    print(f"serving on {server.address} ({args.workers} workers, "
          f"queue capacity {args.queue_capacity})")
    if sink is not None:
        print(f"tracing to {sink.current_segment} "
              f"(rotating, {args.trace_segments} x {args.trace_segment_bytes} bytes)")
    run_server(server)
    return 0


def _cmd_bench(args) -> int:
    import json as _json
    import os

    from .bench import (
        BenchConfigError,
        Tolerance,
        compare_summaries,
        expand_cells,
        format_bench_report,
        format_compare_table,
        load_config,
        run_matrix,
        write_run_table,
        write_summary,
    )

    if args.bench_command == "run":
        try:
            config = load_config(args.matrix)
        except (OSError, BenchConfigError, ValueError) as exc:
            print(f"cannot load matrix {args.matrix}: {exc}", file=sys.stderr)
            return 2
        if args.label:
            config.label = args.label
        if args.repetitions is not None:
            if args.repetitions < 1:
                print("--repetitions must be >= 1", file=sys.stderr)
                return 2
            config.repetitions = args.repetitions
        n_cells = len(expand_cells(config))
        print(
            f"matrix {config.label}: {n_cells} cell(s) x "
            f"{config.repetitions} rep(s) (+{config.warmup} warmup)"
        )
        try:
            result = run_matrix(config, progress=print)
        except BenchConfigError as exc:
            print(f"matrix error: {exc}", file=sys.stderr)
            return 2
        os.makedirs(args.out_dir, exist_ok=True)
        table_path = os.path.join(args.out_dir, "run_table.csv")
        summary_path = os.path.join(args.out_dir, f"BENCH_{config.label}.json")
        write_run_table(result, table_path)
        write_summary(result, summary_path)
        print(f"wrote {table_path}")
        print(f"wrote {summary_path}")
        return 0

    if args.bench_command == "report":
        try:
            with open(args.summary, "r", encoding="utf-8") as fh:
                summary = _json.load(fh)
        except (OSError, _json.JSONDecodeError) as exc:
            print(f"cannot read summary {args.summary}: {exc}", file=sys.stderr)
            return 2
        print(format_bench_report(summary, group_by=args.group_by))
        return 0

    if args.bench_command == "compare":
        docs = []
        for path in (args.baseline, args.current):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    docs.append(_json.load(fh))
            except (OSError, _json.JSONDecodeError) as exc:
                print(f"cannot read summary {path}: {exc}", file=sys.stderr)
                return 2
        tol_kwargs = {}
        if args.tolerance is not None:
            tol_kwargs["wall_s"] = args.tolerance
        if args.modeled_tolerance is not None:
            tol_kwargs["modeled_s"] = args.modeled_tolerance
        if args.mem_tolerance is not None:
            tol_kwargs["peak_mem_bytes"] = args.mem_tolerance
        result = compare_summaries(docs[0], docs[1], Tolerance(**tol_kwargs))
        print(f"bench compare: {args.current} vs baseline {args.baseline}")
        print(format_compare_table(result, show_ok=args.show_ok))
        return 1 if result.failed else 0

    # cells
    try:
        config = load_config(args.matrix)
        cells = expand_cells(config)
    except (OSError, BenchConfigError, ValueError) as exc:
        print(f"cannot expand matrix {args.matrix}: {exc}", file=sys.stderr)
        return 2
    print(
        f"{config.label}: {len(cells)} cell(s), factors "
        f"{list(config.factors) or '(none)'}"
    )
    for cell in cells:
        params = {k: v for k, v in sorted(cell.params.items())}
        print(f"  {cell.cell_id}: {params}")
    return 0


def _cmd_load(args) -> int:
    import dataclasses
    import json as _json
    import os

    from .loadgen import (
        LoadConfigError,
        compare_load_summaries,
        evaluate_slos,
        format_load_compare,
        format_load_report,
        load_scenario,
        parse_slo_overrides,
        run_scenario,
        write_load_summary,
        write_load_table,
    )

    if args.load_command == "run":
        try:
            scenario = load_scenario(args.scenario)
            overrides = parse_slo_overrides(args.slo)
        except (OSError, LoadConfigError, ValueError) as exc:
            print(f"cannot load scenario {args.scenario}: {exc}", file=sys.stderr)
            return 2
        if args.label:
            scenario = dataclasses.replace(scenario, label=args.label)
        if args.duration_scale != 1.0:
            scenario = scenario.scaled(args.duration_scale)
        for target, spec in overrides.items():
            scenario.slos.setdefault(target, {}).update(spec)
        shape = (
            f"{scenario.rate:g} rps open-loop (cap {scenario.max_outstanding})"
            if scenario.mode == "open"
            else f"{scenario.clients} closed-loop clients"
        )
        print(
            f"scenario {scenario.label}: {shape}, "
            f"{scenario.offered_duration_s:g}s offered + "
            f"{scenario.drain_s:g}s drain, poll={scenario.poll}"
        )
        try:
            result = run_scenario(scenario, url=args.url, progress=print)
        except (RuntimeError, LoadConfigError) as exc:
            print(f"load run failed: {exc}", file=sys.stderr)
            return 2
        os.makedirs(args.out_dir, exist_ok=True)
        table_path = os.path.join(args.out_dir, "load_table.csv")
        summary_path = os.path.join(
            args.out_dir, f"LOAD_{scenario.label}.json"
        )
        write_load_table(result, table_path)
        doc = write_load_summary(result, summary_path)
        print(f"wrote {table_path}")
        print(f"wrote {summary_path}")
        print()
        print(format_load_report(doc))
        for check in result.checks:
            print(check.describe())
        if not result.passed and not args.no_slo_exit:
            print("SLO violations -- failing the run", file=sys.stderr)
            return 1
        return 0

    if args.load_command == "report":
        try:
            with open(args.summary, "r", encoding="utf-8") as fh:
                doc = _json.load(fh)
        except (OSError, _json.JSONDecodeError) as exc:
            print(f"cannot read summary {args.summary}: {exc}", file=sys.stderr)
            return 2
        print(format_load_report(doc))
        if args.check_slo:
            # Re-derive the verdict from the stored per-op numbers rather
            # than trusting the stored boolean (guards hand-edited files).
            slos = {
                c["target"]: {} for c in doc.get("slo", {}).get("checks", [])
            }
            for c in doc.get("slo", {}).get("checks", []):
                slos[c["target"]][c["key"]] = c["limit"]
            checks = evaluate_slos(doc.get("ops", {}), slos)
            for check in checks:
                print(check.describe())
            return 0 if all(c.ok for c in checks) else 1
        return 0

    # compare
    docs = []
    for path in (args.baseline, args.current):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append(_json.load(fh))
        except (OSError, _json.JSONDecodeError) as exc:
            print(f"cannot read summary {path}: {exc}", file=sys.stderr)
            return 2
    kwargs = {}
    if args.p99_tolerance is not None:
        kwargs["p99_tolerance"] = args.p99_tolerance
    if args.throughput_tolerance is not None:
        kwargs["throughput_tolerance"] = args.throughput_tolerance
    result = compare_load_summaries(docs[0], docs[1], **kwargs)
    print(f"load compare: {args.current} vs baseline {args.baseline}")
    print(format_load_compare(result, show_ok=args.show_ok))
    return 1 if result.failed else 0


def _cmd_check(args) -> int:
    from .analysis import (
        CHECKERS,
        apply_baseline,
        findings_to_json,
        findings_to_sarif,
        get_checkers,
        list_suppressions,
        load_baseline,
        run_checks,
    )

    if args.list_checkers:
        for checker in get_checkers(None):
            print(
                f"{checker.name:<24s} [{checker.profile}/{checker.severity}] "
                f"{checker.description}"
            )
        return 0
    if args.list_suppressions:
        try:
            suppressions = list_suppressions(args.paths)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for sup in suppressions:
            print(sup.format())
        print(
            f"{len(suppressions)} suppression site(s) in {len(args.paths)} "
            f"path(s)",
            file=sys.stderr,
        )
        return 0
    try:
        findings = run_checks(args.paths, select=args.select, profile=args.profile)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.severity == "error":
        findings = [f for f in findings if f.severity == "error"]
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            findings_to_json(findings), encoding="utf-8"
        )
        print(
            f"wrote {len(findings)} finding(s) to baseline {args.write_baseline}"
        )
        return 0
    stale: list[dict] = []
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
        findings, stale = apply_baseline(findings, baseline)
    if args.output_format == "json":
        sys.stdout.write(findings_to_json(findings))
    elif args.output_format == "sarif":
        rules = {name: cls.description for name, cls in CHECKERS.items()}
        sys.stdout.write(findings_to_sarif(findings, rules))
    else:
        for finding in findings:
            print(finding.format())
    for entry in stale:
        print(
            "stale baseline entry (fixed? regenerate with --write-baseline): "
            f"{entry.get('path')}: [{entry.get('checker')}] "
            f"{entry.get('message')}",
            file=sys.stderr,
        )
    n_paths = len(args.paths)
    noun = "path" if n_paths == 1 else "paths"
    if findings:
        qualifier = " new" if args.baseline else ""
        print(
            f"{len(findings)}{qualifier} finding(s) in {n_paths} {noun}",
            file=sys.stderr,
        )
        return 1
    if args.output_format == "text":
        print(f"clean: no findings in {n_paths} {noun}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "generate": _cmd_generate,
        "info": _cmd_info,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "load": _cmd_load,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `repro report t.jsonl | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
