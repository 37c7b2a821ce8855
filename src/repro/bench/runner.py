"""Execute an expanded benchmark matrix and collect per-repetition metrics.

Each cell runs ``warmup`` untimed repetitions followed by ``repetitions``
timed ones.  Every repetition attaches a buffered
:class:`~repro.observability.Tracer`, so the per-phase breakdown (span
durations) and iteration counts come from the same event stream the
golden-trace gate fingerprints; modeled seconds and GTEPS come from the
run's profiler counters.  Peak memory is sampled with :mod:`tracemalloc`
during a warmup repetition only, keeping the timed repetitions free of
allocation-tracking overhead.

Cell parameter vocabulary (factor fields merged under the template; see
:mod:`repro.bench.config`):

==================  =====================================================
``variant``         ``parallel`` | ``sequential`` | ``naive`` | ``lpa``
``graph``           name of a ``[graphs.*]`` spec
``ranks``           simulated rank count (default 4)
``seed``            detection seed (default 0)
``machine``         ``p7ih`` | ``bgq`` -- enables modeled seconds
``threads``         threads/node for the machine model
``nodes``           node count for the machine model (default: ranks)
``work_scale``      float, or ``"paper"`` (Table I extrapolation)
``work_edges``      target edge count; ``work_scale`` becomes
                    ``work_edges / proxy edges`` (weak-scaling sweeps)
``execution``       ``simulated`` | ``process`` (true SPMD workers;
                    ``parallel`` variant only, implies vector backend)
``schedule_p1/p2``  Eq.-7 schedule override
*anything else*     forwarded as algorithm config (``max_inner``, ...)
==================  =====================================================
"""

from __future__ import annotations

import csv
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

from .config import BenchConfig, BenchConfigError, Cell, expand_cells
from .stats import summarize

__all__ = [
    "RepMetrics",
    "CellResult",
    "MatrixResult",
    "run_matrix",
    "write_run_table",
    "build_summary",
    "write_summary",
    "environment_stamp",
    "RUN_TABLE_COLUMNS",
]

#: Metric columns of run_table.csv (factor columns are inserted before them).
RUN_TABLE_COLUMNS = [
    "wall_s",
    "peak_mem_bytes",
    "modularity",
    "num_levels",
    "num_communities",
    "num_iterations",
    "modeled_s",
    "seq_reference_s",
    "gteps",
    "outlier",
]

#: Metrics summarized as full SampleStats in the BENCH json.
SUMMARY_METRICS = ("wall_s", "modularity", "modeled_s", "seq_reference_s", "gteps")

#: Metrics summarized as a single median (discrete counts).
SCALAR_METRICS = ("num_levels", "num_communities", "num_iterations")

BENCH_SCHEMA_VERSION = 1


@dataclass
class RepMetrics:
    """Everything measured in one repetition of one cell."""

    kind: str  # "warmup" | "timed"
    wall_s: float
    peak_mem_bytes: int | None = None
    modularity: float | None = None
    num_levels: int | None = None
    num_communities: int | None = None
    num_iterations: int | None = None
    modeled_s: float | None = None
    seq_reference_s: float | None = None
    gteps: float | None = None
    phases: dict[str, float] = field(default_factory=dict)
    #: Final membership array; populated only with ``keep_membership=True``.
    membership: Any = None
    #: Raw algorithm result; populated only with ``keep_raw=True`` (lets
    #: wrappers project structure the summary drops, e.g. the Fig. 8
    #: per-level/per-iteration modeled breakdowns).
    raw: Any = None
    #: The cell's resolved work-scale multiplier (None when no scaling).
    work_scale: float | None = None


@dataclass
class CellResult:
    cell: Cell
    reps: list[RepMetrics] = field(default_factory=list)
    timed_out: bool = False

    @property
    def timed(self) -> list[RepMetrics]:
        return [r for r in self.reps if r.kind == "timed"]


@dataclass
class MatrixResult:
    config: BenchConfig
    cells: list[CellResult]
    environment: dict[str, Any]
    factor_names: list[str]


# --------------------------------------------------------------------- #
# Cell execution
# --------------------------------------------------------------------- #

_RUNNER_KEYS = {
    "variant", "graph", "ranks", "seed", "machine", "threads", "nodes",
    "backend", "execution", "work_scale", "work_edges",
    "schedule_p1", "schedule_p2",
}


def _resolve_machine(name: str | None):
    if name is None:
        return None
    from ..runtime import BGQ, P7IH

    table = {"p7ih": P7IH, "bgq": BGQ}
    try:
        return table[str(name).lower()]
    except KeyError:
        raise BenchConfigError(
            f"unknown machine {name!r} (use one of {sorted(table)})"
        ) from None


def _build_graph(spec: dict[str, Any], cache: dict[str, Any]):
    key = json.dumps(spec, sort_keys=True, default=str)
    if key in cache:
        return cache[key]
    from ..generators import GRAPH_FAMILIES, build_graph

    family = spec.get("family")
    if family not in GRAPH_FAMILIES:
        raise BenchConfigError(
            f"unknown graph family {family!r} (use {'/'.join(GRAPH_FAMILIES)})"
        )
    params = {k: v for k, v in spec.items() if k not in ("family", "seed")}
    graph = cache[key] = build_graph(family, params, seed=int(spec.get("seed", 0)))
    return graph


def _resolve_work_scale(value: Any, graph_spec: dict[str, Any], graph) -> float | None:
    if value is None:
        return None
    if value == "paper":
        if graph_spec.get("family") != "social":
            raise BenchConfigError(
                "work_scale='paper' requires a social-family graph"
            )
        from ..harness import paper_work_scale

        return paper_work_scale(str(graph_spec["name"]), graph.num_edges)
    return float(value)


def _run_once(
    cell: Cell,
    graph,
    graph_spec: dict[str, Any],
    *,
    keep_membership: bool,
    keep_raw: bool = False,
) -> RepMetrics:
    """One repetition: run the variant, project metrics off the trace."""
    from ..observability import Tracer, iteration_counts, phase_durations

    p = cell.params
    variant = str(p.get("variant", "parallel"))
    execution = str(p.get("execution", "simulated"))
    backend = p.get("backend")
    if execution not in ("simulated", "process"):
        raise BenchConfigError(
            f"unknown execution {execution!r} (use simulated/process)"
        )
    if execution == "process" and variant != "parallel":
        raise BenchConfigError(
            "execution = 'process' requires variant = 'parallel'; exclude "
            "the combination for other variants"
        )
    ranks = int(p.get("ranks", 4))
    seed = int(p.get("seed", 0))
    machine = _resolve_machine(p.get("machine"))
    threads = None if p.get("threads") is None else int(p["threads"])
    nodes = None if p.get("nodes") is None else int(p["nodes"])
    work_scale = _resolve_work_scale(p.get("work_scale"), graph_spec, graph)
    if p.get("work_edges") is not None:
        if work_scale is not None:
            raise BenchConfigError("pass work_scale or work_edges, not both")
        work_scale = float(p["work_edges"]) / max(1, graph.num_edges)
    extras = {k: v for k, v in p.items() if k not in _RUNNER_KEYS}

    schedule = None
    if p.get("schedule_p1") is not None or p.get("schedule_p2") is not None:
        from ..parallel import ExponentialSchedule

        sched_kwargs = {}
        if p.get("schedule_p1") is not None:
            sched_kwargs["p1"] = float(p["schedule_p1"])
        if p.get("schedule_p2") is not None:
            sched_kwargs["p2"] = float(p["schedule_p2"])
        schedule = ExponentialSchedule(**sched_kwargs)

    if variant == "lpa":
        from ..metrics import modularity
        from ..parallel import label_propagation

        if backend not in (None, "hash"):
            raise BenchConfigError("lpa cells take no backend override")
        tracer = Tracer()
        t0 = time.perf_counter()
        res = label_propagation(
            graph, num_ranks=ranks, seed=seed, tracer=tracer, **extras
        )
        wall = time.perf_counter() - t0
        return RepMetrics(
            kind="timed",
            wall_s=wall,
            modularity=float(modularity(graph, res.membership)),
            num_levels=1,
            num_communities=int(res.num_communities),
            num_iterations=int(res.iterations),
            # LPA spans are flat ("LPA/PROPAGATE" is a literal name, not
            # nesting), so no top-level roll-up is needed or wanted.
            phases=phase_durations(tracer.events),
            membership=res.membership if keep_membership else None,
        )

    if variant not in ("parallel", "sequential", "naive"):
        raise BenchConfigError(
            f"unknown variant {variant!r} (use parallel/sequential/naive/lpa)"
        )
    from ..parallel import detect_communities

    if variant == "sequential" and extras:
        raise BenchConfigError(
            f"sequential cells take no extra options: {sorted(extras)}"
        )

    tracer = Tracer()
    kwargs: dict[str, Any] = dict(
        algorithm=variant, num_ranks=ranks, seed=seed, tracer=tracer
    )
    if variant != "sequential":
        if backend is not None:
            kwargs["backend"] = backend
        if variant == "parallel":
            kwargs["execution"] = execution
        kwargs.update(extras)
        if schedule is not None:
            kwargs["schedule"] = schedule
    elif schedule is not None:
        raise BenchConfigError("sequential cells take no schedule override")
    elif backend not in (None, "hash"):
        raise BenchConfigError(
            "sequential cells have no rank data-plane; drop the backend "
            "factor or exclude backend != 'hash' for variant = 'sequential'"
        )

    t0 = time.perf_counter()
    summary = detect_communities(graph, **kwargs)
    wall = time.perf_counter() - t0

    rep = RepMetrics(
        kind="timed",
        wall_s=wall,
        modularity=float(summary.modularity),
        num_levels=int(summary.num_levels),
        num_communities=int(summary.num_communities),
        num_iterations=sum(iteration_counts(tracer.events).values()) or None,
        phases=phase_durations(tracer.events, top=True),
        membership=summary.membership if keep_membership else None,
        raw=summary.raw if keep_raw else None,
        work_scale=work_scale,
    )
    if machine is not None and variant in ("parallel", "naive"):
        from ..harness import sequential_reference_seconds
        from ..runtime.machine import total_time

        scale = 1.0 if work_scale is None else work_scale
        rep.modeled_s = total_time(
            summary.raw.simulation.profiler.phases, machine,
            threads=threads, nodes=nodes, work_scale=scale,
        )
        rep.seq_reference_s = sequential_reference_seconds(
            summary.raw, machine, scale
        )
        if work_scale is not None:
            from ..harness import gteps as _gteps

            rep.gteps = _gteps(
                int(graph.num_edges * scale), summary.raw, machine,
                threads=threads, nodes=nodes, work_scale=scale,
            )
    return rep


def run_matrix(
    config: BenchConfig,
    *,
    keep_membership: bool = False,
    keep_raw: bool = False,
    progress: Callable[[str], None] | None = None,
) -> MatrixResult:
    """Run every cell of the matrix; return raw per-repetition results.

    ``timeout_seconds`` is a soft per-cell budget checked between
    repetitions: an over-budget cell keeps the repetitions it finished and is
    flagged ``timed_out`` (remaining repetitions are skipped), so one
    pathological cell cannot stall the whole matrix.
    """
    cells = expand_cells(config)
    graph_cache: dict[str, Any] = {}
    say = progress if progress is not None else (lambda _msg: None)
    results: list[CellResult] = []

    for cell in cells:
        graph_name = cell.params.get("graph")
        if graph_name is None:
            raise BenchConfigError(f"cell {cell.cell_id!r} names no graph")
        graph_spec = config.resolve_graph(str(graph_name), cell.params)
        graph = _build_graph(graph_spec, graph_cache)
        result = CellResult(cell=cell)
        started = time.perf_counter()

        def over_budget() -> bool:
            return (
                config.timeout_seconds is not None
                and time.perf_counter() - started > config.timeout_seconds
            )

        # Warmup repetitions; the last one doubles as the tracemalloc
        # sample so timed repetitions never pay allocation tracking.  With
        # warmup=0 a dedicated measurement repetition fills that role.
        n_warmup = max(1, config.warmup)
        for w in range(n_warmup):
            measure = w == n_warmup - 1
            if measure:
                tracemalloc.start()
            try:
                rep = _run_once(
                    cell, graph, graph_spec, keep_membership=False
                )
            finally:
                if measure:
                    _, peak = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
            rep.kind = "warmup"
            if measure:
                rep.peak_mem_bytes = int(peak)
            result.reps.append(rep)
            if over_budget():
                result.timed_out = True
                break

        if not result.timed_out:
            for _ in range(config.repetitions):
                rep = _run_once(
                    cell, graph, graph_spec,
                    keep_membership=keep_membership, keep_raw=keep_raw,
                )
                result.reps.append(rep)
                if over_budget():
                    result.timed_out = len(result.timed) < config.repetitions
                    break

        timed = result.timed
        status = "TIMEOUT" if result.timed_out else "ok"
        med = (
            summarize([r.wall_s for r in timed]).median if timed else float("nan")
        )
        say(
            f"[{cell.cell_id}] {status}: {len(timed)}/{config.repetitions} reps, "
            f"median wall {med:.4f}s"
        )
        results.append(result)

    return MatrixResult(
        config=config,
        cells=results,
        environment=environment_stamp(),
        factor_names=list(config.factors),
    )


# --------------------------------------------------------------------- #
# Artifacts
# --------------------------------------------------------------------- #


def environment_stamp() -> dict[str, Any]:
    """Where/when the matrix ran (stored in the BENCH json)."""
    import numpy as np

    stamp: dict[str, Any] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if sha.returncode == 0:
            stamp["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return stamp


def write_run_table(result: MatrixResult, path: str) -> None:
    """The full repetition-level CSV (one row per rep, warmups included)."""
    factor_cols = [f"factor:{name}" for name in result.factor_names]
    header = ["label", "cell", "rep", "kind", *factor_cols, *RUN_TABLE_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cell_result in result.cells:
            outliers = _wall_outliers(cell_result)
            timed_idx = 0
            for i, rep in enumerate(cell_result.reps):
                if rep.kind == "timed":
                    flagged = timed_idx in outliers
                    timed_idx += 1
                else:
                    flagged = False
                writer.writerow([
                    result.config.label,
                    cell_result.cell.cell_id,
                    i,
                    rep.kind,
                    *[
                        cell_result.cell.factors[name]
                        for name in result.factor_names
                    ],
                    _csv(rep.wall_s),
                    _csv(rep.peak_mem_bytes),
                    _csv(rep.modularity),
                    _csv(rep.num_levels),
                    _csv(rep.num_communities),
                    _csv(rep.num_iterations),
                    _csv(rep.modeled_s),
                    _csv(rep.seq_reference_s),
                    _csv(rep.gteps),
                    int(flagged),
                ])


def _csv(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return value


def _wall_outliers(cell_result: CellResult) -> set[int]:
    timed = cell_result.timed
    if not timed:
        return set()
    return set(summarize([r.wall_s for r in timed]).outliers)


def build_summary(result: MatrixResult) -> dict[str, Any]:
    """The compact ``BENCH_<label>.json`` document."""
    cells: dict[str, Any] = {}
    for cell_result in result.cells:
        timed = cell_result.timed
        metrics: dict[str, Any] = {}
        if timed:
            for name in SUMMARY_METRICS:
                values = [getattr(r, name) for r in timed]
                if all(v is not None for v in values):
                    metrics[name] = summarize(values).to_dict()
        mem = [
            r.peak_mem_bytes
            for r in cell_result.reps
            if r.peak_mem_bytes is not None
        ]
        if mem:
            metrics["peak_mem_bytes"] = summarize(mem).to_dict()
        scalars = {}
        for name in SCALAR_METRICS:
            values = [getattr(r, name) for r in timed]
            if values and all(v is not None for v in values):
                scalars[name] = summarize(values).median
        phases: dict[str, float] = {}
        phase_names = sorted({k for r in timed for k in r.phases})
        for phase in phase_names:
            phases[phase] = summarize(
                [r.phases.get(phase, 0.0) for r in timed]
            ).median
        cells[cell_result.cell.cell_id] = {
            "factors": cell_result.cell.factors,
            "repetitions": len(timed),
            "timed_out": cell_result.timed_out,
            "metrics": metrics,
            "scalars": scalars,
            "phases": phases,
        }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "label": result.config.label,
        "environment": result.environment,
        "config": {
            "repetitions": result.config.repetitions,
            "warmup": result.config.warmup,
            "timeout_seconds": result.config.timeout_seconds,
            "factors": result.config.factors,
        },
        "cells": cells,
    }


def write_summary(result: MatrixResult, path: str) -> dict[str, Any]:
    summary = build_summary(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")
    return summary
