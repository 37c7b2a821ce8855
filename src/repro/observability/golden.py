"""Golden-trace regression gate: convergence fingerprints across commits.

The paper's reproducibility claims are *dynamic*: per-level iteration counts,
migration fractions under the Eq.-7 schedule, and per-phase communication
volumes (Figs. 4, 7, 8).  A commit can silently change all of them while the
tier-1 tests stay green.  This module turns a recorded JSONL trace into a
stable :class:`RunFingerprint` -- the convergence/phase signal with
wall-clock noise (timestamps, span durations) projected out -- and compares
fingerprints under configurable :class:`Tolerances`:

* ``repro trace record`` runs each registered benchmark
  (:data:`GOLDEN_BENCHMARKS`: LFR, R-MAT and a Table-I social proxy) through
  a **streaming** :class:`~repro.observability.sinks.JsonlWriterSink` and
  checks the golden trace in under ``benchmarks/goldens/``;
* ``repro trace compare`` re-runs the benchmarks, fingerprints both streams
  and exits non-zero with a human-readable drift table when the current run
  leaves the tolerance envelope (the CI gate).

What goes into a fingerprint (and what deliberately does not):

=====================  ======================================================
kept                   per-level iteration counts, per-iteration mover /
                       candidate counts, the ε and ΔQ̂ sequences, per-level
                       and final modularity, level vertex counts, superstep
                       record / message / byte volumes per phase
dropped                ``ts`` timestamps, span durations, event sequence
                       numbers, table_stats probe timings -- anything a
                       faster or slower machine would legitimately change
=====================  ======================================================
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .aggregate import run_facts, superstep_volumes
from .events import EventKind, TraceEvent

__all__ = [
    "LevelFingerprint",
    "RunFingerprint",
    "fingerprint_events",
    "Tolerances",
    "Drift",
    "compare_fingerprints",
    "format_drift_table",
    "GoldenSpec",
    "GOLDEN_BENCHMARKS",
    "DEFAULT_GOLDEN_DIR",
    "golden_path",
    "run_spec",
    "record_golden",
    "compare_golden",
    "load_fingerprint",
]


# --------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class LevelFingerprint:
    """The convergence signal of one outer level."""

    level: int
    num_vertices: int
    iterations: int
    movers: tuple[int, ...]
    candidates: tuple[int, ...]
    epsilon: tuple[float, ...]
    dq_threshold: tuple[float, ...]
    modularity: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "num_vertices": self.num_vertices,
            "iterations": self.iterations,
            "movers": list(self.movers),
            "candidates": list(self.candidates),
            "epsilon": list(self.epsilon),
            "dq_threshold": list(self.dq_threshold),
            "modularity": self.modularity,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "LevelFingerprint":
        return LevelFingerprint(
            level=int(d["level"]),
            num_vertices=int(d["num_vertices"]),
            iterations=int(d["iterations"]),
            movers=tuple(int(x) for x in d["movers"]),
            candidates=tuple(int(x) for x in d["candidates"]),
            epsilon=tuple(float(x) for x in d["epsilon"]),
            dq_threshold=tuple(float(x) for x in d["dq_threshold"]),
            modularity=float(d["modularity"]),
        )


@dataclass(frozen=True)
class RunFingerprint:
    """Whole-run convergence + communication fingerprint (no wall clock)."""

    algorithm: str
    num_vertices: int
    num_edges: int
    num_ranks: int | None
    num_levels: int
    final_modularity: float
    levels: tuple[LevelFingerprint, ...]
    #: phase -> (supersteps, records, messages, bytes) summed over the run.
    superstep_volumes: dict[str, tuple[int, int, int, int]] = field(
        default_factory=dict
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_ranks": self.num_ranks,
            "num_levels": self.num_levels,
            "final_modularity": self.final_modularity,
            "levels": [lv.to_dict() for lv in self.levels],
            "superstep_volumes": {
                k: list(v) for k, v in sorted(self.superstep_volumes.items())
            },
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "RunFingerprint":
        return RunFingerprint(
            algorithm=str(d["algorithm"]),
            num_vertices=int(d["num_vertices"]),
            num_edges=int(d["num_edges"]),
            num_ranks=None if d.get("num_ranks") is None else int(d["num_ranks"]),
            num_levels=int(d["num_levels"]),
            final_modularity=float(d["final_modularity"]),
            levels=tuple(
                LevelFingerprint.from_dict(lv) for lv in d.get("levels", [])
            ),
            superstep_volumes={
                str(k): tuple(int(x) for x in v)  # type: ignore[misc]
                for k, v in dict(d.get("superstep_volumes", {})).items()
            },
        )


def fingerprint_events(events: Iterable[TraceEvent]) -> RunFingerprint:
    """Reduce an event stream to its stable convergence fingerprint."""
    events = list(events)
    facts = run_facts(events)
    level_vertices: dict[int, int] = {}
    level_q: dict[int, float] = {}
    level_iters: dict[int, int] = {}
    movers: dict[int, list[int]] = {}
    candidates: dict[int, list[int]] = {}
    epsilon: dict[int, list[float]] = {}
    dq: dict[int, list[float]] = {}

    for ev in events:
        if ev.kind == EventKind.LEVEL_START:
            lvl = int(ev.data["level"])
            level_vertices[lvl] = int(ev.data.get("num_vertices", 0))
        elif ev.kind == EventKind.LEVEL_END:
            lvl = int(ev.data["level"])
            level_q[lvl] = float(ev.data.get("modularity", 0.0))
            level_iters[lvl] = int(ev.data.get("iterations", 0))
        elif ev.kind == EventKind.ITERATION:
            lvl = int(ev.data["level"])
            movers.setdefault(lvl, []).append(int(ev.data.get("movers", 0)))
            candidates.setdefault(lvl, []).append(
                int(ev.data.get("candidates") or 0)
            )
            eps = ev.data.get("epsilon")
            epsilon.setdefault(lvl, []).append(
                0.0 if eps is None else float(eps)
            )
            thr = ev.data.get("dq_threshold")
            dq.setdefault(lvl, []).append(0.0 if thr is None else float(thr))

    seen_levels = sorted(
        set(level_vertices) | set(level_q) | set(movers)
    )
    levels = tuple(
        LevelFingerprint(
            level=lvl,
            num_vertices=level_vertices.get(lvl, 0),
            iterations=level_iters.get(lvl, len(movers.get(lvl, []))),
            movers=tuple(movers.get(lvl, [])),
            candidates=tuple(candidates.get(lvl, [])),
            epsilon=tuple(epsilon.get(lvl, [])),
            dq_threshold=tuple(dq.get(lvl, [])),
            modularity=level_q.get(lvl, 0.0),
        )
        for lvl in seen_levels
    )
    return RunFingerprint(
        algorithm=facts.algorithm or "?",
        num_vertices=facts.num_vertices or 0,
        num_edges=facts.num_edges or 0,
        num_ranks=facts.num_ranks,
        num_levels=facts.num_levels or 0,
        final_modularity=facts.modularity or 0.0,
        levels=levels,
        superstep_volumes={
            phase: (v.supersteps, v.records, v.messages, v.nbytes)
            for phase, v in superstep_volumes(events).items()
        },
    )


# --------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Tolerances:
    """Drift envelope for fingerprint comparison.

    Identical re-runs are bitwise-deterministic, so the defaults are tight;
    the relative slacks absorb last-ulp float differences across numpy
    versions rather than real behavioral drift.  ``iterations_abs=0`` is the
    headline gate: an iteration-count change is exactly the regression the
    paper's convergence claims cannot tolerate silently.
    """

    iterations_abs: int = 0
    levels_abs: int = 0
    movers_rel: float = 0.02
    candidates_rel: float = 0.02
    epsilon_abs: float = 1e-9
    dq_rel: float = 1e-6
    modularity_abs: float = 1e-6
    records_rel: float = 0.02
    supersteps_abs: int = 0


@dataclass(frozen=True)
class Drift:
    """One tolerance violation between golden and current fingerprints."""

    where: str  # e.g. "level 0 iter 3" or "superstep REFINE/UPDATE"
    metric: str
    golden: Any
    current: Any
    tolerance: str

    def format(self) -> str:
        return (
            f"{self.where}: {self.metric} drifted "
            f"{self.golden!r} -> {self.current!r} (tol {self.tolerance})"
        )


def _rel_exceeds(a: float, b: float, rel: float) -> bool:
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) > rel * scale


def compare_fingerprints(
    golden: RunFingerprint,
    current: RunFingerprint,
    tol: Tolerances | None = None,
) -> list[Drift]:
    """All tolerance violations of ``current`` against ``golden``."""
    tol = tol if tol is not None else Tolerances()
    drifts: list[Drift] = []

    def drift(where: str, metric: str, g: Any, c: Any, t: str) -> None:
        drifts.append(Drift(where, metric, g, c, t))

    if golden.algorithm != current.algorithm:
        drift("run", "algorithm", golden.algorithm, current.algorithm, "exact")
    for attr in ("num_vertices", "num_edges", "num_ranks"):
        g, c = getattr(golden, attr), getattr(current, attr)
        if g != c:
            drift("run", attr, g, c, "exact")
    if abs(golden.num_levels - current.num_levels) > tol.levels_abs:
        drift("run", "num_levels", golden.num_levels, current.num_levels,
              f"abs<={tol.levels_abs}")
    if abs(golden.final_modularity - current.final_modularity) > tol.modularity_abs:
        drift("run", "final_modularity", golden.final_modularity,
              current.final_modularity, f"abs<={tol.modularity_abs:g}")

    cur_levels = {lv.level: lv for lv in current.levels}
    for g_lv in golden.levels:
        where = f"level {g_lv.level}"
        c_lv = cur_levels.pop(g_lv.level, None)
        if c_lv is None:
            drift(where, "present", True, False, "exact")
            continue
        if g_lv.num_vertices != c_lv.num_vertices:
            drift(where, "num_vertices", g_lv.num_vertices, c_lv.num_vertices,
                  "exact")
        if abs(g_lv.iterations - c_lv.iterations) > tol.iterations_abs:
            drift(where, "iterations", g_lv.iterations, c_lv.iterations,
                  f"abs<={tol.iterations_abs}")
        if abs(g_lv.modularity - c_lv.modularity) > tol.modularity_abs:
            drift(where, "modularity", g_lv.modularity, c_lv.modularity,
                  f"abs<={tol.modularity_abs:g}")
        pairs = [
            ("movers", g_lv.movers, c_lv.movers, tol.movers_rel, "rel"),
            ("candidates", g_lv.candidates, c_lv.candidates,
             tol.candidates_rel, "rel"),
            ("epsilon", g_lv.epsilon, c_lv.epsilon, tol.epsilon_abs, "abs"),
            ("dq_threshold", g_lv.dq_threshold, c_lv.dq_threshold,
             tol.dq_rel, "rel"),
        ]
        for metric, g_seq, c_seq, t, mode in pairs:
            n = min(len(g_seq), len(c_seq))
            if len(g_seq) != len(c_seq):
                # Only report when the iteration gate didn't already catch it.
                if abs(len(g_seq) - len(c_seq)) > tol.iterations_abs:
                    drift(f"{where}", f"len({metric})", len(g_seq),
                          len(c_seq), f"abs<={tol.iterations_abs}")
            for i in range(n):
                g_v, c_v = float(g_seq[i]), float(c_seq[i])
                if mode == "abs":
                    bad = abs(g_v - c_v) > t
                    desc = f"abs<={t:g}"
                else:
                    bad = _rel_exceeds(g_v, c_v, t)
                    desc = f"rel<={t:g}"
                if bad:
                    drift(f"{where} iter {i + 1}", metric, g_seq[i],
                          c_seq[i], desc)
    for lvl in sorted(cur_levels):
        drift(f"level {lvl}", "present", False, True, "exact")

    phases = sorted(set(golden.superstep_volumes) | set(current.superstep_volumes))
    for phase in phases:
        where = f"superstep {phase}"
        g_v = golden.superstep_volumes.get(phase)
        c_v = current.superstep_volumes.get(phase)
        if g_v is None or c_v is None:
            drift(where, "present", g_v is not None, c_v is not None, "exact")
            continue
        if abs(g_v[0] - c_v[0]) > tol.supersteps_abs:
            drift(where, "supersteps", g_v[0], c_v[0],
                  f"abs<={tol.supersteps_abs}")
        for metric, idx in (("records", 1), ("messages", 2), ("bytes", 3)):
            if _rel_exceeds(float(g_v[idx]), float(c_v[idx]), tol.records_rel):
                drift(where, metric, g_v[idx], c_v[idx],
                      f"rel<={tol.records_rel:g}")
    return drifts


def format_drift_table(drifts: Sequence[Drift]) -> str:
    """Human-readable drift table (empty string when no drift)."""
    if not drifts:
        return ""
    from ..harness.tables import format_table

    def cell(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    return format_table(
        ["where", "metric", "golden", "current", "tolerance"],
        [[d.where, d.metric, cell(d.golden), cell(d.current), d.tolerance]
         for d in drifts],
        title=f"Golden-trace drift ({len(drifts)} violation(s))",
    )


# --------------------------------------------------------------------- #
# Benchmark registry (the graphs whose goldens are checked in)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class GoldenSpec:
    """One gated benchmark: a deterministic graph + detection configuration.

    ``dynamic`` switches the benchmark to the dynamic-graph repair path: a
    cold full run establishes the base partition, a deterministic edge batch
    (``num_add`` random insertions, ``num_remove`` existing-edge deletions,
    generated from ``batch_seed``) mutates the graph, and the *traced* run is
    the warm-start repair via
    :func:`~repro.parallel.dynamic.incremental_louvain`.
    """

    name: str
    description: str
    family: str  # "lfr" | "rmat" | "social"
    params: dict[str, Any]
    seed: int = 0
    algorithm: str = "parallel"
    num_ranks: int = 4
    dynamic: dict[str, Any] | None = None

    def build_graph(self):
        """Deterministically construct the benchmark graph (lazy import)."""
        from ..generators import build_graph

        return build_graph(self.family, self.params, seed=self.seed)


#: The gated benchmarks: one per graph family the paper evaluates
#: (LFR planted structure, R-MAT power-law, a Table-I social proxy).
GOLDEN_BENCHMARKS: dict[str, GoldenSpec] = {
    s.name: s
    for s in [
        GoldenSpec(
            name="lfr-small",
            description="LFR benchmark graph (planted communities, mu=0.2)",
            family="lfr",
            params=dict(
                num_vertices=600, avg_degree=12, max_degree=40, mixing=0.2,
                min_community=12, max_community=80,
            ),
            seed=42,
        ),
        GoldenSpec(
            name="rmat-small",
            description="R-MAT scale-9 power-law graph (Graph500 parameters)",
            family="rmat",
            params=dict(scale=9, edge_factor=8),
            seed=3,
        ),
        GoldenSpec(
            name="social-amazon",
            description="Amazon co-purchase proxy (Table I, half scale)",
            family="social",
            params=dict(name="Amazon", scale=0.5),
            seed=0,
        ),
        GoldenSpec(
            name="lfr-naive",
            description="Naive parallel variant (no Eq.-7 throttle) on LFR",
            family="lfr",
            params=dict(
                num_vertices=600, avg_degree=12, max_degree=40, mixing=0.2,
                min_community=12, max_community=80,
            ),
            seed=42,
            algorithm="naive",
        ),
        GoldenSpec(
            name="lfr-sequential",
            description="Sequential Algorithm-1 baseline on LFR",
            family="lfr",
            params=dict(
                num_vertices=600, avg_degree=12, max_degree=40, mixing=0.2,
                min_community=12, max_community=80,
            ),
            seed=42,
            algorithm="sequential",
        ),
        GoldenSpec(
            name="lfr-dynamic",
            description="Warm-start repair after a deterministic edge batch",
            family="lfr",
            params=dict(
                num_vertices=400, avg_degree=10, max_degree=30, mixing=0.2,
                min_community=10, max_community=60,
            ),
            seed=7,
            dynamic=dict(num_add=60, num_remove=40, batch_seed=11),
        ),
    ]
}

#: Default directory for checked-in goldens, relative to the repo root.
DEFAULT_GOLDEN_DIR = os.path.join("benchmarks", "goldens")


def golden_path(spec: GoldenSpec, directory: str) -> str:
    return os.path.join(directory, f"{spec.name}.jsonl")


def _dynamic_batch(graph: Any, dynamic: dict[str, Any]) -> Any:
    """Deterministic edge batch for a dynamic golden benchmark."""
    import numpy as np

    from ..parallel import EdgeBatch

    rng = np.random.default_rng(int(dynamic.get("batch_seed", 0)))
    n = graph.num_vertices
    num_add = int(dynamic.get("num_add", 0))
    num_remove = int(dynamic.get("num_remove", 0))
    add_src = rng.integers(0, n, size=num_add)
    # Draw from [0, n-2] and shift past add_src so additions never self-loop.
    add_dst = rng.integers(0, n - 1, size=num_add)
    add_dst = np.where(add_dst >= add_src, add_dst + 1, add_dst)
    src, dst, _ = graph.edge_arrays()
    rem = rng.choice(src.size, size=min(num_remove, int(src.size)), replace=False)
    return EdgeBatch(
        add_src=add_src, add_dst=add_dst,
        remove_src=src[rem], remove_dst=dst[rem],
    )


def run_spec(
    spec: GoldenSpec,
    *,
    sink: Any | None = None,
    perturb_p1: float = 1.0,
    backend: str | None = None,
    execution: str | None = None,
) -> "Any":
    """Run one benchmark; returns the tracer (closed if sink-backed).

    ``perturb_p1`` multiplies the Eq.-7 schedule's p1 -- the gate's
    self-test knob: a perturbed schedule must register as drift.  (It only
    affects benchmarks that use the schedule, i.e. ``algorithm="parallel"``,
    including the dynamic warm-start specs.)

    ``backend`` overrides the distributed compute backend ("hash" or
    "vector") for the parallel/naive/dynamic benchmarks; the sequential
    baseline takes no backend and ignores the override.  Comparing a vector
    re-run against the hash-recorded goldens is the convergence-equivalence
    gate for the vectorized backend.

    ``execution`` ("simulated" or "process") selects the runtime for the
    parallel-family benchmarks (``algorithm="parallel"`` and the dynamic
    warm-start specs); sequential and naive runs ignore it, the same way
    they ignore ``backend``.  ``execution="process"`` runs the vector
    backend unless a backend was given explicitly (the config's default),
    and comparing a process re-run against the recorded goldens at zero
    tolerance is the SPMD-equivalence gate for the multi-process runtime.
    """
    from ..parallel import ExponentialSchedule, detect_communities
    from .tracer import Tracer

    schedule = None
    if spec.algorithm == "parallel" and not math.isclose(perturb_p1, 1.0):
        base = ExponentialSchedule()
        schedule = ExponentialSchedule(p1=base.p1 * perturb_p1, p2=base.p2)
    parallel_family = spec.algorithm == "parallel" or spec.dynamic is not None
    backend_kwargs: dict[str, Any] = {}
    if backend is not None and spec.algorithm != "sequential":
        backend_kwargs["backend"] = backend
    if execution is not None and parallel_family:
        backend_kwargs["execution"] = execution
    graph = spec.build_graph()
    tracer = Tracer(sink=sink, buffer=sink is None)
    if spec.dynamic is not None:
        from ..parallel import ParallelLouvainConfig, incremental_louvain

        # The traced run is the *repair*: cold base run (untraced), then a
        # deterministic batch, then the warm start under the tracer.
        base_run = detect_communities(
            graph, algorithm="parallel", num_ranks=spec.num_ranks,
            seed=spec.seed, **backend_kwargs,
        )
        batch = _dynamic_batch(graph, spec.dynamic)
        cfg_kwargs: dict[str, Any] = dict(num_ranks=spec.num_ranks)
        if schedule is not None:
            cfg_kwargs["schedule"] = schedule
        cfg_kwargs.update(backend_kwargs)
        incremental_louvain(
            graph, batch, base_run.membership,
            ParallelLouvainConfig(**cfg_kwargs), tracer=tracer,
        )
    else:
        detect_communities(
            graph,
            algorithm=spec.algorithm,  # type: ignore[arg-type]
            num_ranks=spec.num_ranks,
            schedule=schedule,
            seed=spec.seed,
            tracer=tracer,
            **backend_kwargs,
        )
    tracer.close()
    return tracer


def record_golden(spec: GoldenSpec, path: str) -> int:
    """Record ``spec``'s golden trace to ``path`` via the streaming sink.

    Returns the number of events written.  The run itself holds O(1) events
    in memory -- recording exercises the same streaming path long benchmark
    runs use.
    """
    from .sinks import JsonlWriterSink

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    sink = JsonlWriterSink(path)
    run_spec(spec, sink=sink)
    return sink.num_events


def compare_golden(
    spec: GoldenSpec,
    path: str,
    tol: Tolerances | None = None,
    *,
    perturb_p1: float = 1.0,
    backend: str | None = None,
    execution: str | None = None,
) -> list[Drift]:
    """Re-run ``spec`` and diff its fingerprint against the golden at ``path``."""
    from .exporters import iter_jsonl

    golden_fp = fingerprint_events(iter_jsonl(path))
    tracer = run_spec(
        spec, perturb_p1=perturb_p1, backend=backend, execution=execution
    )
    current_fp = fingerprint_events(tracer.events)
    return compare_fingerprints(golden_fp, current_fp, tol)


def load_fingerprint(path: str) -> RunFingerprint:
    """Fingerprint of a recorded JSONL trace (or a ``.fingerprint.json``)."""
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return RunFingerprint.from_dict(json.load(fh))
    from .exporters import iter_jsonl

    return fingerprint_events(iter_jsonl(path))
