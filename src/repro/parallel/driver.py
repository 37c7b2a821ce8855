"""High-level driver: the one-call public API for community detection.

:func:`detect_communities` wraps algorithm choice (sequential / parallel /
naive-parallel), returns a uniform summary, and optionally attaches modeled
execution times for a target machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..analysis.sanitizer import Sanitizer
from ..graph import Graph
from ..metrics import community_sizes, modularity_from_labels
from ..observability.events import TraceEvent
from ..observability.exporters import write_jsonl
from ..observability.sinks import JsonlWriterSink
from ..observability.tracer import Tracer
from ..runtime import MachineModel, model_times, total_time
from ..sequential import louvain as _sequential_louvain
from .heuristic import ExponentialSchedule, ThresholdSchedule
from .louvain import ParallelLouvainConfig, ParallelLouvainResult, parallel_louvain
from .naive import naive_parallel_louvain

__all__ = ["DetectionSummary", "detect_communities"]

Algorithm = Literal["parallel", "sequential", "naive"]


@dataclass
class DetectionSummary:
    """Uniform result of :func:`detect_communities`."""

    algorithm: str
    membership: np.ndarray
    modularity: float
    num_communities: int
    num_levels: int
    level_modularities: list[float]
    #: Modeled per-phase seconds (only for parallel runs with a machine).
    modeled_phase_seconds: dict[str, float] = field(default_factory=dict)
    modeled_total_seconds: float | None = None
    #: The raw algorithm result for deep inspection.
    raw: object | None = field(default=None, repr=False)
    #: Captured trace events (empty unless a tracer was supplied).
    events: list[TraceEvent] = field(default_factory=list, repr=False)
    #: Where the JSONL trace was written (``trace_path=`` argument), if at all.
    trace_path: str | None = None

    @property
    def community_sizes(self) -> np.ndarray:
        return community_sizes(self.membership)


def detect_communities(
    graph: Graph,
    *,
    algorithm: Algorithm = "parallel",
    num_ranks: int = 4,
    schedule: ThresholdSchedule | None = None,
    machine: MachineModel | None = None,
    threads: int | None = None,
    seed: int | None = 0,
    initial_membership: np.ndarray | None = None,
    tracer: Tracer | None = None,
    trace_path: str | None = None,
    trace_stream: bool = False,
    sanitize: bool | Sanitizer | None = None,
    **config_overrides,
) -> DetectionSummary:
    """Detect communities and summarize the outcome.

    Parameters
    ----------
    algorithm:
        ``"parallel"`` (the paper's algorithm), ``"sequential"``
        (Algorithm 1 baseline) or ``"naive"`` (parallel without the
        convergence heuristic).
    num_ranks:
        Simulated rank count for the parallel variants.
    schedule:
        Threshold schedule override; defaults to the paper's Eq. 7 fit.
    machine:
        Optional machine model; when given, the summary includes modeled
        per-phase and total seconds for the run.
    initial_membership:
        Warm-start the parallel algorithm from an existing partition instead
        of singletons (the dynamic-graph serving path; see
        :mod:`repro.parallel.dynamic`).  Only ``algorithm="parallel"``
        supports it.
    threads:
        Threads per node for the machine model (defaults to the machine's).
    tracer:
        Optional :class:`~repro.observability.Tracer`; the captured events
        land on ``summary.events`` for library users.
    trace_path:
        Write the captured events as JSONL here (creates a tracer if none
        was passed); recorded on ``summary.trace_path``.
    trace_stream:
        With ``trace_path``, stream events to the file as they are emitted
        (:class:`~repro.observability.sinks.JsonlWriterSink`) instead of
        buffering the run in memory.  ``summary.events`` is then empty --
        read the file back if the events are needed -- but the run holds
        O(1) events resident and the trace can be followed live.  Requires
        ``trace_path``; incompatible with an explicit ``tracer``.
    sanitize:
        Enable the :mod:`repro.analysis` runtime invariant sanitizer for the
        parallel variants (``True``/``False``, a
        :class:`~repro.analysis.Sanitizer` instance, or ``None`` to defer to
        the ``REPRO_SANITIZE`` environment variable).  A violated invariant
        raises :class:`~repro.analysis.InvariantViolation`.
    config_overrides:
        Extra :class:`ParallelLouvainConfig` fields (``max_inner`` etc.).
        ``execution="process"`` selects the true multi-process SPMD runtime
        (``algorithm="parallel"`` only; implies ``backend="vector"`` unless
        one was chosen explicitly).
    """
    if trace_stream:
        if trace_path is None:
            raise ValueError("trace_stream=True requires trace_path")
        if tracer is not None:
            raise ValueError(
                "pass either tracer or trace_stream=True, not both "
                "(attach a sink to your tracer instead)"
            )
        tracer = Tracer(sink=JsonlWriterSink(trace_path), buffer=False)
    elif tracer is None and trace_path is not None:
        tracer = Tracer()

    if algorithm == "sequential":
        if config_overrides:
            raise TypeError(
                f"unsupported options for sequential: {sorted(config_overrides)}"
            )
        if sanitize not in (None, False):
            raise TypeError("sanitize is only supported for the parallel variants")
        if initial_membership is not None:
            raise TypeError(
                "initial_membership is only supported for algorithm='parallel'"
            )
        res = _sequential_louvain(graph, seed=seed, tracer=tracer)
        summary = DetectionSummary(
            algorithm="sequential",
            membership=res.membership,
            modularity=res.final_modularity,
            num_communities=int(np.unique(res.membership).size),
            num_levels=res.num_levels,
            level_modularities=list(res.modularities),
            raw=res,
        )
        return _attach_trace(summary, tracer, trace_path, streamed=trace_stream)

    if algorithm not in ("parallel", "naive"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if config_overrides.get("execution") == "process" and algorithm != "parallel":
        raise TypeError(
            "execution='process' is only supported for algorithm='parallel'"
        )
    cfg = ParallelLouvainConfig(
        num_ranks=num_ranks,
        schedule=schedule if schedule is not None else ExponentialSchedule(),
        **config_overrides,
    )
    if algorithm == "naive":
        if initial_membership is not None:
            raise TypeError(
                "initial_membership is only supported for algorithm='parallel'"
            )
        result: ParallelLouvainResult = naive_parallel_louvain(
            graph, cfg, tracer=tracer, sanitize=sanitize
        )
    else:
        result = parallel_louvain(
            graph, cfg, initial_membership=initial_membership,
            tracer=tracer, sanitize=sanitize,
        )

    summary = DetectionSummary(
        algorithm=algorithm,
        membership=result.membership,
        modularity=(
            result.final_modularity
            if result.modularities
            else modularity_from_labels(graph, result.membership)
        ),
        num_communities=int(np.unique(result.membership).size),
        num_levels=result.num_levels,
        level_modularities=list(result.modularities),
        raw=result,
    )
    if machine is not None:
        phases = result.simulation.profiler.phases
        summary.modeled_phase_seconds = model_times(
            phases, machine, threads=threads, top_level=True
        )
        summary.modeled_total_seconds = total_time(
            phases, machine, threads=threads
        )
    return _attach_trace(summary, tracer, trace_path, streamed=trace_stream)


def _attach_trace(
    summary: DetectionSummary,
    tracer: Tracer | None,
    trace_path: str | None,
    *,
    streamed: bool = False,
) -> DetectionSummary:
    if tracer is not None:
        summary.events = tracer.events
        if streamed:
            # The driver-owned sink already streamed the file; close it out.
            # (A caller-supplied tracer with its own sink is left open --
            # the caller decides when to close it.)
            tracer.close()
            summary.trace_path = trace_path
        elif trace_path is not None and tracer.sink is None:
            write_jsonl(tracer.events, trace_path)
            summary.trace_path = trace_path
    return summary
