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
    #: The tracer's buffered events (empty without a tracer, and for a
    #: streaming ``buffer=False`` tracer).
    events: list[TraceEvent] = field(default_factory=list, repr=False)

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
        Optional :class:`~repro.observability.Tracer`; its buffered events
        land on ``summary.events``.  A tracer with a sink streams the run
        as it goes (``Tracer(sink=JsonlWriterSink(path), buffer=False)``
        holds O(1) events and leaves ``summary.events`` empty); the caller
        closes it.
    sanitize:
        Enable the :mod:`repro.analysis` runtime invariant sanitizer for the
        parallel variants (``True``/``False``, a
        :class:`~repro.analysis.Sanitizer` instance, or ``None`` to defer to
        the ``REPRO_SANITIZE`` environment variable).  A violated invariant
        raises :class:`~repro.analysis.InvariantViolation`.
    config_overrides:
        Extra :class:`ParallelLouvainConfig` fields (``max_inner`` etc.).
        ``execution="process"`` selects the true multi-process SPMD runtime
        for the parallel variants (implies ``backend="vector"`` unless one
        was chosen explicitly).
    """
    events = tracer.events if tracer is not None else []
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
        return DetectionSummary(
            algorithm="sequential",
            membership=res.membership,
            modularity=res.final_modularity,
            num_communities=int(np.unique(res.membership).size),
            num_levels=res.num_levels,
            level_modularities=list(res.modularities),
            raw=res,
            events=events,
        )

    if algorithm not in ("parallel", "naive"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
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
        events=events,
    )
    if machine is not None:
        phases = result.simulation.profiler.phases
        summary.modeled_phase_seconds = model_times(
            phases, machine, threads=threads, top_level=True
        )
        summary.modeled_total_seconds = total_time(
            phases, machine, threads=threads
        )
    return summary
