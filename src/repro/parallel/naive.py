"""The naive parallel Louvain baseline (paper Fig. 4's third curve).

Identical to :func:`repro.parallel.louvain.parallel_louvain` except that the
migration throttle is disabled: every vertex with a strictly positive best
gain moves every inner iteration.  With stale community views this produces
the chaotic oscillation the paper describes ("the basic parallel version
converges very slowly, if at all ... with a very low modularity score");
``max_inner`` keeps runs bounded.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.sanitizer import Sanitizer
from ..graph import Graph
from ..observability.tracer import Tracer
from .louvain import ParallelLouvainConfig, ParallelLouvainResult, parallel_louvain

__all__ = ["naive_parallel_louvain"]


def naive_parallel_louvain(
    graph: Graph,
    config: ParallelLouvainConfig | None = None,
    *,
    tracer: Tracer | None = None,
    sanitize: bool | Sanitizer | None = None,
    **kwargs,
) -> ParallelLouvainResult:
    """Run parallel Louvain with the convergence heuristic disabled."""
    if config is None:
        config = ParallelLouvainConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either config or keyword overrides, not both")
    config = replace(config, schedule=None)
    return parallel_louvain(graph, config, tracer=tracer, sanitize=sanitize)
