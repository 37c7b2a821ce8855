"""One reading of a graph spec: ``family`` + parameters + seed -> graph.

Benchmark matrices (``[graphs.*]`` tables) and the golden-trace registry
both name their graphs this way; :func:`build_graph` is the one place the
spec turns into a generator call.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..graph import Graph
from .bter import BTERParams, generate_bter
from .lfr import LFRParams, generate_lfr
from .rmat import RMATParams, generate_rmat
from .social import load_social_graph

__all__ = ["GRAPH_FAMILIES", "build_graph"]

GRAPH_FAMILIES = ("lfr", "rmat", "bter", "social")


def build_graph(family: str, params: Mapping[str, Any], *, seed: int = 0) -> Graph:
    """The graph of one spec; ``params`` are the generator's parameters
    (``name`` and ``scale`` for a Table I social proxy)."""
    if family == "lfr":
        return generate_lfr(LFRParams(**params), seed=seed).graph
    if family == "rmat":
        return generate_rmat(RMATParams(**params), seed=seed)
    if family == "bter":
        return generate_bter(BTERParams(**params), seed=seed).graph
    if family == "social":
        return load_social_graph(
            params["name"], seed=seed, scale=float(params.get("scale", 1.0))
        ).graph
    raise ValueError(
        f"unknown graph family {family!r} (use {'/'.join(GRAPH_FAMILIES)})"
    )
