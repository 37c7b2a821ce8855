"""TEPS accounting (paper §V-E).

The paper borrows Traversed Edges Per Second from Graph500 and computes it
as *input edges divided by the time to finish the first level* ("the graph
shrinks significantly during the first iteration, which generates the most
informative community structure").  Here the time is the machine-model time
of the counters the profiler scoped to level 0.
"""

from __future__ import annotations

from ..parallel.louvain import ParallelLouvainResult
from ..runtime import MachineModel, total_time

__all__ = ["first_level_seconds", "teps", "gteps"]


def first_level_seconds(
    result: ParallelLouvainResult,
    machine: MachineModel,
    *,
    threads: int | None = None,
    nodes: int | None = None,
    work_scale: float = 1.0,
) -> float:
    """Modeled seconds of level 0 (initial propagation through its
    reconstruction), from the counters the profiler scoped to that level.
    """
    if not result.levels:
        raise ValueError("run produced no levels")
    return total_time(
        result.simulation.profiler.select(0), machine,
        threads=threads, nodes=nodes, work_scale=work_scale,
    )


def teps(
    num_input_edges: int,
    result: ParallelLouvainResult,
    machine: MachineModel,
    *,
    threads: int | None = None,
    nodes: int | None = None,
    work_scale: float = 1.0,
) -> float:
    """Traversed edges per second over the first level.

    When ``work_scale`` extrapolates the run to a larger dataset, pass the
    *extrapolated* edge count as ``num_input_edges`` (TEPS is edges/time at
    the same scale on both sides).
    """
    secs = first_level_seconds(
        result, machine, threads=threads, nodes=nodes, work_scale=work_scale
    )
    if secs <= 0:
        return float("inf")
    return num_input_edges / secs


def gteps(
    num_input_edges: int,
    result: ParallelLouvainResult,
    machine: MachineModel,
    *,
    threads: int | None = None,
    nodes: int | None = None,
    work_scale: float = 1.0,
) -> float:
    """TEPS in billions (the unit of Fig. 9)."""
    return (
        teps(
            num_input_edges, result, machine,
            threads=threads, nodes=nodes, work_scale=work_scale,
        )
        / 1e9
    )
