"""Distributed connected components on the two-table runtime.

A second demonstration (besides label propagation) that the paper's
In_Table-driven propagation pattern generalizes: the classic *hash-min*
algorithm -- every vertex repeatedly adopts the minimum component id seen
among its neighbors -- is exactly a STATE PROPAGATION loop where the
Out_Table accumulates ``((v, candidate_id), ·)`` records and the reduction
is ``min`` instead of weighted-argmax.

Converges in O(diameter) supersteps.  A library routine (exported from
:mod:`repro.parallel`); no command or experiment calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph import Graph
from ..runtime import Simulation
from .partition import ModuloPartition
from .tables import build_in_tables

__all__ = ["ComponentsResult", "distributed_components"]


@dataclass
class ComponentsResult:
    labels: np.ndarray  # vertex -> component id, compact in [0, k)
    supersteps: int
    changed_per_superstep: list[int] = field(default_factory=list)
    simulation: Simulation | None = None

    @property
    def num_components(self) -> int:
        return int(np.unique(self.labels).size) if self.labels.size else 0


def distributed_components(
    graph: Graph,
    *,
    num_ranks: int = 4,
    max_supersteps: int = 10_000,
    reorder_seed: int | None = None,
) -> ComponentsResult:
    """Hash-min connected components over the simulated runtime."""
    n = graph.num_vertices
    sim = Simulation.create(num_ranks, reorder_seed=reorder_seed)
    if n == 0:
        return ComponentsResult(
            labels=np.empty(0, dtype=np.int64), supersteps=0, simulation=sim
        )
    partition = ModuloPartition(n, num_ranks)
    tables = build_in_tables(graph, partition)
    comp = [partition.owned(r).copy() for r in range(num_ranks)]

    changed_history: list[int] = []
    steps = 0
    for _ in range(max_supersteps):
        steps += 1
        outboxes = []
        with sim.phase("CC/PROPAGATE"):
            for rank, rt in enumerate(tables):
                v, u, _ = rt.in_edges()
                cand = comp[rank][partition.to_local(u)] if u.size else u
                sim.profiler.add_ops(rank, v.size)
                outboxes.append((partition.owner(v), v, cand))
            result = sim.bus.exchange(outboxes)
        changed_total = 0
        with sim.phase("CC/REDUCE"):
            for rank in range(num_ranks):
                v_in, cand_in = result.inbox(rank)
                sim.profiler.add_ops(rank, np.asarray(v_in).size)
                if np.asarray(v_in).size == 0:
                    continue
                local = partition.to_local(v_in.astype(np.int64))
                cur = comp[rank]
                best = cur.copy()
                np.minimum.at(best, local, cand_in.astype(np.int64))
                changed_total += int((best != cur).sum())
                comp[rank] = best
        changed_history.append(changed_total)
        if changed_total == 0:
            break

    labels = np.empty(n, dtype=np.int64)
    for r in range(num_ranks):
        labels[partition.owned(r)] = comp[r]
    _, compact = np.unique(labels, return_inverse=True)
    return ComponentsResult(
        labels=compact.astype(np.int64),
        supersteps=steps,
        changed_per_superstep=changed_history,
        simulation=sim,
    )
