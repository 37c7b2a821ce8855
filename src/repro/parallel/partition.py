"""1D modulo vertex partitioning (paper §IV-A).

"We linearly split the vertices and their edge lists among the compute nodes
using a 1D decomposition.  Each node is assigned a set of vertices according
to a simple modulo function."  Vertex ``v`` lives on rank ``v % P``; its
local index there is ``v // P``.  Community labels are vertex ids, so the
same mapping owns communities.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph import Graph

__all__ = ["ModuloPartition"]


@dataclass(frozen=True)
class ModuloPartition:
    """Owner/local-index arithmetic for the 1D modulo decomposition."""

    num_vertices: int
    num_ranks: int

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError("need at least one rank")
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")

    def owner(self, vertex: np.ndarray) -> np.ndarray:
        """Rank owning each vertex (vectorized)."""
        return np.asarray(vertex, dtype=np.int64) % self.num_ranks

    def to_local(self, vertex: np.ndarray) -> np.ndarray:
        """Local index of each vertex on its owner."""
        return np.asarray(vertex, dtype=np.int64) // self.num_ranks

    def to_global(self, local: np.ndarray, rank: int) -> np.ndarray:
        """Global id of local index ``local`` on ``rank``."""
        return np.asarray(local, dtype=np.int64) * self.num_ranks + rank

    def owned(self, rank: int) -> np.ndarray:
        """All global ids owned by ``rank``, ascending."""
        return np.arange(rank, self.num_vertices, self.num_ranks, dtype=np.int64)

    def local_count(self, rank: int) -> int:
        """Number of vertices on ``rank``."""
        if rank >= self.num_vertices:
            return 0
        return (self.num_vertices - rank - 1) // self.num_ranks + 1

    def in_edge_shards(
        self, graph: "Graph"
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Split ``graph``'s adjacency into per-rank in-edge shards.

        Every CSR entry ``(v -> u)`` of the symmetric adjacency becomes the
        in-edge ``(v, u, w)`` stored on ``owner(u)``.  Yields ``(rank, v, u,
        w)`` for each rank in turn, the entries in CSR order.  (In a real
        deployment this is the parallel graph-ingest step.)
        """
        rows = graph.row_index()
        cols = graph.indices
        weights = graph.weights
        owners = self.owner(cols)
        for rank in range(self.num_ranks):
            mask = owners == rank
            yield rank, rows[mask], cols[mask], weights[mask]
