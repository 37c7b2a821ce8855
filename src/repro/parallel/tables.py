"""In_Table / Out_Table management (paper §IV-A, Fig. 1).

Each rank holds two :class:`~repro.hashing.EdgeHashTable` instances:

* **In_Table** -- keyed ``pack(v, u)`` for every in-edge ``(v → u)`` of an
  owned vertex ``u``.  Immutable during the inner loop; it *is* the level's
  graph structure.  Rebuilding it from the Out_Tables is how the outer loop
  contracts the graph (Algorithm 5).
* **Out_Table** -- keyed ``pack(u, c)`` for owned vertex ``u`` and neighbor
  community ``c``.  Because insertion accumulates, all edges from ``u`` into
  one community collapse into a single bucket holding ``w_{u→c}`` -- the
  quantity ΔQ needs (Eq. 4).  Reset and refilled at every STATE PROPAGATION.
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitizer import NULL_SANITIZER, Sanitizer
from ..graph import Graph
from ..hashing import EdgeHashTable, pack_key, unpack_key
from .partition import ModuloPartition

__all__ = ["RankTables", "build_in_tables"]


class RankTables:
    """The pair of edge hash tables owned by one rank.

    ``sanitizer`` / ``rank`` attach the opt-in invariant contract: every
    insert first proves the ids fit their Eq.-5 bit fields (and cannot
    collide with the EMPTY sentinel), so a violation raises a structured
    :class:`~repro.analysis.InvariantViolation` naming this rank instead of
    silently corrupting edge identity.
    """

    __slots__ = (
        "in_table",
        "out_table",
        "key_shift",
        "load_factor",
        "hash_function",
        "sanitizer",
        "rank",
    )

    def __init__(
        self,
        *,
        expected_in_edges: int = 64,
        hash_function: str = "fibonacci",
        load_factor: float = 0.25,
        key_shift: int = 32,
        sanitizer: Sanitizer | None = None,
        rank: int | None = None,
    ) -> None:
        capacity = max(16, int(expected_in_edges / max(load_factor, 1e-6)))
        self.key_shift = int(key_shift)
        self.load_factor = float(load_factor)
        self.hash_function = hash_function
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        self.rank = rank
        self.in_table = EdgeHashTable(
            capacity, hash_function=hash_function, max_load_factor=load_factor
        )
        self.out_table = EdgeHashTable(
            capacity, hash_function=hash_function, max_load_factor=load_factor
        )
        if self.sanitizer.enabled:
            for table in (self.in_table, self.out_table):
                table.sanitizer = self.sanitizer
                table.owner_rank = rank

    # ------------------------------------------------------------------ #
    # In_Table
    # ------------------------------------------------------------------ #

    def in_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ``(v, u, w)`` in-edge triples stored on this rank.

        Returned in ascending ``(v, u)`` order for the same reason
        :meth:`out_entries` sorts: slot order leaks the hash family into
        the per-vertex strength and self-loop folds at rank-state
        construction, shifting k_u (and every gain derived from it) by an
        ulp when the table layout changes.
        """
        keys, weights = self.in_table.items()
        order = np.argsort(keys)
        v, u = unpack_key(keys[order], shift=self.key_shift)
        return v, u, weights[order]

    def add_in_edges(self, v: np.ndarray, u: np.ndarray, w: np.ndarray) -> None:
        """Accumulate in-edges ``(v → u)`` (used by graph reconstruction)."""
        if self.sanitizer.enabled:
            self.sanitizer.check_pack_bounds(
                v, u, self.key_shift, rank=self.rank, table="in"
            )
        keys = pack_key(
            np.asarray(v, dtype=np.uint64),
            np.asarray(u, dtype=np.uint64),
            shift=self.key_shift,
        )
        self.in_table.insert_accumulate(keys, w)

    def reset_in_table(self) -> None:
        self.in_table.clear()

    # ------------------------------------------------------------------ #
    # Out_Table
    # ------------------------------------------------------------------ #

    def out_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ``(u, c, w_{u→c})`` triples accumulated on this rank.

        Returned in ascending ``(u, c)`` order, *not* hash-slot order: slot
        order depends on the hash family and table capacity, and shipping
        entries in that order used to leak into downstream float folds
        (MODULARITY's per-community sums, RECONSTRUCTION's superedge
        accumulation), making the last ulp of Q depend on ``hash_function``.
        Sorting the packed keys canonicalizes every consumer.
        """
        keys, weights = self.out_table.items()
        order = np.argsort(keys)
        u, c = unpack_key(keys[order], shift=self.key_shift)
        return u, c, weights[order]

    def accumulate_out(self, u: np.ndarray, c: np.ndarray, w: np.ndarray) -> None:
        """Hash received ``((u, c), w)`` records into the Out_Table."""
        if self.sanitizer.enabled:
            self.sanitizer.check_pack_bounds(
                u, c, self.key_shift, rank=self.rank, table="out"
            )
        keys = pack_key(
            np.asarray(u, dtype=np.uint64),
            np.asarray(c, dtype=np.uint64),
            shift=self.key_shift,
        )
        self.out_table.insert_accumulate(keys, w)

    def reset_out_table(self) -> None:
        self.out_table.clear()


def build_in_tables(
    graph: Graph,
    partition: ModuloPartition,
    *,
    hash_function: str = "fibonacci",
    load_factor: float = 0.25,
    key_shift: int = 32,
    sanitizer: Sanitizer | None = None,
) -> list[RankTables]:
    """Distribute a graph's adjacency entries into per-rank In_Tables.

    Each rank's table holds its in-edge shard
    (:meth:`ModuloPartition.in_edge_shards`).
    """
    tables: list[RankTables] = []
    for rank, v, u, w in partition.in_edge_shards(graph):
        rt = RankTables(
            expected_in_edges=int(u.size) + 16,
            hash_function=hash_function,
            load_factor=load_factor,
            key_shift=key_shift,
            sanitizer=sanitizer,
            rank=rank,
        )
        rt.add_in_edges(v, u, w)
        tables.append(rt)
    return tables
