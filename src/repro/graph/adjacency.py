"""Weighted undirected graph stored in CSR (compressed sparse row) form.

This is the substrate every other subsystem builds on.  Conventions follow
Newman's weighted-adjacency-matrix formulation so that modularity and the
Louvain gain formula (paper Eqs. 3-4) have a single, unambiguous meaning:

* For an undirected edge ``{u, v}`` with ``u != v`` and weight ``w`` the
  adjacency matrix has ``A[u, v] = A[v, u] = w``.  The CSR arrays store the
  entry in *both* endpoint rows.
* A self-loop of weight ``w`` contributes ``A[u, u] = 2 * w`` and is stored
  once in ``u``'s row with value ``2 * w``.  (This is the convention under
  which ``strength(u) = sum(A[u, :])`` and ``2m = sum(A)`` hold exactly,
  matching :mod:`networkx` degrees.)
* ``m`` (total edge weight) counts every undirected edge once and every
  self-loop once, i.e. ``m = sum(A) / 2``.

The container is immutable after construction; algorithms that rewrite the
graph (Louvain's outer loop) build a new :class:`Graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels import coalesce_pairs

__all__ = ["Graph", "coalesce_edges"]


def coalesce_edges(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicate ``(src, dst)`` pairs, summing their weights.

    Input arrays describe *directed* entries; the caller is responsible for
    symmetry.  Returns sorted, deduplicated ``(src, dst, weight)`` arrays;
    each sum folds its pair's weights in input order.  Grouping goes through
    :func:`repro.kernels.coalesce_pairs` on ids counted from 0: for wide id
    ranges one stable argsort of the combined ``src * bound + dst`` key,
    whose int64 width it checks first (``IndexWidthError``).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    if not (src.shape == dst.shape == weight.shape):
        raise ValueError("src, dst and weight must have identical shapes")
    if src.size == 0:
        return src, dst, weight
    low = min(int(src.min()), int(dst.min()))
    if low:  # pair keys count from 0
        src, dst = src - low, dst - low
    bound = max(int(src.max()), int(dst.max())) + 1
    first, second, sums = coalesce_pairs(src, dst, bound, bound, weight)
    if low:
        first, second = first + low, second + low
    return first, second, sums


@dataclass(frozen=True)
class Graph:
    """Immutable weighted undirected graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``u`` spans
        ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        ``int64`` column indices (neighbor ids).  A self-loop appears once.
    weights:
        ``float64`` adjacency values aligned with ``indices``.  Self-loop
        entries hold ``A[u, u] = 2 * loop_weight``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    _strength: np.ndarray = field(repr=False, compare=False)
    _total_weight: float = field(repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_edges(
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray | float | None = None,
        *,
        num_vertices: int | None = None,
    ) -> "Graph":
        """Build a graph from an undirected edge list.

        Each ``(src[i], dst[i])`` pair is one undirected edge; duplicates are
        coalesced by summing weights.  ``weight`` may be an array, a scalar
        applied to every edge, or ``None`` (unit weights).
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if weight is None:
            weight = np.ones(src.size, dtype=np.float64)
        elif np.isscalar(weight):
            weight = np.full(src.size, float(weight), dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64).ravel()
            if weight.shape != src.shape:
                raise ValueError("weight must match the edge list length")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        n = int(num_vertices) if num_vertices is not None else (
            int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if src.size else 0
        )
        if src.size and max(src.max(), dst.max()) >= n:
            raise ValueError("vertex id exceeds num_vertices")

        loops = src == dst
        links = ~loops
        s, d, w = src[links], dst[links], weight[links]
        # Symmetrize: every u != v edge appears in both rows; self-loops
        # appear once with doubled adjacency value.
        a_src = np.concatenate([s, d, src[loops]])
        a_dst = np.concatenate([d, s, dst[loops]])
        a_w = np.concatenate([w, w, 2.0 * weight[loops]])
        a_src, a_dst, a_w = coalesce_edges(a_src, a_dst, a_w)
        return Graph._from_directed_entries(a_src, a_dst, a_w, n)

    @staticmethod
    def from_adjacency_entries(
        src: np.ndarray,
        dst: np.ndarray,
        value: np.ndarray,
        *,
        num_vertices: int,
    ) -> "Graph":
        """Build from raw adjacency-matrix entries (already symmetric).

        The caller asserts symmetry: for every ``u != v`` entry there must be
        the mirror entry with the same value, and diagonal entries hold
        ``A[u, u]`` directly.  Duplicate entries are coalesced by summing.
        Used by the Louvain outer loop when rebuilding supergraphs.
        """
        a_src, a_dst, a_w = coalesce_edges(src, dst, value)
        return Graph._from_directed_entries(a_src, a_dst, a_w, int(num_vertices))

    @staticmethod
    def _from_directed_entries(
        src: np.ndarray, dst: np.ndarray, value: np.ndarray, n: int
    ) -> "Graph":
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # `coalesce_edges` returns rows sorted by (src, dst), so entries are
        # already grouped by row in order.
        strength = np.zeros(n, dtype=np.float64)
        np.add.at(strength, src, value)
        total = float(strength.sum()) / 2.0
        return Graph(
            indptr=indptr,
            indices=dst.astype(np.int64, copy=False),
            weights=value.astype(np.float64, copy=False),
            _strength=strength,
            _total_weight=total,
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_adjacency_entries(self) -> int:
        """Number of stored CSR entries (2 per u!=v edge, 1 per loop)."""
        return self.indices.size

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges, self-loops counted once."""
        loops = self.self_loop_mask()
        return (int(self.indices.size) - int(loops.sum())) // 2 + int(loops.sum())

    @property
    def total_weight(self) -> float:
        """``m``: sum of undirected edge weights, self-loops once."""
        return self._total_weight

    @property
    def strength(self) -> np.ndarray:
        """Weighted degree ``w(u) = sum(A[u, :])`` (read-only view)."""
        s = self._strength
        s.flags.writeable = False
        return s

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_index(self) -> np.ndarray:
        """Expand indptr into a per-entry source-vertex array."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())

    def self_loop_mask(self) -> np.ndarray:
        return self.row_index() == self.indices

    def self_loop_adjacency(self) -> np.ndarray:
        """Per-vertex ``A[u, u]`` (2x the self-loop edge weight)."""
        out = np.zeros(self.num_vertices, dtype=np.float64)
        rows = self.row_index()
        mask = rows == self.indices
        np.add.at(out, rows[mask], self.weights[mask])
        return out

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Undirected edge list ``(src, dst, weight)``, each edge once.

        Self-loops are reported once with their *edge* weight
        (``A[u, u] / 2``).
        """
        rows = self.row_index()
        cols = self.indices
        w = self.weights
        upper = rows < cols
        loops = rows == cols
        src = np.concatenate([rows[upper], rows[loops]])
        dst = np.concatenate([cols[upper], cols[loops]])
        wt = np.concatenate([w[upper], w[loops] / 2.0])
        return src, dst, wt

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors(u)).any())

    def edge_weight(self, u: int, v: int) -> float:
        """Adjacency value ``A[u, v]`` (0.0 if absent)."""
        nbrs = self.neighbors(u)
        hits = np.flatnonzero(nbrs == v)
        if hits.size == 0:
            return 0.0
        return float(self.neighbor_weights(u)[hits[0]])

    # ------------------------------------------------------------------ #
    # Interop / misc
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Convert to :class:`networkx.Graph` (test/interop helper)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        src, dst, wt = self.edge_arrays()
        g.add_weighted_edges_from(
            zip(src.tolist(), dst.tolist(), wt.tolist()), weight="weight"
        )
        return g

    @staticmethod
    def from_networkx(g) -> "Graph":
        import networkx as nx  # noqa: F401

        nodes = list(g.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        src, dst, wt = [], [], []
        for u, v, data in g.edges(data=True):
            src.append(index[u])
            dst.append(index[v])
            wt.append(float(data.get("weight", 1.0)))
        return Graph.from_edges(
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(wt, dtype=np.float64),
            num_vertices=len(nodes),
        )

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage."""
        n = self.num_vertices
        assert self.indptr[0] == 0 and self.indptr[-1] == self.indices.size
        assert np.all(np.diff(self.indptr) >= 0)
        if self.indices.size:
            assert self.indices.min() >= 0 and self.indices.max() < n
        assert np.all(self.weights >= 0)
        # Symmetry: sorted (row, col, w) equals sorted (col, row, w).
        rows = self.row_index()
        fwd = np.lexsort((self.indices, rows))
        bwd = np.lexsort((rows, self.indices))
        assert np.array_equal(rows[fwd], self.indices[bwd])
        assert np.array_equal(self.indices[fwd], rows[bwd])
        assert np.allclose(self.weights[fwd], self.weights[bwd])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(n={self.num_vertices}, edges={self.num_edges}, "
            f"m={self.total_weight:.1f})"
        )
