"""Community-size distributions and the evolution ratio (paper Figs. 4b, 5)."""

from __future__ import annotations

import numpy as np

__all__ = [
    "community_sizes",
    "size_histogram",
    "log_binned_size_distribution",
    "evolution_ratio",
    "largest_community_size",
]


def community_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes of all communities, descending."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    _, counts = np.unique(labels, return_counts=True)
    return np.sort(counts)[::-1]


def largest_community_size(labels: np.ndarray) -> int:
    sizes = community_sizes(labels)
    return int(sizes[0]) if sizes.size else 0


def size_histogram(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(size, count)`` pairs: how many communities have each exact size."""
    sizes = community_sizes(labels)
    if sizes.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    uniq, counts = np.unique(sizes, return_counts=True)
    return uniq, counts


def log_binned_size_distribution(
    labels: np.ndarray, *, num_bins: int = 16, top: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of community sizes over logarithmic bins (Fig. 5 style).

    Returns ``(bin_upper_edges, counts)``; bin ``i`` covers sizes in
    ``(edges[i-1], edges[i]]``.  The edges reach ``top`` or the largest
    community, whichever is larger, so partitions binned with the same
    ``top``, no smaller than any of their largest communities, share edges.
    """
    sizes = community_sizes(labels)
    if sizes.size == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    top = max(2.0, float(sizes.max()), top or 0.0)
    edges = np.unique(np.ceil(np.logspace(0, np.log10(top), num_bins)))
    counts = np.zeros(edges.size, dtype=np.int64)
    idx = np.searchsorted(edges, sizes, side="left")
    np.add.at(counts, idx, 1)
    return edges, counts


def evolution_ratio(level_num_vertices: int, original_num_vertices: int) -> float:
    """|V_level| / |V_original| -- how much the graph shrank (lower is better).

    The paper's Fig. 4b tracks this per outer-loop level; a fast drop means
    most vertices merged into communities early.
    """
    if original_num_vertices <= 0:
        return 0.0
    return level_num_vertices / original_num_vertices
