"""Partition-similarity metrics (paper Table II / Table III).

Implements every measure the paper reports when comparing the parallel
partition against the sequential one:

* **NMI** -- normalized mutual information (information theory);
* **F-measure** and **NVD** (normalized Van Dongen) -- cluster matching;
* **RI**, **ARI**, **JI** -- pair counting.

All metrics are computed from the sparse contingency table of the two
labelings, so they run comfortably on millions of vertices.  scipy is
imported inside :func:`contingency_table`, so ``import repro`` (and a
detection run) does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "contingency_table",
    "pair_counts",
    "rand_index",
    "adjusted_rand_index",
    "jaccard_index",
    "normalized_mutual_information",
    "f_measure",
    "normalized_van_dongen",
    "SimilarityReport",
    "compare_partitions",
]


def _as_labels(labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64).ravel()
    # Compact to [0, k) so bincounts stay dense.
    _, inv = np.unique(arr, return_inverse=True)
    return inv.astype(np.int64)


def contingency_table(labels_a: np.ndarray, labels_b: np.ndarray) -> sp.csr_matrix:
    """Sparse contingency matrix ``N[i, j] = |a_i ∩ b_j|``."""
    import scipy.sparse as sp

    a = _as_labels(labels_a)
    b = _as_labels(labels_b)
    if a.size != b.size:
        raise ValueError("labelings must cover the same vertex set")
    if a.size == 0:
        return sp.csr_matrix((0, 0))
    data = np.ones(a.size, dtype=np.int64)
    return sp.coo_matrix(
        (data, (a, b)), shape=(int(a.max()) + 1, int(b.max()) + 1)
    ).tocsr()


@dataclass(frozen=True)
class PairCounts:
    """Counts of vertex pairs by agreement between two partitions."""

    together_both: int  # same community in A and in B ("n11")
    together_a_only: int
    together_b_only: int
    apart_both: int
    total_pairs: int


def pair_counts(labels_a: np.ndarray, labels_b: np.ndarray) -> PairCounts:
    n = np.asarray(labels_a).size
    table = contingency_table(labels_a, labels_b)
    nij = table.data.astype(np.float64)
    sum_sq = float((nij * nij).sum())
    rows = np.asarray(table.sum(axis=1)).ravel().astype(np.float64)
    cols = np.asarray(table.sum(axis=0)).ravel().astype(np.float64)
    t = n * (n - 1) / 2.0
    s11 = (sum_sq - n) / 2.0
    sa = ((rows * rows).sum() - n) / 2.0  # together in A
    sb = ((cols * cols).sum() - n) / 2.0  # together in B
    return PairCounts(
        together_both=int(round(s11)),
        together_a_only=int(round(sa - s11)),
        together_b_only=int(round(sb - s11)),
        apart_both=int(round(t - sa - sb + s11)),
        total_pairs=int(round(t)),
    )


def rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """RI: fraction of pairs on which the two partitions agree."""
    pc = pair_counts(labels_a, labels_b)
    if pc.total_pairs == 0:
        return 1.0
    return (pc.together_both + pc.apart_both) / pc.total_pairs


def adjusted_rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """ARI: Rand index corrected for chance (Hubert & Arabie)."""
    pc = pair_counts(labels_a, labels_b)
    t = float(pc.total_pairs)
    if t == 0:
        return 1.0
    sa = pc.together_both + pc.together_a_only
    sb = pc.together_both + pc.together_b_only
    expected = sa * sb / t
    maximum = (sa + sb) / 2.0
    if maximum == expected:
        return 1.0
    return (pc.together_both - expected) / (maximum - expected)


def jaccard_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """JI over pairs: n11 / (n11 + n10 + n01)."""
    pc = pair_counts(labels_a, labels_b)
    denom = pc.together_both + pc.together_a_only + pc.together_b_only
    if denom == 0:
        return 1.0
    return pc.together_both / denom


def normalized_mutual_information(
    labels_a: np.ndarray,
    labels_b: np.ndarray,
    *,
    normalization: str = "arithmetic",
) -> float:
    """NMI with arithmetic (default), geometric, or max normalization.

    Identical partitions give 1.0; independent ones approach 0.
    """
    n = np.asarray(labels_a).size
    if n == 0:
        return 1.0
    table = contingency_table(labels_a, labels_b)
    nij = table.data.astype(np.float64)
    rows = np.asarray(table.sum(axis=1)).ravel().astype(np.float64)
    cols = np.asarray(table.sum(axis=0)).ravel().astype(np.float64)
    coo = table.tocoo()
    pij = nij / n
    pi = rows / n
    pj = cols / n
    mi = float((pij * np.log(pij / (pi[coo.row] * pj[coo.col]))).sum())
    ha = float(-(pi[pi > 0] * np.log(pi[pi > 0])).sum())
    hb = float(-(pj[pj > 0] * np.log(pj[pj > 0])).sum())
    if ha == 0.0 and hb == 0.0:
        return 1.0  # both partitions are single blobs -> identical
    if normalization == "arithmetic":
        denom = (ha + hb) / 2.0
    elif normalization == "geometric":
        denom = float(np.sqrt(ha * hb))
    elif normalization == "max":
        denom = max(ha, hb)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if denom == 0.0:
        return 0.0
    return max(0.0, min(1.0, mi / denom))


def f_measure(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Clustering F-measure of partition B against reference A.

    For each reference community ``a`` take the best F1 over communities of
    B, weight by ``|a|``, and symmetrize (average of A-vs-B and B-vs-A) so
    the metric does not depend on which partition is called the reference.
    """
    return (_one_sided_f(labels_a, labels_b) + _one_sided_f(labels_b, labels_a)) / 2.0


def _one_sided_f(ref: np.ndarray, cand: np.ndarray) -> float:
    n = np.asarray(ref).size
    if n == 0:
        return 1.0
    table = contingency_table(ref, cand).tocoo()
    sizes_ref = np.asarray(table.tocsr().sum(axis=1)).ravel().astype(np.float64)
    sizes_cand = np.asarray(table.tocsr().sum(axis=0)).ravel().astype(np.float64)
    overlap = table.data.astype(np.float64)
    precision = overlap / sizes_cand[table.col]
    recall = overlap / sizes_ref[table.row]
    f1 = 2.0 * precision * recall / (precision + recall)
    best = np.zeros(sizes_ref.size, dtype=np.float64)
    np.maximum.at(best, table.row, f1)
    return float((best * sizes_ref).sum() / n)


def normalized_van_dongen(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """NVD: Van Dongen's split-join distance normalized to [0, 1].

        NVD = 1 - (1 / 2n) * ( Σ_i max_j n_ij + Σ_j max_i n_ij )

    0 for identical partitions (paper footnote 1); larger is worse.
    """
    n = np.asarray(labels_a).size
    if n == 0:
        return 0.0
    table = contingency_table(labels_a, labels_b).tocoo()
    row_max = np.zeros(int(table.shape[0]), dtype=np.float64)
    col_max = np.zeros(int(table.shape[1]), dtype=np.float64)
    np.maximum.at(row_max, table.row, table.data.astype(np.float64))
    np.maximum.at(col_max, table.col, table.data.astype(np.float64))
    return float(1.0 - (row_max.sum() + col_max.sum()) / (2.0 * n))


@dataclass(frozen=True)
class SimilarityReport:
    """All Table III columns for one pair of partitions."""

    nmi: float
    f_measure: float
    nvd: float
    rand_index: float
    adjusted_rand_index: float
    jaccard_index: float

    def as_dict(self) -> dict[str, float]:
        return {
            "NMI": self.nmi,
            "F-measure": self.f_measure,
            "NVD": self.nvd,
            "RI": self.rand_index,
            "ARI": self.adjusted_rand_index,
            "JI": self.jaccard_index,
        }


def compare_partitions(labels_a: np.ndarray, labels_b: np.ndarray) -> SimilarityReport:
    """Compute the full Table III metric row for two labelings."""
    return SimilarityReport(
        nmi=normalized_mutual_information(labels_a, labels_b),
        f_measure=f_measure(labels_a, labels_b),
        nvd=normalized_van_dongen(labels_a, labels_b),
        rand_index=rand_index(labels_a, labels_b),
        adjusted_rand_index=adjusted_rand_index(labels_a, labels_b),
        jaccard_index=jaccard_index(labels_a, labels_b),
    )
