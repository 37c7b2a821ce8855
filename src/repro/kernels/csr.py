"""CSR / segment-reduction primitives for the vectorized Louvain backend.

Every grouping here goes through one sort, :func:`stable_sort`: non-negative
int64 keys below a known bound, each packed with its arrival index into one
int64 word and sorted by value (numpy's SIMD sort), which yields the stable
order; a stable argsort takes over only where the packed word would not
fit in 63 bits.  On it sit three families of helpers:

* **Segment coalescing** -- :func:`segment_coalesce` is the array analogue of
  ``EdgeHashTable.insert_accumulate``: group duplicate keys and sum their
  weights.  Group membership comes from the sort, but the weights are
  summed with ``np.bincount`` over the *original* array -- a strict
  left-to-right fold in arrival order, bit-identical to the hash table's
  ``np.add.at`` coalescing pass.  (``np.add.reduceat`` would be the obvious
  choice but uses pairwise summation, which rounds differently and would
  smear ulp-level noise into the differential gate.)
* **Pair coalescing** -- :func:`coalesce_pairs` groups ``(first, second)``
  id pairs by the combined key ``first * bound + second``, whose width
  :func:`check_combined_width` validates instead of letting it wrap at
  ``2^63``; the graph's CSR build (:func:`repro.graph.coalesce_edges`) and
  the vector backend's Out_Table rebuild both call it.
* **Destination grouping** -- :func:`group_by_destination` splits an
  alltoallv outbox into per-destination-rank batches in send order; both
  message buses and the vector backend's per-level send batches group
  through it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IndexWidthError",
    "check_combined_width",
    "coalesce_pairs",
    "coalesce_with_order",
    "group_by_destination",
    "segment_coalesce",
    "segment_starts",
    "stable_sort",
]

#: Largest value an int64 combined key may reach (inclusive).
_INT64_MAX = (1 << 63) - 1


class IndexWidthError(ValueError):
    """Combined-key arithmetic would overflow int64 (or ids are invalid).

    Raised *before* any array math wraps, with the offending quantities in
    the message -- silent modulo-2^63 wraparound here would merge unrelated
    ``(vertex, community)`` pairs and corrupt the gain scan undetectably.
    """


def check_combined_width(num_first: int, bound_second: int, *, what: str = "key") -> None:
    """Validate that ``first * bound + second`` fits int64 for all valid ids.

    ``num_first`` is an exclusive upper bound on ``first`` and
    ``bound_second`` an exclusive upper bound on ``second``.
    """
    num_first = int(num_first)
    bound_second = int(bound_second)
    if num_first < 0 or bound_second < 0:
        raise IndexWidthError(
            f"{what}: id bounds must be non-negative "
            f"(got first<{num_first}, second<{bound_second})"
        )
    if num_first == 0 or bound_second == 0:
        return
    top = (num_first - 1) * bound_second + (bound_second - 1)
    if top > _INT64_MAX:
        raise IndexWidthError(
            f"{what}: combined key (first * {bound_second} + second) with "
            f"first < {num_first} reaches {top}, which overflows int64 "
            f"(max {_INT64_MAX}); the graph is too large for the int64 "
            "combined-key layout"
        )


def stable_sort(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Stably sort int64 ``keys`` that lie in ``[0, bound)``.

    Returns ``(keys[order], order)``, ``order`` being the stable argsort.
    Each key is packed with its arrival index ``i`` into one int64 word,
    ``key << b | i`` with ``b`` the bit length of ``n - 1``.  The words are
    unique, so sorting them by value -- numpy's SIMD sort, no stability
    needed -- yields the stable order; the low ``b`` bits of the sorted
    words are ``order`` and the high bits the sorted keys.  When
    ``(bound - 1) << b | (n - 1)`` does not fit in 63 bits the words cannot
    be formed, and a stable ``np.argsort`` sorts instead; that
    fallback orders any int64 keys, so a bound too wide to pack may come
    with negative keys.
    """
    keys = np.asarray(keys, dtype=np.int64).ravel()
    last = max(keys.size - 1, 0)  # the largest arrival index
    shift = last.bit_length()
    if ((int(bound) - 1) << shift | last) > _INT64_MAX:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    words = keys << shift
    words |= np.arange(keys.size, dtype=np.int64)
    words.sort()
    order = words & ((1 << shift) - 1)
    words >>= shift
    return words, order


def _fold(
    sorted_keys: np.ndarray, order: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unique keys and per-key weight sums, folded in arrival order.

    ``sorted_keys`` is ``keys[order]`` for some permutation ``order`` that
    sorts ``keys``; each weight is binned under its group index by
    ``np.bincount`` over the original arrival order, a strict
    left-to-right fold whatever ``order`` was.
    """
    heads = _run_heads(sorted_keys)
    group_of_sorted = heads.astype(np.int64)
    np.cumsum(group_of_sorted, out=group_of_sorted)
    group_of_sorted -= 1
    inv = np.empty(sorted_keys.size, dtype=np.int64)
    inv[order] = group_of_sorted
    sums = np.bincount(
        inv, weights=weights, minlength=np.count_nonzero(heads)
    )
    return sorted_keys[heads], sums


def segment_coalesce(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``weights`` over duplicate ``keys``; returns sorted unique keys.

    The array analogue of hash-table accumulate-insert, for any int64 keys.
    Grouping comes from :func:`stable_sort` (negative keys are first shifted
    to count from 0); the sums come from ``np.bincount`` over the original
    arrival order, which folds strictly left to right and therefore
    reproduces the hash table's ``np.add.at`` rounding bit for bit.
    """
    keys = np.asarray(keys, dtype=np.int64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if keys.shape != weights.shape:
        raise ValueError("keys and weights must have the same length")
    if keys.size == 0:
        return keys, weights
    low = min(int(keys.min()), 0)
    bound = int(keys.max()) - low + 1
    if low and bound <= _INT64_MAX + 1:  # keys - low cannot wrap
        sorted_keys, order = stable_sort(keys - low, bound)
        sorted_keys += low
    else:  # non-negative keys, or a span only the fallback sorts
        sorted_keys, order = stable_sort(keys, bound)
    return _fold(sorted_keys, order, weights)


def coalesce_with_order(
    keys: np.ndarray, order: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segment_coalesce` given a caller-supplied sorting permutation.

    ``order`` must be *some* permutation for which ``keys[order]`` is
    non-decreasing -- it does not have to be the stable argsort.  Group sums
    fold in the keys' original arrival order regardless (``np.bincount``
    over the inverse group map), so any valid ``order`` yields bit-identical
    results.
    """
    keys = np.asarray(keys).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    return _fold(keys[order], order, weights)


def coalesce_pairs(
    first: np.ndarray,
    second: np.ndarray,
    num_first: int,
    num_second: int,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce ``(first, second)`` id pairs, summing ``weights`` per pair.

    Returns ``(first_u, second_u, sums)`` sorted ascending by ``(first,
    second)``.  Output is *identical* to ``segment_coalesce(first * num_second
    + second, weights)`` split back into coordinates: the combined key,
    whose int64 width :func:`check_combined_width` validates first, is
    grouped by :func:`stable_sort` under the bound ``num_first *
    num_second``, and the sums fold in arrival order via ``np.bincount``.
    ``first`` must lie in ``[0, num_first)`` and ``second`` in ``[0,
    num_second)``; either may be any integer dtype up to int64.
    """
    first = np.asarray(first).ravel()
    second = np.asarray(second).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if first.shape != second.shape or first.shape != weights.shape:
        raise ValueError("first, second and weights must have the same length")
    num_first = int(num_first)
    num_second = int(num_second)
    check_combined_width(num_first, num_second, what="pair coalesce key")
    keys = np.multiply(first, np.int64(num_second), dtype=np.int64)
    keys += second
    ukeys, sums = _fold(*stable_sort(keys, num_first * num_second), weights)
    f = ukeys // num_second
    return f, ukeys - f * num_second, sums


def _run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the entries that begin a run of equal values."""
    heads = np.empty(sorted_keys.size, dtype=bool)
    if sorted_keys.size:
        heads[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=heads[1:])
    return heads


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values begins in a sorted array."""
    return np.flatnonzero(_run_heads(np.asarray(sorted_keys)))


def group_by_destination(
    box: tuple[np.ndarray, ...], num_ranks: int
) -> list[tuple[np.ndarray, ...]]:
    """Split a ``(dest_ranks, col0, col1, ...)`` outbox into one column tuple
    per destination rank (empty arrays for silent ranks).

    The grouping is :func:`stable_sort`, so records for one destination keep
    their send order -- which makes a caller-pregrouped exchange
    byte-identical to one the bus groups on the fly.
    """
    dest = np.asarray(box[0], dtype=np.int64)
    cols = [np.asarray(col) for col in box[1:]]
    for col in cols:
        if col.shape[0] != dest.shape[0]:
            raise ValueError("columns must match dest length")
    if dest.size and (dest.min() < 0 or dest.max() >= num_ranks):
        raise ValueError("destination rank out of range")
    sorted_dest, order = stable_sort(dest, num_ranks)
    bounds = np.searchsorted(
        sorted_dest, np.arange(num_ranks + 1, dtype=np.int64)
    ).tolist()
    cols = [col[order] for col in cols]
    return [tuple(col[a:b] for col in cols) for a, b in zip(bounds, bounds[1:])]
