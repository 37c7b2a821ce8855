"""CSR / segment-reduction primitives for the vectorized Louvain backend.

Three families of helpers:

* **Segment coalescing** -- :func:`segment_coalesce` is the array analogue of
  ``EdgeHashTable.insert_accumulate``: group duplicate keys and sum their
  weights.  Group membership comes from one stable (radix) argsort, but the
  weights are summed with ``np.bincount`` over the *original* array -- a
  strict left-to-right fold in arrival order, bit-identical to the hash
  table's ``np.add.at`` coalescing pass.  (``np.add.reduceat`` would be the
  obvious choice but uses pairwise summation, which rounds differently and
  would smear ulp-level noise into the differential gate.)
* **Pair ordering** -- :func:`pair_order` picks the grouping strategy for
  ``(first, second)`` id pairs by id range (dense grid, 16-bit radix sort or
  a combined int64 key, whose width :func:`check_combined_width` validates
  instead of letting ``first * bound + second`` wrap at ``2^63``);
  :func:`coalesce_pairs` and the vector backend's Out_Table rebuild both
  sort through it.
* **Destination grouping** -- :func:`group_by_destination` splits an
  alltoallv outbox into per-destination-rank batches with one stable
  argsort; both message buses and the vector backend's per-level send
  batches group through it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IndexWidthError",
    "check_combined_width",
    "coalesce_pairs",
    "coalesce_with_order",
    "group_by_destination",
    "pair_order",
    "segment_coalesce",
    "segment_starts",
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


def segment_coalesce(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``weights`` over duplicate ``keys``; returns sorted unique keys.

    The array analogue of hash-table accumulate-insert.  Grouping comes
    from one stable argsort; the sums come from ``np.bincount`` over the
    original arrival order, which folds strictly left to right and therefore
    reproduces the hash table's ``np.add.at`` rounding bit for bit.
    """
    keys = np.asarray(keys, dtype=np.int64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if keys.shape != weights.shape:
        raise ValueError("keys and weights must have the same length")
    if keys.size == 0:
        return keys, weights
    return coalesce_with_order(keys, np.argsort(keys, kind="stable"), weights)


def coalesce_with_order(
    keys: np.ndarray, order: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segment_coalesce` given a caller-supplied sorting permutation.

    ``order`` must be *some* permutation for which ``keys[order]`` is
    non-decreasing -- it does not have to be the stable argsort.  Group sums
    fold in the keys' original arrival order regardless (``np.bincount``
    over the inverse group map), so any valid ``order`` yields bit-identical
    results.  Callers with incrementally changing keys exploit this: re-sort
    through the previous iteration's permutation (nearly sorted, so the
    stable sort degenerates to a fast linear merge) instead of from scratch.
    """
    keys = np.asarray(keys).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    sk = keys[order]
    starts = segment_starts(sk)
    group_of_sorted = np.zeros(sk.size, dtype=np.int64)
    group_of_sorted[starts] = 1
    np.cumsum(group_of_sorted, out=group_of_sorted)
    group_of_sorted -= 1
    inv = np.empty(sk.size, dtype=np.int64)
    inv[order] = group_of_sorted
    sums = np.bincount(inv, weights=weights, minlength=starts.size)
    return sk[starts], sums


#: Exclusive value bound under which one coordinate fits a uint16 radix pass.
_RADIX16_BOUND = 1 << 16


def pair_order(
    first: np.ndarray,
    second: np.ndarray,
    num_first: int,
    num_second: int,
    *,
    first_u16: np.ndarray | None = None,
) -> np.ndarray | None:
    """Stable permutation sorting ``(first, second)`` pairs ascending.

    The strategy is chosen by id range instead of always paying a 64-bit
    comparison sort:

    * **dense** -- when ``num_first * num_second`` is within a few passes of
      the record count, a bincount straight into the dense pair grid needs
      no sort at all: returns ``None`` (:func:`coalesce_pairs` then bins);
    * **radix** -- when both coordinates fit 16 bits, two stable uint16
      argsorts (numpy's radix path) replace the combined int64 argsort
      (numpy's comparison path), LSD-style: sort by ``second``, then stably
      by ``first``;
    * **fallback** -- the combined-key stable argsort, with the int64 width
      check.

    ``first_u16`` optionally supplies a pre-cast uint16 copy of ``first``
    for the radix path (callers whose ``first`` column is static across many
    sorts can pay the cast once); ``second`` may itself be passed as a
    narrow unsigned dtype to skip its cast the same way.
    """
    first = np.asarray(first).ravel()
    second = np.asarray(second).ravel()
    num_first = int(num_first)
    num_second = int(num_second)
    bins = num_first * num_second
    if 0 < bins <= max(1 << 16, 8 * first.size):
        return None
    if num_first <= _RADIX16_BOUND and num_second <= _RADIX16_BOUND:
        s16 = second if second.dtype == np.uint16 else second.astype(np.uint16)
        f16 = first_u16 if first_u16 is not None else (
            first if first.dtype == np.uint16 else first.astype(np.uint16)
        )
        p = np.argsort(s16, kind="stable")
        return p[np.argsort(f16[p], kind="stable")]
    check_combined_width(num_first, num_second, what="pair coalesce key")
    return np.argsort(
        first.astype(np.int64) * np.int64(num_second) + second, kind="stable"
    )


def coalesce_pairs(
    first: np.ndarray,
    second: np.ndarray,
    num_first: int,
    num_second: int,
    weights: np.ndarray,
    *,
    first_u16: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce ``(first, second)`` id pairs, summing ``weights`` per pair.

    Returns ``(first_u, second_u, sums)`` sorted ascending by ``(first,
    second)``.  Output is *identical* to ``segment_coalesce(first * num_second
    + second, weights)`` split back into coordinates -- the sums always fold
    in arrival order via ``np.bincount`` -- but the grouping comes from
    :func:`pair_order` (``first_u16`` is passed through to it).
    """
    first = np.asarray(first).ravel()
    second = np.asarray(second).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if first.shape != second.shape or first.shape != weights.shape:
        raise ValueError("first, second and weights must have the same length")
    num_second = int(num_second)
    order = pair_order(
        first, second, num_first, num_second, first_u16=first_u16
    )
    keys = first.astype(np.int64) * np.int64(num_second) + second
    if order is None:
        # Dense grid: bin order is pair order.
        bins = int(num_first) * num_second
        ukeys = np.flatnonzero(np.bincount(keys, minlength=bins))
        sums = np.bincount(keys, weights=weights, minlength=bins)[ukeys]
    else:
        ukeys, sums = coalesce_with_order(keys, order, weights)
    f = ukeys // num_second
    return f, ukeys - f * num_second, sums


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values begins in a sorted array."""
    sorted_keys = np.asarray(sorted_keys)
    if sorted_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    new = np.empty(sorted_keys.size, dtype=bool)
    new[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def group_by_destination(
    box: tuple[np.ndarray, ...], num_ranks: int
) -> list[tuple[np.ndarray, ...]]:
    """Split a ``(dest_ranks, col0, col1, ...)`` outbox into one column tuple
    per destination rank (empty arrays for silent ranks).

    The grouping sort is *stable*, so records for one destination keep their
    send order -- which makes a caller-pregrouped exchange byte-identical to
    one the bus groups on the fly.
    """
    dest = np.asarray(box[0], dtype=np.int64)
    cols = [np.asarray(col) for col in box[1:]]
    for col in cols:
        if col.shape[0] != dest.shape[0]:
            raise ValueError("columns must match dest length")
    if dest.size and (dest.min() < 0 or dest.max() >= num_ranks):
        raise ValueError("destination rank out of range")
    order = np.argsort(dest, kind="stable")
    bounds = np.searchsorted(
        dest[order], np.arange(num_ranks + 1, dtype=np.int64)
    ).tolist()
    cols = [col[order] for col in cols]
    return [tuple(col[a:b] for col in cols) for a, b in zip(bounds, bounds[1:])]
