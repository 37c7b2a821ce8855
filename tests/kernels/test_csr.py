"""Unit tests for the flat-array kernel utilities."""

import numpy as np
import pytest

from repro.kernels import (
    IndexWidthError,
    check_combined_width,
    coalesce_pairs,
    coalesce_with_order,
    group_by_destination,
    segment_coalesce,
    segment_starts,
    stable_sort,
)

#: Weights whose sum depends on the order they are added in.
ADVERSARIAL = np.array([1e16, 1.0, -1e16, 3.0, -1.0, 1e-3])


def _spy_on_argsort(monkeypatch) -> list:
    """Record each ``np.argsort`` call's ``kind`` (the fallback passes
    ``kind="stable"``)."""
    calls = []
    original = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


def _arrival_fold_reference(keys, weights):
    """``np.lexsort`` grouping plus an ``np.add.at`` fold in arrival order."""
    order = np.lexsort((np.arange(keys.size), keys))
    sk = keys[order]
    new = np.ones(sk.size, dtype=bool)
    new[1:] = sk[1:] != sk[:-1]
    group = np.cumsum(new) - 1
    inv = np.empty(keys.size, dtype=np.int64)
    inv[order] = group
    sums = np.zeros(int(new.sum()))
    np.add.at(sums, inv, weights)
    return sk[new], sums


class TestStableSort:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 16, 17, 1024, 1025, 2**16, 2**16 + 1]
    )
    def test_packed_path_matches_stable_argsort(self, n, monkeypatch):
        # Many ties: about eight records per key.
        keys = np.random.default_rng(n).integers(0, max(n // 8, 2), size=n)
        want = np.argsort(keys, kind="stable")
        calls = _spy_on_argsort(monkeypatch)
        sorted_keys, order = stable_sort(keys, max(n // 8, 2))
        assert calls == []  # packed, not the fallback
        assert order.dtype == np.int64 and sorted_keys.dtype == np.int64
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(sorted_keys, keys[want])

    @pytest.mark.parametrize("n", [5, 1000, 2**16 + 1])
    def test_fallback_engages_exactly_where_the_word_stops_fitting(
        self, n, monkeypatch
    ):
        # (bound - 1) << b | (n - 1) fits 63 bits iff bound <= 2**(63 - b).
        limit = 1 << (63 - (n - 1).bit_length())
        rng = np.random.default_rng(n)
        for bound, fallback in ((limit, False), (limit + 1, True)):
            keys = rng.integers(bound - 4, bound, size=n)  # the widest keys
            keys[: n // 2] = rng.integers(0, 3, size=n // 2)
            want = np.argsort(keys, kind="stable")
            calls = _spy_on_argsort(monkeypatch)
            sorted_keys, order = stable_sort(keys, bound)
            monkeypatch.undo()
            assert calls == (["stable"] if fallback else [])
            np.testing.assert_array_equal(order, want)
            np.testing.assert_array_equal(sorted_keys, keys[want])

    def test_empty(self):
        sorted_keys, order = stable_sort(np.empty(0, dtype=np.int64), 10)
        assert sorted_keys.size == 0 and order.size == 0
        assert order.dtype == np.int64

    def test_narrow_dtypes_sort_as_int64(self):
        keys = np.array([3, 1, 3, 0, 1], dtype=np.uint16)
        sorted_keys, order = stable_sort(keys, 4)
        assert sorted_keys.dtype == np.int64
        np.testing.assert_array_equal(order, [3, 1, 4, 0, 2])
        np.testing.assert_array_equal(sorted_keys, [0, 1, 1, 3, 3])


class TestCheckCombinedWidth:
    def test_zero_bounds_ok(self):
        check_combined_width(0, 10)
        check_combined_width(10, 0)

    def test_negative_bound_rejected(self):
        with pytest.raises(IndexWidthError):
            check_combined_width(-1, 10)

    def test_exact_boundary(self):
        # (2^31 - 1) * 2^32 + 2^32 - 1 == 2^63 - 1: the last fitting layout.
        check_combined_width(2**31, 2**32)
        with pytest.raises(IndexWidthError):
            check_combined_width(2**31 + 1, 2**32)


class TestSegmentCoalesce:
    def test_sums_duplicates(self):
        keys, weights = segment_coalesce(
            np.array([5, 1, 5, 1, 2]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        )
        np.testing.assert_array_equal(keys, [1, 2, 5])
        np.testing.assert_allclose(weights, [6.0, 5.0, 4.0])

    def test_empty(self):
        keys, weights = segment_coalesce(np.empty(0, dtype=np.int64), np.empty(0))
        assert keys.size == 0 and weights.size == 0

    def test_arrival_order_summation(self):
        # Stable sort => within a group, weights add in arrival order.  With
        # floats whose sum depends on order, the result must equal the
        # left-to-right fold of arrivals.
        keys = np.array([3, 3, 3], dtype=np.int64)
        weights = np.array([1e16, 1.0, -1e16])
        _, out = segment_coalesce(keys, weights)
        assert out[0] == (1e16 + 1.0) + -1e16

    @pytest.mark.parametrize("high", [50, 1 << 62], ids=["packed", "fallback"])
    def test_sums_match_lexsort_add_at_reference(self, high, monkeypatch):
        # A narrow key range packs; keys spread to 2**62 take the fallback.
        rng = np.random.default_rng(high % 97)
        keys = rng.integers(0, 50, size=3_000) * (high // 50)
        weights = ADVERSARIAL[rng.integers(0, ADVERSARIAL.size, size=3_000)]
        calls = _spy_on_argsort(monkeypatch)
        got_k, got_w = segment_coalesce(keys, weights)
        monkeypatch.undo()
        assert calls == ([] if high == 50 else ["stable"])
        ref_k, ref_w = _arrival_fold_reference(keys, weights)
        np.testing.assert_array_equal(got_k, ref_k)
        assert got_w.tobytes() == ref_w.tobytes()

    def test_any_int64_keys(self):
        # Negative keys, and a span wider than int64 that only the fallback
        # can sort.
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        for keys in ([5, -3, 5, -7, -3], [hi, lo, 0, hi, lo, -1]):
            keys = np.array(keys, dtype=np.int64)
            weights = np.arange(1.0, keys.size + 1.0)
            got_k, got_w = segment_coalesce(keys, weights)
            ref_k, ref_w = _arrival_fold_reference(keys, weights)
            np.testing.assert_array_equal(got_k, ref_k)
            np.testing.assert_array_equal(got_w, ref_w)

    def test_matches_np_unique_accumulation(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 50, size=1000).astype(np.int64)
        weights = rng.random(1000)
        got_k, got_w = segment_coalesce(keys, weights)
        uniq, inv = np.unique(keys, return_inverse=True)
        acc = np.zeros(uniq.size)
        np.add.at(acc, inv, weights)
        np.testing.assert_array_equal(got_k, uniq)
        np.testing.assert_allclose(got_w, acc, rtol=0, atol=0)


class TestCoalesceWithOrder:
    def test_matches_segment_coalesce_for_any_valid_order(self):
        # Group sums must not depend on which tie-breaking permutation the
        # caller supplies -- that is the contract warm-start sorting relies on.
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 40, size=600).astype(np.int64)
        weights = rng.random(600) * np.where(rng.random(600) < 0.3, 1e12, 1.0)
        ref_k, ref_w = segment_coalesce(keys, weights)
        for seed in range(5):
            # Shuffle within groups: a random stable-breaking permutation.
            jitter = np.random.default_rng(seed).random(keys.size)
            order = np.lexsort((jitter, keys))
            got_k, got_w = coalesce_with_order(keys, order, weights)
            np.testing.assert_array_equal(got_k, ref_k)
            np.testing.assert_allclose(got_w, ref_w, rtol=0, atol=0)

    def test_single_group(self):
        keys = np.array([7, 7, 7], dtype=np.int64)
        w = np.array([1e16, 1.0, -1e16])
        k, s = coalesce_with_order(keys, np.array([2, 0, 1]), w)
        np.testing.assert_array_equal(k, [7])
        assert s[0] == (1e16 + 1.0) + -1e16  # arrival order, not sort order


class TestCoalescePairs:
    def _reference(self, first, second, num_second, weights):
        keys, sums = segment_coalesce(
            np.asarray(first, dtype=np.int64) * num_second + second, weights
        )
        return keys // num_second, keys % num_second, sums

    @pytest.mark.parametrize(
        "num_first,num_second,size",
        [
            (8, 4, 200),          # fewer pairs than records: many duplicates
            (300, 70_000, 500),   # second wider than 16 bits, sparse pairs
            (300, 70_000, 500_000 // 100),
            (100_000, 70_000, 400),  # both ids wider than 16 bits
        ],
    )
    def test_matches_combined_key_reference(self, num_first, num_second, size):
        rng = np.random.default_rng(num_first + num_second)
        first = rng.integers(0, num_first, size=size)
        second = rng.integers(0, num_second, size=size)
        weights = rng.random(size)
        got = coalesce_pairs(first, second, num_first, num_second, weights)
        ref = self._reference(first, second, num_second, weights)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_bitwise_identical_sums_across_strategies(self, monkeypatch):
        # The packed sort and the stable-argsort fallback must agree to the
        # last ulp, because the golden gate compares modularity at zero
        # tolerance.
        rng = np.random.default_rng(9)
        first = rng.integers(0, 50, size=5_000)
        second = rng.integers(0, 50, size=5_000)
        weights = ADVERSARIAL[rng.integers(0, ADVERSARIAL.size, size=5_000)]
        calls = _spy_on_argsort(monkeypatch)
        packed = coalesce_pairs(first, second, 50, 50, weights)
        assert calls == []
        # Same pairs under the widest bounds check_combined_width allows:
        # the key no longer packs with a 13-bit arrival index.
        fallback = coalesce_pairs(first, second, 2**31, 2**32, weights)
        assert calls == ["stable"]
        monkeypatch.undo()
        ref = self._reference(first, second, 50, weights)
        for got in (packed, fallback):
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
            assert got[2].tobytes() == ref[2].tobytes()

    def test_sums_match_lexsort_add_at_reference(self):
        rng = np.random.default_rng(5)
        first = rng.integers(0, 40, size=4_000)
        second = rng.integers(0, 30, size=4_000)
        weights = ADVERSARIAL[rng.integers(0, ADVERSARIAL.size, size=4_000)]
        f, s, sums = coalesce_pairs(first, second, 40, 30, weights)
        ref_k, ref_w = _arrival_fold_reference(first * 30 + second, weights)
        np.testing.assert_array_equal(f * 30 + s, ref_k)
        assert sums.tobytes() == ref_w.tobytes()

    def test_accepts_narrow_dtypes(self):
        first = np.array([3, 1, 3], dtype=np.uint16)
        second = np.array([2, 2, 2], dtype=np.uint16)
        w = np.array([1.0, 2.0, 3.0])
        f, s, sums = coalesce_pairs(first, second, 70_000, 70_000, w)
        assert f.dtype == np.int64 and s.dtype == np.int64
        np.testing.assert_array_equal(f, [1, 3])
        np.testing.assert_array_equal(s, [2, 2])
        np.testing.assert_allclose(sums, [2.0, 4.0], rtol=0, atol=0)

    def test_empty(self):
        f, s, w = coalesce_pairs(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 5, 5,
            np.empty(0),
        )
        assert f.size == 0 and s.size == 0 and w.size == 0
        assert f.dtype == np.int64

    @pytest.mark.parametrize(
        "num_first,num_second,size",
        [(8, 4, 200), (300, 70_000, 500), (100_000, 70_000, 400)],
    )
    def test_pair_order_is_stable_lexicographic(
        self, num_first, num_second, size
    ):
        # The one sort orders combined pair keys as np.lexsort orders the
        # pairs: by first, then second, ties in arrival order.
        rng = np.random.default_rng(size)
        first = rng.integers(0, num_first, size=size)
        second = rng.integers(0, num_second, size=size)
        keys = first * num_second + second
        _, order = stable_sort(keys, num_first * num_second)
        np.testing.assert_array_equal(order, np.lexsort((second, first)))

    def test_overflow_guard_on_fallback(self):
        big = 1 << 40
        with pytest.raises(IndexWidthError):
            coalesce_pairs(
                np.array([big - 1]), np.array([big - 1]), big, big,
                np.array([1.0]),
            )


class TestSegmentStarts:
    def test_basic(self):
        np.testing.assert_array_equal(
            segment_starts(np.array([1, 1, 2, 5, 5, 5])), [0, 2, 3]
        )

    def test_single(self):
        np.testing.assert_array_equal(segment_starts(np.array([9])), [0])

    def test_empty(self):
        assert segment_starts(np.empty(0, dtype=np.int64)).size == 0


class TestGroupByRank:
    def test_partition_and_order(self):
        dest = np.array([1, 0, 1, 3, 0])
        a = np.array([10, 20, 30, 40, 50])
        b = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        parts = group_by_destination((dest, a, b), 4)
        assert len(parts) == 4
        np.testing.assert_array_equal(parts[0][0], [20, 50])  # arrival order
        np.testing.assert_array_equal(parts[1][0], [10, 30])
        assert parts[2][0].size == 0
        np.testing.assert_allclose(parts[3][1], [0.4])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            group_by_destination((np.array([4]), np.array([1])), 4)
        with pytest.raises(ValueError, match="out of range"):
            group_by_destination((np.array([-1]), np.array([1])), 4)

    def test_empty(self):
        parts = group_by_destination((np.empty(0, dtype=np.int64), np.empty(0)), 3)
        assert len(parts) == 3 and all(p[0].size == 0 for p in parts)

    @pytest.mark.parametrize("num_ranks,size", [(1, 50), (4, 5_000), (7, 1025)])
    def test_matches_stable_argsort_reference(self, num_ranks, size):
        rng = np.random.default_rng(size)
        dest = rng.integers(0, num_ranks, size=size)
        ids = rng.integers(0, 1 << 40, size=size)
        weights = rng.random(size)
        parts = group_by_destination((dest, ids, weights), num_ranks)
        order = np.argsort(dest, kind="stable")
        for d, (got_ids, got_w) in enumerate(parts):
            want = order[dest[order] == d]  # d's records, in send order
            np.testing.assert_array_equal(got_ids, ids[want])
            assert got_w.tobytes() == weights[want].tobytes()
