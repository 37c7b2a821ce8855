"""Unit tests for the flat-array kernel utilities."""

import numpy as np
import pytest

from repro.kernels import (
    IndexWidthError,
    check_combined_width,
    coalesce_pairs,
    coalesce_with_order,
    group_by_destination,
    pair_order,
    segment_coalesce,
    segment_starts,
)


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
            (8, 4, 200),          # dense bincount grid
            (300, 70_000, 500),   # bins too large, both ids fit uint16
            (300, 70_000, 500_000 // 100),
            (100_000, 70_000, 400),  # first exceeds uint16 -> int64 fallback
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

    def test_bitwise_identical_sums_across_strategies(self):
        # The three grouping strategies must agree to the last ulp, because
        # the golden gate compares modularity at zero tolerance.
        rng = np.random.default_rng(9)
        first = rng.integers(0, 50, size=5_000)
        second = rng.integers(0, 50, size=5_000)
        weights = rng.random(5_000) * np.where(rng.random(5_000) < 0.2, 1e10, 1.0)
        dense = coalesce_pairs(first, second, 50, 50, weights)
        # Same data through the radix path (lie about the grid size so the
        # dense branch is skipped but ids still fit 16 bits).
        radix = coalesce_pairs(first, second, 60_000, 50, weights)
        ref = self._reference(first, second, 50, weights)
        np.testing.assert_array_equal(dense[2], ref[2])
        np.testing.assert_array_equal(radix[2], ref[2])

    def test_accepts_narrow_dtypes_and_precast(self):
        first = np.array([3, 1, 3], dtype=np.uint16)
        second = np.array([2, 2, 2], dtype=np.uint16)
        w = np.array([1.0, 2.0, 3.0])
        f, s, sums = coalesce_pairs(
            first, second, 70_000, 70_000, w, first_u16=first
        )
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
        # Dense grids need no sort; the radix and combined-key sorts must
        # both yield the stable (first, second) order the warm start reuses.
        rng = np.random.default_rng(size)
        first = rng.integers(0, num_first, size=size)
        second = rng.integers(0, num_second, size=size)
        order = pair_order(first, second, num_first, num_second)
        if num_first * num_second <= 1 << 16:
            assert order is None
        else:
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
