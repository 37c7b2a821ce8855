"""Flat-array (CSR) kernel utilities shared by the vectorized backend.

The paper's cost model puts essentially all of the runtime into the
per-superstep gain scan, Out_Table aggregation and REFINE; the hash-table
reference path executes those against :class:`~repro.hashing.EdgeHashTable`
probing.  This package holds the array reformulation those phases share when
run under ``backend="vector"`` (:mod:`repro.parallel.vectorized`): int64
``first * bound + second`` keys instead of packed hash keys, stable-sort
segment reductions instead of probe chains, one id-range-graded pair order
for every Out_Table sort, and the per-destination-rank grouping every
alltoallv exchange goes through.

Everything here is pure numpy with no dependency on the rest of the
repository, so the utilities are unit-testable in isolation and reusable by
future kernels (GPU, out-of-core).
"""

from .csr import (
    IndexWidthError,
    check_combined_width,
    coalesce_pairs,
    coalesce_with_order,
    group_by_destination,
    pair_order,
    segment_coalesce,
    segment_starts,
)

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
