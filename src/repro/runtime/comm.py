"""Simulated message-passing bus with BSP (superstep) semantics.

Replaces the paper's fine-grained messaging layer [27-29].  All ranks run in
one Python process; a phase produces *record batches* addressed per record to
a destination rank, and the bus delivers everything at the superstep
boundary.  This reproduces exactly the information structure of the paper's
algorithm -- during an inner iteration every rank computes against the
community state captured at the previous STATE PROPAGATION -- while the
:class:`~repro.runtime.profiler.PhaseProfiler` records the traffic the real
machine would have carried.

Records are column-oriented: an exchange takes ``(dest_ranks, col0, col1,
...)`` numpy arrays per source rank and returns the concatenated columns each
destination received.  Grouping is a vectorized argsort, not a Python loop
over records.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..analysis.sanitizer import NULL_SANITIZER, Sanitizer
from ..kernels import group_by_destination
from .profiler import PhaseProfiler

__all__ = ["ExchangeResult", "MessageBus", "charge_superstep"]

#: Modeled wire size of one record column element (8-byte word).
_BYTES_PER_WORD = 8


def charge_superstep(
    profiler: PhaseProfiler | None,
    counts: np.ndarray,
    arity: int,
    senders: Iterable[int],
) -> None:
    """Charge one alltoallv superstep from its P x P record-count matrix.

    ``counts[src, dst]`` is the number of records ``src`` sent to ``dst``,
    each ``arity`` modeled words wide.  Every rank in ``senders`` is charged
    its records, bytes and messages (destinations touched) -- the simulated
    bus charges every rank, a process-mode worker only its own -- the
    superstep is counted once, and a live tracer gets one ``superstep``
    event with the global volumes.
    """
    if profiler is None:
        return
    per_rank = counts.sum(axis=1)
    for src in senders:
        records = int(per_rank[src])
        if records:
            profiler.add_send(
                src,
                records=records,
                nbytes=records * arity * _BYTES_PER_WORD,
                messages=int(np.count_nonzero(counts[src])),
            )
    profiler.add_superstep()
    tracer = profiler.tracer
    if tracer is not None and tracer.enabled:
        records = int(per_rank.sum())
        tracer.superstep(
            profiler.current_phase,
            records=records,
            nbytes=records * arity * _BYTES_PER_WORD,
            messages=int(np.count_nonzero(counts)),
            per_rank_records=per_rank.tolist(),
        )


@dataclass
class ExchangeResult:
    """Per-destination inboxes from one alltoallv superstep.

    ``inbox(r)`` returns a tuple of column arrays (same arity as sent).
    """

    columns: list[tuple[np.ndarray, ...]]

    def inbox(self, rank: int) -> tuple[np.ndarray, ...]:
        return self.columns[rank]


class MessageBus:
    """All-to-all record exchange plus collectives, with traffic accounting.

    Parameters
    ----------
    num_ranks:
        Number of simulated ranks.
    profiler:
        Sink for traffic counters (optional).
    reorder_rng:
        If given, each destination's inbox is randomly permuted.  The paper's
        messaging layer gives no intra-superstep ordering guarantees, so the
        algorithm must be insensitive to delivery order; tests enable this to
        prove it (failure-injection mode).
    sanitizer:
        Optional :class:`~repro.analysis.Sanitizer`; when enabled, every
        exchange verifies barrier discipline (each rank participates in each
        superstep) before delivering.
    """

    def __init__(
        self,
        num_ranks: int,
        profiler: PhaseProfiler | None = None,
        *,
        reorder_rng: np.random.Generator | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        if num_ranks < 1:
            raise ValueError("need at least one rank")
        self.num_ranks = int(num_ranks)
        self.profiler = profiler
        self.reorder_rng = reorder_rng
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER

    # -------------------------------------------------------------- #

    def exchange(
        self, outboxes: list[tuple[np.ndarray, ...] | None]
    ) -> ExchangeResult:
        """One alltoallv superstep.

        ``outboxes[src]`` is ``(dest_ranks, col0, col1, ...)`` or ``None``;
        all columns must share the first dimension.  Returns inboxes holding
        the same columns (without the dest column), concatenated over all
        sources in rank order (then optionally shuffled).  Each outbox is
        grouped by destination and delivered by :meth:`exchange_grouped`.
        """
        if len(outboxes) != self.num_ranks:
            raise ValueError("one outbox per rank required")
        return self.exchange_grouped([
            None if box is None else group_by_destination(box, self.num_ranks)
            for box in outboxes
        ])

    def exchange_grouped(
        self, outboxes: list[list[tuple[np.ndarray, ...]] | None]
    ) -> ExchangeResult:
        """One alltoallv superstep from caller-pregrouped outboxes.

        ``outboxes[src]`` is a list of ``num_ranks`` column tuples -- the
        records ``src`` sends to each destination, already grouped -- or
        ``None`` for a rank skipping the superstep.  This is the bus's one
        delivery path (traffic accounting and failure injection included):
        :meth:`exchange` groups its outboxes and calls it, and a caller whose
        destination pattern is static groups once and calls it directly
        (the vectorized backend's STATE PROPAGATION resends the same in-edge
        structure every inner iteration).
        """
        if len(outboxes) != self.num_ranks:
            raise ValueError("one outbox per rank required")
        sanitizer = self.sanitizer
        if sanitizer.enabled:
            phase = (
                self.profiler.current_phase if self.profiler is not None else None
            )
            sanitizer.check_exchange_participation(outboxes, phase=phase)
        arity = None
        for box in outboxes:
            if box is None:
                continue
            if len(box) != self.num_ranks:
                raise ValueError("grouped outbox must list every destination")
            for part in box:
                if part:
                    arity = len(part)
                    break
            if arity is not None:
                break
        if arity is None:
            empty = (np.empty(0, dtype=np.int64),)
            return ExchangeResult(columns=[empty] * self.num_ranks)

        counts = np.zeros((self.num_ranks, self.num_ranks), dtype=np.int64)
        per_dest_parts: list[list[tuple[np.ndarray, ...]]] = [
            [] for _ in range(self.num_ranks)
        ]
        for src, box in enumerate(outboxes):
            if box is None:
                continue
            for d, part in enumerate(box):
                if len(part) != arity:
                    raise ValueError("all outboxes must have the same arity")
                n = int(np.asarray(part[0]).shape[0])
                for col in part[1:]:
                    if np.asarray(col).shape[0] != n:
                        raise ValueError("columns must match part length")
                if n == 0:
                    continue
                per_dest_parts[d].append(part)
                counts[src, d] = n

        inboxes: list[tuple[np.ndarray, ...]] = []
        for d in range(self.num_ranks):
            parts = per_dest_parts[d]
            if parts:
                cols = tuple(
                    np.concatenate([p[i] for p in parts]) for i in range(arity)
                )
            else:
                cols = tuple(np.empty(0, dtype=np.int64) for _ in range(arity))
            if self.reorder_rng is not None and cols[0].size > 1:
                perm = self.reorder_rng.permutation(cols[0].size)
                cols = tuple(c[perm] for c in cols)
            inboxes.append(cols)
        charge_superstep(self.profiler, counts, arity, range(self.num_ranks))
        return ExchangeResult(columns=inboxes)

    # -------------------------------------------------------------- #
    # Collectives (simulated; cost charged as one collective each)
    # -------------------------------------------------------------- #

    def allreduce_sum(self, values: list):
        """Sum contributions from every rank; every rank gets the result."""
        if len(values) != self.num_ranks:
            raise ValueError("one value per rank required")
        total = values[0]
        for v in values[1:]:
            total = total + v
        if self.profiler is not None:
            self.profiler.add_collective()
        return total

    def allreduce_max(self, values: list):
        if len(values) != self.num_ranks:
            raise ValueError("one value per rank required")
        total = values[0]
        for v in values[1:]:
            total = np.maximum(total, v)
        if self.profiler is not None:
            self.profiler.add_collective()
        return total

    def allgather(self, values: list) -> list:
        """Every rank receives the list of all contributions."""
        if len(values) != self.num_ranks:
            raise ValueError("one value per rank required")
        if self.profiler is not None:
            self.profiler.add_collective()
        return list(values)

    def barrier(self) -> None:
        if self.profiler is not None:
            self.profiler.add_collective()

    # -------------------------------------------------------------- #
    # Side channels (driver bookkeeping, not algorithm traffic)
    # -------------------------------------------------------------- #

    def side_sum(self, values: list):
        """Sum per-rank bookkeeping values without charging a collective.

        Used for driver-side accounting (sanitizer conservation sums, level
        statistics) that in process mode must cross worker boundaries but is
        not part of the algorithm's modeled communication.  Folds in rank
        order, exactly like :meth:`allreduce_sum`.
        """
        if len(values) != self.num_ranks:
            raise ValueError("one value per rank required")
        total = values[0]
        for v in values[1:]:
            total = total + v
        return total

    def side_gather(self, values: list) -> list:
        """Gather per-rank bookkeeping values without charging a collective."""
        if len(values) != self.num_ranks:
            raise ValueError("one value per rank required")
        return list(values)
