"""Message bus: one front end, two transports, BSP (superstep) semantics.

Replaces the paper's fine-grained messaging layer [27-29].  A phase produces
*record batches* addressed per record to a destination rank, and the bus
delivers everything at the superstep boundary.  This reproduces exactly the
information structure of the paper's algorithm -- during an inner iteration
every rank computes against the community state captured at the previous
STATE PROPAGATION -- while the :class:`~repro.runtime.profiler.PhaseProfiler`
records the traffic the real machine would have carried.

:class:`Bus` is the front end: what each bus op means, for every execution
mode.  A transport subclass only moves data between ranks:
:class:`MessageBus` hands the parts over inside one process (all ``P``
ranks are local), and :class:`~repro.runtime.shm.SharedMemoryBus` copies
bytes through shared memory between one process per rank.

Records are column-oriented: an exchange takes ``(dest_ranks, col0, col1,
...)`` numpy arrays per source rank and returns the concatenated columns each
destination received.  Grouping is a vectorized argsort, not a Python loop
over records.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..analysis.sanitizer import NULL_SANITIZER, Sanitizer
from ..kernels import group_by_destination
from .profiler import PhaseProfiler

__all__ = ["Bus", "ExchangeResult", "MessageBus", "charge_superstep"]

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
    """The inboxes one alltoallv superstep delivered to the caller's ranks.

    ``inbox(r)`` returns a tuple of column arrays (same arity as sent) for
    each of the bus's local ranks.
    """

    columns: dict[int, tuple[np.ndarray, ...]]

    def inbox(self, rank: int) -> tuple[np.ndarray, ...]:
        cols = self.columns.get(rank)
        if cols is None:
            raise ValueError(
                f"no inbox for rank {rank}: this bus delivers to ranks "
                f"{sorted(self.columns)}"
            )
        return cols


def _box_shape(box: list, num_ranks: int) -> tuple[int, np.ndarray]:
    """Arity and per-destination record counts of one grouped outbox.

    The arity is the column count of the first part that has columns (0 if
    none has); every part must match it and keep its columns equally long.
    """
    if len(box) != num_ranks:
        raise ValueError("grouped outbox must list every destination")
    arity = next((len(part) for part in box if part), 0)
    counts = np.zeros(num_ranks, dtype=np.int64)
    for d, part in enumerate(box):
        if len(part) != arity:
            raise ValueError("all outboxes must have the same arity")
        if part:
            n = np.shape(part[0])[0]
            for col in part[1:]:
                if np.shape(col)[0] != n:
                    raise ValueError("columns must match part length")
            counts[d] = n
    return arity, counts


def _fold_sum(values: list):
    """Sum in ascending rank order (the one fold every transport shares)."""
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


class Bus:
    """The bus front end: every decision that must not depend on transport.

    Algorithms call a bus with per-rank lists holding one entry for each of
    the caller's :attr:`local_ranks` -- all ``P`` ranks on the in-process
    :class:`MessageBus`, the worker's own rank on a process-mode
    :class:`~repro.runtime.shm.SharedMemoryBus`.  This class validates
    outboxes, runs the sanitizer's participation check, resolves the arity
    (and the empty result when nobody sent a column), draws the
    failure-injection permutations, charges supersteps and collectives, and
    folds collective contributions in ascending rank order.  A transport
    implements three hooks and nothing else: :meth:`_deliver` moves one
    superstep's parts, :meth:`_gather` collects every rank's collective
    contribution, and :meth:`_sync` is a bare barrier.

    The bitwise contract between transports rests on this class: every
    fold runs in ascending rank order, and every rank draws the same
    permutations from the same seeded stream and applies its own ranks'.

    Parameters
    ----------
    num_ranks:
        Number of ranks in the run.
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
        #: Ranks whose entries the per-rank argument lists carry, ascending.
        self.local_ranks: Sequence[int] = range(self.num_ranks)

    # -------------------------------------------------------------- #
    # Transport hooks
    # -------------------------------------------------------------- #

    def _deliver(
        self, boxes: list, shapes: list
    ) -> tuple[list[int], np.ndarray, list[list[tuple[np.ndarray, ...]]]]:
        """Move one superstep's parts between ranks.

        ``boxes[i]`` is local rank ``i``'s grouped outbox (or ``None``) and
        ``shapes[i]`` its :func:`_box_shape`.  Returns every rank's arity
        (-1 for a rank that passed ``None``), the global P x P record-count
        matrix, and for each local rank the non-empty parts it received,
        one column tuple per sender in ascending rank order.
        """
        raise NotImplementedError

    def _gather(self, values: list, op: str) -> list:
        """Every rank's contribution to collective ``op``, in rank order."""
        raise NotImplementedError

    def _sync(self, op: str) -> None:
        """Return once every rank has reached this ``op``."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # alltoallv
    # -------------------------------------------------------------- #

    def _local(self, values: list, what: str) -> list:
        if len(values) != len(self.local_ranks):
            raise ValueError(
                f"expected one {what} for each of the "
                f"{len(self.local_ranks)} local ranks, got {len(values)}"
            )
        return values

    def exchange(
        self, outboxes: list[tuple[np.ndarray, ...] | None]
    ) -> ExchangeResult:
        """One alltoallv superstep.

        ``outboxes[i]`` is ``(dest_ranks, col0, col1, ...)`` or ``None`` for
        local rank ``i``; all columns must share the first dimension.
        Returns inboxes holding the same columns (without the dest column),
        concatenated over all sources in rank order (then optionally
        shuffled).  Each outbox is grouped by destination and delivered by
        :meth:`exchange_grouped`.
        """
        return self.exchange_grouped([
            None if box is None else group_by_destination(box, self.num_ranks)
            for box in self._local(outboxes, "outbox")
        ])

    def exchange_grouped(
        self, outboxes: list[list[tuple[np.ndarray, ...]] | None]
    ) -> ExchangeResult:
        """One alltoallv superstep from caller-pregrouped outboxes.

        ``outboxes[i]`` is a list of ``num_ranks`` column tuples -- the
        records local rank ``i`` sends to each destination, already grouped
        -- or ``None`` for a rank skipping the superstep.  This is the bus's
        one delivery path (traffic accounting and failure injection
        included): :meth:`exchange` groups its outboxes and calls it, and a
        caller whose destination pattern is static groups once and calls it
        directly (the vectorized backend's STATE PROPAGATION resends the
        same in-edge structure every inner iteration).
        """
        boxes = self._local(outboxes, "outbox")
        shapes = [
            None if box is None else _box_shape(box, self.num_ranks)
            for box in boxes
        ]
        arities, counts, received = self._deliver(boxes, shapes)
        if self.sanitizer.enabled:
            phase = (
                self.profiler.current_phase if self.profiler is not None else None
            )
            self.sanitizer.check_exchange_participation(
                [None if a < 0 else a for a in arities], phase=phase
            )
        declared = {a for a in arities if a >= 0}
        if len(declared) > 1:
            raise ValueError("all outboxes must have the same arity")
        arity = declared.pop() if declared else 0
        if not arity:
            # Nobody sent a column: one empty int64 column per inbox, and no
            # superstep is charged.
            empty = (np.empty(0, dtype=np.int64),)
            return ExchangeResult(dict.fromkeys(self.local_ranks, empty))

        inboxes: dict[int, tuple[np.ndarray, ...]] = {}
        for rank, parts in zip(self.local_ranks, received):
            if parts:
                inboxes[rank] = tuple(
                    np.concatenate([p[j] for p in parts]) for j in range(arity)
                )
            else:
                inboxes[rank] = tuple(
                    np.empty(0, dtype=np.int64) for _ in range(arity)
                )
        if self.reorder_rng is not None:
            # One permutation per destination, drawn in destination order;
            # each rank applies the draws of its own ranks.
            for dest, size in enumerate(counts.sum(axis=0).tolist()):
                if size > 1:
                    perm = self.reorder_rng.permutation(size)
                    if dest in inboxes:
                        inboxes[dest] = tuple(c[perm] for c in inboxes[dest])
        charge_superstep(self.profiler, counts, arity, self.local_ranks)
        return ExchangeResult(inboxes)

    # -------------------------------------------------------------- #
    # Collectives (cost charged as one collective each)
    # -------------------------------------------------------------- #

    def _contributions(self, values: list, op: str) -> list:
        return self._gather(self._local(values, "contribution"), op)

    def _charge_collective(self) -> None:
        if self.profiler is not None:
            self.profiler.add_collective()

    def allreduce_sum(self, values: list):
        """Sum contributions from every rank; every rank gets the result."""
        total = _fold_sum(self._contributions(values, "allreduce_sum"))
        self._charge_collective()
        return total

    def allreduce_max(self, values: list):
        contribs = self._contributions(values, "allreduce_max")
        total = contribs[0]
        for v in contribs[1:]:
            total = np.maximum(total, v)
        self._charge_collective()
        return total

    def allgather(self, values: list) -> list:
        """Every rank receives the list of all contributions."""
        out = self._contributions(values, "allgather")
        self._charge_collective()
        return out

    def barrier(self) -> None:
        self._sync("barrier")
        self._charge_collective()

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
        return _fold_sum(self._contributions(values, "side_sum"))

    def side_gather(self, values: list) -> list:
        """Gather per-rank bookkeeping values without charging a collective."""
        return self._contributions(values, "side_gather")


class MessageBus(Bus):
    """The in-process transport: every rank is local, parts pass by reference.

    Collective contributions are returned as given, so any Python value
    (not only numpy data) can be summed or gathered.
    """

    def _deliver(self, boxes, shapes):
        counts = np.zeros((self.num_ranks, self.num_ranks), dtype=np.int64)
        arities = []
        for src, shape in enumerate(shapes):
            if shape is None:
                arities.append(-1)
            else:
                arities.append(shape[0])
                counts[src] = shape[1]
        received = [
            [box[dest] for box, n in zip(boxes, column) if n]
            for dest, column in enumerate(counts.T.tolist())
        ]
        return arities, counts, received

    def _gather(self, values, op):
        return list(values)

    def _sync(self, op):
        pass
