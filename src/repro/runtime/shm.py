"""Shared-memory SPMD transport: byte-level alltoallv between processes.

This module is the data-plane of ``execution="process"``: ``P`` worker
processes (one per rank) exchange record batches through
:mod:`multiprocessing.shared_memory` segments instead of the simulated
in-process bus.  Three pieces:

* :func:`publish_arrays` / :class:`ManifestReader` -- a small typed manifest
  (:class:`ShmManifest`) describing numpy arrays packed into named shared
  segments.  The parent publishes each rank's CSR edge shard (and the
  warm-start membership) once; workers read their shard by name.
* :class:`SharedMemoryBus` -- a drop-in peer of
  :class:`~repro.runtime.comm.MessageBus` with *local-rank* call semantics:
  every worker passes exactly its own outbox / contribution, and the bus
  resolves the collective against all ``P`` peers.  The alltoallv is pure
  byte movement: per-destination contiguous array slices are written into a
  preallocated shared send region next to a counts/displs header; receivers
  assemble inboxes straight from the peers' regions.  **No per-message
  Python objects are pickled** -- only raw bytes plus a fixed int64 header
  row cross process boundaries (and the bus itself refuses pickling).
* :func:`leaked_segments` -- the ``/dev/shm`` leak scan used by tests/CI.

Synchronization protocol (see DESIGN.md): each bus operation is one
``multiprocessing.Barrier`` wait over two alternating payload slots per
rank.  A rank reaches barrier ``i+1`` only after it finished *reading*
operation ``i``, so a writer reusing a slot at operation ``i+2`` can never
race a reader of operation ``i`` -- double buffering makes one barrier per
operation sufficient.  Send regions grow by republishing a fresh segment
under a generation counter carried in the header; readers re-attach when the
generation changes, and the stale segment is unlinked immediately (existing
mappings stay valid on Linux).

Determinism: inbox parts concatenate in ascending source-rank order and
collective contributions fold in ascending rank order -- exactly the
simulated bus's folds -- so every float and every branch input is
bit-identical to ``execution="simulated"``.
"""

from __future__ import annotations

import mmap
import os
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from ..analysis.sanitizer import NULL_SANITIZER, Sanitizer
from .profiler import PhaseProfiler

__all__ = [
    "SHM_PREFIX",
    "ShmBlock",
    "ArraySpec",
    "ShmManifest",
    "publish_arrays",
    "ManifestReader",
    "SharedMemoryBus",
    "ShmProtocolError",
    "BarrierBrokenError",
    "leaked_segments",
]

#: Every segment this runtime creates starts with this (the leak scan's key).
SHM_PREFIX = "reproshm"

#: POSIX shared memory lives on the tmpfs at /dev/shm (what shm_open uses);
#: fall back to a plain temp dir on exotic platforms so the mode still runs.
_SHM_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


class ShmBlock:
    """One named shared-memory segment: tmpfs file + shared mapping.

    Equivalent to ``multiprocessing.shared_memory.SharedMemory`` (same
    ``/dev/shm`` object, same mmap semantics) but without its
    resource-tracker bookkeeping: the tracker is a single process shared by
    the whole fork family, so P ranks attaching/untracking the same name
    race each other's register/unregister messages.  Ownership here is
    explicit instead -- the run's parent unlinks every segment carrying the
    run prefix on both success and failure paths.
    """

    __slots__ = ("name", "size", "_mm")

    def __init__(self, name: str, mm: mmap.mmap, size: int) -> None:
        self.name = name
        self.size = size
        self._mm = mm

    @staticmethod
    def create(name: str, size: int) -> "ShmBlock":
        size = max(int(size), 1)
        path = os.path.join(_SHM_DIR, name)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, size)
            mm = mmap.mmap(fd, size)
        except BaseException:
            os.unlink(path)
            raise
        finally:
            os.close(fd)
        return ShmBlock(name, mm, size)

    @staticmethod
    def attach(name: str) -> "ShmBlock":
        path = os.path.join(_SHM_DIR, name)
        fd = os.open(path, os.O_RDWR)
        try:
            size = os.fstat(fd).st_size
            mm = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        return ShmBlock(name, mm, size)

    @property
    def buf(self) -> mmap.mmap:
        return self._mm

    def close(self) -> None:
        try:
            self._mm.close()
        except BufferError:  # pragma: no cover - a view is still exported
            pass

    def unlink(self) -> None:
        try:
            os.unlink(os.path.join(_SHM_DIR, self.name))
        except OSError:
            pass

#: Modeled wire size of one record word (matches the simulated bus).
_BYTES_PER_WORD = 8

_DTYPE_NAMES = (
    "int64", "float64", "int32", "uint16", "bool", "int8", "uint8",
    "int16", "uint32", "uint64", "float32",
)
_DTYPE_CODE = {np.dtype(name): code for code, name in enumerate(_DTYPE_NAMES)}
_CODE_DTYPE = tuple(np.dtype(name) for name in _DTYPE_NAMES)
_ITEMSIZE = np.array([dt.itemsize for dt in _CODE_DTYPE], dtype=np.int64)

# Operation kind codes (header word W_KIND; divergence guard).
_K_EXCHANGE = 1
_K_GROUPED = 2
_K_SUM = 3
_K_MAX = 4
_K_GATHER = 5
_K_BARRIER = 6
_K_SIDE_SUM = 7
_K_SIDE_GATHER = 8

# Header row layout (int64 words per (rank, slot)).
_W_SEQ = 0       # bus operation sequence number
_W_KIND = 1      # kind code above
_W_PART = 2      # participation flag (0 = None outbox)
_W_ARITY = 3     # exchange column count (-1 = undetermined)
_W_GEN = 4       # generation of this rank+slot's payload segment
_W_NBYTES = 5    # payload bytes written this operation
_W_CDTYPE = 6    # collective: dtype code
_W_CNDIM = 7     # collective: ndim (<= 4)
_W_CSHAPE = 8    # collective: shape[0..3] (4 words)
_W_COUNTS = 12   # exchange: per-destination record counts (P words)
# then per-(destination, column) dtype codes: P * _MAX_COLS words
_MAX_COLS = 6

_MISSING = object()  # sanitizer pseudo-outbox placeholder for participants


class ShmProtocolError(RuntimeError):
    """Raised when the shared-memory superstep protocol breaks down.

    Covers a broken/aborted barrier (a peer worker died mid-superstep) and
    header divergence (peers disagree about which operation is running --
    the SPMD control flow forked, which the lockstep design forbids).
    """


class BarrierBrokenError(ShmProtocolError):
    """The superstep barrier was broken under this rank.

    A bystander's symptom, not a cause: some other rank (or the parent)
    aborted the run, so process mode reports this only when no rank
    reported a primary failure.
    """


def leaked_segments(prefix: str = SHM_PREFIX) -> list[str]:
    """Segment names still on the shm filesystem with ``prefix`` (want [])."""
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - no shm dir at all
        return []
    return sorted(n for n in names if n.startswith(prefix))


def _unlink_quiet(name: str) -> None:
    try:
        os.unlink(os.path.join(_SHM_DIR, name))
    except OSError:
        pass


# ===================================================================== #
# Typed manifest: named arrays packed into shared segments
# ===================================================================== #


@dataclass(frozen=True)
class ArraySpec:
    """Where one named array lives: segment, dtype, shape, byte offset."""

    name: str
    segment: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        n = 1
        for d in self.shape:
            n *= int(d)
        return n * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ShmManifest:
    """Typed description of every array the parent published."""

    prefix: str
    arrays: tuple[ArraySpec, ...]

    def spec(self, name: str) -> ArraySpec:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"manifest has no array {name!r}")

    def names(self) -> list[str]:
        return [a.name for a in self.arrays]

    def __contains__(self, name: str) -> bool:
        return any(a.name == name for a in self.arrays)


def publish_arrays(
    prefix: str, groups: dict[str, dict[str, np.ndarray]]
) -> tuple[ShmManifest, list[ShmBlock]]:
    """Pack ``groups[segment][name] = array`` into shared segments.

    Returns the manifest plus the created segment handles (the caller owns
    them and must ``close()`` + ``unlink()`` when the run is over).  Arrays
    are copied in at 64-byte aligned offsets; readers copy out, so the
    segments are immutable inputs, not live state.
    """
    specs: list[ArraySpec] = []
    segments: list[ShmBlock] = []
    for group, arrays in groups.items():
        total = 0
        packed: list[tuple[str, np.ndarray, int]] = []
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _DTYPE_CODE:
                raise TypeError(
                    f"manifest array {group}/{name} has unsupported "
                    f"dtype {arr.dtype}"
                )
            offset = (total + 63) & ~63
            packed.append((name, arr, offset))
            total = offset + arr.nbytes
        seg_name = f"{prefix}-m-{group}"
        seg = ShmBlock.create(seg_name, total)
        segments.append(seg)
        for name, arr, offset in packed:
            if arr.nbytes:
                dst = np.ndarray(
                    (arr.nbytes,), dtype=np.uint8, buffer=seg.buf, offset=offset
                )
                dst[:] = arr.reshape(-1).view(np.uint8)
            specs.append(
                ArraySpec(
                    name=f"{group}/{name}",
                    segment=seg_name,
                    dtype=arr.dtype.name,
                    shape=tuple(int(d) for d in arr.shape),
                    offset=offset,
                )
            )
    return ShmManifest(prefix=prefix, arrays=tuple(specs)), segments


class ManifestReader:
    """Reads manifest arrays (as private copies) from the shared segments."""

    def __init__(self, manifest: ShmManifest) -> None:
        self._manifest = manifest
        self._segments: dict[str, ShmBlock] = {}

    def read(self, name: str) -> np.ndarray:
        spec = self._manifest.spec(name)
        shm = self._segments.get(spec.segment)
        if shm is None:
            shm = ShmBlock.attach(spec.segment)
            self._segments[spec.segment] = shm
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf,
            offset=spec.offset,
        )
        return view.copy()

    def close(self) -> None:
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views still alive
                pass
        self._segments.clear()


# ===================================================================== #
# The process-parallel bus
# ===================================================================== #


class _LocalExchangeResult:
    """Single-rank inbox; mirrors ``ExchangeResult.inbox(rank)``."""

    __slots__ = ("rank", "columns")

    def __init__(self, rank: int, columns: tuple[np.ndarray, ...]) -> None:
        self.rank = rank
        self.columns = columns

    def inbox(self, rank: int) -> tuple[np.ndarray, ...]:
        if rank != self.rank:
            raise ValueError(
                f"rank {self.rank} worker holds only its own inbox "
                f"(asked for rank {rank})"
            )
        return self.columns

    def __reduce__(self):
        raise TypeError("exchange inboxes are per-process and never pickled")


class SharedMemoryBus:
    """Alltoallv + collectives over shared memory with local-rank calls.

    The parent builds the bus **before forking** (:meth:`create`); every
    worker then calls :meth:`bind` with its rank, profiler and sanitizer.
    The call signatures intentionally mirror
    :class:`~repro.runtime.comm.MessageBus`, except that the per-rank lists
    carry exactly the *local* rank's entry -- the SPMD driver loops over its
    local rank states, which in process mode is a one-element list.

    Traffic accounting is mode-identical: each worker charges its own sends
    to its own profiler column (the parent sums columns across workers), the
    superstep/collective counters advance identically on every worker, and
    the tracing worker reconstructs the *global* per-rank superstep volumes
    from the shared counts header.
    """

    def __init__(
        self,
        num_ranks: int,
        prefix: str,
        barrier,
        *,
        slot_bytes: int,
        timeout: float,
    ) -> None:
        self.num_ranks = int(num_ranks)
        self.prefix = prefix
        self.rank = -1
        self.profiler: PhaseProfiler | None = None
        self.reorder_rng: np.random.Generator | None = None
        self.sanitizer: Sanitizer = NULL_SANITIZER
        #: Actual payload bytes written by this process (not modeled bytes).
        self.bytes_moved = 0
        self._barrier = barrier
        self._slot_bytes = int(slot_bytes)
        self._timeout = float(timeout)
        self._row_words = _W_COUNTS + self.num_ranks * (1 + _MAX_COLS)
        self._op = 0
        self._hdr: ShmBlock | None = None
        self._hv: np.ndarray | None = None
        #: (rank, slot) -> (generation, ShmBlock) attachment cache.
        self._cache: dict[tuple[int, int], tuple[int, ShmBlock]] = {}
        self._parent_segments: list[ShmBlock] = []

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #

    @staticmethod
    def create(
        num_ranks: int,
        prefix: str,
        mp_context,
        *,
        slot_bytes: int = 1 << 20,
        timeout: float | None = None,
    ) -> "SharedMemoryBus":
        """Parent-side construction: barrier, header, initial payload slots."""
        if timeout is None:
            timeout = float(os.environ.get("REPRO_PROCESS_TIMEOUT", "120"))
        bus = SharedMemoryBus(
            num_ranks, prefix, mp_context.Barrier(num_ranks),
            slot_bytes=slot_bytes, timeout=timeout,
        )
        hdr_bytes = num_ranks * 2 * bus._row_words * 8
        bus._hdr = ShmBlock.create(f"{prefix}-hdr", hdr_bytes)
        bus._parent_segments.append(bus._hdr)
        for rank in range(num_ranks):
            for slot in (0, 1):
                seg = ShmBlock.create(bus._seg_name(rank, slot, 0), slot_bytes)
                bus._parent_segments.append(seg)
                bus._cache[(rank, slot)] = (0, seg)
        return bus

    def bind(
        self,
        rank: int,
        *,
        profiler: PhaseProfiler | None = None,
        sanitizer: Sanitizer | None = None,
        reorder_seed: int | None = None,
    ) -> None:
        """Worker-side attachment (call once, after fork)."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")
        self.rank = int(rank)
        self.profiler = profiler
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        self.reorder_rng = (
            np.random.default_rng(reorder_seed)
            if reorder_seed is not None else None
        )
        assert self._hdr is not None
        self._hv = np.ndarray(
            (self.num_ranks * 2 * self._row_words,),
            dtype=np.int64, buffer=self._hdr.buf,
        )

    def abort(self) -> None:
        """Break the barrier so no peer can hang waiting for a dead rank."""
        self._barrier.abort()

    def cleanup(self) -> None:
        """Parent-side teardown: unlink every segment this run created.

        Covers grown generations too (they share the run prefix), so the
        failure path leaves ``/dev/shm`` clean even if workers died between
        generations.
        """
        self._hv = None
        for seg in self._parent_segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - stray view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._parent_segments.clear()
        for name in leaked_segments(self.prefix):
            _unlink_quiet(name)

    def __reduce__(self):
        raise TypeError(
            "SharedMemoryBus cannot be pickled: rank payloads cross process "
            "boundaries as raw shared-memory bytes, never as pickled objects"
        )

    # -------------------------------------------------------------- #
    # Internal plumbing
    # -------------------------------------------------------------- #

    def _seg_name(self, rank: int, slot: int, gen: int) -> str:
        return f"{self.prefix}-d{rank}s{slot}g{gen}"

    def _row(self, rank: int, slot: int) -> np.ndarray:
        assert self._hv is not None
        base = (rank * 2 + slot) * self._row_words
        return self._hv[base:base + self._row_words]

    def _sync(self) -> None:
        try:
            self._barrier.wait(timeout=self._timeout)
        except threading.BrokenBarrierError:
            raise BarrierBrokenError(
                f"rank {self.rank}: superstep barrier broken at bus op "
                f"{self._op} (a peer worker died or the run was aborted)"
            ) from None

    def _writer_segment(self, slot: int, nbytes: int) -> tuple[int, ShmBlock]:
        gen, shm = self._cache[(self.rank, slot)]
        if shm.size < nbytes:
            gen += 1
            cap = max(self._slot_bytes, 1 << max(1, int(nbytes - 1).bit_length()))
            new = ShmBlock.create(self._seg_name(self.rank, slot, gen), cap)
            self._cache[(self.rank, slot)] = (gen, new)
            shm.close()
            _unlink_quiet(self._seg_name(self.rank, slot, gen - 1))
            shm = new
        return gen, shm

    def _reader_segment(self, src: int, slot: int, gen: int) -> ShmBlock:
        cached = self._cache.get((src, slot))
        if cached is not None and cached[0] == gen:
            return cached[1]
        if cached is not None:
            cached[1].close()
        shm = ShmBlock.attach(self._seg_name(src, slot, gen))
        self._cache[(src, slot)] = (gen, shm)
        return shm

    def _check_lockstep(self, slot: int, kind: int) -> None:
        for r in range(self.num_ranks):
            row = self._row(r, slot)
            if int(row[_W_SEQ]) != self._op or int(row[_W_KIND]) != kind:
                raise ShmProtocolError(
                    f"rank {self.rank}: SPMD divergence at bus op {self._op} "
                    f"(kind {kind}): rank {r} is at op {int(row[_W_SEQ])} "
                    f"kind {int(row[_W_KIND])}"
                )

    def _single(self, values: list, what: str):
        if len(values) != 1:
            raise ValueError(
                f"process-mode bus takes exactly the local rank's {what} "
                f"(got {len(values)})"
            )
        return values[0]

    # -------------------------------------------------------------- #
    # alltoallv
    # -------------------------------------------------------------- #

    def exchange(self, outboxes: list) -> _LocalExchangeResult:
        """One alltoallv superstep from this rank's ungrouped outbox."""
        box = self._single(outboxes, "outbox")
        parts: list[tuple[np.ndarray, ...]] | None = None
        arity = -1
        if box is not None and len(box) >= 2:
            arity = len(box) - 1
            dest = np.asarray(box[0], dtype=np.int64)
            cols = [np.asarray(c) for c in box[1:]]
            for col in cols:
                if col.shape[0] != dest.shape[0]:
                    raise ValueError("columns must match dest length")
            if dest.size and (dest.min() < 0 or dest.max() >= self.num_ranks):
                raise ValueError("destination rank out of range")
            order = np.argsort(dest, kind="stable")
            sorted_dest = dest[order]
            boundaries = np.searchsorted(
                sorted_dest, np.arange(self.num_ranks + 1, dtype=np.int64)
            )
            parts = []
            for d in range(self.num_ranks):
                a, b = boundaries[d], boundaries[d + 1]
                parts.append(tuple(col[order[a:b]] for col in cols))
        return self._exchange_common(
            parts, arity, participating=box is not None, kind=_K_EXCHANGE
        )

    def exchange_grouped(self, outboxes: list) -> _LocalExchangeResult:
        """One alltoallv superstep from caller-pregrouped per-dest parts."""
        box = self._single(outboxes, "outbox")
        parts: list[tuple[np.ndarray, ...]] | None = None
        arity = -1
        if box is not None:
            if len(box) != self.num_ranks:
                raise ValueError("grouped outbox must list every destination")
            for part in box:
                if part:
                    arity = len(part)
                    break
            parts = [tuple(np.asarray(c) for c in part) for part in box]
            for part in parts:
                n = part[0].shape[0] if part else 0
                for col in part[1:]:
                    if col.shape[0] != n:
                        raise ValueError("columns must match part length")
        return self._exchange_common(
            parts, arity, participating=box is not None, kind=_K_GROUPED
        )

    def _exchange_common(
        self,
        parts: list[tuple[np.ndarray, ...]] | None,
        arity: int,
        *,
        participating: bool,
        kind: int,
    ) -> _LocalExchangeResult:
        P = self.num_ranks
        me = self.rank
        self._op += 1
        slot = self._op % 2
        row = self._row(me, slot)
        gen, _ = self._cache[(me, slot)]

        counts = np.zeros(P, dtype=np.int64)
        codes = np.zeros((P, _MAX_COLS), dtype=np.int64)
        total = 0
        if participating and parts is not None and arity >= 1:
            for d, part in enumerate(parts):
                if len(part) != arity:
                    raise ValueError("all outboxes must have the same arity")
                n = int(part[0].shape[0]) if part else 0
                counts[d] = n
                for j, col in enumerate(part):
                    code = _DTYPE_CODE.get(col.dtype)
                    if code is None:
                        raise TypeError(
                            f"unsupported exchange dtype {col.dtype}"
                        )
                    codes[d, j] = code
                    total += n * col.dtype.itemsize
            gen, seg = self._writer_segment(slot, total)
            off = 0
            for d, part in enumerate(parts):
                if counts[d] == 0:
                    continue
                for col in part:
                    a = np.ascontiguousarray(col)
                    nb = a.nbytes
                    dst = np.ndarray(
                        (nb,), dtype=np.uint8, buffer=seg.buf, offset=off
                    )
                    dst[:] = a.reshape(-1).view(np.uint8)
                    off += nb
            self.bytes_moved += total

        row[_W_SEQ] = self._op
        row[_W_KIND] = kind
        row[_W_PART] = 1 if participating else 0
        row[_W_ARITY] = arity
        row[_W_GEN] = gen
        row[_W_NBYTES] = total
        row[_W_COUNTS:_W_COUNTS + P] = counts
        row[_W_COUNTS + P:] = codes.reshape(-1)
        self._sync()

        rows = [self._row(r, slot) for r in range(P)]
        self._check_lockstep(slot, kind)
        flags = [bool(rows[r][_W_PART]) for r in range(P)]
        if self.sanitizer.enabled:
            phase = (
                self.profiler.current_phase if self.profiler is not None else None
            )
            pseudo = [(_MISSING if f else None) for f in flags]
            self.sanitizer.check_exchange_participation(pseudo, phase=phase)

        g_arity = None
        for r in range(P):
            if flags[r] and int(rows[r][_W_ARITY]) >= 1:
                g_arity = int(rows[r][_W_ARITY])
                break
        if g_arity is None:
            # No source determined an arity: mirror the simulated bus's
            # degenerate single-int64-column result, with no superstep
            # accounting (the barrier above still kept ranks in lockstep).
            empty = (np.empty(0, dtype=np.int64),)
            return _LocalExchangeResult(me, empty)
        for r in range(P):
            if flags[r] and int(rows[r][_W_ARITY]) not in (-1, g_arity):
                raise ValueError("all outboxes must have the same arity")

        cmat = np.zeros((P, P), dtype=np.int64)
        for r in range(P):
            if flags[r]:
                cmat[r] = rows[r][_W_COUNTS:_W_COUNTS + P]

        if self.profiler is not None:
            my_records = int(counts.sum()) if participating else 0
            if my_records:
                self.profiler.add_send(
                    me,
                    records=my_records,
                    nbytes=my_records * g_arity * _BYTES_PER_WORD,
                    messages=int(np.count_nonzero(counts)),
                )

        col_parts: list[list[np.ndarray]] = [[] for _ in range(g_arity)]
        for src in range(P):
            n = int(cmat[src, me])
            if not flags[src] or n == 0:
                continue
            src_codes = (
                rows[src][_W_COUNTS + P:].reshape(P, _MAX_COLS)[:, :g_arity]
            )
            per_record = _ITEMSIZE[src_codes].sum(axis=1)
            off = int((cmat[src, :me] * per_record[:me]).sum())
            shm = self._reader_segment(src, slot, int(rows[src][_W_GEN]))
            for j in range(g_arity):
                dt = _CODE_DTYPE[int(src_codes[me, j])]
                col_parts[j].append(
                    np.ndarray((n,), dtype=dt, buffer=shm.buf, offset=off)
                )
                off += n * dt.itemsize
        if col_parts[0]:
            cols = tuple(np.concatenate(col_parts[j]) for j in range(g_arity))
        else:
            cols = tuple(np.empty(0, dtype=np.int64) for _ in range(g_arity))

        if self.reorder_rng is not None:
            # Failure-injection parity: the simulated bus draws one
            # permutation per destination (in destination order); every
            # worker consumes the identical RNG stream and applies only its
            # own draw, so the delivered orders match bit-for-bit.
            sizes = cmat.sum(axis=0)
            for d in range(P):
                if sizes[d] > 1:
                    perm = self.reorder_rng.permutation(int(sizes[d]))
                    if d == me:
                        cols = tuple(c[perm] for c in cols)

        if self.profiler is not None:
            self.profiler.add_superstep()
            tracer = self.profiler.tracer
            if tracer is not None and tracer.enabled:
                per_rank = [int(cmat[r].sum()) for r in range(P)]
                tracer.superstep(
                    self.profiler.current_phase,
                    records=sum(per_rank),
                    nbytes=sum(per_rank) * g_arity * _BYTES_PER_WORD,
                    messages=int(np.count_nonzero(cmat)),
                    per_rank_records=per_rank,
                )
        return _LocalExchangeResult(me, cols)

    # -------------------------------------------------------------- #
    # Collectives (raw dtype/shape/bytes encoding; rank-order folds)
    # -------------------------------------------------------------- #

    def _collective(self, value, kind: int) -> list[np.ndarray]:
        arr = np.asarray(value)
        if not arr.flags.c_contiguous:
            # NB: np.ascontiguousarray promotes 0-d to 1-d (ndmin=1), which
            # would change the contribution's shape; 0-d is always
            # contiguous, so it never reaches this copy.
            arr = np.ascontiguousarray(arr)
        code = _DTYPE_CODE.get(arr.dtype)
        if code is None:
            raise TypeError(
                f"collective contributions must be numeric arrays "
                f"(got dtype {arr.dtype})"
            )
        if arr.ndim > 4:
            raise ValueError("collective contributions support ndim <= 4")
        P = self.num_ranks
        me = self.rank
        self._op += 1
        slot = self._op % 2
        gen, seg = self._writer_segment(slot, arr.nbytes)
        if arr.nbytes:
            dst = np.ndarray((arr.nbytes,), dtype=np.uint8, buffer=seg.buf)
            dst[:] = arr.reshape(-1).view(np.uint8)
        self.bytes_moved += arr.nbytes
        row = self._row(me, slot)
        row[_W_SEQ] = self._op
        row[_W_KIND] = kind
        row[_W_PART] = 1
        row[_W_ARITY] = -1
        row[_W_GEN] = gen
        row[_W_NBYTES] = arr.nbytes
        row[_W_CDTYPE] = code
        row[_W_CNDIM] = arr.ndim
        shape = list(arr.shape) + [0] * (4 - arr.ndim)
        row[_W_CSHAPE:_W_CSHAPE + 4] = shape
        self._sync()
        self._check_lockstep(slot, kind)
        out: list[np.ndarray] = []
        for r in range(P):
            if r == me:
                out.append(arr)
                continue
            rrow = self._row(r, slot)
            dt = _CODE_DTYPE[int(rrow[_W_CDTYPE])]
            ndim = int(rrow[_W_CNDIM])
            rshape = tuple(int(d) for d in rrow[_W_CSHAPE:_W_CSHAPE + ndim])
            shm = self._reader_segment(r, slot, int(rrow[_W_GEN]))
            view = np.ndarray(rshape, dtype=dt, buffer=shm.buf)
            out.append(view.copy())
        return out

    def allreduce_sum(self, values: list):
        """Global sum folded in ascending rank order (simulated-bus fold)."""
        contribs = self._collective(self._single(values, "contribution"), _K_SUM)
        total = contribs[0]
        for v in contribs[1:]:
            total = total + v
        if self.profiler is not None:
            self.profiler.add_collective()
        return total

    def allreduce_max(self, values: list):
        contribs = self._collective(self._single(values, "contribution"), _K_MAX)
        total = contribs[0]
        for v in contribs[1:]:
            total = np.maximum(total, v)
        if self.profiler is not None:
            self.profiler.add_collective()
        return total

    def allgather(self, values: list) -> list:
        out = self._collective(self._single(values, "contribution"), _K_GATHER)
        if self.profiler is not None:
            self.profiler.add_collective()
        return out

    def side_sum(self, values: list):
        """Unprofiled sum for driver bookkeeping (not algorithm traffic)."""
        contribs = self._collective(
            self._single(values, "contribution"), _K_SIDE_SUM
        )
        total = contribs[0]
        for v in contribs[1:]:
            total = total + v
        return total

    def side_gather(self, values: list) -> list:
        """Unprofiled allgather for driver bookkeeping."""
        return self._collective(
            self._single(values, "contribution"), _K_SIDE_GATHER
        )

    def barrier(self) -> None:
        P = self.num_ranks
        self._op += 1
        slot = self._op % 2
        row = self._row(self.rank, slot)
        gen, _ = self._cache[(self.rank, slot)]
        row[_W_SEQ] = self._op
        row[_W_KIND] = _K_BARRIER
        row[_W_PART] = 1
        row[_W_ARITY] = -1
        row[_W_GEN] = gen
        row[_W_NBYTES] = 0
        self._sync()
        self._check_lockstep(slot, _K_BARRIER)
        if self.profiler is not None:
            self.profiler.add_collective()
