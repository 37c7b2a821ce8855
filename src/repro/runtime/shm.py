"""Shared-memory SPMD transport: byte-level alltoallv between processes.

This module is the data-plane of ``execution="process"``: ``P`` worker
processes (one per rank) exchange record batches through
:mod:`multiprocessing.shared_memory` segments instead of the simulated
in-process bus.  Three pieces:

* :func:`publish_arrays` / :class:`ManifestReader` -- a small typed manifest
  (:class:`ShmManifest`) describing numpy arrays packed into named shared
  segments.  The parent publishes each rank's CSR edge shard (and the
  warm-start membership) once; workers read their shard by name.
* :class:`SharedMemoryBus` -- the process-mode transport under the bus
  front end (:class:`~repro.runtime.comm.Bus`): every worker passes exactly
  its own outbox / contribution, and the bus resolves the op against all
  ``P`` peers.  The alltoallv is pure byte movement: per-destination
  contiguous array slices are written into a preallocated shared send
  region next to a counts/dtypes header; receivers assemble inboxes
  straight from the peers' regions.  **No per-message Python objects are
  pickled** -- only raw bytes plus a fixed int64 header row cross process
  boundaries (and the bus itself refuses pickling).
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

Determinism: this module only moves bytes.  The front end it shares with
the in-process :class:`~repro.runtime.comm.MessageBus` concatenates inbox
parts in ascending source-rank order, folds collective contributions in
ascending rank order and draws the failure-injection permutations, so every
float and every branch input is bit-identical to ``execution="simulated"``.
"""

from __future__ import annotations

import mmap
import os
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from .comm import Bus

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

_DTYPE_NAMES = (
    "int64", "float64", "int32", "uint16", "bool", "int8", "uint8",
    "int16", "uint32", "uint64", "float32",
)
_DTYPE_CODE = {np.dtype(name): code for code, name in enumerate(_DTYPE_NAMES)}
_CODE_DTYPE = tuple(np.dtype(name) for name in _DTYPE_NAMES)
_ITEMSIZE = np.array([dt.itemsize for dt in _CODE_DTYPE], dtype=np.int64)

#: Operation kind codes (header word W_KIND; divergence guard).
_KINDS = {
    "exchange": 1, "allreduce_sum": 3, "allreduce_max": 4, "allgather": 5,
    "barrier": 6, "side_sum": 7, "side_gather": 8,
}

# Header row layout (int64 words per (rank, slot)).
_W_SEQ = 0       # bus operation sequence number
_W_KIND = 1      # kind code above
_W_ARITY = 2     # exchange column count (-1 = the rank passed no outbox)
_W_GEN = 3       # generation of this rank+slot's payload segment
_W_NBYTES = 4    # payload bytes written this operation
_W_CDTYPE = 5    # collective: dtype code
_W_CNDIM = 6     # collective: ndim (<= 4)
_W_CSHAPE = 7    # collective: shape[0..3] (4 words)
_W_COUNTS = 11   # exchange: per-destination record counts (P words)
# then per-(destination, column) dtype codes: P * _MAX_COLS words
_MAX_COLS = 6


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
# The process-parallel transport
# ===================================================================== #


def _copy_in(seg: ShmBlock, arrays: list[np.ndarray]) -> None:
    """Write contiguous ``arrays`` back to back from the segment's start."""
    off = 0
    for arr in arrays:
        dst = np.ndarray((arr.nbytes,), dtype=np.uint8, buffer=seg.buf, offset=off)
        dst[:] = arr.reshape(-1).view(np.uint8)
        off += arr.nbytes


class SharedMemoryBus(Bus):
    """The :class:`~repro.runtime.comm.Bus` transport between processes.

    The parent builds the bus **before forking** (:meth:`create`); every
    worker then calls :meth:`bind` with its rank, and
    :meth:`~repro.runtime.engine.Simulation.create` wires in the worker's
    profiler, sanitizer and reorder RNG.  The front end's per-rank lists
    carry exactly the worker's own entry: its one local rank.

    This class only moves bytes: the header rows, the double-buffered
    payload slots and their generations, the barrier with its lockstep
    check, and the segment lifecycle.  Each worker charges its own sends to
    its own profiler column (the parent sums columns across workers); the
    superstep and collective counters advance identically on every worker,
    and the shared counts header gives the tracing worker the *global*
    per-rank superstep volumes.
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
        super().__init__(num_ranks)
        self.local_ranks = ()
        self.prefix = prefix
        self.rank = -1
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

    def bind(self, rank: int) -> None:
        """Worker-side attachment (call once, after fork)."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")
        self.rank = int(rank)
        self.local_ranks = (self.rank,)
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
    # Slots, header rows and the barrier
    # -------------------------------------------------------------- #

    def _seg_name(self, rank: int, slot: int, gen: int) -> str:
        return f"{self.prefix}-d{rank}s{slot}g{gen}"

    def _row(self, rank: int, slot: int) -> np.ndarray:
        assert self._hv is not None
        base = (rank * 2 + slot) * self._row_words
        return self._hv[base:base + self._row_words]

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

    def _begin(self, kind: int, nbytes: int) -> tuple[int, np.ndarray, ShmBlock]:
        """Open the next bus op: its slot, header row and payload segment."""
        self._op += 1
        slot = self._op % 2
        gen, seg = self._writer_segment(slot, nbytes)
        row = self._row(self.rank, slot)
        row[_W_SEQ] = self._op
        row[_W_KIND] = kind
        row[_W_GEN] = gen
        row[_W_NBYTES] = nbytes
        self.bytes_moved += nbytes
        return slot, row, seg

    def _finish(self, slot: int, kind: int) -> list[np.ndarray]:
        """Wait for every rank, then return all header rows of this op."""
        try:
            self._barrier.wait(timeout=self._timeout)
        except threading.BrokenBarrierError:
            raise BarrierBrokenError(
                f"rank {self.rank}: superstep barrier broken at bus op "
                f"{self._op} (a peer worker died or the run was aborted)"
            ) from None
        rows = [self._row(r, slot) for r in range(self.num_ranks)]
        for r, row in enumerate(rows):
            if int(row[_W_SEQ]) != self._op or int(row[_W_KIND]) != kind:
                raise ShmProtocolError(
                    f"rank {self.rank}: SPMD divergence at bus op {self._op} "
                    f"(kind {kind}): rank {r} is at op {int(row[_W_SEQ])} "
                    f"kind {int(row[_W_KIND])}"
                )
        return rows

    # -------------------------------------------------------------- #
    # Transport hooks
    # -------------------------------------------------------------- #

    def _deliver(self, boxes, shapes):
        """Byte-level alltoallv: write this rank's parts, read its inbox."""
        (box,), (shape,) = boxes, shapes
        P = self.num_ranks
        arity, counts = (-1, np.zeros(P, dtype=np.int64)) if box is None else shape
        if arity > _MAX_COLS:
            raise ValueError(
                f"the shared-memory bus carries at most {_MAX_COLS} columns "
                f"(got {arity})"
            )
        codes = np.zeros((P, _MAX_COLS), dtype=np.int64)
        payload: list[np.ndarray] = []
        for d in range(P if arity > 0 else 0):
            for j, col in enumerate(box[d]):
                col = np.ascontiguousarray(col)
                code = _DTYPE_CODE.get(col.dtype)
                if code is None:
                    raise TypeError(f"unsupported exchange dtype {col.dtype}")
                codes[d, j] = code
                if counts[d]:
                    payload.append(col)
        slot, row, seg = self._begin(
            _KINDS["exchange"], sum(col.nbytes for col in payload)
        )
        _copy_in(seg, payload)
        row[_W_ARITY] = arity
        row[_W_COUNTS:_W_COUNTS + P] = counts
        row[_W_COUNTS + P:] = codes.reshape(-1)
        rows = self._finish(slot, _KINDS["exchange"])

        arities = [int(r[_W_ARITY]) for r in rows]
        cmat = np.array([r[_W_COUNTS:_W_COUNTS + P] for r in rows])
        me = self.rank
        received = []
        for src, r in enumerate(rows):
            n = int(cmat[src, me])
            if n == 0:
                continue
            src_codes = r[_W_COUNTS + P:].reshape(P, _MAX_COLS)[:, :arities[src]]
            per_record = _ITEMSIZE[src_codes].sum(axis=1)
            off = int((cmat[src, :me] * per_record[:me]).sum())
            shm = self._reader_segment(src, slot, int(r[_W_GEN]))
            cols = []
            for code in src_codes[me].tolist():
                dt = _CODE_DTYPE[code]
                cols.append(np.ndarray((n,), dtype=dt, buffer=shm.buf, offset=off))
                off += n * dt.itemsize
            received.append(tuple(cols))
        return arities, cmat, [received]

    def _gather(self, values, op):
        """Every rank's contribution as raw dtype/shape/bytes."""
        (value,) = values
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
        kind = _KINDS[op]
        slot, row, seg = self._begin(kind, arr.nbytes)
        _copy_in(seg, [arr])
        row[_W_CDTYPE] = code
        row[_W_CNDIM] = arr.ndim
        row[_W_CSHAPE:_W_CSHAPE + 4] = list(arr.shape) + [0] * (4 - arr.ndim)
        rows = self._finish(slot, kind)
        out: list[np.ndarray] = []
        for r, rrow in enumerate(rows):
            if r == self.rank:
                out.append(arr)
                continue
            dt = _CODE_DTYPE[int(rrow[_W_CDTYPE])]
            ndim = int(rrow[_W_CNDIM])
            rshape = tuple(int(d) for d in rrow[_W_CSHAPE:_W_CSHAPE + ndim])
            shm = self._reader_segment(r, slot, int(rrow[_W_GEN]))
            out.append(np.ndarray(rshape, dtype=dt, buffer=shm.buf).copy())
        return out

    def _sync(self, op):
        slot, _, _ = self._begin(_KINDS[op], 0)
        self._finish(slot, _KINDS[op])
