"""Edge-list I/O for :class:`repro.graph.Graph`.

Supports the two formats used by the experiment harness:

* plain whitespace-separated edge lists (``u v [w]`` per line, ``#`` comments),
  the format used by SNAP datasets the paper evaluates on;
* a compact ``.npz`` binary format for regenerating benchmark inputs quickly.

An edge list is read in one of two ways.  After the leading blank and
comment lines, numpy's C text parser reads the rest of the handle in one
pass when every row looks like the first (all ``src dst`` or all ``src dst
weight``, plain decimal literals, no later comment).  Any input it rejects
-- a comment line mid-file, mixed 2/3-column rows, ``1_000``-style literals,
a malformed row, a NaN, infinite or negative weight -- is re-read from the
first data line by the Python line loop (:func:`_parse_lines`), which the
tests also use as the reference.  So both paths accept the same inputs and
build the identical graph, or raise the identical ``ValueError``.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from .adjacency import Graph

__all__ = ["read_edge_list", "write_edge_list", "save_npz", "load_npz"]

#: numpy 1.23 deprecated parsing ``"3.0"`` into an integer column through
#: float, which ``int()`` rejects.  The C path needs a parser that refuses
#: it; 2.4 is the oldest release checked to, so older ones use the loop.
_C_PARSER = np.lib.NumpyVersion(np.__version__) >= "2.4.0"

#: Characters numpy's integer parser accepts first.  A comment prefix that
#: starts with one of them could parse as data, so only the loop honours it.
_NUMERIC_START = "+-0123456789"

#: One ``src dst weight`` row of a 3-column edge list.
_WEIGHTED_ROW = np.dtype(
    [("src", np.int64), ("dst", np.int64), ("weight", np.float64)]
)


def read_edge_list(
    path_or_buffer,
    *,
    comments: str = "#",
    num_vertices: int | None = None,
) -> Graph:
    """Read a whitespace-separated edge list into a :class:`Graph`.

    Lines have 2 or 3 columns (``src dst [weight]``); blank lines and lines
    starting with ``comments`` are ignored.  Vertex ids must be non-negative
    integers, below ``num_vertices`` when it is given, and weights finite
    and non-negative.  A malformed line raises ``ValueError`` naming its
    1-based line number and the cause.
    """
    if isinstance(path_or_buffer, (str, Path)):
        with open(path_or_buffer, "r", encoding="utf-8") as fh:
            return read_edge_list(fh, comments=comments, num_vertices=num_vertices)
    src, dst, wt = _read_edges(path_or_buffer, comments, num_vertices)
    return Graph.from_edges(src, dst, wt, num_vertices=num_vertices)


def _read_edges(
    fh, comments: str, num_vertices: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` of an open edge list, by the C parser if it can."""
    start = 1
    if _C_PARSER and comments[:1] not in _NUMERIC_START and _can_rewind(fh):
        # Skip the leading comment block, remembering where the data begins,
        # so the C parser streams straight from the handle.
        while True:
            pos = fh.tell()
            raw = fh.readline()
            line = raw.strip()
            if not raw or (line and not line.startswith(comments)):
                break
            start += 1
        fh.seek(pos)
        ncols = len(line.split())
        if raw and ncols in (2, 3):
            edges = _parse_c(fh, ncols, num_vertices)
            if edges is not None:
                return edges
            fh.seek(pos)
    return _parse_lines(fh, comments, start, num_vertices)


def _can_rewind(fh) -> bool:
    seekable = getattr(fh, "seekable", None)
    if seekable is None or not seekable():
        return False
    try:
        fh.tell()
    except OSError:  # a text file advanced by next() refuses tell()
        return False
    return True


def _parse_c(
    fh, ncols: int, num_vertices: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Parse the rest of ``fh`` with ``np.loadtxt``.

    Returns ``None`` where the result could differ from the line loop's: a
    row numpy rejects, or an id the loop rejects (it then names the line).
    """
    try:
        if ncols == 2:
            rows = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
            src, dst = rows[:, 0], rows[:, 1]
            wt = np.ones(src.size, dtype=np.float64)
        else:
            rows = np.loadtxt(fh, dtype=_WEIGHTED_ROW, comments=None, ndmin=1)
            src, dst, wt = rows["src"], rows["dst"], rows["weight"]
    except ValueError:
        return None
    if not ((wt >= 0.0) & (wt < np.inf)).all():  # NaN fails both tests
        return None
    low = min(src.min(), dst.min())
    high = max(src.max(), dst.max())
    if low < 0 or (num_vertices is not None and high >= num_vertices):
        return None
    return src, dst, wt


def _parse_lines(
    lines, comments: str, start: int, num_vertices: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line loop: one Python pass, numbering lines from ``start``."""
    limit = (1 << 63) if num_vertices is None else num_vertices
    src, dst, wt = [], [], []
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith(comments):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 2 or 3 columns, got {len(parts)}")
        try:
            u = int(parts[0])
            v = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: {_bad_field(parts)}") from None
        if not (0 <= u < limit and 0 <= v < limit):
            bad = v if 0 <= u < limit else u
            raise ValueError(f"line {lineno}: {_bad_id(bad, num_vertices)}")
        if not 0.0 <= w < math.inf:  # NaN fails both tests
            raise ValueError(
                f"line {lineno}: weight {parts[2]!r} is not a finite "
                "non-negative number"
            )
        src.append(u)
        dst.append(v)
        wt.append(w)
    return (
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(wt, dtype=np.float64),
    )


def _bad_field(parts: list[str]) -> str:
    """Which field of a row ``int``/``float`` rejected."""
    for text in parts[:2]:
        try:
            int(text)
        except ValueError:
            return f"vertex id {text!r} is not an integer"
    return f"weight {parts[2]!r} is not a number"


def _bad_id(vertex: int, num_vertices: int | None) -> str:
    if vertex < 0:
        return f"vertex id {vertex} is negative"
    if num_vertices is None:
        return f"vertex id {vertex} does not fit in int64"
    return f"vertex id {vertex} is not below num_vertices={num_vertices}"


def write_edge_list(graph: Graph, path_or_buffer, *, write_weights: bool = True) -> None:
    """Write each undirected edge once as ``src dst [weight]`` lines."""
    if isinstance(path_or_buffer, (str, Path)):
        with open(path_or_buffer, "w", encoding="utf-8") as fh:
            write_edge_list(graph, fh, write_weights=write_weights)
            return
    fh: io.TextIOBase = path_or_buffer
    src, dst, wt = graph.edge_arrays()
    fh.write(f"# vertices {graph.num_vertices} edges {src.size}\n")
    if write_weights:
        for u, v, w in zip(src.tolist(), dst.tolist(), wt.tolist()):
            fh.write(f"{u} {v} {w:.10g}\n")
    else:
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"{u} {v}\n")


def save_npz(graph: Graph, path) -> None:
    """Persist a graph as a compressed ``.npz`` archive."""
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
    )


def load_npz(path) -> Graph:
    """Load a graph previously written by :func:`save_npz`."""
    with np.load(path) as data:
        indptr = data["indptr"].astype(np.int64)
        indices = data["indices"].astype(np.int64)
        weights = data["weights"].astype(np.float64)
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return Graph.from_adjacency_entries(
        rows, indices, weights, num_vertices=indptr.size - 1
    )
