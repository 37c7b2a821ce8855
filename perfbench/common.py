"""Helpers shared by the benchmark's scripts: paths, inputs, statistics, RSS.

The benchmark runs from the root of a checkout of the repository and uses
the program from ``src/`` of that checkout.  Everything it writes lives
under ``perfbench/_work/`` of the same checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"
#: The benchmark's declaration: workloads, metrics and their units.
DECLARATION = BENCH_DIR.parent / "BENCHMARK.json"

#: Pinned detect inputs: the ``benchmarks/matrices/backend.toml`` graph
#: family at the generator seeds that matrix uses.  Their Louvain trajectory
#: is chaotic in the generator seed (METRICS.md, "Why the detect inputs are
#: pinned"), so they do not follow ``--seed``.
DETECT_INPUTS = {
    "detect-lfr": ("lfr", {"num_vertices": 60000, "avg_degree": 32.0}, 1),
    "detect-rmat-proc": ("rmat", {"scale": 16, "edge_factor": 16}, 3),
}

#: Allowed |reported Q - recomputed Q|: the two sum the same terms in a
#: different order.
Q_TOLERANCE = 1e-12

#: Base graph of ``serve-mixed``, pinned like the detect inputs; ``--seed``
#: drives its request plan.
SERVE_GRAPH = ("lfr", {"num_vertices": 5000, "avg_degree": 16.0}, 1)


class Run:
    """Outcome of one workload run: metrics, sample counts and failures."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def put(self, name: str, value: float, samples: int = 1, note: str = "") -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples
        if note:
            self.notes[name] = note

    def fail(self, why: str) -> None:
        self.failures.append(why)

    @property
    def correct(self) -> bool:
        return not self.failures


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for a child process that imports the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(BENCH_DIR)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def metric_units(trace: bool) -> dict[str, str]:
    """Name and unit of every metric a run reports, as ``BENCHMARK.json``
    declares them: the end-to-end metrics, or with ``trace`` the per-layer
    ones."""
    declared = json.loads(DECLARATION.read_text())
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(labels) -> str:
    """Content hash of a membership vector (int64 little-endian bytes)."""
    arr = np.ascontiguousarray(np.asarray(labels, dtype="<i8"))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _generate(kind: str, params: dict, seed: int):
    use_program()
    from repro.generators import generate_lfr, generate_rmat

    if kind == "lfr":
        return generate_lfr(seed=seed, **params).graph
    return generate_rmat(seed=seed, **params)


def _source_digest() -> str:
    """Hash of the program code that produces an input file."""
    h = hashlib.sha256()
    for package in ("generators", "graph"):
        for path in sorted((SRC / "repro" / package).glob("*.py")):
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_input(name: str, kind: str, params: dict, seed: int) -> tuple[Path, str]:
    """Edge-list file for one input, generated once per seed and program.

    Written with ``write_edge_list(..., write_weights=False)``, the format
    ``repro generate`` writes.  The cache key includes a hash of the
    generator and graph code, so editing either regenerates the input.
    Returns the path and its content hash.
    """
    use_program()
    from repro.graph import write_edge_list

    path = WORK / "inputs" / f"{name}-{_source_digest()}.txt"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        write_edge_list(_generate(kind, params, seed), tmp, write_weights=False)
        os.replace(tmp, path)
    return path, sha256_file(path)


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def tail_quantile(values, q: float) -> tuple[float, float]:
    """The ``q`` quantile if at least ten samples lie beyond it.

    Otherwise the highest quantile that has ten samples beyond it (never
    below the median).  Returns ``(value, quantile used)``.
    """
    n = len(values)
    if n == 0:
        return math.nan, q
    used = max(0.5, min(q, 1.0 - 10.0 / n))
    return float(np.quantile(values, used)), used


# --------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------- #


def vm_hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


class ChildPeakRss:
    """Polls the children of one process and keeps each child's last VmHWM.

    A forked rank worker's peak is read while it lives (every ``interval``
    seconds), so the figure misses growth in the last interval before it
    exits.  ``total_kib`` sums the per-child peaks.
    """

    def __init__(self, pid: int, interval: float = 0.02) -> None:
        self.pid = pid
        self.interval = interval
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            for child in _children(self.pid):
                kib = vm_hwm_kib(child)
                if kib:
                    self.peaks[child] = max(self.peaks.get(child, 0), kib)

    @property
    def total_kib(self) -> int:
        return sum(self.peaks.values())
