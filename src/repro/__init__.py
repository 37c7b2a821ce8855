"""repro -- reproduction of "Scalable Community Detection with the Louvain
Algorithm" (Que, Checconi, Petrini, Gunnels; IEEE IPDPS 2015).

Public API highlights
---------------------

* :func:`repro.detect_communities` -- one-call community detection
  (parallel / sequential / naive), optional machine-model timing.
* :mod:`repro.graph` -- CSR weighted graph container and I/O.
* :mod:`repro.generators` -- LFR, R-MAT, BTER and Table-I proxy graphs.
* :mod:`repro.parallel` -- the paper's algorithm: hash-table-backed
  distributed Louvain with the Eq.-7 convergence heuristic.
* :mod:`repro.sequential` -- the Algorithm-1 baseline.
* :mod:`repro.metrics` -- modularity and all Table II/III quality metrics.
* :mod:`repro.runtime` -- the simulated SPMD runtime and machine models.
* :mod:`repro.harness` -- one experiment runner per paper table/figure
  (imported on first use).
* :mod:`repro.analysis` -- SPMD superstep-safety linter (``repro check``)
  and the opt-in runtime invariant sanitizer.
* :mod:`repro.service` -- long-lived detection service (job queue, worker
  pool, versioned snapshot store, ``repro serve`` HTTP API; imported on
  first use).

``import repro`` loads what detection needs and nothing more: ``harness``,
``service`` and ``DetectionService`` resolve on first attribute access
(PEP 562), and scipy loads only when a partition-similarity metric runs.
"""

import importlib

from . import (
    analysis,
    generators,
    graph,
    hashing,
    metrics,
    observability,
    parallel,
    runtime,
    sequential,
)
from .analysis import InvariantViolation, Sanitizer
from .graph import Graph
from .metrics import modularity
from .observability import TraceEvent, Tracer
from .parallel import (
    DetectionSummary,
    ExponentialSchedule,
    ParallelLouvainConfig,
    detect_communities,
    naive_parallel_louvain,
    parallel_louvain,
)
from .runtime import BGQ, P7IH, MachineModel
from .sequential import louvain as sequential_louvain

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "modularity",
    "detect_communities",
    "DetectionSummary",
    "parallel_louvain",
    "naive_parallel_louvain",
    "sequential_louvain",
    "ParallelLouvainConfig",
    "ExponentialSchedule",
    "MachineModel",
    "P7IH",
    "BGQ",
    "Tracer",
    "TraceEvent",
    "InvariantViolation",
    "Sanitizer",
    "DetectionService",
    "analysis",
    "graph",
    "hashing",
    "generators",
    "metrics",
    "observability",
    "sequential",
    "runtime",
    "parallel",
    "harness",
    "service",
    "__version__",
]


def __getattr__(name: str):
    # Detection never uses these, so they load on first access.
    if name in ("harness", "service"):
        return importlib.import_module(f".{name}", __name__)
    if name == "DetectionService":
        return importlib.import_module(".service", __name__).DetectionService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
