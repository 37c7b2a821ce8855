"""Declarative benchmark matrix: factors x repetitions -> BENCH trajectory.

The performance counterpart of the golden-trace gate.  A TOML/JSON matrix
file (:mod:`repro.bench.config`) declares factors, a cell template and graph
specs; the runner (:mod:`repro.bench.runner`) executes the cross product with
warmup and repetitions, projecting metrics off the same tracer events the
correctness gate fingerprints; the statistics layer
(:mod:`repro.bench.stats`) reduces repetitions to robust medians with MAD
outlier flags; and the artifacts -- a repetition-level ``run_table.csv`` plus
a compact ``BENCH_<label>.json`` -- feed ``repro bench report`` (markdown)
and ``repro bench compare`` (:mod:`repro.bench.compare`, the CI perf gate).

See ``benchmarks/matrices/`` for the checked-in matrices reproducing the
paper's Figs. 4, 7, 8, 9 and Table III (:mod:`repro.harness.experiments`
turns their results into the paper's rows and curves).
"""

from .compare import (
    DEFAULT_TOLERANCES,
    CellDelta,
    CompareResult,
    Tolerance,
    compare_summaries,
    format_compare_table,
)
from .config import (
    BenchConfig,
    BenchConfigError,
    Cell,
    expand_cells,
    interpolate,
    load_config,
    parse_config,
)
from .report import format_bench_report
from .runner import (
    RUN_TABLE_COLUMNS,
    CellResult,
    MatrixResult,
    RepMetrics,
    build_summary,
    environment_stamp,
    run_matrix,
    write_run_table,
    write_summary,
)
from .stats import MAD_THRESHOLD, SampleStats, mad, mad_outliers, summarize

__all__ = [
    "BenchConfig",
    "BenchConfigError",
    "Cell",
    "load_config",
    "parse_config",
    "expand_cells",
    "interpolate",
    "RepMetrics",
    "CellResult",
    "MatrixResult",
    "run_matrix",
    "write_run_table",
    "build_summary",
    "write_summary",
    "environment_stamp",
    "RUN_TABLE_COLUMNS",
    "SampleStats",
    "summarize",
    "mad",
    "mad_outliers",
    "MAD_THRESHOLD",
    "Tolerance",
    "DEFAULT_TOLERANCES",
    "CellDelta",
    "CompareResult",
    "compare_summaries",
    "format_compare_table",
    "format_bench_report",
]
