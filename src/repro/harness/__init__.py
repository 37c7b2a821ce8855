"""Experiment harness: every paper table/figure, TEPS, tables.

Figs. 4, 5, 7, 8, 9 and Tables III and IV run their checked-in benchmark
matrix; their projections and formatters are in
:mod:`repro.harness.experiments`.
"""

from .experiments import (
    UK2007_LITERATURE,
    fig8_iteration_breakdown,
    fig8_level_breakdown,
    paper_work_scale,
    run_fig2,
    run_fig6,
    run_table1,
    sequential_reference_seconds,
)
from .tables import banner, format_series, format_table
from .teps import first_level_seconds, gteps, teps

__all__ = [
    "run_table1",
    "run_fig2",
    "run_fig6",
    "fig8_level_breakdown",
    "fig8_iteration_breakdown",
    "UK2007_LITERATURE",
    "format_table",
    "format_series",
    "banner",
    "teps",
    "gteps",
    "first_level_seconds",
    "paper_work_scale",
    "sequential_reference_seconds",
]
