"""Evaluation harness: experiment cells, the paper's statistics and tables.

The tables and figures themselves are report sections over stored cells
(:mod:`repro.experiment.report`), run by the ``repro table1 … ablation``
presets (:mod:`repro.experiment.presets`).
"""

from .experiments import INSTANCE_TYPES, CellResult, run_cell, run_sweeps
from .load_balance import LoadSummary, load_summary_from_metrics, summarize_load
from .memory import MemoryReport, memory_report, render_memory_table
from .tree_shape import TreeShape, measure_tree_shape, render_tree_shape
from .sequential_sim import (
    SequentialSimResult,
    solve_mvc_sequential_sim,
    solve_pvc_sequential_sim,
)
from .speedup import aggregate_speedups, geometric_mean, speedup
from .tables import format_seconds, format_speedup, render_table

__all__ = [
    "INSTANCE_TYPES",
    "CellResult",
    "run_cell",
    "run_sweeps",
    "LoadSummary",
    "load_summary_from_metrics",
    "summarize_load",
    "MemoryReport",
    "memory_report",
    "render_memory_table",
    "TreeShape",
    "measure_tree_shape",
    "render_tree_shape",
    "SequentialSimResult",
    "solve_mvc_sequential_sim",
    "solve_pvc_sequential_sim",
    "aggregate_speedups",
    "geometric_mean",
    "speedup",
    "format_seconds",
    "format_speedup",
    "render_table",
]
