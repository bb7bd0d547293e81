"""Evaluation harness: regenerates every table and figure of the paper."""

from .experiments import (
    INSTANCE_TYPES,
    CellResult,
    ExperimentConfig,
    Table1Result,
    run_ablation,
    run_fig5,
    run_fig6,
    run_sweeps,
    run_table1,
    run_table2,
    run_table3,
)
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
    "ExperimentConfig",
    "Table1Result",
    "run_ablation",
    "run_fig5",
    "run_fig6",
    "run_sweeps",
    "run_table1",
    "run_table2",
    "run_table3",
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
