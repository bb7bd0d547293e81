"""Declarative experiment orchestration with a persistent, resumable store.

The layer the paper's evaluation grids run through (see
``docs/EXPERIMENTS.md`` for the spec schema and artifact layout)::

    spec.py    declarative grid (engines × frontiers × instances × types
               × repeats), validated against the live registries, with
               content-addressed spec hashes and per-cell fingerprints
    runner.py  expands the grid, skips fingerprint-matched completed
               cells, fans the rest over a process pool
    store.py   per-run artifacts (manifest.json / results.jsonl /
               report.md) plus the cross-run SQLite index
    report.py  the paper's tables and figures as sections over stored
               cells; asserts stored charge streams bit-identical to live
               engine runs
    presets.py ``repro table1 … ablation``: one spec each, run through
               the runner, one section printed

CLI: ``repro experiment run|resume|report|index|list`` and the presets.
"""

from .report import (
    RunDiff,
    VerificationError,
    diff_runs,
    render_diff,
    render_report,
    run_cells,
    verify_run_against_live,
    write_report,
)
from .runner import RunOutcome, plan_run, run_experiment
from .spec import (
    EXPERIMENT_ENGINES,
    WALL_CLOCK_ENGINES,
    CellSpec,
    ExperimentSpec,
    InstanceRef,
    cell_fingerprint,
    graph_fingerprint,
    load_spec,
    spec_hash,
)
from .store import Run, RunStore, validate_cell_record, validate_manifest

__all__ = [
    "EXPERIMENT_ENGINES",
    "WALL_CLOCK_ENGINES",
    "CellSpec",
    "ExperimentSpec",
    "InstanceRef",
    "Run",
    "RunDiff",
    "RunOutcome",
    "RunStore",
    "VerificationError",
    "diff_runs",
    "render_diff",
    "cell_fingerprint",
    "graph_fingerprint",
    "load_spec",
    "plan_run",
    "render_report",
    "run_experiment",
    "spec_hash",
    "run_cells",
    "validate_cell_record",
    "validate_manifest",
    "verify_run_against_live",
    "write_report",
]
