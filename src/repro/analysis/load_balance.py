"""Per-SM load-distribution statistics for Fig. 5.

The paper's metric: tree nodes visited by an SM, normalised to the mean
across SMs.  Fig. 5 plots the distribution per (engine, instance) pair; we
summarise each distribution with its extremes and quartiles plus two
imbalance scalars commonly used in the load-balancing literature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.metrics import LaunchMetrics

__all__ = ["LoadSummary", "summarize_load", "load_summary_from_metrics"]


@dataclass
class LoadSummary:
    """Summary of one normalised per-SM load distribution."""

    min: float
    p25: float
    median: float
    p75: float
    max: float
    cv: float                 # coefficient of variation
    imbalance: float          # max / mean  (1.0 = perfectly balanced)
    num_sms: int
    total_nodes: int


def summarize_load(normalized: np.ndarray, total_nodes: int = 0) -> LoadSummary:
    """Summarise a normalised (mean == 1) load vector."""
    arr = np.asarray(normalized, dtype=np.float64)
    if arr.size == 0:
        return LoadSummary(0, 0, 0, 0, 0, 0, 0, 0, total_nodes)
    mean = arr.mean()
    cv = float(arr.std() / mean) if mean > 0 else 0.0
    imbalance = float(arr.max() / mean) if mean > 0 else 0.0
    return LoadSummary(
        min=float(arr.min()),
        p25=float(np.percentile(arr, 25)),
        median=float(np.percentile(arr, 50)),
        p75=float(np.percentile(arr, 75)),
        max=float(arr.max()),
        cv=cv,
        imbalance=imbalance,
        num_sms=int(arr.size),
        total_nodes=total_nodes,
    )


def load_summary_from_metrics(metrics: LaunchMetrics) -> LoadSummary:
    """Fig. 5's statistic straight from a launch's metrics."""
    return summarize_load(metrics.normalized_load(), metrics.total_nodes())
