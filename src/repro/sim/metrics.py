"""Per-block and per-SM accounting for the Fig. 5 / Fig. 6 analyses.

The paper instruments its kernels with SM clocks to attribute cycles to
eleven activities and counts tree nodes visited per SM.  The simulator
gets the same numbers for free: every charge lands in a
:class:`BlockMetrics`, and :class:`LaunchMetrics` folds blocks onto their
SMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .costmodel import KINDS

__all__ = ["BlockMetrics", "LaunchMetrics"]


@dataclass
class BlockMetrics:
    """Everything one simulated thread block did."""

    block_id: int
    sm_id: int
    cycles_by_kind: Dict[str, float] = field(default_factory=dict)
    counts_by_kind: Dict[str, int] = field(default_factory=dict)
    nodes_visited: int = 0
    subtrees_taken: int = 0          # StackOnly: sub-trees processed; Hybrid: worklist grabs
    peak_stack_depth: int = 0
    wl_sleeps: int = 0
    finish_time: float = 0.0

    def charge(self, kind: str, cycles: float) -> None:
        self.cycles_by_kind[kind] = self.cycles_by_kind.get(kind, 0.0) + cycles
        self.counts_by_kind[kind] = self.counts_by_kind.get(kind, 0) + 1

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles_by_kind.values())


@dataclass
class LaunchMetrics:
    """Aggregated view over one kernel launch."""

    blocks: List[BlockMetrics]
    num_sms: int
    makespan_cycles: float = 0.0

    def nodes_per_sm(self) -> np.ndarray:
        """Tree nodes visited by each SM (the Fig. 5 load metric)."""
        out = np.zeros(self.num_sms, dtype=np.int64)
        for b in self.blocks:
            out[b.sm_id] += b.nodes_visited
        return out

    def normalized_load(self) -> np.ndarray:
        """Per-SM node counts normalised to the mean (Fig. 5's y-axis)."""
        loads = self.nodes_per_sm().astype(np.float64)
        mean = loads.mean()
        if mean == 0:
            return np.zeros_like(loads)
        return loads / mean

    def total_nodes(self) -> int:
        return sum(b.nodes_visited for b in self.blocks)

    def cycles_by_kind(self) -> Dict[str, float]:
        """Launch-wide cycle totals per activity."""
        out: Dict[str, float] = {}
        for b in self.blocks:
            for kind, cyc in b.cycles_by_kind.items():
                out[kind] = out.get(kind, 0.0) + cyc
        return out

    def breakdown_fractions(self) -> Dict[str, float]:
        """Fig. 6's metric: per-block cycle fractions, averaged over blocks.

        Each block's cycle counts are normalised by that block's total
        before averaging, exactly as the paper describes its measurement.
        Blocks that did nothing (never got work) are excluded.
        """
        sums: Dict[str, float] = {k: 0.0 for k in KINDS}
        active = 0
        for b in self.blocks:
            total = b.total_cycles
            if total <= 0:
                continue
            active += 1
            for kind, cyc in b.cycles_by_kind.items():
                sums[kind] = sums.get(kind, 0.0) + cyc / total
        if active == 0:
            return {k: 0.0 for k in sums}
        return {k: v / active for k, v in sums.items()}

    def peak_stack_depth(self) -> int:
        return max((b.peak_stack_depth for b in self.blocks), default=0)
