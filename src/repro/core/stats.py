"""Search statistics containers shared by every engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = ["ReductionCounters", "SearchStats", "ChargeFn", "null_charge"]

#: Callback used to account simulated work: ``charge(kind, units)``.
ChargeFn = Callable[[str, float], None]


def null_charge(kind: str, units: float) -> None:
    """No-op charge callback for un-instrumented (plain CPU) runs."""


@dataclass
class ReductionCounters:
    """How often each reduction rule fired (vertices it forced into S)."""

    degree_one: int = 0
    degree_two_triangle: int = 0
    high_degree: int = 0
    sweeps: int = 0

    def merge(self, other: "ReductionCounters") -> None:
        self.degree_one += other.degree_one
        self.degree_two_triangle += other.degree_two_triangle
        self.high_degree += other.high_degree
        self.sweeps += other.sweeps


@dataclass
class SearchStats:
    """Aggregate statistics of one traversal (one worker or the whole run)."""

    nodes_visited: int = 0
    branches: int = 0
    prunes: int = 0
    solutions_found: int = 0
    max_depth_reached: int = 0
    max_stack_depth: int = 0
    reductions: ReductionCounters = field(default_factory=ReductionCounters)
    extra: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "SearchStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.branches += other.branches
        self.prunes += other.prunes
        self.solutions_found += other.solutions_found
        self.max_depth_reached = max(self.max_depth_reached, other.max_depth_reached)
        self.max_stack_depth = max(self.max_stack_depth, other.max_stack_depth)
        self.reductions.merge(other.reductions)
        for key, val in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + val
