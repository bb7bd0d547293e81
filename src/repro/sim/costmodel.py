"""Cost model: abstract work units → simulated cycles.

Engines account work in *units* natural to each activity (degree-array
entries scanned, neighbour degrees touched, state words copied).  The cost
model turns a ``(kind, units)`` charge into cycles for a block of a given
width, reflecting that a wider block divides data-parallel work across more
threads while paying a fixed launch/convergence overhead per operation.

The eleven activity kinds match Fig. 6's breakdown exactly (their
tuples and the kind → group table live in :mod:`repro.obs.breakdown`)::

    work distribution : wl_add, wl_remove, stack_push, stack_pop, terminate
    reducing          : degree_one, degree_two_triangle, high_degree
    branching         : find_max, remove_vmax, remove_neighbors

plus the internal ``state_copy`` kind, folded into the stack/worklist
costs by the engines (copying the degree array is part of moving a tree
node, exactly as in the CUDA implementation).

One kind extends the paper's set: ``lower_bound`` meters the pluggable
bound policies of :mod:`repro.core.bounds` when a *non-default* bound is
active.  Charge rule: one evaluation charges the policy's
``cost_units`` — the degree entries / alive half-edges it examines (one
array scan for ``degree``, an adjacency walk ``2|E'| + n`` for
``matching``, ``2|E'|·sqrt(|V'|) + n`` for ``konig``, the member sum
for ``combined``) — priced like the reduction scans (memory-bound
degree-array traffic).  The charge fires only when the policy actually
evaluates: nodes killed by the free Buss pre-test (or a negative
budget) charge nothing, and an evaluation is billed at its full
``cost_units`` even when the budget ``cap`` truncates the walk early —
a deterministic, slightly conservative model.  The default ``greedy`` bound reads two counters
the state already carries and is **never** charged, so every engine's
charge stream under the default is bit-identical to the pre-bound-layer
code; Fig. 6 therefore shows a ``lower_bound`` column only for runs
that opted into a stronger bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..obs.breakdown import BOUND_KINDS, BRANCH_KINDS, REDUCE_KINDS, WORK_DISTRIBUTION_KINDS

__all__ = ["CostModel", "KINDS", "WORK_DISTRIBUTION_KINDS", "REDUCE_KINDS",
           "BRANCH_KINDS", "BOUND_KINDS"]

KINDS = WORK_DISTRIBUTION_KINDS + REDUCE_KINDS + BRANCH_KINDS + BOUND_KINDS + ("state_copy",)

_DEFAULT_BASE: Dict[str, float] = {
    # fixed overhead per operation (instruction issue, sync, pointer chasing)
    "wl_add": 300.0,
    "wl_remove": 400.0,
    "stack_push": 30.0,
    "stack_pop": 30.0,
    "terminate": 200.0,
    "degree_one": 40.0,
    "degree_two_triangle": 40.0,
    "high_degree": 40.0,
    "find_max": 30.0,
    "remove_vmax": 30.0,
    "remove_neighbors": 30.0,
    "lower_bound": 40.0,
    "state_copy": 20.0,
}

_DEFAULT_PER_UNIT: Dict[str, float] = {
    # cycles per work unit before dividing across the block's threads
    "wl_add": 2.0,
    "wl_remove": 2.0,
    "stack_push": 2.0,
    "stack_pop": 2.0,
    "terminate": 0.0,
    # degree-array scans hit global/shared memory per entry; the dominant
    # per-node work, as in Fig. 6 where the rules take ~2/3 of kernel time
    "degree_one": 40.0,
    "degree_two_triangle": 40.0,
    "high_degree": 40.0,
    "find_max": 4.0,
    "remove_vmax": 24.0,    # atomic degree decrements
    "remove_neighbors": 24.0,
    # non-default bound evaluations scan degree/adjacency data like the
    # reduction rules do (memory-bound), hence the same per-entry price
    "lower_bound": 40.0,
    "state_copy": 4.0,
}


@dataclass(frozen=True)
class CostModel:
    """Tunable conversion from work units to cycles.

    ``worklist_serial_cycles`` is the length of the broker's critical
    section: concurrent worklist operations are serialised for this long,
    which is how worklist contention (Section IV-A's second drawback)
    manifests in the simulation.
    """

    base_cycles: Dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_BASE))
    per_unit_cycles: Dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_PER_UNIT))
    reduction_tree_step_cycles: float = 12.0  # per log2(block) step of find-max
    # The broker queue is engineered for fine-granular distribution (Kerbl
    # et al. report hundreds of millions of ops/s); its critical section is
    # short relative to a tree node's reduce work.
    worklist_serial_cycles: float = 40.0
    worklist_sleep_cycles: float = 3000.0     # Section IV-C's block sleep
    shared_mem_factor: float = 0.65           # shared-kernel speedup on data-parallel work
    global_mem_factor: float = 1.0

    def op_cycles(self, kind: str, units: float, block_size: int, *, use_shared: bool = True) -> float:
        """Cycles one block of ``block_size`` threads spends on an operation."""
        if kind not in self.base_cycles:
            raise KeyError(f"unknown cost kind {kind!r}")
        mem = self.shared_mem_factor if use_shared else self.global_mem_factor
        cycles = self.base_cycles[kind] + mem * self.per_unit_cycles[kind] * units / block_size
        if kind == "find_max":
            # parallel reduction tree over the degree array
            cycles += self.reduction_tree_step_cycles * math.log2(max(block_size, 2))
        return cycles

    def state_move_cycles(self, n_vertices: int, block_size: int, *, use_shared: bool = True) -> float:
        """Cycles to copy one degree array (the payload of any push/pop/add)."""
        return self.op_cycles("state_copy", float(n_vertices), block_size, use_shared=use_shared)

    def scaled(self, factor: float) -> "CostModel":
        """A uniformly scaled copy (used by cost-sensitivity sweeps)."""
        return CostModel(
            base_cycles={k: v * factor for k, v in self.base_cycles.items()},
            per_unit_cycles={k: v * factor for k, v in self.per_unit_cycles.items()},
            reduction_tree_step_cycles=self.reduction_tree_step_cycles * factor,
            worklist_serial_cycles=self.worklist_serial_cycles * factor,
            worklist_sleep_cycles=self.worklist_sleep_cycles * factor,
            shared_mem_factor=self.shared_mem_factor,
            global_mem_factor=self.global_mem_factor,
        )
