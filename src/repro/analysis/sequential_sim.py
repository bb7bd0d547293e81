"""Price the Sequential baseline through the cost model.

Table I compares CPU seconds against GPU seconds.  Our GPU engines report
*virtual* seconds (simulated cycles at the device clock), so the Sequential
baseline must be priced in the same currency: the traversal emits the same
work-unit stream the GPU blocks emit, and a :class:`~repro.sim.device.CPUSpec`
converts it into virtual CPU seconds (a scalar core retiring
``effective_width`` work units per cycle).

The same mechanism implements the paper's two-hour cap for the baseline: a
``cycle_budget`` stops the traversal once the virtual clock exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from ..core.bounds import BoundPolicy
from ..core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from ..core.frontier import Frontier
from ..core.greedy import greedy_cover
from ..core.sequential import branch_and_reduce
from ..core.stats import SearchStats
from ..graph.csr import CSRGraph
from ..graph.degree_array import Workspace
from ..sim.costmodel import CostModel
from ..sim.device import EPYC_LIKE, CPUSpec

__all__ = ["SequentialSimResult", "CpuCostMeter", "solve_mvc_sequential_sim", "solve_pvc_sequential_sim"]


class CpuCostMeter:
    """Accumulates charged work units as virtual CPU cycles."""

    def __init__(self, cpu: CPUSpec = EPYC_LIKE, cost_model: Optional[CostModel] = None):
        self.cpu = cpu
        self.cost = cost_model if cost_model is not None else CostModel()
        self.cycles = 0.0
        self.cycles_by_kind: Dict[str, float] = {}

    def charge(self, kind: str, units: float) -> None:
        # A scalar CPU pays base overheads only once per op and retires
        # `effective_width` units per cycle; there is no shared-memory tier.
        cycles = (
            self.cost.base_cycles[kind] / 8.0
            + self.cost.per_unit_cycles[kind] * units / self.cpu.effective_width
        )
        self.cycles += cycles
        self.cycles_by_kind[kind] = self.cycles_by_kind.get(kind, 0.0) + cycles

    def seconds(self) -> float:
        return self.cpu.cycles_to_seconds(self.cycles)


@dataclass
class SequentialSimResult:
    """Sequential outcome priced in virtual CPU seconds."""

    formulation: str
    optimum: Optional[int]
    cover: Optional[np.ndarray]
    feasible: Optional[bool]
    timed_out: bool
    nodes_visited: int
    cycles: float
    sim_seconds: float
    greedy_size: int
    stats: SearchStats
    #: the meter's per-activity-kind cycle totals — the predicted side of
    #: the experiment layer's predicted-vs-measured breakdown.
    cycles_by_kind: Optional[Dict[str, float]] = None


def solve_mvc_sequential_sim(
    graph: CSRGraph,
    *,
    cpu: CPUSpec = EPYC_LIKE,
    cost_model: Optional[CostModel] = None,
    node_budget: Optional[int] = None,
    cycle_budget: Optional[float] = None,
    frontier: Union[Frontier, str, None] = None,
    bound: Union[BoundPolicy, str, None] = None,
) -> SequentialSimResult:
    """MVC with the Fig. 1 baseline, metered in virtual CPU time.

    ``frontier`` selects the worklist discipline exactly as in
    :func:`repro.core.sequential.solve_mvc_sequential`; a non-default
    policy replays the same node step (and work-unit pricing) in a
    different traversal order, which is how the experiment layer sweeps
    frontier policies under the cost model.  ``bound`` selects the
    pruning policy the same way; a non-default bound charges its
    per-node prune evaluations to the ``lower_bound`` activity kind
    (see :mod:`repro.sim.costmodel`).  Frontier-*ordering* evaluations
    — including a ``best-first`` heap re-keyed by the active bound —
    are outside the work meter, as frontier ordering always has been
    (the built-in greedy key is likewise unmetered).
    """
    return _solve_sim(graph, None, cpu, cost_model, node_budget, cycle_budget,
                      frontier, bound)


def solve_pvc_sequential_sim(
    graph: CSRGraph,
    k: int,
    *,
    cpu: CPUSpec = EPYC_LIKE,
    cost_model: Optional[CostModel] = None,
    node_budget: Optional[int] = None,
    cycle_budget: Optional[float] = None,
    frontier: Union[Frontier, str, None] = None,
    bound: Union[BoundPolicy, str, None] = None,
) -> SequentialSimResult:
    """PVC with the Fig. 1 baseline, metered in virtual CPU time."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _solve_sim(graph, k, cpu, cost_model, node_budget, cycle_budget,
                      frontier, bound)


def _solve_sim(graph: CSRGraph, k: Optional[int], cpu: CPUSpec,
               cost_model: Optional[CostModel], node_budget: Optional[int],
               cycle_budget: Optional[float], frontier: Union[Frontier, str, None],
               bound: Union[BoundPolicy, str, None]) -> SequentialSimResult:
    """One metered Fig. 1 traversal; ``k`` is ``None`` for MVC."""
    meter = CpuCostMeter(cpu, cost_model)
    ws = Workspace.for_graph(graph)
    greedy = greedy_cover(graph, ws)
    holder: Union[BestBound, FoundFlag]
    if k is None:
        holder = BestBound(size=greedy.size, cover=greedy.cover)
        formulation = MVCFormulation(holder)
    else:
        holder = FoundFlag()
        formulation = PVCFormulation(k=k, flag=holder)
    stats = SearchStats()
    if graph.m > 0:
        should_stop = None
        if cycle_budget is not None:
            should_stop = lambda: meter.cycles > cycle_budget
        stats = branch_and_reduce(
            graph, formulation, ws=ws, node_budget=node_budget,
            charge=meter.charge, should_stop=should_stop, frontier=frontier,
            bound=bound,
        )
    elif k is not None:
        holder.found, holder.size, holder.cover = True, 0, np.empty(0, dtype=np.int32)
    timed_out = bool(stats.extra.get("timed_out"))
    return SequentialSimResult(
        formulation="mvc" if k is None else "pvc",
        optimum=holder.size,
        cover=holder.cover,
        feasible=None if k is None or (timed_out and not holder.found) else holder.found,
        timed_out=timed_out,
        nodes_visited=stats.nodes_visited,
        cycles=meter.cycles,
        sim_seconds=meter.seconds(),
        greedy_size=greedy.size,
        stats=stats,
        cycles_by_kind=dict(meter.cycles_by_kind),
    )
