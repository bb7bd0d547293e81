"""The paper's three reduction rules (Fig. 1, ``reduce``), serial semantics.

Rules, applied until the graph stops changing (each rule is exhausted in
turn, and the whole cascade repeats while anything changed):

* **degree-one** — a vertex ``v`` with one neighbour ``u``: taking ``u`` is
  never worse than taking ``v``, so force ``u`` into the cover.
* **degree-two-triangle** — ``N(v) = {u, w}`` with ``uw`` an edge: the
  triangle needs two of its three vertices, and ``{u, w}`` is never worse.
* **high-degree** — any vertex with degree above the remaining *budget*
  must be in the cover, otherwise all of its neighbours would have to be.

``charge`` hooks feed the GPU cost model: each sweep reports how many
degree-array entries it scanned and how much neighbour-update work the
forced removals caused, in abstract work units that
:class:`repro.sim.costmodel.CostModel` converts into cycles.

The per-vertex rules here are the **verification reference** and the one
oracle: readable, charge-exact, and deliberately naive.  The hot path is
the ``KERNELS`` registry's cascade (:mod:`repro.core.kernel_backends`:
the compiled ``native`` tier, else the pure-Python ``scalar`` tier of
:mod:`repro.core.kernels`), which reaches a bit-identical fixpoint;
:func:`apply_reductions` delegates to it, while
:func:`apply_reductions_reference` keeps the original cascade for
equivalence tests and is the cost-model meter of every charged run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import (
    VCState,
    Workspace,
    remove_vertex_into_cover,
    remove_vertices_into_cover,
)
from .formulation import Formulation
from .kernels import apply_reductions_fast
from .stats import ChargeFn, ReductionCounters, null_charge

__all__ = [
    "degree_one_rule",
    "degree_two_triangle_rule",
    "high_degree_rule",
    "apply_reductions",
    "apply_reductions_reference",
    "first_alive_neighbor",
    "alive_pair",
]


def first_alive_neighbor(graph: CSRGraph, deg: np.ndarray, v: int) -> int:
    """The lowest-id alive neighbour of ``v`` (raises if none exists)."""
    for u in graph.neighbors(v):
        if deg[u] >= 0:
            return int(u)
    raise ValueError(f"vertex {v} has no alive neighbour")


def alive_pair(graph: CSRGraph, deg: np.ndarray, v: int) -> tuple[int, int]:
    """The two alive neighbours of a degree-two vertex ``v``."""
    found = []
    for u in graph.neighbors(v):
        if deg[u] >= 0:
            found.append(int(u))
            if len(found) == 2:
                return found[0], found[1]
    raise ValueError(f"vertex {v} does not have two alive neighbours")


def degree_one_rule(
    graph: CSRGraph,
    state: VCState,
    ws: Optional[Workspace] = None,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
) -> bool:
    """Exhaust the degree-one rule; return True if anything changed."""
    deg = state.deg
    changed = False
    while True:
        ones = np.flatnonzero(deg == 1)
        charge("degree_one", float(deg.size))
        if ones.size == 0:
            return changed
        progressed = False
        for v in ones:
            if deg[v] != 1:
                continue  # a previous removal in this sweep changed v
            u = first_alive_neighbor(graph, deg, int(v))
            work = int(deg[u])
            state.edge_count -= remove_vertex_into_cover(graph, deg, u)
            state.cover_size += 1
            charge("degree_one", float(work))
            if counters is not None:
                counters.degree_one += 1
            progressed = True
            changed = True
        if not progressed:
            return changed


def degree_two_triangle_rule(
    graph: CSRGraph,
    state: VCState,
    ws: Optional[Workspace] = None,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
) -> bool:
    """Exhaust the degree-two-triangle rule; return True if anything changed."""
    deg = state.deg
    changed = False
    while True:
        twos = np.flatnonzero(deg == 2)
        charge("degree_two_triangle", float(deg.size))
        if twos.size == 0:
            return changed
        progressed = False
        pair = ws.pair_buf if ws is not None else np.empty(2, dtype=np.int64)
        for v in twos:
            if deg[v] != 2:
                continue
            u, w = alive_pair(graph, deg, int(v))
            charge("degree_two_triangle", 1.0)  # one adjacency probe
            if not graph.has_edge(u, w):
                continue
            work = int(deg[u]) + int(deg[w])
            pair[0], pair[1] = u, w
            state.edge_count -= remove_vertices_into_cover(graph, deg, pair, ws)
            state.cover_size += 2
            charge("degree_two_triangle", float(work))
            if counters is not None:
                counters.degree_two_triangle += 2
            progressed = True
            changed = True
        if not progressed:
            return changed


def high_degree_rule(
    graph: CSRGraph,
    state: VCState,
    formulation: Formulation,
    ws: Optional[Workspace] = None,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
) -> bool:
    """Exhaust the high-degree rule under the formulation's current budget.

    If the budget ever turns negative the branch is doomed; we stop early
    and let the caller's prune check (Fig. 4 line 12) dispose of it rather
    than mass-removing every remaining vertex.
    """
    deg = state.deg
    changed = False
    while True:
        budget = formulation.budget(state.cover_size)
        if budget < 0:
            return changed
        targets = np.flatnonzero(deg > budget)
        charge("high_degree", float(deg.size))
        if targets.size == 0:
            return changed
        work = int(deg[targets].sum())
        state.edge_count -= remove_vertices_into_cover(graph, deg, targets, ws)
        state.cover_size += int(targets.size)
        charge("high_degree", float(work))
        if counters is not None:
            counters.high_degree += int(targets.size)
        changed = True


def apply_reductions_reference(
    graph: CSRGraph,
    state: VCState,
    formulation: Formulation,
    ws: Optional[Workspace] = None,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
) -> None:
    """Fig. 1's ``reduce``: cascade the three rules until a fixed point.

    The original per-vertex implementation, kept as the verification
    reference and as the exact work-unit meter for cost-model runs.  It
    rescans the full degree array by design, so the state's ``dirty`` hint
    is consumed (cleared) rather than honoured — the fixpoint is the same
    either way, and a hint must never outlive the cascade it describes.
    """
    state.dirty = None
    while True:
        changed = degree_one_rule(graph, state, ws, charge, counters)
        changed |= degree_two_triangle_rule(graph, state, ws, charge, counters)
        changed |= high_degree_rule(graph, state, formulation, ws, charge, counters)
        if counters is not None:
            counters.sweeps += 1
        if not changed:
            return


#: The default ``reduce``: the ``KERNELS`` registry's cascade, which
#: reaches the same fixpoint as :func:`apply_reductions_reference` (the
#: property tests in ``tests/test_kernels.py`` enforce this bit-for-bit).
apply_reductions = apply_reductions_fast
