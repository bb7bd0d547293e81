"""Greedy approximation used to initialise ``best`` (paper Section II-B).

"The algorithm applies all reduction rules to the graph, removes the
largest degree vertex from the graph (hence adding it to a solution), and
repeats this process until a vertex cover is found."

The high-degree rule needs an upper bound to be meaningful, so during the
greedy pass we drive it with the only bound available — the trivial cover
``|V|`` shrunk as the greedy solution grows — which in practice leaves the
degree-one and triangle rules doing the reduction work.  The returned set
is always a *valid* cover, so its size is a sound initial ``best`` and,
equally important for Section IV-E, a sound bound on the search-tree depth
used to pre-size the per-block stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import (
    REMOVED,
    VCState,
    Workspace,
    fresh_state,
    max_degree_vertex,
    remove_vertex_into_cover,
)
from .formulation import Formulation
from . import kernel_backends
from .kernels import (
    scalar_degree_one_exhaust,
    scalar_degree_two_exhaust,
    scalar_high_degree_exhaust,
    scalar_remove,
    scalar_seed,
)
from .reductions import degree_one_rule, degree_two_triangle_rule, high_degree_rule
from .stats import ReductionCounters

__all__ = ["GreedyResult", "greedy_cover", "_TrivialBound"]


@dataclass
class GreedyResult:
    """Outcome of the greedy pass."""

    size: int
    cover: np.ndarray
    max_degree_picks: int
    reductions: ReductionCounters


class _TrivialBound(Formulation):
    """Budget = "everything else may still join the cover".

    ``best`` is pinned to ``n + 1`` (one above the trivial cover) so the
    high-degree rule only fires on vertices whose degree exceeds the number
    of vertices that could possibly remain — i.e. never spuriously.
    """

    name = "greedy"

    def __init__(self, n: int):
        self.n = n

    def budget(self, cover_size: int) -> int:
        return self.n - cover_size

    def accept(self, state: VCState) -> bool:  # pragma: no cover - unused
        return False


def _greedy_cover_scalar(graph: CSRGraph) -> GreedyResult:
    """The greedy pass in pure Python over cached adjacency tuples.

    Fire-for-fire identical to :func:`_greedy_cover_rules`: the shared
    scalar exhausts from :mod:`repro.core.kernels` run over dirty pending
    lists, and each pick removes the lowest-id maximum-degree vertex.
    """
    adj = graph.adjacency_tuples()
    dl = graph.degrees.tolist()
    n = graph.n
    edges = graph.m
    cover = picks = 0
    counters = ReductionCounters()
    pending1, pending2, max_deg = scalar_seed(graph.degrees)
    trivial_budget = lambda c: n - c  # noqa: E731 — _TrivialBound's budget
    while edges > 0:
        f1, e1 = scalar_degree_one_exhaust(adj, dl, pending1, pending2)
        f2, e2 = scalar_degree_two_exhaust(adj, dl, pending1, pending2)
        cover += f1 + 2 * f2
        fh, eh, max_deg = scalar_high_degree_exhaust(
            adj, dl, pending1, pending2, trivial_budget, cover, max_deg
        )
        cover += fh
        edges -= e1 + e2 + eh
        counters.degree_one += f1
        counters.degree_two_triangle += 2 * f2
        counters.high_degree += fh
        if edges == 0:
            break
        # pick: lowest-id maximum-degree vertex (argmax semantics)
        vmax = max(range(n), key=dl.__getitem__)
        edges -= scalar_remove(adj, dl, vmax, pending1, pending2)
        cover += 1
        picks += 1
    deg = np.asarray(dl, dtype=np.int32)
    return GreedyResult(
        size=cover,
        cover=np.flatnonzero(deg == REMOVED).astype(np.int32),
        max_degree_picks=picks,
        reductions=counters,
    )


def _greedy_cover_rules(graph: CSRGraph, ws: Optional[Workspace] = None) -> GreedyResult:
    """The greedy pass over the reference serial rules (pre-vectorization).

    Kept as the equivalence oracle for the backends' passes (and as the A
    side of the interleaved A/B pair recorded in ``BENCH_micro.json``):
    per pick iteration it runs one round of the
    three reference rule exhausts, each a full O(n) rescan with
    interpreted per-vertex removals.
    """
    if ws is None:
        ws = Workspace.for_graph(graph)
    state = fresh_state(graph)
    bound = _TrivialBound(graph.n)
    counters = ReductionCounters()
    picks = 0
    while state.edge_count > 0:
        degree_one_rule(graph, state, ws, counters=counters)
        degree_two_triangle_rule(graph, state, ws, counters=counters)
        high_degree_rule(graph, state, bound, ws, counters=counters)
        if state.edge_count == 0:
            break
        vmax = max_degree_vertex(state.deg)
        state.edge_count -= remove_vertex_into_cover(graph, state.deg, vmax)
        state.cover_size += 1
        picks += 1
    return GreedyResult(
        size=state.cover_size,
        cover=state.cover(),
        max_degree_picks=picks,
        reductions=counters,
    )


def greedy_cover(graph: CSRGraph, ws: Optional[Workspace] = None,
                 kernels=None) -> GreedyResult:
    """Run the paper's greedy upper-bound heuristic.

    Returns a valid vertex cover; its size initialises ``best`` and bounds
    the stack depth for the GPU launch configuration.  The pass is
    dispatched through the ``KERNELS`` backend registry (``kernels``:
    name, instance, or ``None`` for the default, ``auto``, which runs the
    compiled ``native`` kernels when they load) — all backends
    produce identical covers (property-tested).
    """
    return kernel_backends.resolve_kernels(kernels).greedy_cover(graph, ws)
