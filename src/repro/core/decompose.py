"""Component decomposition and PVC-driven optimisation strategies.

Two user-facing strategies built on the core engines:

* :func:`solve_mvc_by_components` — split a disconnected instance into
  components, solve each separately, and stitch the covers back
  together (:func:`stitch_components`, which the cache's per-component
  memoization shares).  The optimum of a disjoint union is the sum of the
  components' optima, and separate searches are dramatically cheaper
  than one joint search (the joint tree is the *product* of the
  component trees).
* :func:`optimum_via_pvc` — recover the optimum with a binary search of
  PVC feasibility queries, the classic "parameterized algorithm as an
  optimisation oracle" pattern, usable with any engine.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from ..graph.algorithms import component_subgraphs
from ..graph.csr import CSRGraph
from .outcome import SolveOutcome, classify_status, finish_outcome
from .solver import solve_mvc, solve_pvc

__all__ = ["stitch_components", "solve_mvc_by_components", "optimum_via_pvc"]


def stitch_components(graph: CSRGraph, solve_piece: Callable[[CSRGraph], SolveOutcome],
                      *, engine: str) -> SolveOutcome:
    """MVC of ``graph`` from one solve per connected component.

    ``solve_piece`` answers each component with an edge (an edgeless one
    needs no search); the covers are mapped back to original vertex ids
    and concatenated.  ``stats`` lists the per-component outcomes in
    component order.  The optimum, node count and lower bound are sums
    over the components; an interrupted component leaves the whole
    outcome interrupted, with no checkpoint of its own (each component's
    outcome carries one).
    """
    parts: List[SolveOutcome] = []
    covers: List[np.ndarray] = []
    for sub, ids in component_subgraphs(graph):
        out = (solve_piece(sub) if sub.m else
               finish_outcome(sub, None, engine=engine, cover=np.empty(0, dtype=np.int64),
                              checked=True))
        parts.append(out)
        covers.append(ids[np.asarray(out.cover, dtype=np.int64)])
    cover = np.sort(np.concatenate(covers)) if covers else np.empty(0, dtype=np.int64)
    optimum = sum(int(p.optimum) for p in parts)
    lower = sum(int(p.lower_bound) for p in parts)
    interrupted = any(p.timed_out for p in parts)
    deadline_tripped = any(p.deadline_tripped for p in parts)
    status = classify_status(
        interrupted=interrupted, trigger="deadline" if deadline_tripped else "node_budget",
        formulation="mvc", has_cover=True, optimum=optimum, lower_bound=lower)
    # The parts' covers were checked in their own coordinates; relabelled
    # and joined they cover the disjoint union.
    return SolveOutcome(
        status=status, formulation="mvc", engine=engine, optimum=optimum,
        cover=cover, lower_bound=lower,
        nodes_visited=sum(p.nodes_visited for p in parts), timed_out=interrupted,
        deadline_tripped=deadline_tripped,
        wall_seconds=sum(p.wall_seconds for p in parts), stats=parts)


def solve_mvc_by_components(
    graph: CSRGraph,
    *,
    engine: str = "sequential",
    node_budget: Optional[int] = None,
    **options: Any,
) -> SolveOutcome:
    """Solve MVC one connected component at a time.

    A per-component ``node_budget`` (if given) applies to each component
    independently.  Every component rides through
    :func:`repro.core.solver.solve_mvc`, so a ``cache=`` option (or
    ``REPRO_CACHE``) memoizes the pieces independently, including
    checkpoint escalation per component.
    """
    return stitch_components(
        graph, lambda sub: solve_mvc(sub, engine=engine, node_budget=node_budget,
                                     **options), engine=engine)


def optimum_via_pvc(
    graph: CSRGraph,
    *,
    engine: str = "sequential",
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    node_budget: Optional[int] = None,
    on_probe: Optional[Callable[[int, Optional[bool]], None]] = None,
    **options: Any,
) -> Optional[int]:
    """Recover the MVC optimum with a binary search over PVC queries.

    ``lo``/``hi`` default to 0 and the greedy bound.  Returns ``None`` if
    any probe exhausted its budget without an answer (the bracket is then
    unresolved).  ``on_probe(k, feasible)`` observes *every* query —
    including the unresolved one that aborts the search, which it sees
    as ``feasible=None`` — which the tests use to assert the probe count
    is logarithmic.
    """
    if graph.m == 0:
        return 0
    if hi is None:
        from .greedy import greedy_cover

        hi = greedy_cover(graph).size
    if lo is None:
        lo = 0
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    while lo < hi:
        mid = (lo + hi) // 2
        out = solve_pvc(graph, mid, engine=engine, node_budget=node_budget, **options)
        if on_probe is not None:
            on_probe(mid, None if out.feasible is None else bool(out.feasible))
        if out.feasible is None:
            return None
        if out.feasible:
            hi = mid
        else:
            lo = mid + 1
    return lo
