"""Pluggable lower-bound & pruning policies: the bound-strength layer.

Bound strength is the dominant lever on search-tree size, yet the paper
hard-wires a single pruning test into every engine: *prune when the
budget is negative or* ``|E'| > budget**2`` (Fig. 1 line 5 / Fig. 4
line 12 — the Buss-kernel argument: after the high-degree rule every
alive degree is at most the budget ``b``, so ``b`` vertices cover at
most ``b**2`` edges).  This module makes the bound a policy, mirroring
:mod:`repro.core.frontier`: a :class:`BoundPolicy` owns the prune test
and an *admissible* lower bound on the extra cover the remaining graph
still needs, and :class:`~repro.core.nodestep.NodeStep` composes it with
the formulation's budget — so every engine (sequential, the three
simulated-GPU programs, the real thread and process teams)
sweeps bound strength through one registry, exactly as they sweep
frontier policies.

Registered policies (:data:`BOUNDS`):

* ``greedy`` — **the default, today's behaviour bit for bit**: the Buss
  prune above.  Its :meth:`~BoundPolicy.lower_bound` is the greedy
  bound ``ceil(|E'| / Δ')`` that :func:`repro.core.frontier.greedy_bound_key`
  already orders the best-first frontier by.
* ``degree`` — sorted-degree prefix bound: the smallest ``t`` such that
  the ``t`` largest alive degrees sum to at least ``|E'|`` (a cover of
  size ``t`` covers at most that many edges).  One vectorized sort per
  evaluation; strictly at least as strong as ``ceil(|E'| / Δ')``.
* ``matching`` — greedy maximal matching of the alive subgraph: every
  matching edge needs one distinct cover vertex, so ``|M|`` is a lower
  bound.  Construction stops early once the bound already prunes.
* ``konig`` — exact-on-bipartite: Hopcroft–Karp maximum matching of the
  alive subgraph, which by König's theorem *is* the remaining optimum
  when that subgraph is bipartite (the machinery from
  :mod:`repro.core.matching`); an odd cycle falls back to the maximal
  matching bound.
* ``combined`` — the max of a configured member set (default: all of
  the above), evaluated cheapest-first with prune short-circuiting.

Admissibility contract: ``lower_bound(state)`` must never exceed the
true minimum number of *additional* vertices any cover of the remaining
graph needs (property-tested against :mod:`repro.core.brute` in
``tests/test_bounds.py``).  The prune test may be strictly stronger
than ``lower_bound > budget`` when it exploits budget-conditional
structure — ``greedy`` does (the Buss test is valid only because the
high-degree rule already capped alive degrees at the budget), which is
why the two methods are separate.

Incremental interface: policies consume the cross-node state the branch
step already maintains — the stale-high ``max_deg_hint`` replaces the
``deg.max()`` seed scan for the Δ-based bounds (stale-high only
*loosens* a lower bound, never breaks admissibility), and the expensive
matching-based bounds take an optional ``cap`` so they stop growing the
matching the moment the node is pruned — the bound recomputes only what
the current budget makes it examine, not the whole graph per node.

Charge accounting (documented in :mod:`repro.sim.costmodel`): the
default ``greedy`` prune reads two counters the state already carries
and charges **nothing** — keeping sim makespans and Table I charge
streams bit-identical to the pre-bound-layer engines.  Every other
policy reports its work through :meth:`BoundPolicy.cost_units`, charged
to the new ``lower_bound`` activity kind.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace, alive_vertices

__all__ = [
    "BoundPolicy",
    "GreedyBound",
    "DegreeBound",
    "MatchingBound",
    "KonigBound",
    "CombinedBound",
    "BOUNDS",
    "DEFAULT_BOUND",
    "make_bound",
]

#: The policy every engine uses unless told otherwise — the paper's rule.
DEFAULT_BOUND = "greedy"


class BoundPolicy:
    """One pruning policy, bound to one graph/workspace at construction.

    Subclasses implement :meth:`lower_bound` (admissible, ``cap``-aware)
    and may override :meth:`prune` when they can prune harder than
    ``lower_bound > budget`` (see ``greedy``).  ``charged`` is False for
    policies whose prune is free under the cost model (the default
    bound), True for everything else — :class:`~repro.core.nodestep.NodeStep`
    only emits ``lower_bound`` charges for charged policies, which is
    what keeps the default engines' charge streams untouched.
    """

    #: registry identifier; also what travels through CLI/spec/wire.
    name: str = "abstract"
    #: whether NodeStep meters this policy through the cost model.
    charged: bool = True

    def __init__(self, graph: CSRGraph, ws: Optional[Workspace] = None) -> None:
        self.graph = graph
        self.ws = ws

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        """Admissible lower bound on the *extra* cover ``G'`` still needs.

        With ``cap``, the policy may return any value ``> cap`` as soon
        as it has proven the bound exceeds ``cap`` (the caller only asks
        "does this prune?"), letting expensive bounds stop early.
        """
        raise NotImplementedError

    def prune(self, state: VCState, budget: int) -> bool:
        """True when no cover within ``budget`` extra vertices can exist.

        Every policy *composes with* the default Buss test (reading two
        counters the state already carries, it is free) before paying
        for its own bound: a "stronger" policy must never prune less
        than the default, so its search tree is always a subtree of the
        default's (asserted in ``tests/test_bounds.py``).
        """
        if budget < 0 or state.edge_count > budget * budget:
            return True
        return self.lower_bound(state, cap=budget) > budget

    def cost_units(self, state: VCState) -> float:
        """Work units one evaluation charges (degree entries examined)."""
        return float(self.graph.n)

    def frontier_key(self, item: object) -> int:
        """Best-first priority ``|S| + lower_bound`` for a frontier item.

        Accepts bare states or ``(state, ...)`` tuples, like
        :func:`repro.core.frontier.greedy_bound_key`.
        """
        state = item[0] if isinstance(item, tuple) else item
        return state.cover_size + self.lower_bound(state)


def _greedy_lower_bound(state: VCState) -> int:
    """``ceil(|E'| / Δ')`` using the carried stale-high degree hint.

    The same quantity (and the same hint discipline) as
    :func:`repro.core.frontier.greedy_bound_key`: a too-large Δ' only
    loosens the bound, so the stale-high ``max_deg_hint`` is sound.
    """
    edges = state.edge_count
    if edges <= 0:
        return 0
    max_deg = state.max_deg_hint
    if max_deg <= 0:
        max_deg = int(state.deg.max())
        if max_deg <= 0:  # pragma: no cover - edge_count > 0 implies a degree
            max_deg = 1
    return -(-edges // max_deg)


class GreedyBound(BoundPolicy):
    """The paper's hard-wired rule, now as the default policy.

    ``prune`` is the Fig. 1 line 5 test verbatim — ``budget < 0 or
    |E'| > budget**2`` — evaluated from the two counters every state
    already maintains, so it charges nothing (``charged = False``) and
    the default engines stay bit-identical to the pre-layer code.  The
    Buss test is *budget-conditional* (it relies on the high-degree rule
    having removed every vertex of degree above the budget), so it is
    deliberately not derived from :meth:`lower_bound`.
    """

    name = "greedy"
    charged = False

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        return _greedy_lower_bound(state)

    def prune(self, state: VCState, budget: int) -> bool:
        return budget < 0 or state.edge_count > budget * budget

    def cost_units(self, state: VCState) -> float:
        return 0.0


class DegreeBound(BoundPolicy):
    """Sorted-degree prefix bound (cheap, Δ-array based).

    Any cover of size ``t`` covers at most the sum of its members'
    degrees ≤ the sum of the ``t`` largest alive degrees, so the
    smallest ``t`` whose descending-degree prefix sum reaches ``|E'|``
    is admissible — at least as strong as ``ceil(|E'| / Δ')`` and never
    weaker than one extra vertex of it.  One vectorized sort + cumsum
    per evaluation; ``cost_units`` prices the degree-array scan.
    """

    name = "degree"

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        edges = state.edge_count
        if edges <= 0:
            return 0
        deg = state.deg
        alive = deg[deg > 0]
        if alive.size == 0:  # pragma: no cover - edge_count > 0 implies degrees
            return 0
        order = np.sort(alive)[::-1]
        prefix = np.cumsum(order)
        return int(np.searchsorted(prefix, edges)) + 1


def _maximal_matching_size(
    graph: CSRGraph,
    deg: np.ndarray,
    cap: Optional[int] = None,
) -> int:
    """Greedy maximal matching of the alive subgraph, early-exiting at ``cap``.

    Scans alive vertices in id order and matches each with its first
    alive unmatched neighbour — deterministic, O(|E'|), and a valid
    lower bound at any prefix (each matching edge pins one distinct
    cover vertex), which is what makes the ``cap`` early exit sound.
    """
    matched = np.zeros(graph.n, dtype=bool)
    size = 0
    neighbors = graph.neighbors
    for v in np.flatnonzero(deg > 0):
        v = int(v)
        if matched[v]:
            continue
        nbrs = neighbors(v)
        live = nbrs[(deg[nbrs] >= 0) & ~matched[nbrs]]
        if live.size:
            matched[v] = True
            matched[int(live[0])] = True
            size += 1
            if cap is not None and size > cap:
                return size
    return size


class MatchingBound(BoundPolicy):
    """Maximal-matching lower bound: ``|M|`` vertices are unavoidable.

    Each edge of a matching must be covered by a distinct vertex, so any
    maximal matching of the alive subgraph lower-bounds the remaining
    cover.  Strictly stronger than the Δ-based bounds on graphs with
    wide matchings (bipartite-heavy instances in particular), at the
    cost of one adjacency walk per evaluation — truncated by ``cap`` to
    exactly the work the current budget makes necessary.
    """

    name = "matching"

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        if state.edge_count <= 0:
            return 0
        return _maximal_matching_size(self.graph, state.deg, cap)

    def cost_units(self, state: VCState) -> float:
        # one alive-adjacency walk: every alive half-edge may be examined
        return float(2 * state.edge_count + self.graph.n)


class KonigBound(BoundPolicy):
    """Exact-on-bipartite bound via Hopcroft–Karp / König's theorem.

    When the alive subgraph is bipartite, its maximum matching *equals*
    the remaining minimum vertex cover (König), so the bound is exact —
    the strongest admissible bound possible.  An odd cycle makes the
    2-colouring fail, in which case the policy falls back to the greedy
    maximal matching (still admissible).  The most expensive registered
    policy (``O(E' sqrt(V))``); intended for bipartite-heavy workloads
    where its pruning pays for itself.
    """

    name = "konig"

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        if state.edge_count <= 0:
            return 0
        from .matching import bipartition, hopcroft_karp

        alive = alive_vertices(state.deg)
        sub = self.graph.subgraph(alive)
        parts = bipartition(sub)
        if parts is None:
            return _maximal_matching_size(self.graph, state.deg, cap)
        left, right = parts
        match = hopcroft_karp(sub, left, right)
        return sum(1 for u in left if int(u) in match)

    def cost_units(self, state: VCState) -> float:
        # Hopcroft-Karp phases: E' * sqrt(alive) half-edge scans, plus the
        # subgraph extraction's touch of every alive adjacency row.
        edges = float(2 * state.edge_count)
        return edges * max(1.0, float(state.n_alive()) ** 0.5) + float(self.graph.n)


class CombinedBound(BoundPolicy):
    """Max of a configured member set, evaluated cheapest-first.

    ``prune`` short-circuits on the first member that kills the node, so
    the expensive tail (matching / König) only ever runs on nodes the
    cheap bounds could not prune; ``lower_bound`` is the max over the
    members (admissible because each member is).
    """

    name = "combined"

    #: default member order: cheapest first (evaluation order matters).
    DEFAULT_MEMBERS: Tuple[str, ...] = ("greedy", "degree", "matching")

    def __init__(
        self,
        graph: CSRGraph,
        ws: Optional[Workspace] = None,
        members: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(graph, ws)
        names = tuple(members) if members is not None else self.DEFAULT_MEMBERS
        if not names:
            raise ValueError("combined bound needs at least one member")
        self.members = tuple(make_bound(name, graph, ws) for name in names)

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        best = 0
        for member in self.members:
            best = max(best, member.lower_bound(state, cap=cap))
            if cap is not None and best > cap:
                break
        return best

    def prune(self, state: VCState, budget: int) -> bool:
        if budget < 0 or state.edge_count > budget * budget:
            return True
        return any(member.prune(state, budget) for member in self.members)

    def cost_units(self, state: VCState) -> float:
        return sum(member.cost_units(state) for member in self.members)


#: Named bound factories for the CLI, the spec axis and the engines.
BOUNDS: Dict[str, Callable[..., BoundPolicy]] = {
    "greedy": GreedyBound,
    "degree": DegreeBound,
    "matching": MatchingBound,
    "konig": KonigBound,
    "combined": CombinedBound,
}


def make_bound(
    name: str,
    graph: CSRGraph,
    ws: Optional[Workspace] = None,
) -> BoundPolicy:
    """Instantiate a registered bound policy for one traversal."""
    try:
        factory = BOUNDS[name]
    except KeyError:
        raise ValueError(
            f"unknown bound {name!r}; choose from {sorted(BOUNDS)}"
        ) from None
    return factory(graph, ws)
