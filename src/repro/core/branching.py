"""Branching pivot selection and the two-child expansion step.

The paper always branches on a maximum-degree vertex (Fig. 1 line 10).
Alternative pivots are provided for the ablation sweeps; all strategies
must return an *alive* vertex of positive degree when the graph still has
edges.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import (
    REMOVED,
    VCState,
    Workspace,
    max_degree_vertex,
    remove_neighbors_batch_cheap,
    remove_neighbors_into_cover,
    remove_vertex_into_cover,
)
from . import kernels
from . import kernel_backends
from .stats import ChargeFn, null_charge

__all__ = [
    "PivotFn",
    "max_degree_pivot",
    "min_positive_degree_pivot",
    "random_pivot",
    "PIVOTS",
    "expand_children",
]

#: A pivot strategy maps ``(state, rng)`` to a branching vertex id.
PivotFn = Callable[[VCState, Optional[np.random.Generator]], int]


def max_degree_pivot(state: VCState, rng: Optional[np.random.Generator] = None) -> int:
    """The paper's pivot: a vertex of maximum current degree."""
    return max_degree_vertex(state.deg)


def min_positive_degree_pivot(state: VCState, rng: Optional[np.random.Generator] = None) -> int:
    """A deliberately bad pivot (for sweeps): minimum positive degree."""
    deg = state.deg
    candidates = np.flatnonzero(deg > 0)
    if candidates.size == 0:
        raise ValueError("no positive-degree vertex to branch on")
    return int(candidates[np.argmin(deg[candidates])])


#: Documented default seed for ``random_pivot`` when no rng is supplied,
#: so CLI sweeps with ``--pivot random`` and no explicit seed stay
#: deterministic (the module-level generator advances across calls but is
#: reproducible run to run).
RANDOM_PIVOT_DEFAULT_SEED = 0x5EED
_default_pivot_rng: Optional[np.random.Generator] = None


def _default_rng() -> np.random.Generator:
    global _default_pivot_rng
    if _default_pivot_rng is None:
        _default_pivot_rng = np.random.default_rng(RANDOM_PIVOT_DEFAULT_SEED)
    return _default_pivot_rng


def random_pivot(state: VCState, rng: Optional[np.random.Generator] = None) -> int:
    """A uniformly random positive-degree pivot (for sweeps).

    Without an explicit ``rng`` it draws from a process-wide generator
    seeded with :data:`RANDOM_PIVOT_DEFAULT_SEED` — matching the other
    pivots, which also accept ``rng=None``.
    """
    if rng is None:
        rng = _default_rng()
    candidates = np.flatnonzero(state.deg > 0)
    if candidates.size == 0:
        raise ValueError("no positive-degree vertex to branch on")
    return int(candidates[rng.integers(candidates.size)])


PIVOTS: Dict[str, PivotFn] = {
    "max_degree": max_degree_pivot,
    "min_degree": min_positive_degree_pivot,
    "random": random_pivot,
}


def _expand_children_scalar(
    graph: CSRGraph,
    state: VCState,
    vmax: int,
    ws: Workspace,
) -> Tuple[VCState, VCState]:
    """Small-graph expansion in pure Python (same children, bit for bit).

    Walking the cached adjacency tuples scales with the *alive* structure
    around ``vmax`` instead of paying fixed vectorization overhead, which
    is what dominates branch cost on small instances.  Sequentially
    removing the members of ``N_alive(vmax)`` is equivalent to the batch
    removal the vectorized path performs.
    """
    adj = graph.adjacency_tuples()
    dl = state.deg.tolist()
    # both children need N_alive(vmax); compute it once from the parent
    live = [u for u in adj[vmax] if dl[u] >= 0]
    if len(live) >= kernels.BRANCH_BATCH_MIN_LIVE:
        # High-degree pivot: the interpreted removal loop below would walk
        # every adjacency row of N_alive(vmax); hand the deferred child to
        # the cheap batch kernel instead (same child, bit for bit — the
        # touched-set representation differs but the dirty-hint contract
        # allows it).  The parent's array is still untouched here.
        buf = ws.borrow_deg()
        np.copyto(buf, state.deg)
        deleted, n_removed, touched = remove_neighbors_batch_cheap(graph, buf, vmax, ws)
        deferred = VCState(buf, state.cover_size + n_removed,
                           state.edge_count - deleted, touched, state.max_deg_hint)
    else:
        # deferred child: remove every alive neighbour of vmax into the
        # cover (sequential removal of the fixed set equals the batch
        # removal; a member stays alive — merely decremented — until its
        # own turn)
        dl_def = dl.copy()
        deleted = 0
        touched_def: list = []
        for u in live:
            dl_def[u] = REMOVED
            for x in adj[u]:
                dx = dl_def[x]
                if dx >= 0:
                    deleted += 1
                    dx -= 1
                    dl_def[x] = dx
                    if dx <= 2:
                        touched_def.append(x)
        buf = ws.borrow_deg()
        buf[:] = dl_def
        deferred = VCState(buf, state.cover_size + len(live),
                           state.edge_count - deleted, touched_def, state.max_deg_hint)
    # continued child: remove vmax alone (state is mutated in place)
    touched_cont: list = []
    for x in live:
        dx = dl[x] - 1
        dl[x] = dx
        if dx <= 2:
            touched_cont.append(x)
    dl[vmax] = REMOVED
    state.deg[:] = dl
    state.edge_count -= len(live)
    state.cover_size += 1
    state.dirty = touched_cont
    return deferred, state


def expand_children(
    graph: CSRGraph,
    state: VCState,
    vmax: int,
    ws: Optional[Workspace] = None,
    charge: ChargeFn = null_charge,
    kernels=None,
) -> Tuple[VCState, VCState]:
    """Produce the two children of a branching node.

    Returns ``(deferred, continued)`` following Fig. 4's order:

    * ``deferred`` removes *all neighbours* of ``vmax`` into the cover —
      this child goes to the local stack or the global worklist
      (lines 21-26);
    * ``continued`` removes ``vmax`` alone — the block keeps processing
      this child immediately (lines 27-29).

    ``state`` itself is mutated into the ``continued`` child to avoid one
    copy; the deferred child is a fresh self-contained state whose degree
    array comes from the workspace's buffer pool when one is supplied
    (callers that prune states return the buffers via
    :meth:`~repro.graph.degree_array.Workspace.release_deg`).

    Both children leave with their ``dirty`` hint populated: exactly the
    vertices this branch step decremented into reduction-candidate range
    (``deg <= 2``).  The child's reduction cascade seeds its worklists
    from that set instead of rescanning all ``n`` degrees — the cross-node
    dirty propagation the kernel layer's exactness argument extends to.
    Without a matching workspace, and on charged calls, the vectorized
    path leaves the hints ``None`` (full rescan), which is always a safe
    fallback.

    Uncharged pooled-workspace calls dispatch through the ``KERNELS``
    backend (``kernels``: name, instance, or ``None`` for the default) —
    the path choice is the dispatcher's, read at call time, so a backend
    switch applied after import steers this step too.  Charged calls keep
    the vectorized removals, whose work units are the cost meters.
    """
    if charge is null_charge and ws is not None and ws.n == state.deg.size:
        backend = kernel_backends.resolve_kernels(kernels)
        return backend.expand_children(graph, state, vmax, ws)
    return _expand_children_general(graph, state, vmax, ws, charge)


def _expand_children_general(
    graph: CSRGraph,
    state: VCState,
    vmax: int,
    ws: Optional[Workspace],
    charge: ChargeFn,
) -> Tuple[VCState, VCState]:
    """The vectorized expansion body (any graph size; charged-run meter).

    Both children leave with no dirty hint: charged reducers discard
    hints by contract (the work meter must not depend on state
    provenance), so the step does not pay for collecting them.
    """
    deferred = state.copy(ws)
    charge("state_copy", float(state.deg.size))
    deferred.dirty = None
    deleted, n_removed = remove_neighbors_into_cover(graph, deferred.deg, vmax, ws)
    deferred.edge_count -= deleted
    deferred.cover_size += n_removed
    charge("remove_neighbors", float(deleted + n_removed))

    work = int(state.deg[vmax])
    state.dirty = None
    state.edge_count -= remove_vertex_into_cover(graph, state.deg, vmax)
    state.cover_size += 1
    charge("remove_vmax", float(work))
    return deferred, state
