"""The interpreted kernel tier: the scalar reduction cascade.

The serial rules in :mod:`repro.core.reductions` are the paper's semantics
written for clarity: every sweep rescans the whole degree array
(``np.flatnonzero(deg == k)``) and walks each candidate's adjacency row
through NumPy.  This module is the same cascade rebuilt for the
interpreter: the degree array drops to a plain list, adjacency rows come
from the graph's cached tuples, and each rule drains a *pending list* —
the vertices a removal decremented into its candidate range — instead of
rescanning all ``n`` degrees per sweep.  The compiled ``native`` backend
(``core/_native.c``) runs these very loops, line for line.

``apply_reductions_fast`` is a drop-in replacement for the reference
cascade and reaches a **bit-identical fixpoint**: the same ``deg`` array,
``cover_size``, ``edge_count`` and reduction counters.  The equivalence
argument, relied on by the property tests in ``tests/test_kernels.py``:

1. Degrees only ever decrease, so a vertex reaches degree one (or two)
   only through a decrement, and every decrement that lands there
   enqueues it.  A candidate revalidated at its turn (``deg[v]``
   unchanged) has the same alive neighbours as when it was enqueued.
2. A serial sweep's rescan finds (a) candidates that kept their degree and
   did not fire — which can never fire later either (their neighbourhood
   is frozen while their degree is), so dropping them is invisible — and
   (b) vertices whose degree just became 1 (or 2) — which the pending
   lists capture by construction.  Sorting each sweep's candidates
   matches ``np.flatnonzero``'s ascending order.

Only the high-degree rule still scans the full list per sweep: its
eligibility depends on the shrinking budget, not on degree changes, so a
degree-keyed worklist cannot drive it (a stale-high maximum degree skips
the scan while the budget is slack).

The batched lookups :func:`first_alive_neighbors` and :func:`alive_pairs`
serve the Section IV-D batch rules (:mod:`repro.core.parallel_reductions`).

Charged (cost-model) runs never come here: the instrumented paths
(:mod:`repro.analysis.sequential_sim`, the sim engines, a charged
:meth:`~repro.core.kernel_backends.KernelBackend.cascade`) use the
reference/parallel rules, which are the paper's work-unit meters.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import REMOVED, VCState, Workspace
from .formulation import Formulation
from .stats import ChargeFn, ReductionCounters, null_charge

__all__ = [
    "first_alive_neighbors",
    "alive_pairs",
    "apply_reductions_fast",
    "scalar_seed",
    "scalar_remove",
    "scalar_degree_one_exhaust",
    "scalar_degree_two_exhaust",
    "scalar_high_degree_exhaust",
]


def first_alive_neighbors(graph: CSRGraph, deg: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """The unique alive neighbour of every degree-one vertex in ``ones``.

    Vectorized: one segment gather plus one boolean mask.  Because each
    vertex in ``ones`` has current degree exactly one, the mask keeps
    exactly one entry per segment, in segment (= batch) order.
    """
    if ones.size == 1:  # sweeps of one candidate are the common cascade case
        flat = graph.neighbors(int(ones[0]))
    else:
        flat, _, _ = graph.row_segments(ones)
    alive = flat[deg[flat] >= 0]
    if alive.size != ones.size:
        raise ValueError("first_alive_neighbors requires vertices of current degree 1")
    return alive


def alive_pairs(graph: CSRGraph, deg: np.ndarray, twos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two alive neighbours ``(u, w)``, ``u < w``, of every vertex in ``twos``."""
    if twos.size == 1:
        flat = graph.neighbors(int(twos[0]))
    else:
        flat, _, _ = graph.row_segments(twos)
    alive = flat[deg[flat] >= 0]
    if alive.size != 2 * twos.size:
        raise ValueError("alive_pairs requires vertices of current degree 2")
    pairs = alive.reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


#: Pivot-neighbourhood size above which the scalar branch step hands the
#: deferred child's removal to the cheap batch kernel
#: (:func:`repro.graph.degree_array.remove_neighbors_batch_cheap`).  Below
#: it, walking the adjacency tuples in the interpreter is cheaper than the
#: kernel's fixed NumPy call overhead.  The value was measured on the dev
#: machine.
BRANCH_BATCH_MIN_LIVE = 40


def scalar_seed(deg: np.ndarray) -> Tuple[list, list, int]:
    """Initial rule candidates + max degree, scanned vectorized.

    Takes the NumPy degree array (still at hand before the scalar paths
    drop to a plain list) because three vectorized passes beat one
    interpreted loop even at small ``n``.
    """
    if deg.size == 0:
        return [], [], 0
    pending1 = np.flatnonzero(deg == 1).tolist()
    pending2 = np.flatnonzero(deg == 2).tolist()
    return pending1, pending2, int(deg.max())


def scalar_remove(adj: tuple, dl: list, u: int, pending1: list, pending2: list) -> int:
    """Remove ``u`` into the cover on a plain degree list; return edges deleted.

    Decremented neighbours arriving at a candidate degree are enqueued —
    each vertex reaches degree 1 (or 2) at most once (degrees only
    decrease), so the pending lists stay duplicate-free by construction.
    """
    dl[u] = REMOVED
    deleted = 0
    for x in adj[u]:
        dx = dl[x]
        if dx >= 0:
            deleted += 1
            dx -= 1
            dl[x] = dx
            if dx == 1:
                pending1.append(x)
            elif dx == 2:
                pending2.append(x)
    return deleted


def scalar_degree_one_exhaust(adj: tuple, dl: list, pending1: list, pending2: list) -> Tuple[int, int]:
    """Serial-order degree-one exhaust; returns ``(fires, edges_deleted)``.

    Per sweep, candidates are handled in ascending id order (a sort per
    sweep reproduces ``np.flatnonzero`` ordering) and revalidated against
    the current degree — exactly the reference rule's processing order.
    """
    fires = 0
    deleted = 0
    while pending1:
        cand = sorted(pending1)
        pending1.clear()
        for v in cand:
            if dl[v] != 1:
                continue
            for x in adj[v]:
                if dl[x] >= 0:
                    u = x
                    break
            deleted += scalar_remove(adj, dl, u, pending1, pending2)
            fires += 1
    return fires, deleted


def scalar_degree_two_exhaust(adj: tuple, dl: list, pending1: list, pending2: list) -> Tuple[int, int]:
    """Serial-order degree-two-triangle exhaust; ``fires`` counts rule
    applications (two cover vertices each).  Non-triangle candidates are
    dropped — their pair is frozen while their degree is, and any degree
    change re-enqueues them."""
    fires = 0
    deleted = 0
    while pending2:
        cand = sorted(pending2)
        pending2.clear()
        for v in cand:
            if dl[v] != 2:
                continue
            u = w = -1
            for x in adj[v]:
                if dl[x] >= 0:
                    if u < 0:
                        u = x
                    else:
                        w = x
                        break
            row = adj[u]
            i = bisect_left(row, w)
            if i >= len(row) or row[i] != w:
                continue
            deleted += scalar_remove(adj, dl, u, pending1, pending2)
            deleted += scalar_remove(adj, dl, w, pending1, pending2)
            fires += 1
    return fires, deleted


def scalar_high_degree_exhaust(
    adj: tuple,
    dl: list,
    pending1: list,
    pending2: list,
    budget_of,
    cover: int,
    max_deg: int,
) -> Tuple[int, int, int]:
    """High-degree exhaust on a degree list; returns ``(fires, edges, max_deg)``.

    ``max_deg`` is a stale-high bound on the maximum alive degree (exact
    at entry, recomputed whenever a scan comes up empty), which skips the
    O(n) budget scan entirely while the budget is slack.  The budget is
    re-evaluated per sweep at ``budget_of(cover + fires)``, matching the
    reference rule.
    """
    fires = 0
    deleted = 0
    while True:
        budget = budget_of(cover + fires)
        if budget < 0 or max_deg <= budget:
            return fires, deleted, max_deg
        targets = [v for v, d in enumerate(dl) if d > budget]
        if not targets:
            # exact again; REMOVED entries are negative
            return fires, deleted, (max(dl) if dl else 0)
        for u in targets:
            deleted += scalar_remove(adj, dl, u, pending1, pending2)
        fires += len(targets)


def _apply_reductions_scalar(
    graph: CSRGraph,
    state: VCState,
    formulation: Formulation,
    counters: Optional[ReductionCounters] = None,
    hint=None,
) -> None:
    """The reduction cascade in pure Python (the ``scalar`` backend).

    Identical sweep structure and processing order as the reference rules
    (same fixpoint, same counters), built from the shared scalar exhausts
    above — the greedy bound reuses the very same loops.

    ``hint`` is the branch step's touched-vertex set (see
    ``VCState.dirty``): when present, the pending lists are seeded from it
    instead of rescanning all ``n`` degrees.  Exactness: the parent node
    was at a rule fixpoint when it branched, so every degree-one vertex of
    this state — and every degree-two vertex whose triangle test could now
    pass — was decremented into candidate range by the branch removals and
    is therefore in the hint; degree-two vertices absent from it kept both
    their degree and their (statically non-triangle) alive pair and can
    never fire.
    """
    deg = state.deg
    if hint is None:
        pending1, pending2, max_deg = scalar_seed(deg)
    else:
        if isinstance(hint, np.ndarray):
            # plain ints: np.int64 keys make every later list index pay a
            # conversion, poisoning the whole cascade's inner loops
            hint = hint.tolist()
        pending1 = []
        pending2 = []
        for v in hint:
            dv = deg[v]
            if dv == 2:
                pending2.append(v)
            elif dv == 1:
                pending1.append(v)
        max_deg = state.max_deg_hint  # ancestor's stale-high bound
        if max_deg < 0:
            max_deg = int(deg.max()) if deg.size else 0
    cover = state.cover_size
    edges = state.edge_count
    budget_of = formulation.budget
    if not pending1 and not pending2:
        budget = budget_of(cover)
        if budget < 0 or max_deg <= budget:
            # No rule can fire: the reference cascade would do one empty
            # round and stop.  Skip the list conversion entirely.
            state.max_deg_hint = max_deg
            if counters is not None:
                counters.sweeps += 1
            return
    dl = deg.tolist()
    adj = graph.adjacency_tuples()
    c1 = c2 = ch = sweeps = 0
    while True:
        f1, e1 = scalar_degree_one_exhaust(adj, dl, pending1, pending2)
        f2, e2 = scalar_degree_two_exhaust(adj, dl, pending1, pending2)
        cover += f1 + 2 * f2
        fh, eh, max_deg = scalar_high_degree_exhaust(
            adj, dl, pending1, pending2, budget_of, cover, max_deg
        )
        cover += fh
        edges -= e1 + e2 + eh
        c1 += f1
        c2 += 2 * f2
        ch += fh
        sweeps += 1
        if not (f1 or f2 or fh):
            break
    if c1 or c2 or ch:  # nothing fired -> dl is untouched
        deg[:] = dl
        state.cover_size = cover
        state.edge_count = edges
    state.max_deg_hint = max_deg  # stale-high at the fixpoint: sound for children
    if counters is not None:
        counters.degree_one += c1
        counters.degree_two_triangle += c2
        counters.high_degree += ch
        counters.sweeps += sweeps


#: Lazily-bound resolver from :mod:`repro.core.kernel_backends`.  That
#: module imports this one at module level, so the reverse import must
#: happen at first call, never at import time.
_resolve_kernels = None


def apply_reductions_fast(
    graph: CSRGraph,
    state: VCState,
    formulation: Formulation,
    ws: Optional[Workspace] = None,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
    kernels=None,
) -> None:
    """Fig. 1's ``reduce``, dispatched through the ``KERNELS`` registry.

    Reaches the exact fixpoint (``deg``, ``cover_size``, ``edge_count``,
    counters included) of :func:`repro.core.reductions.apply_reductions_reference`
    for **every** registered backend.  ``kernels`` selects one — a
    registry name, a :class:`~repro.core.kernel_backends.KernelBackend`
    instance, or ``None`` for the default (``auto``: the compiled
    ``native`` backend when it loads, else ``scalar``).  Charged runs
    always take the reference rules, whose charge stream is the work
    meter, whatever backend was selected.

    The state's ``dirty`` hint (populated by ``expand_children`` with the
    branch step's touched vertices) seeds the cascade's worklists, making
    a child node's reduce start from O(touched) work instead of an O(n)
    rescan.  The hint is consumed by the backend's shared ``cascade``
    entry — cleared before the cascade runs — so it can never go stale on
    a reduced state.
    """
    global _resolve_kernels
    if _resolve_kernels is None:
        from .kernel_backends import resolve_kernels as _resolve_kernels  # noqa: F811
    _resolve_kernels(kernels).cascade(graph, state, formulation, ws, charge, counters)
