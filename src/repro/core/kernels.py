"""Vectorized reduction kernels over a dirty-vertex worklist (hot path).

The serial rules in :mod:`repro.core.reductions` are the paper's semantics
written for clarity: every sweep rescans the whole degree array
(``np.flatnonzero(deg == k)``) and walks each candidate's adjacency row in
Python.  On the graphs every experiment runs through, that makes the
reduction cascade interpreter-bound.  This module is the same cascade
rebuilt on two ideas:

* **batched candidate resolution** — each sweep gathers the adjacency rows
  of *all* candidates at once (:meth:`CSRGraph.row_segments`), extracts
  every degree-one vertex's forced neighbour / every degree-two vertex's
  alive pair with one boolean mask, and answers all triangle adjacency
  probes with a single binary search (:meth:`CSRGraph.has_edges`);
* **a dirty-vertex worklist** — removals push every decremented neighbour
  into per-rule :class:`~repro.graph.degree_array.DirtyQueue` instances, so
  after the initial seed scan a sweep only re-examines vertices whose
  degree actually changed, eliminating the O(n)-per-sweep full scans.

``apply_reductions_fast`` is a drop-in replacement for the reference
cascade and reaches a **bit-identical fixpoint**: the same ``deg`` array,
``cover_size``, ``edge_count`` and reduction counters.  The equivalence
argument, relied on by the property tests in ``tests/test_kernels.py``:

1. Degrees only ever decrease.  If a degree-one vertex ``v`` still has
   ``deg[v] == 1`` when its turn comes, none of its alive neighbours was
   removed since the sweep snapshot, so the forced neighbour computed at
   the snapshot is still *the* alive neighbour.  The same holds for a
   degree-two vertex's alive pair, and the triangle test is a property of
   the static CSR graph.  Snapshot-batched resolution with per-candidate
   revalidation (``deg[v]`` unchanged) is therefore exactly the serial
   processing order.
2. A serial sweep's rescan finds (a) candidates that kept their degree and
   did not fire — which can never fire later either (their neighbourhood
   is frozen while their degree is), so dropping them is invisible — and
   (b) vertices whose degree just became 1 (or 2) — which the dirty queues
   capture by construction.  Queue draining in ascending id order matches
   ``np.flatnonzero``'s ordering.

Only the high-degree rule still scans the full array per sweep: its
eligibility depends on the shrinking budget, not on degree changes, so a
degree-keyed worklist cannot drive it (the scan is one vectorized compare).

Charge accounting: the fast kernels report candidates-examined and
removal work in the same activity kinds as the reference rules, but not
call-for-call — the cost-model instrumented paths
(:mod:`repro.analysis.sequential_sim`, the sim engines) keep using the
reference/parallel rules, which are the paper's work-unit meters.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import (
    REMOVED,
    DirtyQueue,
    VCState,
    Workspace,
    remove_vertex_into_cover,
    remove_vertices_into_cover,
)
from .formulation import Formulation
from .stats import ChargeFn, ReductionCounters, null_charge

__all__ = [
    "first_alive_neighbors",
    "alive_pairs",
    "degree_one_kernel",
    "degree_two_triangle_kernel",
    "high_degree_kernel",
    "apply_reductions_fast",
    "scalar_seed",
    "scalar_remove",
    "scalar_degree_one_exhaust",
    "scalar_degree_two_exhaust",
    "scalar_high_degree_exhaust",
    "scalar_path_ok",
]

_Queues = Tuple[DirtyQueue, DirtyQueue]


def _drain_candidates(queue: DirtyQueue, deg: np.ndarray, target: int) -> np.ndarray:
    """Current rule candidates: pending dirty vertices with ``deg == target``.

    When the raw (duplicate-tolerant) queue outgrew a quarter of the
    graph, deduplicating it costs more than the one vectorized compare of
    a full scan — and the queue invariant (every vertex at ``target`` is
    pending) makes the scan return exactly the same set.
    """
    if queue.count > (deg.size >> 2):
        queue.clear()
        return np.flatnonzero(deg == target)
    cand = queue.drain_sorted()
    if cand.size:
        cand = cand[deg[cand] == target]
    return cand


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


def _fire_degree_one_sweep(
    graph: CSRGraph,
    state: VCState,
    ws: Workspace,
    cand: np.ndarray,
    forced: np.ndarray,
    dirty: _Queues,
) -> int:
    """Fire a whole degree-one sweep in batch; return the fire count.

    Serial semantics: candidates process in ascending order and candidate
    ``v_j`` fires iff no earlier fire changed its degree.  Because every
    candidate has degree exactly one (its sole alive neighbour being its
    forced vertex ``u_j``), an earlier fire — the removal of some ``u_i``
    — can only affect ``v_j`` through *id equality*: ``u_i == u_j``
    (shared forced vertex) or ``u_i == v_j`` (isolated edge).  Other
    adjacency is irrelevant: ``u_i`` alive-adjacent to ``v_j`` would mean
    ``u_i ∈ N_alive(v_j) = {u_j}``.

    So candidates whose forced vertex is unique and not itself a candidate,
    and who are nobody's forced vertex, always fire and never interfere —
    they form one batch removal (equivalent to firing them one by one).
    The rare *suspicious* remainder is replayed in order against a plain
    id set.  The two groups provably cannot interact, and removals of a
    fixed set commute, so the fixpoint is bit-identical to the serial rule.
    """
    deg = state.deg
    f64 = forced.astype(np.int64)
    uniq, inv, counts = np.unique(f64, return_inverse=True, return_counts=True)
    dup = counts[inv] > 1
    in_cand = ws.in_batch
    in_cand[cand] = True
    forced_is_cand = in_cand[f64]
    in_cand[cand] = False
    pos = np.minimum(np.searchsorted(uniq, cand), uniq.size - 1)
    cand_is_forced = uniq[pos] == cand
    suspicious = dup | forced_is_cand | cand_is_forced
    if suspicious.any():
        batch = f64[~suspicious]
        susp_idx = np.flatnonzero(suspicious).tolist()
    else:
        batch = f64
        susp_idx = ()
    fired = int(batch.size)
    if fired:
        state.edge_count -= remove_vertices_into_cover(graph, deg, batch, ws, dirty=dirty)
    if susp_idx:
        removed: set = set()
        cand_ids = cand.tolist()
        forced_ids = f64.tolist()
        for j in susp_idx:
            v = cand_ids[j]
            u = forced_ids[j]
            if v in removed or u in removed:
                continue  # an earlier suspicious fire consumed v or u
            removed.add(u)
            state.edge_count -= remove_vertex_into_cover(graph, deg, u, dirty)
            fired += 1
    state.cover_size += fired
    return fired


def degree_one_kernel(
    graph: CSRGraph,
    state: VCState,
    ws: Workspace,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
    queues: Optional[_Queues] = None,
) -> bool:
    """Exhaust the degree-one rule over the dirty worklist; True if changed.

    Serial-equivalent: candidates drain in ascending id order, each is
    revalidated (``deg[v] == 1``) at its turn, and its snapshot-computed
    forced neighbour is removed exactly as the reference rule would.
    """
    deg = state.deg
    dirty = queues if queues is not None else ws.dirty_queues()
    d1 = dirty[0]
    if queues is None:  # standalone use: seed from a full scan
        d1.seed(np.flatnonzero(deg == 1))
    charging = charge is not null_charge
    changed = False
    while True:
        cand = _drain_candidates(d1, deg, 1)
        if charging:
            charge("degree_one", float(cand.size))
        if cand.size == 0:
            return changed
        forced = first_alive_neighbors(graph, deg, cand)

        if not charging and cand.size > 1:
            # Resolve the whole sweep in batch (per-fire work charges need
            # the sequential path below instead).
            fired = _fire_degree_one_sweep(graph, state, ws, cand, forced, dirty)
            if counters is not None:
                counters.degree_one += fired
            changed = True
            continue

        cand_ids = cand.tolist()
        forced_ids = forced.tolist()
        fired = 0
        work = 0
        for i in range(len(cand_ids)):
            v = cand_ids[i]
            if deg[v] != 1:
                continue  # an earlier removal in this sweep changed v
            u = forced_ids[i]
            if charging:
                work += int(deg[u])
            state.edge_count -= remove_vertex_into_cover(graph, deg, u, dirty)
            state.cover_size += 1
            fired += 1
        if charging:
            charge("degree_one", float(work))
        if counters is not None:
            counters.degree_one += fired
        if fired == 0:
            return changed
        changed = True


def degree_two_triangle_kernel(
    graph: CSRGraph,
    state: VCState,
    ws: Workspace,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
    queues: Optional[_Queues] = None,
) -> bool:
    """Exhaust the degree-two-triangle rule over the dirty worklist.

    Alive pairs and all triangle adjacency probes are resolved in batch
    from the sweep snapshot; only statically confirmed triangles enter the
    (revalidated, ascending-order) removal loop.  Candidates whose pair is
    not a triangle are dropped — their pair cannot change while their
    degree stays 2, and any degree change re-enqueues them.
    """
    deg = state.deg
    dirty = queues if queues is not None else ws.dirty_queues()
    d2 = dirty[1]
    if queues is None:  # standalone use: seed from a full scan
        d2.seed(np.flatnonzero(deg == 2))
    charging = charge is not null_charge
    changed = False
    while True:
        cand = _drain_candidates(d2, deg, 2)
        if charging:
            charge("degree_two_triangle", float(cand.size))
        if cand.size == 0:
            return changed
        u, w = alive_pairs(graph, deg, cand)
        tri = graph.has_edges(u, w)
        if not tri.any():
            return changed
        cand_ids = cand[tri].tolist()
        u_ids = u[tri].tolist()
        w_ids = w[tri].tolist()
        fired = 0
        work = 0
        for i in range(len(cand_ids)):
            v = cand_ids[i]
            if deg[v] != 2:
                continue  # lost its triangle partner to an earlier removal
            uu = u_ids[i]
            ww = w_ids[i]
            if charging:
                work += int(deg[uu]) + int(deg[ww])
            # Removing {u, w} sequentially equals the batch removal: u's
            # removal already decrements w, so the uw edge is counted once.
            state.edge_count -= remove_vertex_into_cover(graph, deg, uu, dirty)
            state.edge_count -= remove_vertex_into_cover(graph, deg, ww, dirty)
            state.cover_size += 2
            fired += 1
        if charging:
            charge("degree_two_triangle", float(work))
        if counters is not None:
            counters.degree_two_triangle += 2 * fired
        if fired == 0:
            return changed
        changed = True


def high_degree_kernel(
    graph: CSRGraph,
    state: VCState,
    formulation: Formulation,
    ws: Workspace,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
    queues: Optional[_Queues] = None,
) -> bool:
    """The high-degree rule, feeding the dirty queues of the cheap rules.

    Identical to the reference rule (it was already one vectorized scan
    and one batch removal per sweep); eligibility depends on the budget,
    so the full-array compare stays.
    """
    deg = state.deg
    dirty = queues if queues is not None else ws.dirty_queues()
    charging = charge is not null_charge
    changed = False
    while True:
        budget = formulation.budget(state.cover_size)
        if budget < 0:
            return changed
        targets = np.flatnonzero(deg > budget)
        if charging:
            charge("high_degree", float(deg.size))
        if targets.size == 0:
            return changed
        if charging:
            charge("high_degree", float(deg[targets].sum()))
        state.edge_count -= remove_vertices_into_cover(graph, deg, targets, ws, dirty=dirty)
        state.cover_size += int(targets.size)
        if counters is not None:
            counters.high_degree += int(targets.size)
        changed = True


#: Largest graph handled by the scalar (pure-Python) reduction cascade.
#: Below these bounds, interpreter arithmetic over cached adjacency tuples
#: beats vectorized sweeps — every NumPy call costs more than walking a
#: whole small adjacency row.  Above either, the batched kernels take
#: over: the edge cap matters because the scalar loops walk full rows, so
#: a dense mid-size graph (small ``n``, huge ``m``) must stay vectorized.
#: The values were hand-tuned; ``auto`` consults them (through
#: :func:`scalar_path_ok`) only when the compiled extension is missing.
SCALAR_KERNEL_MAX_N = 2048
SCALAR_KERNEL_MAX_M = 1 << 16

#: Pivot-neighbourhood size above which the scalar branch step hands the
#: deferred child's removal to the cheap batch kernel
#: (:func:`repro.graph.degree_array.remove_neighbors_batch_cheap`).  Below
#: it, walking the adjacency tuples in the interpreter is cheaper than the
#: kernel's fixed NumPy call overhead.  The value was measured on the dev
#: machine.
BRANCH_BATCH_MIN_LIVE = 40


def scalar_path_ok(n: int, m: int) -> bool:
    """Whether a graph of ``n`` vertices / ``m`` edges takes the scalar path.

    Reads the module globals at call time, so a test monkeypatching
    ``SCALAR_KERNEL_MAX_N`` steers every caller: ``auto`` routes its
    fallback choice (no compiled extension) through here.
    """
    return n <= SCALAR_KERNEL_MAX_N and m <= SCALAR_KERNEL_MAX_M


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
    """The reduction cascade in pure Python for small graphs.

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


def _apply_reductions_vectorized(
    graph: CSRGraph,
    state: VCState,
    formulation: Formulation,
    ws: Workspace,
    charge: ChargeFn = null_charge,
    counters: Optional[ReductionCounters] = None,
    hint=None,
) -> None:
    """The vectorized dirty-worklist cascade (large graphs / charged runs).

    With a ``hint`` (the branch step's touched-vertex set) the worklists
    are seeded from it instead of one full degree scan; exactness follows
    the same argument as the scalar path's hint seeding.  The workspace's
    dirty queues are per-cascade scratch: seeding resets them, and the
    trailing assert guarantees no pending vertex survives into the next
    tree node's cascade, whatever path the loop exits through.
    """
    deg = state.deg
    queues = ws.dirty_queues()
    d1, d2 = queues
    if hint is None:
        seed = np.flatnonzero((deg >= 1) & (deg <= 2))  # one scan seeds both rules
    else:
        seed = np.asarray(hint, dtype=np.int64)
        if seed.size:
            sd = deg[seed]
            seed = seed[(sd >= 1) & (sd <= 2)]
    d1.seed(seed)
    d2.seed(seed)
    while True:
        changed = degree_one_kernel(graph, state, ws, charge, counters, queues)
        changed |= degree_two_triangle_kernel(graph, state, ws, charge, counters, queues)
        changed |= high_degree_kernel(graph, state, formulation, ws, charge, counters, queues)
        if counters is not None:
            counters.sweeps += 1
        if not changed:
            break
    if d1.count or d2.count:  # pragma: no cover - structural invariant
        raise AssertionError(
            "dirty-queue hygiene violated: a cascade returned with pending "
            "vertices that would leak into the next tree node's reduce"
        )


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
    instance, or ``None`` for the process default (``auto``, which picks
    the compiled ``native`` backend when it loads and the legacy
    scalar-cutoff rule otherwise).  Charged runs always
    take the vectorized path so work accounting stays array-shaped,
    whatever backend was selected.

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
