"""Degree-array representation of intermediate graphs.

The paper (Section IV-B) represents each search-tree node's state ``(G', S)``
with a single *degree array*: one entry per original vertex, holding the
vertex's current degree if it is still in the graph or a sentinel if it has
been removed and added to the solution ``S``.  Combined with the immutable
CSR graph this is self-contained, which is what allows tree nodes to travel
through the global worklist between thread blocks.

This module provides the representation plus the batched removal operations
every engine uses.  All operations mutate ``deg`` in place and return the
number of edges they deleted so that callers can maintain an incremental
edge count (the paper keeps an analogous deleted-vertex counter).

A pooled degree-array buffer on :class:`Workspace`
(:meth:`Workspace.borrow_deg` / :meth:`Workspace.release_deg`) lives here
as well, so the branch step's state copies recycle buffers instead of
allocating a fresh array per tree node.

Removal validation (duplicate / already-removed batch members) is off on
the hot path; pass ``debug=True`` to re-enable it, as the tests do.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = [
    "REMOVED",
    "Workspace",
    "VCState",
    "WIRE_VERSION_V2",
    "state_codec",
    "fresh_state",
    "alive_vertices",
    "cover_vertices",
    "recompute_edge_count",
    "remove_vertex_into_cover",
    "remove_vertices_into_cover",
    "remove_neighbors_into_cover",
    "remove_neighbors_batch_cheap",
    "alive_neighbors",
    "max_degree_vertex",
]

#: Sentinel degree value marking "removed from the graph, added to S".
REMOVED: int = -1

#: Leading version byte of a codec-v2 frame.
WIRE_VERSION_V2 = 2

#: v2 frame header: version (B), mode (B: 0 dense / 1 sparse), pad (6x),
#: |S| (q), |E| (q), max_deg_hint (q), dirty count (q; -1 = no hint).
_WIRE_V2_HEADER = struct.Struct("<BB6xqqqq")
_WIRE_V2_COUNT = struct.Struct("<q")

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)

#: Upper bound on pooled degree arrays kept per workspace.
_DEG_POOL_CAP = 64


@dataclass
class Workspace:
    """Reusable scratch buffers sized to one graph.

    Allocating boolean masks per operation dominates runtime for small
    graphs; engines allocate one workspace per traversal and reuse it
    (the HPC guides' "be easy on the memory" rule).  Besides the batch
    mask this carries a two-slot pair buffer (the degree-two-triangle
    rules' ``{u, w}`` batches) and a bounded pool of recycled degree
    arrays for the branch step's state copies.
    """

    n: int
    in_batch: np.ndarray = field(init=False)
    pair_buf: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.in_batch = np.zeros(self.n, dtype=bool)
        self.pair_buf = np.empty(2, dtype=np.int64)
        self._deg_pool: List[np.ndarray] = []

    @classmethod
    def for_graph(cls, graph: CSRGraph) -> "Workspace":
        return cls(graph.n)

    def borrow_deg(self) -> np.ndarray:
        """A degree-array buffer: recycled if available, else freshly allocated."""
        if self._deg_pool:
            return self._deg_pool.pop()
        return np.empty(self.n, dtype=np.int32)

    def release_deg(self, deg: np.ndarray) -> None:
        """Return a dead state's degree array to the pool.

        The caller asserts exclusive ownership: nothing may read ``deg``
        after this call.  Foreign arrays (wrong size/dtype, read-only) are
        silently dropped so callers need not special-case them.
        """
        if (
            deg.size == self.n
            and deg.dtype == np.int32
            and deg.flags.writeable
            and len(self._deg_pool) < _DEG_POOL_CAP
        ):
            self._deg_pool.append(deg)


@dataclass
class VCState:
    """A self-contained search-tree node: ``(degree array, |S|, |E|)``.

    ``deg[v] == REMOVED`` iff ``v`` has been placed in the cover.  Vertices
    of degree zero remain in the graph but are irrelevant to any cover.

    ``dirty`` is the cross-node dirty-propagation hint: the vertices whose
    degree the branch step decremented into candidate range (``<= 2``) when
    this node was created, or ``None`` when unknown (the root, or a state
    whose provenance was lost).  A reducer that honours the hint seeds its
    worklist from it instead of rescanning all ``n`` degrees; every reducer
    — honouring or not — *consumes* it (sets it back to ``None``), so a
    hint can never outlive the one reduction cascade it describes.  The
    hint is advisory: ``None`` always means "full rescan" and stays exact.
    It may be a plain list (scalar branch path) or an int64 array
    (compiled branch step, batch kernel); duplicates are allowed.

    ``max_deg_hint`` is a companion *stale-high* bound on the maximum
    alive degree (or ``-1`` for unknown): degrees only ever decrease down
    a subtree, so an ancestor's post-reduce maximum bounds every
    descendant's, letting the scalar cascade skip its ``deg.max()`` seed
    scan.  Stale-high is sound — at worst the high-degree rule performs
    one scan that finds nothing and re-tightens the bound.
    """

    deg: np.ndarray
    cover_size: int
    edge_count: int
    dirty: Optional[Sequence[int] | np.ndarray] = None
    max_deg_hint: int = -1

    def copy(self, ws: Optional["Workspace"] = None) -> "VCState":
        """A deep copy — pushed states must not alias the working state.

        With a workspace, the degree array comes from its buffer pool
        (filled by :meth:`Workspace.release_deg` when states die), which
        keeps the branch step allocation-free in steady state.  The dirty
        hint is shared by reference: it is read-only by contract and both
        copies describe the same pending cascade.
        """
        if ws is not None and ws.n == self.deg.size:
            buf = ws.borrow_deg()
            np.copyto(buf, self.deg)
            return VCState(buf, self.cover_size, self.edge_count, self.dirty,
                           self.max_deg_hint)
        return VCState(self.deg.copy(), self.cover_size, self.edge_count, self.dirty,
                       self.max_deg_hint)

    def cover(self) -> np.ndarray:
        """The cover ``S`` encoded by the sentinel entries."""
        return cover_vertices(self.deg)

    def to_wire_v2(self, root_deg: np.ndarray) -> bytes:
        """Serialize as one delta-encoded, version-tagged frame (codec v2).

        The one state codec (Section IV-B's self-contained node), on the
        wire and in checkpoints.  It carries every cross-node field, so a
        donated child reduces on the receiver exactly as on the producer;
        a new ``VCState`` field is added here and in the compiled twin.

        ``root_deg`` is the root degree plane — the degree vector of the
        *fresh* state, which every attached worker shares (see
        :mod:`repro.graph.plane`).  Near the top of the search tree almost
        every entry still matches it, so the frame ships sparse
        ``(idx, val)`` pairs instead of the full ``deg`` array; when the
        delta stops paying (``8·nnz >= 4·n``) the frame degrades to the
        dense array plus the fixed header.  Byte 0 is the codec version,
        so a receiver can refuse frames it does not speak.
        """
        deg = self.deg
        n = deg.shape[0]
        changed = np.flatnonzero(deg != root_deg)
        sparse = changed.size * 8 < n * 4
        dirty = self.dirty
        if dirty is None:
            dirty_arr = None
            dirty_count = -1
        else:
            dirty_arr = np.asarray(dirty, dtype=np.int64)
            dirty_count = dirty_arr.size
        parts = [_WIRE_V2_HEADER.pack(WIRE_VERSION_V2, 1 if sparse else 0,
                                      self.cover_size, self.edge_count,
                                      self.max_deg_hint, dirty_count)]
        if dirty_arr is not None:
            parts.append(dirty_arr.tobytes())
        if sparse:
            parts.append(_WIRE_V2_COUNT.pack(changed.size))
            parts.append(changed.astype(np.int32).tobytes())
            parts.append(deg[changed].tobytes())
        else:
            parts.append(deg.tobytes())
        return b"".join(parts)

    @classmethod
    def from_wire_v2(cls, frame: bytes, root_deg: np.ndarray) -> "VCState":
        """Rebuild a state from a codec-v2 frame against the root plane;
        refuses with ``ValueError`` exactly what ``wire_decode`` refuses."""
        n = root_deg.shape[0]
        size = len(frame)
        if size < _WIRE_V2_HEADER.size or frame[0] != WIRE_VERSION_V2 or frame[1] > 1:
            raise ValueError("not a codec-v2 frame")
        _, mode, cover_size, edge_count, max_deg_hint, dirty_count = \
            _WIRE_V2_HEADER.unpack_from(frame, 0)
        off = _WIRE_V2_HEADER.size
        if not -1 <= dirty_count <= (size - off) // 8:
            raise ValueError("codec-v2 frame: bad dirty count")
        dirty: Optional[np.ndarray] = None
        if dirty_count >= 0:
            dirty = np.frombuffer(frame, dtype=np.int64, count=dirty_count,
                                  offset=off)
            off += dirty_count * 8
        if mode == 1:
            nnz = _WIRE_V2_COUNT.unpack_from(frame, off)[0] if size - off >= 8 else -1
            if not 0 <= nnz <= (size - off - 8) // 8:
                raise ValueError("codec-v2 frame: bad entry count")
            off += _WIRE_V2_COUNT.size
            idx = np.frombuffer(frame, dtype=np.int32, count=nnz, offset=off)
            val = np.frombuffer(frame, dtype=np.int32, count=nnz, offset=off + 4 * nnz)
            if nnz and not (0 <= idx.min() and idx.max() < n):
                raise ValueError(f"codec-v2 frame: entry out of range for n={n}")
            deg = np.array(root_deg, dtype=np.int32, copy=True)
            deg[idx] = val
        else:
            if size - off < 4 * n:
                raise ValueError("codec-v2 frame: short degree array")
            deg = np.frombuffer(frame, dtype=np.int32, count=n, offset=off).copy()
        return cls(deg, cover_size, edge_count, dirty, max_deg_hint)

    def n_alive(self) -> int:
        return int(np.count_nonzero(self.deg >= 0))

    def validate(self, graph: CSRGraph) -> None:
        """Raise if the incremental counters disagree with the array."""
        actual_cover = int(np.count_nonzero(self.deg == REMOVED))
        if actual_cover != self.cover_size:
            raise AssertionError(
                f"cover_size={self.cover_size} but {actual_cover} sentinel entries"
            )
        actual_edges = recompute_edge_count(graph, self.deg)
        if actual_edges != self.edge_count:
            raise AssertionError(
                f"edge_count={self.edge_count} but array encodes {actual_edges}"
            )


def fresh_state(graph: CSRGraph) -> VCState:
    """The root tree node: nothing removed, all static degrees intact."""
    return VCState(graph.degrees.astype(np.int32).copy(), 0, graph.m)


def state_codec(
    root_deg: np.ndarray,
) -> Tuple[Callable[[VCState], bytes], Callable[[bytes], VCState]]:
    """The ``(encode, decode)`` pair of codec-v2 frames against ``root_deg``
    that the wire and checkpoints call: the compiled, byte-identical
    ``wire_encode``/``wire_decode`` when the extension loads (resolved
    here, so importing this module loads nothing), else the Python pair."""
    from ..core import native

    ext = native.load()
    if ext is None:
        return (lambda s: s.to_wire_v2(root_deg)), \
               (lambda f: VCState.from_wire_v2(f, root_deg))
    encode, decode = ext.wire_encode, ext.wire_decode
    return (lambda s: encode(s.deg, s.cover_size, s.edge_count, s.dirty,
                             s.max_deg_hint, root_deg)), \
           (lambda f: VCState(*decode(f, root_deg)))


def alive_vertices(deg: np.ndarray) -> np.ndarray:
    """Vertices still present in the intermediate graph."""
    return np.flatnonzero(deg >= 0).astype(np.int32)


def cover_vertices(deg: np.ndarray) -> np.ndarray:
    """Vertices removed into the cover (sentinel entries)."""
    return np.flatnonzero(deg == REMOVED).astype(np.int32)


def recompute_edge_count(graph: CSRGraph, deg: np.ndarray) -> int:
    """Reference ``|E(G')|`` from scratch: half the alive degree sum.

    Used by validation and tests; engines track the count incrementally.
    """
    alive = deg >= 0
    return int(deg[alive].sum()) // 2


def alive_neighbors(graph: CSRGraph, deg: np.ndarray, v: int) -> np.ndarray:
    """Neighbours of ``v`` still present in the intermediate graph."""
    nbrs = graph.neighbors(v)
    return nbrs[deg[nbrs] >= 0]


def remove_vertex_into_cover(
    graph: CSRGraph,
    deg: np.ndarray,
    v: int,
) -> int:
    """Remove one alive vertex into the cover; return edges deleted.

    Mirrors the paper's single-vertex removal (Fig. 4 lines 27-28): set the
    sentinel, then decrement every alive neighbour's degree.
    """
    dv = int(deg[v])
    if dv < 0:
        raise ValueError(f"vertex {v} already removed")
    deg[v] = REMOVED
    if dv:
        nbrs = graph.neighbors(v)
        live = nbrs[deg[nbrs] >= 0]
        deg[live] -= 1
    return dv


def remove_vertices_into_cover(
    graph: CSRGraph,
    deg: np.ndarray,
    verts: Sequence[int] | np.ndarray,
    ws: Optional[Workspace] = None,
    *,
    debug: bool = False,
) -> int:
    """Remove a *set* of alive vertices into the cover in one batch.

    Returns the number of edges deleted.  Edges internal to the batch are
    deleted once even though both endpoints vanish; duplicate appearance of
    an external neighbour across several batch members is handled with
    ``np.subtract.at`` since each occurrence is a distinct edge.

    This is hot-path code: batch sanity checks (no duplicates, no
    already-removed members) only run under ``debug=True``.
    """
    verts = np.asarray(verts, dtype=np.int64)
    if verts.size == 0:
        return 0
    if verts.size == 1:
        return remove_vertex_into_cover(graph, deg, int(verts[0]))
    if debug:
        if np.unique(verts).size != verts.size:
            raise ValueError("batch contains duplicate vertices")
        if np.any(deg[verts] < 0):
            raise ValueError("batch contains an already-removed vertex")
    if ws is None:
        ws = Workspace(deg.size)
    in_batch = ws.in_batch
    in_batch[verts] = True
    sum_deg = int(deg[verts].sum())
    # Gather all incident half-edges of the batch in one segment gather.
    # Widened once: int32 index arrays put every downstream gather on
    # NumPy's slow buffered path (see remove_neighbors_batch_cheap).
    nbrs_all, _, _ = graph.row_segments(verts)
    nbrs_all = nbrs_all.astype(np.int64)
    alive_mask = deg[nbrs_all] >= 0
    internal_half_edges = int(np.count_nonzero(alive_mask & in_batch[nbrs_all]))
    external = nbrs_all[alive_mask & ~in_batch[nbrs_all]]
    if external.size:
        # np.subtract.at is an order of magnitude slower than a bincount
        # whenever the batch touches a sizeable fraction of the graph.
        if deg.size <= (external.size << 4):
            counts = np.bincount(external, minlength=deg.size)
            np.subtract(deg, counts, out=deg, casting="unsafe")
        else:
            np.subtract.at(deg, external, 1)
    deg[verts] = REMOVED
    in_batch[verts] = False  # restore scratch
    # Each internal edge contributed one unit to both endpoints' degrees.
    return sum_deg - internal_half_edges // 2


def remove_neighbors_into_cover(
    graph: CSRGraph,
    deg: np.ndarray,
    v: int,
    ws: Optional[Workspace] = None,
) -> Tuple[int, int]:
    """Remove all alive neighbours of ``v`` into the cover (Fig. 4 lines 21-22).

    Returns ``(edges_deleted, n_removed)``.  ``v`` itself stays in the graph
    and necessarily ends with degree zero.

    Routed through :func:`remove_neighbors_batch_cheap` — one adjacency
    gather and one in-batch mask shared by the alive filter, the internal
    edge count and the decrement.  The pre-fusion
    two-stage path (``alive_neighbors`` + the general batch removal) is
    kept as :func:`_remove_neighbors_reference`, the equivalence oracle
    and the A side of the ``remove_neighbors_fused`` pair in
    ``BENCH_micro.json``.
    """
    if ws is None:
        ws = Workspace(deg.size)
    deleted, n_removed, _ = remove_neighbors_batch_cheap(graph, deg, v, ws)
    return deleted, n_removed


def _remove_neighbors_reference(
    graph: CSRGraph,
    deg: np.ndarray,
    v: int,
    ws: Optional[Workspace] = None,
) -> Tuple[int, int]:
    """Pre-fusion neighbourhood removal: gather ``N_alive(v)``, then batch.

    Semantically :func:`remove_neighbors_into_cover`; pays a second
    adjacency mask (the ``alive_neighbors`` pre-pass) plus the general
    batch path's size dispatch and scratch bookkeeping.  Kept as the
    property-test oracle and interleaved A/B baseline.
    """
    live = alive_neighbors(graph, deg, v)
    if live.size == 0:
        return 0, 0
    deleted = remove_vertices_into_cover(graph, deg, live, ws)
    return deleted, int(live.size)


def remove_neighbors_batch_cheap(
    graph: CSRGraph,
    deg: np.ndarray,
    v: int,
    ws: Workspace,
) -> Tuple[int, int, np.ndarray]:
    """Neighbourhood removal stripped to the branch step's needs.

    Semantically :func:`remove_neighbors_into_cover`, plus the touched set
    the branch step hands to the child's cascade — returned raw
    (duplicates possible, unordered, no ``np.unique``), which the
    dirty-hint contract explicitly permits.  Returns
    ``(edges_deleted, n_removed, touched)`` where ``touched`` holds the
    external vertices left in candidate range (``deg <= 2``).

    The previous handoff of the deferred child to the general batch path
    measured *slower* than the scalar loop at n≈50 precisely because of
    those two overheads; this kernel is what makes batching win at
    moderate pivot degrees (the remaining crossover is
    ``kernels.BRANCH_BATCH_MIN_LIVE``).
    """
    nbrs = graph.neighbors(v)
    live = nbrs[deg[nbrs] >= 0]
    k = int(live.size)
    if k == 0:
        return 0, 0, _EMPTY_I64
    if k == 1:
        u = int(live[0])
        deleted = remove_vertex_into_cover(graph, deg, u)
        ext = graph.neighbors(u).astype(np.int64)
        de = deg[ext]
        return deleted, 1, ext[(de >= 0) & (de <= 2)]
    # One upfront widening pays for every gather below: NumPy's fancy
    # indexing takes a ~3x slower buffered path for non-native (int32)
    # index arrays, and this kernel is nothing but gathers.
    live = live.astype(np.int64)
    sum_deg = int(deg[live].sum())
    flat, _, _ = graph.row_segments(live)
    flat = flat.astype(np.int64)
    # Decrement *every* alive target — including batch members, whose
    # entries are overwritten with the sentinel right after, so the
    # in-batch/external split (two mask ANDs plus a second boolean
    # gather) never needs to be materialised.  The internal half-edge
    # count falls out of the same bincount: occurrences of batch members
    # among the alive targets are exactly the half-edges internal to the
    # batch.
    alive_flat = flat[deg[flat] >= 0]
    if alive_flat.size:
        if deg.size <= (alive_flat.size << 4):
            counts = np.bincount(alive_flat, minlength=deg.size)
            internal_half_edges = int(counts[live].sum())
            np.subtract(deg, counts, out=deg, casting="unsafe")
        else:
            in_batch = ws.in_batch
            in_batch[live] = True
            internal_half_edges = int(np.count_nonzero(in_batch[alive_flat]))
            in_batch[live] = False  # restore scratch
            np.subtract.at(deg, alive_flat, 1)
    else:  # pragma: no cover - k >= 2 live neighbours imply alive targets
        internal_half_edges = 0
    deg[live] = REMOVED
    # Batch members sit at the sentinel now, so the alive filter drops
    # them and the survivors are exactly the external decremented set.
    da = deg[alive_flat]
    touched = alive_flat[(da >= 0) & (da <= 2)]
    return sum_deg - internal_half_edges // 2, k, touched


def max_degree_vertex(deg: np.ndarray) -> int:
    """The branching pivot: lowest-id vertex of maximum current degree.

    The sentinel is negative, so a plain argmax over the degree array finds
    an alive vertex whenever one exists — exactly the parallel reduction
    tree the paper performs over the degree array (Section IV-B).
    """
    return int(np.argmax(deg))
