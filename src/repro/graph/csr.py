"""Static graph storage in Compressed Sparse Row (CSR) form.

The paper keeps a single, immutable CSR copy of the input graph that every
thread block reads (Section IV-B).  All intermediate graphs are expressed as
degree arrays layered on top of this structure (see
:mod:`repro.graph.degree_array`).

The adjacency list of every vertex is stored sorted ascending, which lets
:meth:`CSRGraph.has_edge` run as a binary search — the degree-two-triangle
reduction rule relies on fast adjacency tests.

Batched access is first-class: :meth:`CSRGraph.row_segments` gathers the
adjacency rows of a whole vertex batch as one flat array plus segment
offsets, and :meth:`CSRGraph.has_edges` answers many adjacency queries with
a single binary search over a lazily cached, globally sorted edge-key
array.  The batched removals (:mod:`repro.graph.degree_array`) and the
Section IV-D batch rules (:mod:`repro.core.parallel_reductions`) are built
from these two primitives.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """An immutable, simple, undirected graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the neighbours of vertex ``v``
        occupy ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32`` array of neighbour ids, each undirected edge appearing
        twice (once per endpoint), sorted ascending within each row.
    validate:
        When true (the default) the constructor checks structural
        invariants: sortedness, symmetry, no self loops, no parallel edges.

    Notes
    -----
    Instances are treated as immutable: the underlying arrays are marked
    read-only so accidental mutation of the shared static graph (which the
    paper's kernels never modify) raises immediately.
    """

    __slots__ = ("indptr", "indices", "n", "m", "_degrees", "_rows", "_edge_keys",
                 "_adj_tuples")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, validate: bool = True):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        self.indptr = indptr
        self.indices = indices
        self.n = int(indptr.size - 1)
        if indices.size % 2 != 0:
            raise ValueError("indices length must be even for an undirected graph")
        self.m = int(indices.size // 2)
        self._degrees = np.diff(indptr).astype(np.int32)
        self._rows = None  # lazy source vertex of every CSR entry
        self._edge_keys = None  # lazy sorted (u * n + v) keys for has_edges
        self._adj_tuples = None  # lazy tuple-of-tuples adjacency for scalar kernels
        if validate:
            self._validate()
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._degrees.setflags(write=False)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]], *, validate: bool = True) -> "CSRGraph":
        """Build a graph on ``n`` vertices from an iterable of edges.

        Duplicate edges (in either orientation) and self loops are rejected.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        pairs = _canonical_edge_array(n, edges)
        return cls._from_pairs(n, pairs, validate=validate)

    @classmethod
    def _from_pairs(cls, n: int, pairs: np.ndarray, *, validate: bool = False) -> "CSRGraph":
        """Build from a canonical ``(m, 2)`` int64 edge array (``u < v`` rows).

        Fully vectorized: both half-edge orientations are keyed
        ``src * n + dst`` and sorted, which yields the flat ``indices``
        array directly with every row already sorted ascending.
        """
        if pairs.size == 0:
            return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32),
                       validate=validate)
        u, v = pairs[:, 0], pairs[:, 1]
        keys = np.concatenate([u * n + v, v * n + u])
        keys.sort()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs.ravel(), minlength=n), out=indptr[1:])
        return cls(indptr, (keys % n).astype(np.int32), validate=validate)

    @classmethod
    def empty(cls, n: int) -> "CSRGraph":
        """An edgeless graph on ``n`` vertices."""
        return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32), validate=False)

    @classmethod
    def complete(cls, n: int) -> "CSRGraph":
        """The complete graph :math:`K_n`."""
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return cls.from_edges(n, edges, validate=False)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def degree(self, v: int) -> int:
        """The degree of ``v`` in the static graph."""
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        """Read-only ``int32`` array of static degrees."""
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the sorted neighbour list of ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test via binary search on the shorter row."""
        if u == v:
            return False
        if self._degrees[u] > self._degrees[v]:
            u, v = v, u
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    def row_segments(self, verts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the adjacency rows of a vertex batch in one shot.

        Returns ``(flat, counts, offsets)`` where ``flat`` is the
        concatenation of the neighbour lists of ``verts`` (in batch order,
        each row sorted ascending), ``counts[i]`` is the degree of
        ``verts[i]`` and ``flat[offsets[i]:offsets[i + 1]]`` is its row.
        This replaces per-vertex ``neighbors()`` loops in the hot kernels.
        """
        verts = np.asarray(verts, dtype=np.int64)
        starts = self.indptr[verts]
        counts = self.indptr[verts + 1] - starts
        offsets = np.zeros(verts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return np.empty(0, dtype=np.int32), counts, offsets
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets[:-1], counts)
        return self.indices[pos], counts, offsets

    def row_ids(self) -> np.ndarray:
        """The source vertex of every CSR entry (lazily cached, read-only):
        ``row_ids()[i]`` and ``indices[i]`` are the two ends of a half-edge."""
        if self._rows is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int32), self._degrees)
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    def _sorted_edge_keys(self) -> np.ndarray:
        """Lazily built, globally sorted ``u * n + v`` key per half-edge.

        Rows are sorted and laid out in vertex order, so the flat key array
        is globally ascending without any extra sort.
        """
        if self._edge_keys is None:
            keys = self.row_ids().astype(np.int64) * self.n + self.indices
            keys.setflags(write=False)
            self._edge_keys = keys
        return self._edge_keys

    def adjacency_tuples(self) -> tuple:
        """Adjacency as a lazily cached tuple of sorted int tuples.

        Plain-Python adjacency is what makes the ``scalar`` kernel tier
        (:mod:`repro.core.kernels`) fast: iterating a tuple of ints costs
        nanoseconds per step where indexing a NumPy row pays
        scalar-boxing overhead.  Built only when the interpreted kernels
        run (the compiled ones walk the CSR arrays).
        """
        if self._adj_tuples is None:
            flat = self.indices.tolist()
            ptr = self.indptr.tolist()
            self._adj_tuples = tuple(
                tuple(flat[ptr[v] : ptr[v + 1]]) for v in range(self.n)
            )
        return self._adj_tuples

    def prewarm(self, *, adjacency: bool = False) -> None:
        """Build the lazy query caches up front.

        Thread-spawning engines call this from the launching thread so
        concurrent workers only ever read the caches instead of racing
        the lazy initialisers (redundant builds under the GIL, a genuine
        data race without it).  ``adjacency`` additionally builds the
        plain-Python adjacency used by the scalar kernels — skip it for
        large graphs, which never take the scalar path.
        """
        self.row_ids()
        self._sorted_edge_keys()
        if adjacency:
            self.adjacency_tuples()

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized adjacency test: ``out[i]`` iff ``us[i]~vs[i]`` is an edge.

        One binary search over the cached sorted edge-key array answers the
        whole batch — the bulk form of :meth:`has_edge` that the batched
        degree-two-triangle kernel relies on.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.size == 0:
            return np.zeros(0, dtype=bool)
        keys = self._sorted_edge_keys()
        if keys.size == 0:
            return np.zeros(us.shape, dtype=bool)
        n = self.n
        # Out-of-range ids must answer False (as has_edge's row lookup
        # would), not alias onto a valid u * n + v key.
        valid = (us >= 0) & (us < n) & (vs >= 0) & (vs < n)
        queries = us * n + vs
        pos = np.searchsorted(keys, queries)
        pos[pos == keys.size] = keys.size - 1
        return (keys[pos] == queries) & valid

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate each undirected edge exactly once as ``(u, v)`` with ``u < v``."""
        return zip(*self.edge_array().T.tolist())

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v`` per row."""
        if self.m == 0:
            return np.empty((0, 2), dtype=np.int32)
        src = self.row_ids()
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    def max_degree(self) -> int:
        """:math:`\\Delta(G)` — zero for an edgeless graph."""
        return int(self._degrees.max(initial=0))

    def average_degree(self) -> float:
        """Mean degree ``2m / n`` (zero for the empty-vertex graph)."""
        return (2.0 * self.m / self.n) if self.n else 0.0

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def complement(self) -> "CSRGraph":
        """The complement graph (the paper complements DIMACS instances).

        Built via a dense adjacency mask (the complement is inherently
        :math:`O(n^2)`-sized); ``np.nonzero`` on the row-major mask yields
        the flat CSR indices with every row already sorted.
        """
        n = self.n
        if n == 0:
            return CSRGraph.empty(0)
        present = np.zeros((n, n), dtype=bool)
        present[self.row_ids(), self.indices] = True
        np.fill_diagonal(present, True)
        rows, cols = np.nonzero(~present)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return CSRGraph(indptr, cols.astype(np.int32), validate=False)

    def subgraph(self, keep: Sequence[int]) -> "CSRGraph":
        """The induced subgraph ``G[keep]`` with vertices relabelled 0..len-1."""
        keep_arr = np.unique(np.asarray(keep, dtype=np.int64))
        if keep_arr.size and (keep_arr[0] < 0 or keep_arr[-1] >= self.n):
            raise ValueError("subgraph vertices out of range")
        relabel = -np.ones(self.n, dtype=np.int64)
        relabel[keep_arr] = np.arange(keep_arr.size)
        flat, counts, _ = self.row_segments(keep_arr)
        src = np.repeat(relabel[keep_arr], counts)
        dst = relabel[flat]
        mask = (dst >= 0) & (src < dst)
        pairs = np.stack([src[mask], dst[mask]], axis=1) if flat.size else \
            np.empty((0, 2), dtype=np.int64)
        return CSRGraph._from_pairs(int(keep_arr.size), pairs)

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # immutable, so hashable
        return hash((self.n, self.m, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m}, avg_deg={self.average_degree():.2f})"

    def _validate(self) -> None:
        ind, ptr = self.indices, self.indptr
        if np.any(np.diff(ptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if ind.size and (ind.min() < 0 or ind.max() >= self.n):
            raise ValueError("neighbour id out of range")
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(ptr))
        # the smallest bad vertex wins; an unsorted row before a self loop
        unsorted = src[1:][(src[1:] == src[:-1]) & (np.diff(ind) <= 0)]
        loops = src[ind == src]
        if unsorted.size or loops.size:
            v = int(min(unsorted.min(initial=self.n), loops.min(initial=self.n)))
            if unsorted.size and unsorted[0] == v:
                raise ValueError(f"adjacency row of vertex {v} not strictly sorted")
            raise ValueError(f"self loop at vertex {v}")
        # symmetry: each (u, v) must have its mirror (v, u)
        fwd = src * self.n + ind
        bwd = ind.astype(np.int64) * self.n + src
        if not np.array_equal(np.sort(fwd), np.sort(bwd)):
            raise ValueError("adjacency is not symmetric")


def _canonical_edge_array(n: int, edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Normalise edges to sorted ``u < v`` rows, rejecting loops/dupes/range errors.

    Reports the first bad edge in input order (a loop first), else the smallest duplicate.
    """
    arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                     dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    u, v = arr[:, 0], arr[:, 1]
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))
        bu, bv = int(u[i]), int(v[i])
        if bu == bv:
            raise ValueError(f"self loop ({bu},{bv}) not allowed in a simple graph")
        raise ValueError(f"edge ({bu},{bv}) out of range for n={n}")
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort()
    dup = keys[1:][keys[1:] == keys[:-1]]
    if dup.size:
        raise ValueError(f"duplicate edge ({dup[0] // n},{dup[0] % n})")
    return np.stack(np.divmod(keys, n), axis=1)
