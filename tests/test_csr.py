"""Unit tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import complete_graph, path_graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.m == 3
        assert g.degree(0) == 1
        assert g.degree(1) == 2

    def test_from_edges_unordered_input(self):
        a = CSRGraph.from_edges(4, [(1, 0), (2, 1), (3, 2)])
        b = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert a == b

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            CSRGraph.from_edges(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            CSRGraph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges(3, [(0, 3)])

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(-1, [])

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.n == 5 and g.m == 0
        assert g.max_degree() == 0
        assert list(g.edges()) == []

    def test_zero_vertex_graph(self):
        g = CSRGraph.empty(0)
        assert g.n == 0 and g.m == 0
        assert g.average_degree() == 0.0

    def test_complete_graph(self):
        g = CSRGraph.complete(6)
        assert g.m == 15
        assert g.max_degree() == 5

    def test_validation_catches_asymmetry(self):
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int32)
        with pytest.raises(ValueError):
            CSRGraph(indptr, indices)

    def test_validation_catches_unsorted_rows(self):
        indptr = np.array([0, 2, 3, 4], dtype=np.int64)
        indices = np.array([2, 1, 0, 0], dtype=np.int32)
        with pytest.raises(ValueError, match="sorted"):
            CSRGraph(indptr, indices)

    def test_arrays_are_read_only(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            g.indices[0] = 3
        with pytest.raises(ValueError):
            g.indptr[0] = 1


class TestQueries:
    def test_neighbors_sorted(self):
        g = gnp(20, 0.4, seed=9)
        for v in range(g.n):
            row = g.neighbors(v)
            assert np.all(np.diff(row) > 0)

    def test_has_edge_matches_edge_list(self):
        g = gnp(15, 0.3, seed=4)
        edges = set(g.edges())
        for u in range(g.n):
            for v in range(g.n):
                expected = (min(u, v), max(u, v)) in edges and u != v
                assert g.has_edge(u, v) == expected

    def test_has_edge_self(self):
        g = path_graph(3)
        assert not g.has_edge(1, 1)

    def test_edge_array_matches_edges(self):
        g = gnp(12, 0.5, seed=2)
        arr = g.edge_array()
        assert arr.shape == (g.m, 2)
        assert set(map(tuple, arr.tolist())) == set(g.edges())

    def test_degrees_sum_to_twice_m(self):
        g = gnp(30, 0.2, seed=7)
        assert int(g.degrees.sum()) == 2 * g.m

    def test_average_degree(self):
        g = path_graph(5)
        assert g.average_degree() == pytest.approx(2 * 4 / 5)


class TestDerivedGraphs:
    def test_complement_roundtrip(self):
        g = gnp(12, 0.4, seed=11)
        assert g.complement().complement() == g

    def test_complement_edge_count(self):
        g = gnp(10, 0.3, seed=12)
        assert g.complement().m == 10 * 9 // 2 - g.m

    def test_complement_of_complete_is_empty(self):
        assert complete_graph(5).complement().m == 0

    def test_subgraph_induced(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub = g.subgraph([0, 1, 2])
        assert sub.n == 3
        assert set(sub.edges()) == {(0, 1), (1, 2)}

    def test_subgraph_out_of_range(self):
        with pytest.raises(ValueError):
            path_graph(3).subgraph([0, 5])

    def test_hash_and_eq(self):
        a = path_graph(5)
        b = path_graph(5)
        assert a == b and hash(a) == hash(b)
        assert a != path_graph(6)

    def test_repr(self):
        assert "n=5" in repr(path_graph(5))


class TestBatchedQueries:
    def test_row_segments_matches_neighbors(self):
        g = gnp(40, 0.15, seed=21)
        verts = np.array([0, 3, 3, 17, 39], dtype=np.int64)
        flat, counts, offsets = g.row_segments(verts)
        assert counts.tolist() == [g.degree(int(v)) for v in verts]
        for i, v in enumerate(verts):
            seg = flat[offsets[i]:offsets[i + 1]]
            assert seg.tolist() == g.neighbors(int(v)).tolist()

    def test_row_segments_empty_batch(self):
        g = path_graph(4)
        flat, counts, offsets = g.row_segments(np.empty(0, dtype=np.int64))
        assert flat.size == 0 and counts.size == 0 and offsets.tolist() == [0]

    def test_has_edges_matches_has_edge(self):
        g = gnp(25, 0.25, seed=22)
        rng = np.random.default_rng(0)
        us = rng.integers(0, g.n, size=200)
        vs = rng.integers(0, g.n, size=200)
        batched = g.has_edges(us, vs)
        scalar = [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
        assert batched.tolist() == scalar

    def test_has_edges_empty_and_edgeless(self):
        g = gnp(10, 0.3, seed=23)
        assert g.has_edges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).size == 0
        empty = CSRGraph.empty(4)
        assert not empty.has_edges(np.array([0, 1]), np.array([1, 2])).any()

    def test_adjacency_tuples_cached_and_correct(self):
        g = gnp(15, 0.3, seed=24)
        adj = g.adjacency_tuples()
        assert adj is g.adjacency_tuples()  # cached
        for v in range(g.n):
            assert list(adj[v]) == g.neighbors(v).tolist()


class TestVectorizedConstruction:
    """from_edges / subgraph / complement are now lexsort-vectorized."""

    def test_from_edges_unsorted_input_rows_sorted(self):
        edges = [(4, 0), (2, 4), (0, 1), (3, 1)]
        g = CSRGraph.from_edges(5, edges)
        for v in range(g.n):
            row = g.neighbors(v)
            assert np.all(np.diff(row) > 0) if row.size > 1 else True
        assert set(g.edges()) == {(0, 4), (2, 4), (0, 1), (1, 3)}

    def test_from_edges_matches_manual_adjacency(self):
        rng = np.random.default_rng(7)
        n = 30
        pairs = {(int(a), int(b)) for a, b in zip(rng.integers(0, n, 80), rng.integers(0, n, 80)) if a != b}
        canon = {(min(u, v), max(u, v)) for u, v in pairs}
        g = CSRGraph.from_edges(n, sorted(canon))
        adj = {v: set() for v in range(n)}
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
        for v in range(n):
            assert set(g.neighbors(v).tolist()) == adj[v]

    def test_subgraph_matches_edge_filter(self):
        g = gnp(25, 0.25, seed=26)
        keep = [1, 2, 5, 8, 13, 21, 24]
        relabel = {v: i for i, v in enumerate(keep)}
        expected = {(relabel[u], relabel[v]) for u, v in g.edges()
                    if u in relabel and v in relabel}
        assert set(g.subgraph(keep).edges()) == expected

    def test_subgraph_empty_keep(self):
        g = gnp(10, 0.3, seed=27)
        sub = g.subgraph([])
        assert sub.n == 0 and sub.m == 0

    def test_complement_matches_definition(self):
        g = gnp(14, 0.35, seed=28)
        comp = g.complement()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert comp.has_edge(u, v) == (not g.has_edge(u, v))

    def test_complement_passes_full_validation(self):
        comp = gnp(9, 0.4, seed=29).complement()
        CSRGraph(comp.indptr, comp.indices)  # validate=True re-checks invariants


# --------------------------------------------------------------------- #
# Frozen per-edge / per-row loop versions of ingest and validation: the
# vectorized code must match them array for array and message for message.
# --------------------------------------------------------------------- #
def _canonical_edge_array_reference(n, edges):
    rows = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self loop ({u},{v}) not allowed in a simple graph")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        rows.append((u, v) if u < v else (v, u))
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(rows, dtype=np.int64)
    keys = arr[:, 0] * n + arr[:, 1]
    uniq, counts = np.unique(keys, return_counts=True)
    if np.any(counts > 1):
        dup = uniq[counts > 1][0]
        raise ValueError(f"duplicate edge ({dup // n},{dup % n})")
    order = np.argsort(keys, kind="stable")
    return arr[order]


def _validate_reference(n, ptr, ind):
    if np.any(np.diff(ptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    if ind.size and (ind.min() < 0 or ind.max() >= n):
        raise ValueError("neighbour id out of range")
    for v in range(n):
        row = ind[ptr[v] : ptr[v + 1]]
        if row.size == 0:
            continue
        if np.any(np.diff(row) <= 0):
            raise ValueError(f"adjacency row of vertex {v} not strictly sorted")
        pos = int(np.searchsorted(row, v))
        if pos < row.size and row[pos] == v:
            raise ValueError(f"self loop at vertex {v}")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
    fwd = src * n + ind
    bwd = ind.astype(np.int64) * n + src
    if not np.array_equal(np.sort(fwd), np.sort(bwd)):
        raise ValueError("adjacency is not symmetric")


def _outcome(fn):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - compared verbatim
        return type(exc), str(exc)


def _reference_build(n, edges):
    """The frozen loop canonicalization, then the lexsort CSR build."""
    pairs = _canonical_edge_array_reference(n, edges)
    if pairs.size == 0:
        return CSRGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32))
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst[order].astype(np.int32), validate=False)


_INPUT_FORMS = {
    "list": lambda pairs: list(pairs),
    "zip": lambda pairs: zip([u for u, _ in pairs], [v for _, v in pairs]),
    "generator": lambda pairs: (pair for pair in pairs),
    "int32": lambda pairs: np.array(pairs, dtype=np.int32).reshape(-1, 2),
    "int64": lambda pairs: np.array(pairs, dtype=np.int64).reshape(-1, 2),
}


@st.composite
def _edge_lists(draw):
    """A simple edge list in random orientation, plus injected faults."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    for fault in draw(st.lists(st.sampled_from(
            ["loop", "range", "dup", "dup_flipped"]), max_size=3)):
        if fault == "loop":
            w = draw(st.integers(-1, n))  # out-of-range loops too
            bad = (w, w)
        elif fault == "range":
            inside = draw(st.integers(0, max(n - 1, 0)))
            outside = draw(st.sampled_from([-2, -1, n, n + 3]))
            bad = (inside, outside) if draw(st.booleans()) else (outside, inside)
        elif edges:
            u, v = draw(st.sampled_from(edges))
            bad = (v, u) if fault == "dup_flipped" else (u, v)
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


class TestIngestMatchesLoopReference:
    """Vectorized ``from_edges``/``_validate`` against the frozen loops."""

    @settings(max_examples=300, deadline=None)
    @given(case=_edge_lists(), form=st.sampled_from(sorted(_INPUT_FORMS)))
    def test_from_edges_equivalent(self, case, form):
        n, pairs = case
        make = _INPUT_FORMS[form]
        got = _outcome(lambda: CSRGraph.from_edges(n, make(pairs)))
        want = _outcome(lambda: _reference_build(n, make(pairs)))
        if want[0] != "ok":
            assert got == want
            return
        assert got[0] == "ok", got
        np.testing.assert_array_equal(got[1].indptr, want[1].indptr)
        np.testing.assert_array_equal(got[1].indices, want[1].indices)
        assert got[1].indptr.dtype == want[1].indptr.dtype
        assert got[1].indices.dtype == want[1].indices.dtype

    @pytest.mark.parametrize("form", sorted(_INPUT_FORMS))
    def test_empty_input(self, form):
        g = CSRGraph.from_edges(4, _INPUT_FORMS[form]([]))
        assert g == _reference_build(4, _INPUT_FORMS[form]([]))
        assert g.m == 0 and g.indptr.tolist() == [0] * 5

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 9), (3, 3)], "edge (2,9) out of range for n=4"),
        ([(0, 1), (5, 5), (2, 9)], "self loop (5,5) not allowed in a simple graph"),
        ([(2, 3), (1, 0), (3, 2), (0, 1)], "duplicate edge (0,1)"),
    ])
    def test_first_offender_is_reported(self, edges, message):
        for make in _INPUT_FORMS.values():
            with pytest.raises(ValueError) as exc:
                CSRGraph.from_edges(4, make(edges))
            assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(case=_edge_lists(), data=st.data())
    def test_validate_equivalent_on_malformed_csr(self, case, data):
        n, pairs = case
        try:
            good = _reference_build(n, pairs)
        except ValueError:
            return  # faulty edge lists are covered above
        ptr, ind = good.indptr.copy(), good.indices.astype(np.int64)
        faults = data.draw(st.lists(st.sampled_from(
            ["self_loop", "out_of_range", "unsorted", "asymmetric",
             "indptr_decreasing"]), min_size=1, max_size=2, unique=True))
        # a decreasing indptr goes last: the others walk the rows
        for fault in sorted(faults, key=lambda f: f == "indptr_decreasing"):
            ptr, ind = _break_csr(data, n, ptr, ind, fault)
        def reference():
            unchecked = CSRGraph(ptr, ind, validate=False)
            _validate_reference(n, unchecked.indptr, unchecked.indices)

        got = _outcome(lambda: CSRGraph(ptr, ind))
        want = _outcome(reference)
        if want[0] == "ok":
            assert got[0] == "ok", got
        else:
            assert got == want

    @pytest.mark.parametrize("ptr, ind, message", [
        ([0, 2, 4, 5, 6], [2, 1, 1, 2, 0, 0], "adjacency row of vertex 0 not strictly sorted"),
        ([0, 1, 3, 4], [1, 0, 1, 1], "self loop at vertex 1"),
        ([0, 3, 2, 4], [1, 2, 0, 0], "indptr must be non-decreasing"),
        ([0, 1, 2], [1, 2], "neighbour id out of range"),
        ([0, 1, 2, 2], [1, 2], "adjacency is not symmetric"),
    ])
    def test_validation_messages(self, ptr, ind, message):
        with pytest.raises(ValueError) as exc:
            CSRGraph(np.array(ptr), np.array(ind))
        assert str(exc.value) == message


def _break_csr(data, n, ptr, ind, fault):
    """Apply one structural fault to a CSR copy (rows stay even-length)."""
    ptr, ind = ptr.copy(), ind.copy()
    if fault == "indptr_decreasing":
        if n >= 2:
            i = data.draw(st.integers(1, n - 1))
            ptr[i] = ptr[-1] + 1 if ptr[i] == ptr[i - 1] else ptr[i - 1] - 1
        return ptr, ind
    degrees = np.diff(ptr)
    src = np.repeat(np.arange(n), degrees)
    if fault == "self_loop" and n:
        # a loop at two vertices keeps the half-edge count even
        for v in sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                           max_size=2))):
            row = ind[ptr[v]:ptr[v + 1]]
            at = ptr[v] + int(np.searchsorted(row, v))
            ind = np.insert(ind, at, v)
            ptr[v + 1:] += 1
        return ptr, ind
    if not ind.size:
        return ptr, ind
    j = data.draw(st.integers(0, ind.size - 1))
    if fault == "out_of_range":
        ind[j] = data.draw(st.sampled_from([-1, n, n + 5]))
    elif fault == "unsorted":
        if degrees[src[j]] >= 2:
            k = j + 1 if j + 1 < ptr[src[j] + 1] else j - 1
            ind[[j, k]] = ind[[k, j]]
    elif fault == "asymmetric":
        v = src[j]
        row = set(ind[ptr[v]:ptr[v + 1]].tolist()) | {v}
        free = [w for w in range(n) if w not in row]
        if free:
            ind[j] = data.draw(st.sampled_from(free))
            ind[ptr[v]:ptr[v + 1]].sort()
    return ptr, ind
