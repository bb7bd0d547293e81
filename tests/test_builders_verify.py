"""Tests for graph builders and verification utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verify import (
    assert_valid_cover,
    cover_complement_is_independent,
    is_independent_set,
    is_vertex_cover,
    minimal_cover_certificate,
    uncovered_edges,
)
from repro.graph.builders import (
    from_adjacency,
    from_adjacency_matrix,
    from_edge_list,
    from_networkx,
    relabel_dense,
    to_adjacency_matrix,
    to_networkx,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import cycle_graph, path_graph, petersen


class TestBuilders:
    def test_from_edge_list_dedupes(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1), (1, 1)])
        assert g.m == 1

    def test_from_adjacency_dict(self):
        g = from_adjacency({0: [1], 1: [0, 2], 2: [1]})
        assert g == path_graph(3)

    def test_from_adjacency_list(self):
        g = from_adjacency([[1], [0, 2], [1]])
        assert g == path_graph(3)

    def test_networkx_roundtrip(self):
        g = petersen()
        assert from_networkx(to_networkx(g)) == g

    def test_adjacency_matrix_roundtrip(self):
        g = gnp(9, 0.5, seed=1)
        assert from_adjacency_matrix(to_adjacency_matrix(g)) == g

    def test_adjacency_matrix_rejects_asymmetric(self):
        mat = np.zeros((3, 3), dtype=int)
        mat[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            from_adjacency_matrix(mat)

    def test_adjacency_matrix_rejects_diagonal(self):
        mat = np.eye(3, dtype=int)
        with pytest.raises(ValueError, match="diagonal"):
            from_adjacency_matrix(mat)

    def test_relabel_dense(self):
        g, labels = relabel_dense(0, [(10, 30), (30, 50)])
        assert g.n == 3 and g.m == 2
        assert labels.tolist() == [10, 30, 50]
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


class TestVerify:
    def test_is_vertex_cover_positive(self):
        g = cycle_graph(4)
        assert is_vertex_cover(g, [0, 2])

    def test_is_vertex_cover_negative(self):
        g = cycle_graph(4)
        assert not is_vertex_cover(g, [0, 1])

    def test_out_of_range_cover_rejected(self):
        with pytest.raises(ValueError):
            is_vertex_cover(path_graph(3), [5])

    def test_uncovered_edges_listed(self):
        g = path_graph(4)
        assert uncovered_edges(g, [0]) == [(1, 2), (2, 3)]

    def test_is_independent_set(self):
        g = cycle_graph(5)
        assert is_independent_set(g, [0, 2])
        assert not is_independent_set(g, [0, 1])

    def test_cover_complement_duality(self):
        g = petersen()
        assert cover_complement_is_independent(g, [0, 1, 2, 4, 6, 9]) == \
            is_vertex_cover(g, [0, 1, 2, 4, 6, 9])

    def test_assert_valid_cover_accepts(self):
        assert_valid_cover(path_graph(3), [1], 1)

    def test_assert_valid_cover_wrong_size(self):
        with pytest.raises(AssertionError, match="claimed"):
            assert_valid_cover(path_graph(3), [1], 2)

    def test_assert_valid_cover_none(self):
        with pytest.raises(AssertionError, match="no cover"):
            assert_valid_cover(path_graph(3), None)

    def test_assert_valid_cover_misses_edge(self):
        with pytest.raises(AssertionError, match="uncovered"):
            assert_valid_cover(path_graph(4), [0], 1)

    def test_minimal_certificate_flags_redundancy(self):
        g = path_graph(3)
        assert minimal_cover_certificate(g, [0, 1]) == [0]
        assert minimal_cover_certificate(g, [1]) == []


# Frozen per-vertex / per-edge loop versions of the vectorized checks.
def _edges_reference(graph):
    for u in range(graph.n):
        for v in graph.neighbors(u):
            if u < v:
                yield (u, int(v))


def _is_vertex_cover_reference(graph, cover):
    mask = np.zeros(graph.n, dtype=bool)
    idx = np.fromiter((int(v) for v in cover), dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= graph.n:
            raise ValueError("cover vertex out of range")
        mask[idx] = True
    for u in range(graph.n):
        if mask[u]:
            continue
        nbrs = graph.neighbors(u)
        if nbrs.size and not mask[nbrs].all():
            return False
    return True


def _uncovered_edges_reference(graph, cover):
    mask = np.zeros(graph.n, dtype=bool)
    for v in cover:
        mask[int(v)] = True
    return [(u, v) for u, v in _edges_reference(graph) if not mask[u] and not mask[v]]


class TestVectorizedChecksMatchLoops:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 25), p=st.floats(0, 0.6), seed=st.integers(0, 500),
           data=st.data())
    def test_edges_and_cover_checks(self, n, p, seed, data):
        g = gnp(n, p, seed=seed)
        edges = list(g.edges())
        assert edges == list(_edges_reference(g))
        assert all(type(u) is int and type(v) is int for u, v in edges)
        cover = data.draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
        assert is_vertex_cover(g, cover) == _is_vertex_cover_reference(g, cover)
        assert uncovered_edges(g, cover) == _uncovered_edges_reference(g, cover)
