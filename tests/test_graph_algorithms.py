"""Tests for connected components, k-cores and BFS utilities."""

import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.algorithms import (
    bfs_distances,
    component_subgraphs,
    connected_components,
    core_numbers,
    is_connected,
    k_core_vertices,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    petersen,
    star_graph,
)


class TestComponents:
    def test_single_component(self):
        labels = connected_components(path_graph(5))
        assert set(labels.tolist()) == {0}
        assert is_connected(path_graph(5))

    def test_disjoint_union_labels(self):
        g = disjoint_union(path_graph(3), cycle_graph(4), star_graph(2))
        labels = connected_components(g)
        assert len(set(labels.tolist())) == 3
        assert not is_connected(g)

    def test_isolated_vertices_are_components(self):
        g = CSRGraph.empty(4)
        assert len(set(connected_components(g).tolist())) == 4

    def test_empty_graph_connected(self):
        assert is_connected(CSRGraph.empty(0))

    def test_component_subgraphs_partition(self):
        g = disjoint_union(cycle_graph(5), complete_graph(4))
        pieces = component_subgraphs(g)
        assert len(pieces) == 2
        ns = sorted(sub.n for sub, _ in pieces)
        assert ns == [4, 5]
        all_ids = np.sort(np.concatenate([ids for _, ids in pieces]))
        assert all_ids.tolist() == list(range(9))

    def test_component_subgraph_edges_preserved(self):
        g = disjoint_union(cycle_graph(5), complete_graph(4))
        for sub, ids in component_subgraphs(g):
            for u, v in sub.edges():
                assert g.has_edge(int(ids[u]), int(ids[v]))


def _components_reference(graph):
    """The frozen NumPy-row BFS that ``connected_components`` replaced."""
    labels = -np.ones(graph.n, dtype=np.int64)
    current = 0
    for start in range(graph.n):
        if labels[start] != -1:
            continue
        labels[start] = current
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                v = int(v)
                if labels[v] == -1:
                    labels[v] = current
                    queue.append(v)
        current += 1
    return labels


@st.composite
def _sparse_graphs(draw):
    """Few edges on up to 40 vertices: many components, isolated vertices."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return CSRGraph.empty(n)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=n))
    return CSRGraph.from_edges(n, {(min(e), max(e)) for e in pairs})


class TestComponentsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(graph=_sparse_graphs())
    def test_equals_frozen_bfs(self, graph):
        got = connected_components(graph)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _components_reference(graph))

    def test_zero_vertices(self):
        got = connected_components(CSRGraph.empty(0))
        assert got.dtype == np.int64 and got.size == 0

    def test_long_path_and_forest_worst_case(self):
        """A randomly labelled 2e5-vertex path plus a 1000-tree forest.

        The path's diameter is what breaks label-propagation schemes whose
        round count grows with it; a linear-time BFS finishes in well
        under a second.
        """
        rng = np.random.default_rng(2024)
        path_n, trees, tree_n = 200_000, 1000, 20
        n = path_n + trees * tree_n
        u = np.arange(path_n - 1)
        edges = [np.stack([u, u + 1], axis=1)]
        for t in range(trees):
            base = path_n + t * tree_n
            child = np.arange(1, tree_n)
            parent = rng.integers(0, child)  # a random recursive tree
            edges.append(np.stack([base + parent, base + child], axis=1))
        perm = rng.permutation(n)
        graph = CSRGraph.from_edges(n, perm[np.concatenate(edges)])
        start = time.perf_counter()
        got = connected_components(graph)
        # ~0.2 s linear; a diameter-bound scheme takes minutes here
        assert time.perf_counter() - start < 10.0
        assert int(got.max()) + 1 == 1 + trees
        np.testing.assert_array_equal(got, _components_reference(graph))


class TestCoreNumbers:
    def test_cycle_is_2_core(self):
        assert core_numbers(cycle_graph(6)).tolist() == [2] * 6

    def test_tree_is_1_core(self):
        assert core_numbers(path_graph(6)).max() == 1

    def test_complete_graph(self):
        assert core_numbers(complete_graph(5)).tolist() == [4] * 5

    def test_petersen_is_3_core(self):
        assert core_numbers(petersen()).tolist() == [3] * 10

    def test_star_core(self):
        core = core_numbers(star_graph(5))
        assert core.max() == 1

    def test_k_core_vertices(self):
        g = disjoint_union(complete_graph(4), path_graph(4))
        assert k_core_vertices(g, 3).tolist() == [0, 1, 2, 3]
        assert k_core_vertices(g, 1).size == 8

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 25), p=st.floats(0, 0.8), seed=st.integers(0, 200))
    def test_core_invariant(self, n, p, seed):
        """Every vertex of the k-core has >= k neighbours inside it."""
        g = gnp(n, p, seed=seed)
        core = core_numbers(g)
        for k in range(1, int(core.max(initial=0)) + 1):
            members = set(np.flatnonzero(core >= k).tolist())
            for v in members:
                inside = sum(1 for u in g.neighbors(v) if int(u) in members)
                assert inside >= k


class TestBfs:
    def test_path_distances(self):
        assert bfs_distances(path_graph(5), 0).tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_minus_one(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        assert bfs_distances(g, 0).tolist() == [0, 1, -1, -1]

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 9)
