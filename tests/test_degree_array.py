"""Unit + property tests for the degree-array intermediate representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verify import check_state_consistency
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import (
    REMOVED,
    VCState,
    Workspace,
    alive_neighbors,
    alive_vertices,
    cover_vertices,
    fresh_state,
    max_degree_vertex,
    recompute_edge_count,
    remove_neighbors_into_cover,
    remove_vertex_into_cover,
    remove_vertices_into_cover,
)
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import path_graph, star_graph


class TestFreshState:
    def test_matches_static_degrees(self):
        g = gnp(10, 0.5, seed=1)
        st_ = fresh_state(g)
        assert np.array_equal(st_.deg, g.degrees)
        assert st_.cover_size == 0
        assert st_.edge_count == g.m

    def test_copy_is_deep(self):
        g = path_graph(4)
        a = fresh_state(g)
        b = a.copy()
        b.deg[0] = REMOVED
        assert a.deg[0] != REMOVED


class TestSingleRemoval:
    def test_remove_vertex_updates_neighbors(self):
        g = star_graph(4)  # centre 0
        state = fresh_state(g)
        deleted = remove_vertex_into_cover(g, state.deg, 0)
        assert deleted == 4
        assert state.deg[0] == REMOVED
        assert all(state.deg[v] == 0 for v in range(1, 5))

    def test_remove_already_removed_raises(self):
        g = path_graph(3)
        state = fresh_state(g)
        remove_vertex_into_cover(g, state.deg, 1)
        with pytest.raises(ValueError):
            remove_vertex_into_cover(g, state.deg, 1)

    def test_edge_count_bookkeeping(self):
        g = gnp(12, 0.4, seed=3)
        state = fresh_state(g)
        for v in [0, 3, 7]:
            state.edge_count -= remove_vertex_into_cover(g, state.deg, v)
            state.cover_size += 1
        check_state_consistency(g, state)


class TestBatchRemoval:
    def test_batch_equals_serial(self):
        g = gnp(15, 0.4, seed=5)
        batch = [2, 5, 9, 11]
        a = fresh_state(g)
        ws = Workspace.for_graph(g)
        deleted_batch = remove_vertices_into_cover(g, a.deg, batch, ws)
        b = fresh_state(g)
        deleted_serial = sum(remove_vertex_into_cover(g, b.deg, v) for v in batch)
        assert deleted_batch == deleted_serial
        assert np.array_equal(a.deg, b.deg)

    def test_batch_rejects_duplicates_in_debug_mode(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="duplicate"):
            remove_vertices_into_cover(g, fresh_state(g).deg, [1, 1], debug=True)

    def test_batch_rejects_removed_in_debug_mode(self):
        g = path_graph(5)
        state = fresh_state(g)
        remove_vertex_into_cover(g, state.deg, 1)
        with pytest.raises(ValueError, match="already-removed"):
            remove_vertices_into_cover(g, state.deg, [1, 2], debug=True)

    def test_empty_batch(self):
        g = path_graph(5)
        state = fresh_state(g)
        assert remove_vertices_into_cover(g, state.deg, []) == 0

    def test_workspace_scratch_restored(self):
        g = gnp(10, 0.5, seed=6)
        ws = Workspace.for_graph(g)
        remove_vertices_into_cover(g, fresh_state(g).deg, [0, 1, 2], ws)
        assert not ws.in_batch.any()

    def test_remove_neighbors(self):
        g = star_graph(5)
        state = fresh_state(g)
        deleted, removed = remove_neighbors_into_cover(g, state.deg, 0)
        assert removed == 5
        assert deleted == 5
        assert state.deg[0] == 0  # centre survives with degree zero

    def test_remove_neighbors_of_isolated(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        state = fresh_state(g)
        deleted, removed = remove_neighbors_into_cover(g, state.deg, 2)
        assert (deleted, removed) == (0, 0)


class TestHelpers:
    def test_alive_and_cover_partition(self):
        g = gnp(10, 0.4, seed=8)
        state = fresh_state(g)
        remove_vertices_into_cover(g, state.deg, [1, 4])
        alive = set(alive_vertices(state.deg).tolist())
        cover = set(cover_vertices(state.deg).tolist())
        assert alive | cover == set(range(10))
        assert alive & cover == set()
        assert cover == {1, 4}

    def test_alive_neighbors(self):
        g = path_graph(4)
        state = fresh_state(g)
        remove_vertex_into_cover(g, state.deg, 2)
        assert alive_neighbors(g, state.deg, 1).tolist() == [0]

    def test_max_degree_vertex_prefers_lowest_id(self):
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (3, 1), (3, 2)])
        assert max_degree_vertex(fresh_state(g).deg) == 0

    def test_validate_catches_drift(self):
        g = path_graph(4)
        state = fresh_state(g)
        state.cover_size = 2
        with pytest.raises(AssertionError):
            state.validate(g)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 16),
    p=st.floats(0.1, 0.8),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_random_removal_sequences_preserve_invariants(n, p, seed, data):
    """Property: any removal sequence keeps counters consistent with the array."""
    g = gnp(n, p, seed=seed)
    state = fresh_state(g)
    ws = Workspace.for_graph(g)
    alive = list(range(n))
    steps = data.draw(st.integers(0, n))
    for _ in range(steps):
        if not alive:
            break
        pick = data.draw(st.sampled_from(alive))
        mode = data.draw(st.sampled_from(["vertex", "neighbors"]))
        if mode == "vertex":
            state.edge_count -= remove_vertex_into_cover(g, state.deg, pick)
            state.cover_size += 1
        else:
            deleted, removed = remove_neighbors_into_cover(g, state.deg, pick, ws)
            state.edge_count -= deleted
            state.cover_size += removed
        alive = [v for v in alive if state.deg[v] >= 0]
        check_state_consistency(g, state)
    assert state.edge_count == recompute_edge_count(g, state.deg)


class TestFusedNeighborhoodRemoval:
    """The fused remove_neighbors kernel ≡ the pre-fusion composition.

    ``remove_neighbors_into_cover`` now runs the single-gather batch
    kernel; ``_remove_neighbors_reference`` keeps the PR 1-4 two-step
    composition (``alive_neighbors`` + general batch removal) as the
    oracle.  Same degree array and return pair, and the batch kernel's
    touched set is exactly the vertices whose degree changed into
    candidate range — on roots and on partially-removed intermediate
    states.
    """

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 40), p=st.floats(0.05, 0.7),
           seed=st.integers(0, 500), kill_seed=st.integers(0, 500))
    def test_fused_matches_reference(self, n, p, seed, kill_seed):
        from repro.graph.degree_array import (
            _remove_neighbors_reference,
            remove_neighbors_batch_cheap,
            remove_neighbors_into_cover,
            remove_vertex_into_cover,
        )

        graph = gnp(n, p, seed=seed)
        ws = Workspace.for_graph(graph)
        state = fresh_state(graph)
        rng = np.random.default_rng(kill_seed)
        for v in rng.choice(n, size=int(rng.integers(0, max(n // 3, 1))),
                            replace=False):
            if state.deg[v] >= 0:
                state.edge_count -= remove_vertex_into_cover(
                    graph, state.deg, int(v))
        pivot = int(rng.integers(n))
        if state.deg[pivot] < 0:
            return
        before = state.deg.copy()
        d_ref, d_new, d_cheap = before.copy(), before.copy(), before.copy()
        out_ref = _remove_neighbors_reference(graph, d_ref, pivot, ws)
        out_new = remove_neighbors_into_cover(graph, d_new, pivot, ws)
        assert out_ref == out_new
        assert np.array_equal(d_ref, d_new)
        deleted, n_removed, touched = remove_neighbors_batch_cheap(
            graph, d_cheap, pivot, ws)
        assert (deleted, n_removed) == out_ref
        assert np.array_equal(d_cheap, d_ref)
        changed = (d_cheap != before) & (d_cheap >= 0) & (d_cheap <= 2)
        assert set(touched.tolist()) == set(np.flatnonzero(changed).tolist())
