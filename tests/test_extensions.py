"""Tests for the extension layer: extra reduction rules, grid-launch
descent, alternative branching pivots, and the memory report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.branching import (
    PIVOTS,
    max_degree_pivot,
    min_positive_degree_pivot,
    random_pivot,
)
from repro.core.brute import brute_force_mvc
from repro.core.extra_reductions import (
    domination_rule,
    isolated_clique_rule,
    make_reducer,
)
from repro.core.formulation import BestBound, MVCFormulation
from repro.core.sequential import branch_and_reduce, solve_mvc_sequential
from repro.core.verify import check_state_consistency
from repro.engines.stackonly import GridMemoryError, StackOnlyEngine
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import REMOVED, Workspace, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import complete_graph, path_graph, star_graph
from repro.analysis.memory import memory_report, render_memory_table
from repro.sim.device import SMALL_SIM, TINY_SIM, DeviceSpec


def mvc_formulation(graph):
    return MVCFormulation(BestBound(size=graph.n + 1))


class TestIsolatedCliqueRule:
    def test_k4_with_pendant(self):
        # K4 on {0,1,2,3} plus pendant 3-4: N[0] is a clique -> take {1,2,3}
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        g = CSRGraph.from_edges(5, edges)
        state = fresh_state(g)
        changed = isolated_clique_rule(g, state, Workspace.for_graph(g))
        assert changed
        assert state.cover_size == 3
        assert state.edge_count == 0
        assert state.deg[0] == 0  # the clique's simplicial vertex survives

    def test_generalises_degree_one(self):
        g = star_graph(1)  # a single edge = K2
        state = fresh_state(g)
        assert isolated_clique_rule(g, state)
        assert state.cover_size == 1

    def test_no_clique_no_change(self):
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])  # star, no clique at centre
        state = fresh_state(g)
        state0 = state.deg.copy()
        # centre's neighbourhood is independent; leaves are K2s though,
        # so the rule does fire on the leaves
        isolated_clique_rule(g, state)
        assert state.deg[0] == REMOVED or np.array_equal(state0, state.deg) is False

    def test_whole_graph_clique(self):
        g = complete_graph(5)
        state = fresh_state(g)
        isolated_clique_rule(g, state)
        assert state.edge_count == 0
        assert state.cover_size == 4

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 12), p=st.floats(0.2, 0.8), seed=st.integers(0, 300))
    def test_preserves_optimum(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        opt_before, _ = brute_force_mvc(g)
        state = fresh_state(g)
        isolated_clique_rule(g, state, Workspace.for_graph(g))
        check_state_consistency(g, state)
        alive = [v for v in range(n) if state.deg[v] >= 0]
        opt_after, _ = brute_force_mvc(g.subgraph(alive))
        assert state.cover_size + opt_after == opt_before


class TestDominationRule:
    def test_dominating_vertex_forced(self):
        # 0 dominates 1: N[1]={0,1,2} subseteq N[0]={0,1,2,3}
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        state = fresh_state(g)
        assert domination_rule(g, state, Workspace.for_graph(g))
        assert state.deg[0] == REMOVED

    def test_no_domination_on_cycle(self):
        from repro.graph.generators.structured import cycle_graph

        g = cycle_graph(5)
        state = fresh_state(g)
        assert not domination_rule(g, state, Workspace.for_graph(g))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 11), p=st.floats(0.2, 0.8), seed=st.integers(0, 300))
    def test_preserves_optimum(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        opt_before, _ = brute_force_mvc(g)
        state = fresh_state(g)
        domination_rule(g, state, Workspace.for_graph(g))
        check_state_consistency(g, state)
        alive = [v for v in range(n) if state.deg[v] >= 0]
        opt_after, _ = brute_force_mvc(g.subgraph(alive))
        assert state.cover_size + opt_after == opt_before


class TestExtendedReducer:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 13), p=st.floats(0.15, 0.7), seed=st.integers(0, 200))
    def test_search_with_extras_stays_exact(self, n, p, seed):
        from repro.core.formulation import BestBound, MVCFormulation
        from repro.core.greedy import greedy_cover

        g = gnp(n, p, seed=seed)
        opt, _ = brute_force_mvc(g)
        greedy = greedy_cover(g)
        best = BestBound(size=greedy.size, cover=greedy.cover)
        reducer = make_reducer(use_isolated_clique=True, use_domination=True)

        # a sequential search whose reduce step uses the extended cascade
        from repro.graph.degree_array import fresh_state as fs

        formulation = MVCFormulation(best)
        if g.m:
            _search_with(g, formulation, reducer)
        assert best.size == opt

    def test_extras_do_not_weaken_reductions(self):
        g = phat_complement(40, 3, seed=4)
        plain = solve_mvc_sequential(g)
        reducer = make_reducer(use_isolated_clique=True, use_domination=True)
        from repro.core.formulation import BestBound, MVCFormulation
        from repro.core.greedy import greedy_cover

        greedy = greedy_cover(g)
        best = BestBound(size=greedy.size, cover=greedy.cover)
        nodes = _search_with(g, MVCFormulation(best), reducer)
        assert best.size == plain.optimum
        # the richer kernel must not blow the tree up
        assert nodes <= plain.stats.nodes_visited * 2


def _search_with(graph, formulation, reducer) -> int:
    """Minimal DFS loop using an injected reducer; returns nodes visited."""
    from repro.core.branching import expand_children
    from repro.graph.degree_array import Workspace, fresh_state, max_degree_vertex

    ws = Workspace.for_graph(graph)
    stack = [fresh_state(graph)]
    nodes = 0
    while stack:
        state = stack.pop()
        nodes += 1
        reducer(graph, state, formulation, ws)
        if formulation.prune(state):
            continue
        if state.edge_count == 0:
            formulation.accept(state)
            continue
        vmax = max_degree_vertex(state.deg)
        deferred, continued = expand_children(graph, state, vmax, ws)
        stack.append(deferred)
        stack.append(continued)
    return nodes


class TestBranchingPivots:
    def test_pivot_registry(self):
        assert set(PIVOTS) == {"max_degree", "min_degree", "random"}

    def test_max_degree_pivot(self):
        g = star_graph(4)
        assert max_degree_pivot(fresh_state(g)) == 0

    def test_min_degree_pivot(self):
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert min_positive_degree_pivot(fresh_state(g)) == 3

    def test_random_pivot_default_rng(self):
        # rng=None must not crash (CLI sweeps pass no seed); the fallback
        # generator is seeded, so a fresh one replays the same choices.
        import repro.core.branching as branching_mod

        g = path_graph(5)
        branching_mod._default_pivot_rng = None
        first = [random_pivot(fresh_state(g)) for _ in range(6)]
        branching_mod._default_pivot_rng = None
        assert [random_pivot(fresh_state(g)) for _ in range(6)] == first
        assert all(fresh_state(g).deg[v] > 0 for v in first)

    def test_random_pivot_explicit_rng_unchanged(self):
        g = path_graph(5)
        a = random_pivot(fresh_state(g), np.random.default_rng(7))
        b = random_pivot(fresh_state(g), np.random.default_rng(7))
        assert a == b

    def test_all_pivots_yield_exact_search(self, rng):
        g = gnp(14, 0.4, seed=31)
        opt, _ = brute_force_mvc(g)
        for name in PIVOTS:
            out = solve_mvc_sequential(g, pivot=PIVOTS[name], rng=rng)
            assert out.optimum == opt, name


class TestGridDescent:
    def test_grid_matches_root_mode(self):
        g = phat_complement(50, 3, seed=8)
        ref = solve_mvc_sequential(g).optimum
        for mode in ("root", "grid"):
            res = StackOnlyEngine(device=TINY_SIM, start_depth=4, descent_mode=mode).solve_mvc(g)
            assert res.optimum == ref, mode

    def test_grid_mode_records_expansion(self):
        g = phat_complement(50, 3, seed=8)
        res = StackOnlyEngine(device=TINY_SIM, start_depth=4, descent_mode="grid").solve_mvc(g)
        exp = res.stats.params["grid_expansion"]
        assert exp["expansion_cycles"] > 0
        assert exp["peak_frontier"] >= 1

    def test_grid_avoids_redundant_descent(self):
        g = phat_complement(50, 3, seed=8)
        root = StackOnlyEngine(device=TINY_SIM, start_depth=6, descent_mode="root").solve_mvc(g)
        grid = StackOnlyEngine(device=TINY_SIM, start_depth=6, descent_mode="grid").solve_mvc(g)
        assert grid.nodes_visited < root.nodes_visited

    def test_grid_memory_error(self):
        # a device with almost no memory headroom: the frontier cannot fit
        cramped = DeviceSpec(
            name="Cramped", num_sms=1, max_threads_per_sm=128,
            max_blocks_per_sm=1, shared_mem_per_sm=48 * 1024,
            max_shared_mem_per_block=48 * 1024,
            global_mem_bytes=12 * 1024, max_threads_per_block=128,
        )
        g = phat_complement(50, 3, seed=8)
        with pytest.raises(GridMemoryError):
            StackOnlyEngine(device=cramped, start_depth=10, descent_mode="grid").solve_mvc(g)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            StackOnlyEngine(descent_mode="teleport")


class TestMemoryReport:
    def test_report_fields(self):
        g = phat_complement(60, 2, seed=3)
        rep = memory_report(g, SMALL_SIM)
        assert rep.stack_bytes_total == rep.stack_bytes_per_block * rep.launch.num_blocks
        assert 0 < rep.global_mem_utilisation < 1
        assert rep.entry_bytes > g.n * 4

    def test_pvc_bound_uses_k(self):
        g = phat_complement(60, 2, seed=3)
        small_k = memory_report(g, SMALL_SIM, k=5)
        mvc = memory_report(g, SMALL_SIM)
        assert small_k.stack_bytes_per_block < mvc.stack_bytes_per_block

    def test_render(self):
        g1 = phat_complement(40, 2, seed=1)
        g2 = gnp(200, 0.05, seed=2)
        text = render_memory_table([memory_report(g, SMALL_SIM) for g in (g1, g2)])
        assert "Memory budget" in text
        assert text.count("\n") >= 3

    def test_summary_line(self):
        g = phat_complement(40, 2, seed=1)
        assert "kernel" in memory_report(g, SMALL_SIM).summary()
