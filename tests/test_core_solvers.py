"""Tests for greedy, brute-force, sequential MVC/PVC and the facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute import all_minimum_covers, brute_force_mvc, brute_force_pvc
from repro.core.greedy import greedy_cover
from repro.core.sequential import solve_mvc_sequential, solve_pvc_sequential
from repro.core.solver import ENGINES, solve_mvc, solve_pvc
from repro.core.verify import (
    assert_valid_cover,
    is_vertex_cover,
    minimal_cover_certificate,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators.random_graphs import gnp, planted_cover
from repro.graph.generators.structured import (
    complete_bipartite,
    cycle_graph,
    mvc_of_structured,
    path_graph,
    petersen,
    star_graph,
)


class TestBruteForce:
    def test_known_optima(self, small_graphs):
        for name, g, opt in small_graphs:
            size, cover = brute_force_mvc(g)
            assert size == opt, name
            assert is_vertex_cover(g, cover)

    def test_pvc_feasibility_boundary(self):
        g = petersen()
        assert brute_force_pvc(g, 6) is not None
        assert brute_force_pvc(g, 5) is None

    def test_pvc_returns_valid_cover(self):
        g = cycle_graph(7)
        cover = brute_force_pvc(g, 4)
        assert cover is not None and is_vertex_cover(g, cover)

    def test_all_minimum_covers_path3(self):
        g = path_graph(3)
        covers = all_minimum_covers(g)
        assert covers == [frozenset({1})]

    def test_empty_graph(self):
        size, cover = brute_force_mvc(CSRGraph.empty(4))
        assert size == 0 and cover == set()


class TestGreedy:
    def test_returns_valid_cover(self, small_graphs):
        for name, g, opt in small_graphs:
            res = greedy_cover(g)
            assert is_vertex_cover(g, res.cover), name
            assert res.size == len(res.cover)
            assert res.size >= opt

    def test_exact_on_star(self):
        res = greedy_cover(star_graph(9))
        assert res.size == 1

    def test_empty_graph(self):
        res = greedy_cover(CSRGraph.empty(3))
        assert res.size == 0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 20), p=st.floats(0.1, 0.8), seed=st.integers(0, 300))
    def test_greedy_upper_bounds_optimum(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        res = greedy_cover(g)
        assert is_vertex_cover(g, res.cover)
        if n <= 14:
            opt, _ = brute_force_mvc(g)
            assert res.size >= opt


class TestSequentialMVC:
    def test_known_optima(self, small_graphs):
        for name, g, opt in small_graphs:
            out = solve_mvc_sequential(g)
            assert out.optimum == opt, name
            assert_valid_cover(g, out.cover, out.optimum)

    def test_matches_brute_force_on_random(self, random_graph_family):
        for g in random_graph_family:
            out = solve_mvc_sequential(g)
            opt, _ = brute_force_mvc(g)
            assert out.optimum == opt

    def test_optimum_cover_is_minimal(self, random_graph_family):
        for g in random_graph_family:
            out = solve_mvc_sequential(g)
            assert minimal_cover_certificate(g, out.cover) == []

    def test_empty_graph(self):
        out = solve_mvc_sequential(CSRGraph.empty(5))
        assert out.optimum == 0 and len(out.cover) == 0

    def test_single_edge(self):
        out = solve_mvc_sequential(CSRGraph.from_edges(2, [(0, 1)]))
        assert out.optimum == 1

    def test_node_budget_trips(self):
        g = gnp(40, 0.3, seed=50)
        out = solve_mvc_sequential(g, node_budget=3)
        assert out.timed_out
        # best-so-far is still a valid cover (greedy at minimum)
        assert is_vertex_cover(g, out.cover)

    def test_planted_cover_upper_bound(self):
        g = planted_cover(30, 8, seed=9)
        out = solve_mvc_sequential(g)
        assert out.optimum <= 8

    def test_stats_populated(self):
        g = gnp(14, 0.4, seed=2)
        out = solve_mvc_sequential(g)
        assert out.stats.nodes_visited >= 1
        assert out.stats.nodes_visited == out.stats.branches + out.stats.prunes + out.stats.solutions_found


class TestSequentialPVC:
    def test_feasibility_boundary(self, small_graphs):
        for name, g, opt in small_graphs:
            if g.m == 0:
                continue
            assert solve_pvc_sequential(g, opt).feasible is True, name
            if opt > 0:
                assert solve_pvc_sequential(g, opt - 1).feasible is False, name

    def test_found_cover_within_k(self):
        g = petersen()
        out = solve_pvc_sequential(g, 7)
        assert out.feasible and out.optimum <= 7
        assert_valid_cover(g, out.cover, out.optimum)

    def test_k_zero_on_edgeless(self):
        out = solve_pvc_sequential(CSRGraph.empty(3), 0)
        assert out.feasible is True and out.optimum == 0

    def test_k_zero_with_edges(self):
        out = solve_pvc_sequential(path_graph(3), 0)
        assert out.feasible is False

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            solve_pvc_sequential(path_graph(3), -1)

    def test_tiny_k_proved_infeasible_at_root(self):
        # |E| > (k - |S|)^2 prunes the root immediately: infeasibility of a
        # small k is *proven*, not budgeted out (Fig. 1 line 5's bound).
        g = gnp(40, 0.3, seed=51)
        out = solve_pvc_sequential(g, 5, node_budget=2)
        assert out.feasible is False and not out.timed_out
        assert out.stats.nodes_visited <= 2

    def test_timeout_reports_unknown(self):
        # k large enough that the root bound cannot prune, small enough
        # that no cover is found in two nodes -> budget trips, undetermined.
        g = gnp(40, 0.3, seed=51)
        out = solve_pvc_sequential(g, 25, node_budget=2)
        assert out.timed_out and out.feasible is None


class TestFacade:
    def test_engine_names_stable(self):
        assert set(ENGINES) == {
            "sequential", "stackonly", "hybrid", "globalonly",
            "cpu-threads", "cpu-process", "distributed",
        }

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            solve_mvc(path_graph(3), engine="quantum")
        with pytest.raises(ValueError, match="unknown engine"):
            solve_pvc(path_graph(3), 1, engine="quantum")

    def test_retired_worksteal_engine_rejected(self, capsys):
        """``cpu-worksteal`` is gone with no alias: the facade, the
        experiment spec and the CLI reject it like any unknown name."""
        from repro.cli import main
        from repro.experiment.spec import load_spec

        with pytest.raises(ValueError, match="unknown engine"):
            solve_mvc(path_graph(3), engine="cpu-worksteal")
        with pytest.raises(ValueError, match="unknown engine"):
            solve_pvc(path_graph(3), 1, engine="cpu-worksteal")
        with pytest.raises(ValueError, match="unknown engine 'cpu-worksteal'"):
            load_spec({"name": "x", "scale": "tiny", "instances": ["p_hat_300_1"],
                       "engines": ["cpu-worksteal"]})
        assert main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                     "--engine", "cpu-worksteal"]) == 2
        assert "unknown engine 'cpu-worksteal'" in capsys.readouterr().out

    def test_facade_dispatch_sequential(self):
        out = solve_mvc(petersen())
        assert out.optimum == 6

    def test_structured_formula_helper(self):
        assert mvc_of_structured("path", 7) == 3
        assert mvc_of_structured("complete_bipartite", 3, 9) == 3
        with pytest.raises(ValueError):
            mvc_of_structured("nope")


class TestTrueDepthTracking:
    """``max_depth_reached`` must count true ancestry depth: a continued
    child deepens the tree without a stack push, so whenever branching
    resumes under a popped deferred child the old ``len(stack)`` aliasing
    undercounted (corrupting the Fig. 4 tree-shape analyses)."""

    # gnp(24, 0.2, seed=4) frozen as an explicit edge list: under the
    # min-degree pivot its traversal provably reaches tree depth 2 while
    # the stack never holds more than one deferred child.
    DIVERGENT_N = 24
    DIVERGENT_EDGES = [
        (0, 4), (0, 8), (0, 19), (1, 2), (1, 21), (2, 3), (2, 9), (3, 4),
        (3, 9), (3, 14), (3, 18), (4, 7), (4, 9), (4, 12), (4, 19), (4, 20),
        (5, 9), (5, 17), (6, 13), (6, 20), (6, 22), (7, 23), (9, 13), (9, 15),
        (9, 20), (9, 22), (10, 13), (10, 14), (10, 17), (10, 21), (12, 13),
        (12, 19), (14, 20), (15, 19), (15, 20), (15, 22), (16, 23), (17, 22),
        (17, 23), (19, 22),
    ]

    @staticmethod
    def _recursive_max_depth(g, form, pivot):
        """Continued-first DFS replicating branch_and_reduce's visit order,
        recording the true depth of every child created."""
        import sys

        from repro.core.branching import expand_children
        from repro.core.reductions import apply_reductions
        from repro.graph.degree_array import Workspace, fresh_state

        ws = Workspace.for_graph(g)
        deepest = [0]
        sys.setrecursionlimit(10_000)

        def visit(state, depth):
            apply_reductions(g, state, form, ws)
            if form.prune(state):
                return
            if state.edge_count == 0:
                form.accept(state)
                return
            vmax = pivot(state, None)
            deferred, cont = expand_children(g, state, vmax, ws)
            deepest[0] = max(deepest[0], depth + 1)
            visit(cont, depth + 1)
            visit(deferred, depth + 1)

        visit(fresh_state(g), 0)
        return deepest[0]

    def test_depth_exceeds_stack_on_divergent_instance(self):
        from repro.core.branching import PIVOTS
        from repro.core.formulation import BestBound, MVCFormulation
        from repro.core.sequential import branch_and_reduce

        g = CSRGraph.from_edges(self.DIVERGENT_N, self.DIVERGENT_EDGES)
        pivot = PIVOTS["min_degree"]
        ref_form = MVCFormulation(BestBound(size=g.n + 1))
        true_depth = self._recursive_max_depth(g, ref_form, pivot)

        form = MVCFormulation(BestBound(size=g.n + 1))
        stats = branch_and_reduce(g, form, pivot=pivot)
        assert form.best.size == ref_form.best.size
        assert stats.max_depth_reached == true_depth
        assert stats.max_depth_reached > stats.max_stack_depth  # the regression

    def test_depth_matches_recursive_reference_across_graphs(self):
        from repro.core.branching import PIVOTS
        from repro.core.formulation import BestBound, MVCFormulation
        from repro.core.sequential import branch_and_reduce

        cases = [(gnp(18, 0.25, seed=7), "max_degree"),
                 (gnp(30, 0.15, seed=37), "max_degree"),
                 (gnp(20, 0.25, seed=0), "min_degree"),
                 (petersen(), "max_degree"),
                 (cycle_graph(11), "max_degree")]
        for g, pname in cases:
            pivot = PIVOTS[pname]
            true_depth = self._recursive_max_depth(
                g, MVCFormulation(BestBound(size=g.n + 1)), pivot)
            stats = branch_and_reduce(g, MVCFormulation(BestBound(size=g.n + 1)),
                                      pivot=pivot)
            assert stats.max_depth_reached == true_depth, pname
            assert stats.max_depth_reached >= stats.max_stack_depth

    def test_pure_continued_chain_depth_equals_stack(self):
        """Sanity: with no divergence (a path graph explored under a no-op
        reducer, every deferred child resolving immediately) the two
        statistics coincide — the fix only ever raises depth."""
        from repro.core.formulation import BestBound, MVCFormulation
        from repro.core.sequential import branch_and_reduce

        def noop(graph, state, formulation, ws, charge=None, counters=None):
            state.dirty = None

        g = path_graph(12)
        stats = branch_and_reduce(g, MVCFormulation(BestBound(size=g.n + 1)),
                                  reducer=noop)
        assert stats.max_depth_reached == stats.max_stack_depth > 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 14), p=st.floats(0.1, 0.8), seed=st.integers(0, 400))
def test_sequential_matches_brute_force_property(n, p, seed):
    g = gnp(n, p, seed=seed)
    out = solve_mvc_sequential(g)
    opt, _ = brute_force_mvc(g)
    assert out.optimum == opt
    assert is_vertex_cover(g, out.cover)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 12), p=st.floats(0.1, 0.8), seed=st.integers(0, 400),
       delta=st.integers(-2, 2))
def test_pvc_consistent_with_mvc_property(n, p, seed, delta):
    g = gnp(n, p, seed=seed)
    opt, _ = brute_force_mvc(g)
    k = opt + delta
    if k < 0:
        return
    out = solve_pvc_sequential(g, k)
    assert out.feasible == (k >= opt)
