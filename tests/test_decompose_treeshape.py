"""Tests for component-wise solving, PVC binary search and tree-shape stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tree_shape import measure_tree_shape, render_tree_shape
from repro.core.brute import brute_force_mvc
from repro.core.decompose import optimum_via_pvc, solve_mvc_by_components
from repro.core.sequential import solve_mvc_sequential
from repro.core.verify import assert_valid_cover
from repro.graph.csr import CSRGraph
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    petersen,
    star_graph,
)


class TestComponentwiseSolving:
    def test_union_optimum_is_sum(self):
        g = disjoint_union(petersen(), cycle_graph(5), complete_graph(4))
        res = solve_mvc_by_components(g)
        assert res.optimum == 6 + 3 + 3
        assert len(res.stats) == 3  # one outcome per component
        assert sorted(part.optimum for part in res.stats) == [3, 3, 6]
        assert_valid_cover(g, res.cover, res.optimum)

    def test_matches_joint_solve(self):
        g = disjoint_union(gnp(12, 0.4, seed=1), gnp(10, 0.3, seed=2))
        joint = solve_mvc_sequential(g)
        split = solve_mvc_by_components(g)
        assert split.optimum == joint.optimum

    def test_split_search_is_cheaper(self):
        a = phat_complement(40, 3, seed=1)
        g = disjoint_union(a, a)
        joint = solve_mvc_sequential(g)
        split = solve_mvc_by_components(g)
        assert split.optimum == joint.optimum
        assert split.nodes_visited < joint.stats.nodes_visited

    def test_edgeless_components_skipped(self):
        g = disjoint_union(path_graph(3), CSRGraph.empty(4))
        res = solve_mvc_by_components(g)
        assert res.optimum == 1
        assert len(res.stats) == 5  # path + 4 isolated vertices

    def test_engine_passthrough(self):
        from repro.sim.device import TINY_SIM

        g = disjoint_union(cycle_graph(5), cycle_graph(7))
        res = solve_mvc_by_components(g, engine="hybrid", device=TINY_SIM)
        assert res.optimum == 3 + 4

    def test_budget_propagates(self):
        g = disjoint_union(gnp(30, 0.3, seed=5), gnp(30, 0.3, seed=6))
        res = solve_mvc_by_components(g, node_budget=2)
        assert res.timed_out

    @settings(max_examples=12, deadline=None)
    @given(n1=st.integers(2, 10), n2=st.integers(2, 10),
           p=st.floats(0.2, 0.7), seed=st.integers(0, 100))
    def test_componentwise_exact_property(self, n1, n2, p, seed):
        g = disjoint_union(gnp(n1, p, seed=seed), gnp(n2, p, seed=seed + 1))
        opt, _ = brute_force_mvc(g)
        assert solve_mvc_by_components(g).optimum == opt


class TestOptimumViaPvc:
    def test_recovers_optimum(self):
        g = petersen()
        assert optimum_via_pvc(g) == 6

    def test_probe_count_logarithmic(self):
        g = gnp(20, 0.4, seed=9)
        probes = []
        optimum = optimum_via_pvc(g, on_probe=lambda k, f: probes.append((k, f)))
        assert optimum == solve_mvc_sequential(g).optimum
        # binary search over [0, greedy]: at most ceil(log2(greedy+1)) probes
        assert len(probes) <= 7

    def test_empty_graph(self):
        assert optimum_via_pvc(CSRGraph.empty(5)) == 0

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            optimum_via_pvc(petersen(), lo=5, hi=2)

    def test_budget_exhaustion_returns_none(self):
        g = gnp(40, 0.3, seed=77)
        assert optimum_via_pvc(g, node_budget=1, lo=20, hi=25) is None

    def test_on_probe_observes_the_unresolved_probe(self):
        """The probe that exhausts its budget and aborts the search is
        still reported — as ``feasible=None`` — so a probe log accounts
        for every PVC query the search actually issued."""
        g = gnp(40, 0.3, seed=77)
        probes = []
        out = optimum_via_pvc(g, node_budget=1, lo=20, hi=25,
                              on_probe=lambda k, f: probes.append((k, f)))
        assert out is None
        assert probes  # the aborting query was not silently dropped
        assert probes[-1][1] is None
        assert all(f in (True, False) for _, f in probes[:-1])

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(3, 13), p=st.floats(0.2, 0.7), seed=st.integers(0, 100))
    def test_matches_brute_force_property(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        opt, _ = brute_force_mvc(g)
        assert optimum_via_pvc(g) == opt


class TestTreeShape:
    def test_counts_are_consistent(self):
        g = phat_complement(50, 3, seed=8)
        shape = measure_tree_shape(g, node_budget=20000)
        assert shape.total_nodes == sum(shape.width_per_depth)
        assert shape.width(0) == 1
        assert shape.max_depth >= 1

    def test_narrowness(self):
        # binary tree: width at depth d can never exceed 2^d
        g = phat_complement(50, 3, seed=8)
        shape = measure_tree_shape(g, node_budget=20000)
        for depth, width in enumerate(shape.width_per_depth):
            assert width <= 2 ** depth

    def test_imbalance_present_on_hard_instance(self):
        g = phat_complement(60, 3, seed=12)
        shape = measure_tree_shape(g, node_budget=30000)
        imb = shape.imbalance_at(4)
        assert imb is not None and imb > 1.5

    def test_right_children_die_young(self):
        # Section III-B: the G - N(vmax) branch is usually hopeless
        g = phat_complement(60, 3, seed=12)
        shape = measure_tree_shape(g, node_budget=30000)
        assert shape.right_prunes > shape.right_branches * 0.4

    def test_depth_for_width(self):
        g = phat_complement(60, 3, seed=12)
        shape = measure_tree_shape(g, node_budget=30000)
        d = shape.depth_for_width(4)
        assert d is not None and shape.width(d) >= 4
        assert shape.depth_for_width(10 ** 9) is None

    def test_render(self):
        g = phat_complement(40, 3, seed=3)
        text = render_tree_shape(measure_tree_shape(g, node_budget=5000), "x")
        assert "Search-tree shape" in text
        assert "Section III-B" in text

    def test_budget_respected(self):
        g = phat_complement(60, 3, seed=12)
        shape = measure_tree_shape(g, node_budget=50)
        assert shape.total_nodes <= 50

