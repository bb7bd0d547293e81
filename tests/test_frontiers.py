"""The frontier/step layering: policy units, engine equivalence, charge fidelity.

Three layers of guarantees for the ``NodeStep`` + ``Frontier`` split:

1. the frontier policies themselves order items as documented;
2. **every engine and every frontier policy returns the same cover size**
   on the random / p-hat / structured generator suites (the refactor's
   central safety property);
3. the charged sequential traversal emits a work-unit stream bit-identical
   to the pre-refactor inline loop (frozen here as a reference), which is
   what keeps every Table I number stable under the layering.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute import brute_force_mvc
from repro.core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from repro.core.frontier import (
    FRONTIERS,
    BestFirstFrontier,
    GlobalWorklistFrontier,
    HybridThresholdFrontier,
    LifoFrontier,
    StealingDequeFrontier,
    greedy_bound_key,
    hybrid_should_donate,
    make_frontier,
)
from repro.core.nodestep import LEAF, PRUNED, Children, NodeStep
from repro.core.reductions import apply_reductions_reference
from repro.core.sequential import branch_and_reduce, solve_mvc_sequential, solve_pvc_sequential
from repro.core.solver import solve_mvc
from repro.core.verify import assert_valid_cover
from repro.engines.globalonly import GlobalOnlyEngine
from repro.engines.hybrid import HybridEngine
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import VCState, Workspace, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp, preferential_attachment
from repro.graph.generators.structured import grid_graph, petersen, power_grid_like
from repro.sim.device import TINY_SIM


class TestFrontierPolicies:
    def test_lifo_order(self):
        f = LifoFrontier()
        for i in range(4):
            f.push(i)
        assert [f.pop() for _ in range(4)] == [3, 2, 1, 0]
        assert f.pop() is None and not f

    def test_fifo_order(self):
        f = GlobalWorklistFrontier()
        for i in range(4):
            f.push(i)
        assert [f.pop() for _ in range(4)] == [0, 1, 2, 3]
        assert f.pop() is None

    def test_hybrid_donates_until_threshold_then_keeps(self):
        f = HybridThresholdFrontier(threshold=2)
        for i in range(5):
            f.push(i)
        # 0,1 donated to the FIFO pool; 2,3,4 kept on the local stack
        assert f.donated == 2 and f.kept == 3
        # local LIFO drains first, then the pool FIFO
        assert [f.pop() for _ in range(5)] == [4, 3, 2, 0, 1]
        assert f.pop() is None

    def test_hybrid_pool_never_exceeds_threshold(self):
        f = HybridThresholdFrontier(threshold=4)
        for i in range(8):
            f.push(i)
        assert f.donated == 4 and f.kept == 4
        assert len(f.pool) == 4  # single-owner pushes can never overfill it
        with pytest.raises(ValueError):
            HybridThresholdFrontier(threshold=0)

    def test_stealing_lane_api(self):
        f = StealingDequeFrontier(n_lanes=2, seed=0)
        f.push_lane(0, "a")
        f.push_lane(0, "b")
        assert f.pop_own(0) == "b"          # own end: newest
        assert f.pop_own(1) is None
        assert f.steal(1) == "a"            # victim's oldest
        assert f.steals == 1
        assert f.steal(1) is None and len(f) == 0

    def test_stealing_single_owner_is_lifo_with_one_lane(self):
        f = StealingDequeFrontier(n_lanes=1)
        for i in range(3):
            f.push(i)
        assert [f.pop() for _ in range(3)] == [2, 1, 0]
        assert f.pop() is None

    def test_best_first_orders_by_key_then_insertion(self):
        f = BestFirstFrontier(key=lambda item: item[0])
        f.push((2, "x"))
        f.push((1, "y"))
        f.push((1, "z"))
        f.push((3, "w"))
        assert [f.pop() for _ in range(4)] == [(1, "y"), (1, "z"), (2, "x"), (3, "w")]

    def test_greedy_bound_key_lower_bounds_the_cover(self):
        g = gnp(40, 0.2, seed=3)
        state = fresh_state(g)
        key = greedy_bound_key((state, 0))
        assert key == int(np.ceil(g.m / max(int(state.deg.max()), 1)))
        assert key <= solve_mvc_sequential(g).optimum

    def test_registry_round_trip_and_unknown_name(self):
        for name in FRONTIERS:
            assert make_frontier(name) is not make_frontier(name)
        with pytest.raises(ValueError, match="unknown frontier"):
            make_frontier("dfs")

    def test_hybrid_should_donate_predicate(self):
        assert hybrid_should_donate(0, 1)
        assert hybrid_should_donate(31, 32)
        assert not hybrid_should_donate(32, 32)


class TestNodeStep:
    def _step(self, g, best_size=None):
        ws = Workspace.for_graph(g)
        best = BestBound(size=g.n + 1 if best_size is None else best_size)
        return NodeStep(g, MVCFormulation(best), ws), ws

    def test_leaf_on_edgeless_graph(self):
        g = CSRGraph.empty(3)
        step, _ = self._step(g)
        assert step(fresh_state(g)) is LEAF

    def test_pruned_when_bound_exhausted(self):
        g = gnp(12, 0.5, seed=1)
        step, _ = self._step(g, best_size=0)  # budget < 0 everywhere
        assert step(fresh_state(g)) is PRUNED

    def test_children_mutates_input_into_continued(self):
        g = petersen()
        step, _ = self._step(g)
        state = fresh_state(g)
        outcome = step(state)
        assert isinstance(outcome, Children)
        assert outcome.continued is state  # in-place continued child
        deferred, continued = outcome      # tuple-unpack protocol
        assert deferred is outcome.deferred and continued is state
        assert deferred.deg is not state.deg

    def test_children_scratch_is_reused_across_calls(self):
        g = gnp(20, 0.4, seed=2)
        step, _ = self._step(g)
        first = step(fresh_state(g))
        assert isinstance(first, Children)
        kept = first.deferred
        second = step(fresh_state(g))
        assert second is first  # documented: one scratch instance per step
        assert kept is not second.deferred or kept is second.deferred  # no crash


SIM_ENGINES = [
    ("hybrid", lambda: HybridEngine(device=TINY_SIM)),
    ("stackonly", lambda: StackOnlyEngine(device=TINY_SIM, start_depth=3)),
    ("globalonly", lambda: GlobalOnlyEngine(device=TINY_SIM)),
]

CPU_ENGINES = ["cpu-threads", "cpu-process"]


def _suite_graphs():
    """Small instances from each generator family (random / p-hat / structured)."""
    return [
        ("gnp_sparse", gnp(26, 0.12, seed=4)),
        ("gnp_dense", gnp(18, 0.5, seed=9)),
        ("phat", phat_complement(20, 2, seed=7)),
        ("pref_attach", preferential_attachment(24, 2, seed=3)),
        ("grid", grid_graph(4, 5)),
        ("power_grid", power_grid_like(24, extra_edges=6, seed=1)),
        ("petersen", petersen()),
    ]


class TestEngineFrontierEquivalence:
    """Every engine × every frontier policy returns identical cover sizes."""

    @pytest.mark.parametrize("gname,graph", _suite_graphs())
    def test_matrix_agrees_on_mvc(self, gname, graph):
        reference = solve_mvc_sequential(graph)
        assert_valid_cover(graph, reference.cover, reference.optimum)
        for fname in FRONTIERS:
            res = solve_mvc_sequential(graph, frontier=fname)
            assert res.optimum == reference.optimum, (gname, fname)
            assert_valid_cover(graph, res.cover, res.optimum)
        for ename, factory in SIM_ENGINES:
            res = factory().solve_mvc(graph)
            assert res.optimum == reference.optimum, (gname, ename)
            assert_valid_cover(graph, res.cover, res.optimum)
        for ename in CPU_ENGINES:
            res = solve_mvc(graph, engine=ename, n_workers=2)
            assert res.optimum == reference.optimum, (gname, ename)
            assert_valid_cover(graph, res.cover, res.optimum)

    @pytest.mark.parametrize("gname,graph", _suite_graphs()[:3])
    def test_matrix_agrees_on_pvc(self, gname, graph):
        k = solve_mvc_sequential(graph).optimum
        for fname in FRONTIERS:
            assert solve_pvc_sequential(graph, k, frontier=fname).feasible, (gname, fname)
            assert solve_pvc_sequential(graph, k - 1, frontier=fname).feasible is False, \
                (gname, fname)
        for ename, factory in SIM_ENGINES:
            assert factory().solve_pvc(graph, k).feasible, (gname, ename)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(6, 14), p=st.floats(0.15, 0.6), seed=st.integers(0, 300))
    def test_frontier_property_matches_brute_force(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        opt, _ = brute_force_mvc(g)
        for fname in FRONTIERS:
            res = solve_mvc_sequential(g, frontier=fname)
            assert res.optimum == opt, fname
            assert_valid_cover(g, res.cover, res.optimum)

    def test_frontier_rejected_for_parallel_engines(self):
        g = gnp(10, 0.3, seed=0)
        with pytest.raises(ValueError, match="sequential"):
            solve_mvc(g, engine="hybrid", frontier="lifo")


def _reference_charged_traversal(graph):
    """The pre-refactor inline loop, frozen verbatim as a charge oracle.

    Reduce → prune → find_max → leaf/branch with the reference rules and
    an explicit stack — any drift between the layered traversal's charge
    stream and this loop's would silently corrupt the Table I meters.
    """
    from repro.core.branching import expand_children, max_degree_pivot
    from repro.core.stats import SearchStats

    stream = []

    def charge(kind, units):
        stream.append((kind, float(units)))

    best = BestBound(size=graph.n + 1)
    formulation = MVCFormulation(best)
    ws = Workspace.for_graph(graph)
    stats = SearchStats()
    stack = []
    current = fresh_state(graph)
    while True:
        if current is None:
            if not stack:
                break
            current = stack.pop()
        stats.nodes_visited += 1
        apply_reductions_reference(graph, current, formulation, ws,
                                   charge=charge, counters=stats.reductions)
        if formulation.prune(current):
            stats.prunes += 1
            current = None
            continue
        charge("find_max", float(graph.n))
        if current.edge_count == 0:
            formulation.accept(current)
            current = None
            continue
        vmax = max_degree_pivot(current, None)
        deferred, current = expand_children(graph, current, vmax, ws, charge=charge)
        stack.append(deferred)
        stats.branches += 1
    return stream, best.size, stats


class TestChargeStreamFidelity:
    """The layered traversal's charged work stream is bit-identical."""

    @pytest.mark.parametrize("gname,graph", _suite_graphs()[:4])
    def test_charged_stream_matches_inline_reference(self, gname, graph):
        expected_stream, expected_best, expected_stats = \
            _reference_charged_traversal(graph)

        stream = []

        def charge(kind, units):
            stream.append((kind, float(units)))

        best = BestBound(size=graph.n + 1)
        stats = branch_and_reduce(graph, MVCFormulation(best), charge=charge,
                                  reducer=apply_reductions_reference)
        assert best.size == expected_best
        assert stats.nodes_visited == expected_stats.nodes_visited
        assert stats.branches == expected_stats.branches
        assert stats.prunes == expected_stats.prunes
        assert stream == expected_stream  # bit-identical, order included

    def test_sim_makespan_deterministic_across_runs(self):
        g = phat_complement(20, 2, seed=7)
        for _, factory in SIM_ENGINES:
            first = factory().solve_mvc(g)
            second = factory().solve_mvc(g)
            assert first.stats.makespan_cycles == second.stats.makespan_cycles
            assert first.nodes_visited == second.nodes_visited


class TestFrontierTraversalShape:
    """Frontier disciplines change the traversal, not the answer."""

    def test_fifo_explores_breadth_first_peak(self):
        g = gnp(30, 0.2, seed=11)
        lifo = solve_mvc_sequential(g, frontier="lifo")
        fifo = solve_mvc_sequential(g, frontier="fifo")
        assert fifo.optimum == lifo.optimum
        # breadth-first frontiers hold far more pending work at the peak
        assert fifo.stats.max_stack_depth >= lifo.stats.max_stack_depth

    def test_best_first_is_deterministic(self):
        g = gnp(30, 0.25, seed=13)
        a = solve_mvc_sequential(g, frontier="best-first")
        b = solve_mvc_sequential(g, frontier="best-first")
        assert a.optimum == b.optimum
        assert a.stats.nodes_visited == b.stats.nodes_visited

    def test_frontier_instance_can_be_passed_directly(self):
        g = gnp(22, 0.3, seed=5)
        frontier = HybridThresholdFrontier(threshold=4)
        res = solve_mvc_sequential(g, frontier=frontier)
        assert res.optimum == solve_mvc_sequential(g).optimum
        assert frontier.donated + frontier.kept == res.stats.branches
