"""Unit tests of the shared engine scaffolding: the per-node processing
step, the worklist wait/termination protocol, and launch bookkeeping."""

import numpy as np
import pytest

from repro.core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from repro.core.greedy import greedy_cover
from repro.engines.base import PRUNED, SOLUTION, SimEngineBase
from repro.engines.hybrid import HybridEngine
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import fresh_state
from repro.graph.generators.structured import path_graph, petersen, star_graph
from repro.sim.broker import BrokerWorklist
from repro.sim.context import BlockContext, SharedState
from repro.sim.costmodel import CostModel
from repro.sim.device import TINY_SIM
from repro.sim.launch import select_launch_config


def make_shared(graph, formulation, num_blocks=2) -> SharedState:
    launch = select_launch_config(TINY_SIM, graph.n, 8)
    shared = SharedState(
        graph=graph,
        formulation=formulation,
        worklist=BrokerWorklist(capacity=16),
        device=TINY_SIM,
        launch=launch,
        cost=CostModel(),
        num_blocks=num_blocks,
    )
    shared.active = num_blocks
    return shared


class TestProcessNode:
    def test_solution_path(self):
        g = star_graph(3)
        best = BestBound(size=g.n + 1)
        shared = make_shared(g, MVCFormulation(best))
        ctx = BlockContext(0, 0, shared, 8)
        outcome = SimEngineBase.process_node(ctx, fresh_state(g))
        # the degree-one rule solves a star outright
        assert outcome is SOLUTION
        assert best.size == 1
        assert ctx.metrics.nodes_visited == 1

    def test_prune_path(self):
        g = petersen()
        shared = make_shared(g, MVCFormulation(BestBound(size=2)))  # impossible bound
        ctx = BlockContext(0, 0, shared, 8)
        assert SimEngineBase.process_node(ctx, fresh_state(g)) is PRUNED

    def test_branch_path_returns_children(self):
        g = petersen()
        shared = make_shared(g, MVCFormulation(BestBound(size=g.n + 1)))
        ctx = BlockContext(0, 0, shared, 8)
        outcome = SimEngineBase.process_node(ctx, fresh_state(g))
        assert isinstance(outcome, tuple)
        deferred, continued = outcome
        # the two children cover the two Fig. 4 branches
        assert deferred.cover_size == 3    # N(vmax) removed (cubic graph)
        assert continued.cover_size == 1   # vmax removed

    def test_charges_find_max(self):
        g = petersen()
        shared = make_shared(g, MVCFormulation(BestBound(size=g.n + 1)))
        ctx = BlockContext(0, 0, shared, 8)
        SimEngineBase.process_node(ctx, fresh_state(g))
        assert ctx.metrics.cycles_by_kind.get("find_max", 0) > 0

    def test_node_budget_marks_timeout(self):
        g = petersen()
        shared = make_shared(g, MVCFormulation(BestBound(size=g.n + 1)))
        shared.node_budget = 1
        ctx = BlockContext(0, 0, shared, 8)
        SimEngineBase.process_node(ctx, fresh_state(g))
        assert shared.timed_out


class TestWaitRemoveProtocol:
    def _drive(self, gen):
        """Run a wait-remove generator to completion; return its value."""
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def test_immediate_success(self):
        g = path_graph(3)
        shared = make_shared(g, MVCFormulation(BestBound(size=4)), num_blocks=1)
        shared.worklist.add(fresh_state(g), 0.0)
        ctx = BlockContext(0, 0, shared, 8)
        got = self._drive(SimEngineBase.wl_wait_remove(ctx))
        assert got is not None
        assert shared.waiting == 0

    def test_lone_block_declares_done_on_empty(self):
        g = path_graph(3)
        shared = make_shared(g, MVCFormulation(BestBound(size=4)), num_blocks=1)
        ctx = BlockContext(0, 0, shared, 8)
        got = self._drive(SimEngineBase.wl_wait_remove(ctx))
        assert got is None
        assert shared.done
        assert shared.waiting == 0

    def test_stop_flag_aborts_wait(self):
        g = path_graph(3)
        flag = FoundFlag()
        shared = make_shared(g, PVCFormulation(k=1, flag=flag), num_blocks=2)
        ctx = BlockContext(0, 0, shared, 8)
        gen = SimEngineBase.wl_wait_remove(ctx)
        flag.set(fresh_state(g))  # another "block" finds a cover
        got = self._drive(gen)
        assert got is None
        assert not shared.done  # termination came from the flag, not drain

    def test_waiting_counter_balanced_after_success(self):
        g = path_graph(3)
        shared = make_shared(g, MVCFormulation(BestBound(size=4)), num_blocks=2)
        shared.worklist.add(fresh_state(g), 0.0)
        ctx = BlockContext(0, 0, shared, 8)
        self._drive(SimEngineBase.wl_wait_remove(ctx))
        assert shared.waiting == 0

    def test_sleep_accounted_to_wl_remove(self):
        g = path_graph(3)
        shared = make_shared(g, MVCFormulation(BestBound(size=4)), num_blocks=2)
        ctx = BlockContext(0, 0, shared, 8)
        gen = SimEngineBase.wl_wait_remove(ctx)
        next(gen)  # first failed try + sleep
        assert ctx.metrics.wl_sleeps >= 0
        shared.timed_out = True  # let it exit
        self._drive(gen)
        assert ctx.metrics.cycles_by_kind.get("wl_remove", 0) > 0


class TestEngineBookkeeping:
    def test_empty_graph_result_shape(self):
        res = HybridEngine(device=TINY_SIM).solve_mvc(CSRGraph.empty(6))
        assert res.optimum == 0
        assert res.nodes_visited == 0
        assert res.stats.makespan_cycles == 0.0
        assert res.stats.metrics.blocks == []

    def test_params_recorded(self):
        res = HybridEngine(device=TINY_SIM, worklist_capacity=128,
                           worklist_threshold_fraction=0.5).solve_mvc(petersen())
        assert res.stats.params["worklist_capacity"] == 128
        assert res.stats.params["worklist_threshold"] == 64
        assert res.stats.params["device"] == "TinySim"

    def test_launch_attached(self):
        res = HybridEngine(device=TINY_SIM).solve_mvc(petersen())
        assert res.stats.launch.num_blocks == len(res.stats.metrics.blocks)
        assert res.stats.launch.stack_depth_bound >= greedy_cover(petersen()).size

    def test_finish_times_bounded_by_makespan(self):
        res = HybridEngine(device=TINY_SIM).solve_mvc(petersen())
        for block in res.stats.metrics.blocks:
            assert block.finish_time <= res.stats.makespan_cycles + 1e-9
