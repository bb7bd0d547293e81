"""Behavioural tests of the simulated engines: determinism, worklist
dynamics, load balance, stack bounds and breakdown accounting."""

import numpy as np
import pytest

from repro.core.greedy import greedy_cover
from repro.engines.globalonly import GlobalOnlyEngine
from repro.engines.hybrid import HybridEngine
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.sim.costmodel import KINDS, CostModel
from repro.sim.device import SMALL_SIM, TINY_SIM

HARD = phat_complement(40, 3, seed=9)    # small and quick
BRANCHY = phat_complement(60, 3, seed=12)  # enough branching for dynamics tests


class TestDeterminism:
    def test_hybrid_bitwise_deterministic(self):
        a = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        b = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        assert a.optimum == b.optimum
        assert a.stats.makespan_cycles == b.stats.makespan_cycles
        assert a.nodes_visited == b.nodes_visited
        assert np.array_equal(a.stats.metrics.nodes_per_sm(), b.stats.metrics.nodes_per_sm())
        assert np.array_equal(a.cover, b.cover)

    def test_stackonly_deterministic(self):
        a = StackOnlyEngine(device=TINY_SIM, start_depth=4).solve_mvc(HARD)
        b = StackOnlyEngine(device=TINY_SIM, start_depth=4).solve_mvc(HARD)
        assert a.stats.makespan_cycles == b.stats.makespan_cycles
        assert np.array_equal(a.cover, b.cover)

    def test_globalonly_deterministic(self):
        a = GlobalOnlyEngine(device=TINY_SIM).solve_mvc(HARD)
        b = GlobalOnlyEngine(device=TINY_SIM).solve_mvc(HARD)
        assert a.stats.makespan_cycles == b.stats.makespan_cycles


class TestHybridDynamics:
    def test_worklist_population_conserved(self):
        res = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        wl = res.stats.worklist_stats
        assert wl.adds == wl.removes  # fully drained at termination

    def test_threshold_caps_donations(self):
        eng = HybridEngine(device=TINY_SIM, worklist_capacity=64,
                           worklist_threshold_fraction=0.25)
        res = eng.solve_mvc(HARD)
        # peak population can only exceed the threshold by in-flight adds
        assert res.stats.worklist_stats.peak_population <= 16 + res.stats.launch.num_blocks

    def test_low_threshold_reduces_worklist_traffic(self):
        busy = HybridEngine(device=TINY_SIM, worklist_capacity=1024,
                            worklist_threshold_fraction=1.0).solve_mvc(BRANCHY)
        quiet = HybridEngine(device=TINY_SIM, worklist_capacity=64,
                             worklist_threshold_fraction=0.25).solve_mvc(BRANCHY)
        assert quiet.stats.worklist_stats.adds < busy.stats.worklist_stats.adds

    def test_stack_depth_respects_greedy_bound(self):
        res = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        assert res.stats.metrics.peak_stack_depth() <= greedy_cover(HARD).size + 1

    def test_invalid_threshold_fraction(self):
        with pytest.raises(ValueError):
            HybridEngine(worklist_threshold_fraction=0.0)

    def test_breakdown_covers_all_kinds(self):
        res = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        frac = res.stats.metrics.breakdown_fractions()
        total = sum(v for k, v in frac.items() if k != "state_copy")
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_sim_seconds_consistent_with_cycles(self):
        res = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        assert res.stats.sim_seconds == pytest.approx(
            res.stats.makespan_cycles / (TINY_SIM.clock_mhz * 1e6)
        )


class TestStackOnlyDynamics:
    def test_deeper_start_extracts_more_subtrees(self):
        shallow = StackOnlyEngine(device=TINY_SIM, start_depth=2).solve_mvc(HARD)
        deep = StackOnlyEngine(device=TINY_SIM, start_depth=6).solve_mvc(HARD)
        shallow_taken = sum(b.subtrees_taken for b in shallow.stats.metrics.blocks)
        deep_taken = sum(b.subtrees_taken for b in deep.stats.metrics.blocks)
        assert deep_taken >= shallow_taken

    def test_redundant_descent_inflates_node_count(self):
        # StackOnly revisits prefix nodes once per sub-tree (Section III-A);
        # Hybrid does not.
        hybrid_nodes = HybridEngine(device=TINY_SIM).solve_mvc(HARD).nodes_visited
        stack_nodes = StackOnlyEngine(device=TINY_SIM, start_depth=6).solve_mvc(HARD).nodes_visited
        assert stack_nodes > hybrid_nodes

    def test_worklist_untouched(self):
        res = StackOnlyEngine(device=TINY_SIM, start_depth=4).solve_mvc(HARD)
        assert res.stats.worklist_stats.removes == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            StackOnlyEngine(start_depth=0)


class TestGlobalOnlyDynamics:
    def test_every_branch_feeds_worklist(self):
        res = GlobalOnlyEngine(device=TINY_SIM).solve_mvc(HARD)
        hyb = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        assert res.stats.worklist_stats.adds > hyb.stats.worklist_stats.adds

    def test_bfs_population_explosion(self):
        res = GlobalOnlyEngine(device=TINY_SIM).solve_mvc(HARD)
        hyb = HybridEngine(device=TINY_SIM, worklist_capacity=64,
                           worklist_threshold_fraction=0.25).solve_mvc(HARD)
        assert res.stats.worklist_stats.peak_population > hyb.stats.worklist_stats.peak_population

    def test_capacity_overflow_spills_locally(self):
        res = GlobalOnlyEngine(device=TINY_SIM, worklist_capacity=8).solve_mvc(BRANCHY)
        assert res.stats.worklist_stats.rejected_adds > 0
        assert res.optimum is not None  # overflow never loses work


class TestLoadBalance:
    def test_hybrid_balances_better_than_stackonly(self):
        g = phat_complement(60, 3, seed=12)
        hyb = HybridEngine(device=SMALL_SIM).solve_mvc(g)
        stk = StackOnlyEngine(device=SMALL_SIM, start_depth=6).solve_mvc(g)
        hyb_imb = hyb.stats.metrics.normalized_load().max()
        stk_imb = stk.stats.metrics.normalized_load().max()
        assert hyb_imb < stk_imb

    def test_hybrid_makespan_beats_stackonly_on_hard_instance(self):
        g = phat_complement(60, 3, seed=12)
        hyb = HybridEngine(device=SMALL_SIM).solve_mvc(g)
        stk = StackOnlyEngine(device=SMALL_SIM, start_depth=6).solve_mvc(g)
        assert hyb.stats.makespan_cycles < stk.stats.makespan_cycles


class TestCostModelInjection:
    def test_scaled_cost_model_scales_makespan(self):
        base = HybridEngine(device=TINY_SIM).solve_mvc(HARD)
        doubled = HybridEngine(device=TINY_SIM, cost_model=CostModel().scaled(2.0)).solve_mvc(HARD)
        ratio = doubled.stats.makespan_cycles / base.stats.makespan_cycles
        assert 1.5 < ratio < 2.5
