"""Tests for the real-parallel CPU engines (threads and processes).

``cpu-threads`` and ``cpu-process`` are the facade's names for the
socket engine with local worker threads only, so their tests go through
``solve_mvc``/``solve_pvc``.
"""

import pytest

from repro.core.brute import brute_force_mvc
from repro.core.solver import solve_mvc, solve_pvc
from repro.core.verify import assert_valid_cover
from repro.graph.csr import CSRGraph
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import cycle_graph, petersen


class TestThreads:
    def test_matches_brute_force(self, random_graph_family):
        for g in random_graph_family[:4]:
            res = solve_mvc(g, engine="cpu-threads", n_workers=3)
            opt, _ = brute_force_mvc(g)
            assert res.optimum == opt
            assert_valid_cover(g, res.cover, res.optimum)

    def test_single_worker(self):
        g = petersen()
        res = solve_mvc(g, engine="cpu-threads", n_workers=1)
        assert res.optimum == 6

    def test_many_workers_small_graph(self):
        # more workers than work: termination must still fire
        g = cycle_graph(5)
        res = solve_mvc(g, engine="cpu-threads", n_workers=8)
        assert res.optimum == 3

    def test_pvc_boundary(self):
        g = petersen()
        assert solve_pvc(g, 6, engine="cpu-threads", n_workers=3).feasible is True
        assert solve_pvc(g, 5, engine="cpu-threads", n_workers=3).feasible is False

    def test_pvc_cover_valid(self):
        g = gnp(22, 0.3, seed=4)
        opt = brute_force_mvc(g)[0]
        res = solve_pvc(g, opt, engine="cpu-threads", n_workers=2)
        assert res.feasible and res.optimum <= opt
        assert_valid_cover(g, res.cover, res.optimum)

    def test_node_budget(self):
        g = gnp(30, 0.3, seed=5)
        res = solve_mvc(g, engine="cpu-threads", n_workers=2, node_budget=3)
        assert res.timed_out

    def test_empty_graph(self):
        res = solve_mvc(CSRGraph.empty(3), engine="cpu-threads", n_workers=2)
        assert res.optimum == 0

    def test_invalid_workers(self):
        # For both formulations: a zero-worker team
        # would prove a false "no cover exists", and threshold=0 leaves
        # every worker but the root's idle.
        for bad in ({"n_workers": 0}, {"threshold": 0}):
            with pytest.raises(ValueError):
                solve_mvc(petersen(), engine="cpu-threads", **bad)
            with pytest.raises(ValueError):
                solve_pvc(petersen(), 6, engine="cpu-threads", **bad)

    def test_per_worker_accounting(self):
        g = gnp(20, 0.4, seed=6)
        res = solve_mvc(g, engine="cpu-threads", n_workers=3)
        assert sum(res.stats) == res.nodes_visited

    def test_repeated_runs_same_optimum(self):
        # scheduling is nondeterministic; the optimum must not be
        g = gnp(18, 0.35, seed=7)
        opts = {solve_mvc(g, engine="cpu-threads", n_workers=4).optimum
                for _ in range(3)}
        assert len(opts) == 1


class TestProcesses:
    def test_matches_brute_force(self, random_graph_family):
        for g in random_graph_family[:2]:
            res = solve_mvc(g, engine="cpu-process", n_workers=2)
            opt, _ = brute_force_mvc(g)
            assert res.optimum == opt
            assert_valid_cover(g, res.cover, res.optimum)

    def test_pvc_boundary(self):
        g = petersen()
        assert solve_pvc(g, 6, engine="cpu-process", n_workers=2).feasible is True
        assert solve_pvc(g, 5, engine="cpu-process", n_workers=2).feasible is False

    def test_empty_graph(self):
        res = solve_mvc(CSRGraph.empty(3), engine="cpu-process", n_workers=2)
        assert res.optimum == 0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            solve_mvc(petersen(), engine="cpu-process", n_workers=0)

    def test_moderate_graph(self):
        g = gnp(35, 0.25, seed=9)
        res = solve_mvc(g, engine="cpu-process", n_workers=3)
        from repro.core.sequential import solve_mvc_sequential

        assert res.optimum == solve_mvc_sequential(g).optimum


class TestWirePayload:
    """The one state codec (codec-v2 frames against the root degrees)
    carries the cross-node hints."""

    def test_roundtrip_with_and_without_hint(self):
        import numpy as np

        from repro.graph.degree_array import VCState, fresh_state, state_codec

        g = gnp(20, 0.3, seed=5)
        encode, decode = state_codec(g.degrees)
        bare = fresh_state(g)
        assert bare.dirty is None
        out = decode(encode(bare))
        assert out.dirty is None
        assert np.array_equal(out.deg, bare.deg)
        assert (out.cover_size, out.edge_count) == (bare.cover_size, bare.edge_count)

        for hint in ([3, 7, 7, 1], np.array([2, 5, 9], dtype=np.int64)):
            state = VCState(bare.deg.copy(), 4, 11, hint)
            out = decode(encode(state))
            assert out.dirty is not None
            assert np.asarray(out.dirty, dtype=np.int64).tolist() == \
                np.asarray(hint, dtype=np.int64).tolist()

    def test_hinted_state_reduces_identically_after_roundtrip(self):
        import numpy as np

        from repro.core.branching import expand_children, max_degree_pivot
        from repro.core.formulation import BestBound, MVCFormulation
        from repro.core.reductions import apply_reductions
        from repro.graph.degree_array import Workspace, fresh_state, state_codec

        g = gnp(30, 0.2, seed=8)
        encode, decode = state_codec(g.degrees)
        ws = Workspace.for_graph(g)
        parent = fresh_state(g)
        form = MVCFormulation(BestBound(size=g.n + 1))
        apply_reductions(g, parent, form, ws)
        deferred, _ = expand_children(g, parent, max_degree_pivot(parent), ws)
        wired = decode(encode(deferred))
        apply_reductions(g, deferred, form, ws)
        apply_reductions(g, wired, form, Workspace.for_graph(g))
        assert np.array_equal(deferred.deg, wired.deg)
        assert (deferred.cover_size, deferred.edge_count) == \
            (wired.cover_size, wired.edge_count)