"""Interrupted solves: SolveOutcome, checkpoints, and resume ≡ clean-run.

The contract under test: interrupting a solve (node budget or wall-clock
deadline) on *any* engine yields a structured outcome whose checkpoint,
resumed — on the same engine or a different one — provably reaches the
clean-run optimum, with an admissible lower bound at every intermediate
leg.
"""

import numpy as np
import pytest

from repro.core.anytime import resume_from, solve_to_completion
from repro.core.outcome import (
    CHECKPOINT_VERSION,
    Checkpoint,
    classify_status,
    finish_outcome,
)
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import ENGINES, solve_mvc, solve_pvc
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import grid_graph, petersen

#: Small kwargs so the cpu-* engines stay cheap inside the matrix tests.
ENGINE_KW = {
    "cpu-threads": {"n_workers": 2},
    "cpu-process": {"n_workers": 2, "threshold": 4},
}


def kw(engine: str) -> dict:
    return dict(ENGINE_KW.get(engine, {}))


@pytest.fixture(scope="module")
def graph():
    # 25 sequential nodes: big enough that deadline=0 / node_budget=1
    # interrupts mid-flight with a non-empty frontier, small enough that
    # every engine finishes a clean solve in milliseconds.
    return gnp(26, 0.3, seed=2)


@pytest.fixture(scope="module")
def reference(graph):
    return solve_mvc_sequential(graph).optimum


class TestCleanSolves:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_mvc_optimal(self, graph, reference, engine):
        out = solve_mvc(graph, engine=engine, **kw(engine))
        assert out.status == "optimal" and out.complete
        assert out.optimum == reference
        assert out.lower_bound == reference
        assert out.checkpoint is None and not out.resumable
        assert out.cover is not None and len(out.cover) == reference

    def test_trivial_empty_graph(self):
        from repro.graph.csr import CSRGraph

        empty = CSRGraph.from_edges(4, [])
        out = solve_mvc(empty)
        assert out.status == "optimal" and out.optimum == 0

    def test_unknown_engine_rejected(self, graph):
        with pytest.raises(ValueError, match="engine"):
            solve_mvc(graph, engine="warp-drive")


class TestDeadlineAndResume:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadline_zero_resumes_to_optimum(self, graph, reference, engine):
        out = solve_mvc(graph, engine=engine, deadline=0.0, **kw(engine))
        assert out.status in ("feasible", "bound_only")
        assert not out.complete and out.resumable
        assert out.checkpoint is not None
        assert out.lower_bound <= reference  # admissible at every leg
        final, legs = out, 0
        while not final.complete:
            final = resume_from(final.checkpoint, graph, **kw(final.engine))
            legs += 1
            assert legs <= 50
        assert final.optimum == reference
        assert final.lower_bound == reference
        assert sorted(final.cover) == sorted(set(final.cover))

    def test_node_budget_trips_with_budget_status(self, graph):
        out = solve_mvc(graph, engine="sequential", node_budget=1)
        assert out.status == "budget_exhausted"
        assert out.resumable and out.nodes_visited <= 1

    def test_nodes_accumulate_across_legs(self, graph, reference):
        clean = solve_mvc(graph, engine="sequential")
        final = solve_to_completion(graph, engine="sequential", node_budget=3)
        assert final.optimum == reference
        # resumed legs may re-expand re-enqueued roots, never fewer nodes
        assert final.nodes_visited >= clean.nodes_visited

    def test_cross_engine_resume(self, graph, reference):
        out = solve_mvc(graph, engine="sequential", deadline=0.0)
        assert out.checkpoint is not None
        final = resume_from(out.checkpoint, graph, engine="cpu-threads",
                            n_workers=2)
        while not final.complete:
            final = resume_from(final.checkpoint, graph)
        assert final.optimum == reference

    def test_pvc_deadline_then_resume(self, graph, reference):
        out = solve_pvc(graph, reference, engine="sequential", deadline=0.0)
        final = out
        while not final.complete:
            final = resume_from(final.checkpoint, graph)
        assert final.optimum is not None and final.optimum <= reference

    def test_deadline_zero_is_deterministic_interrupt(self, graph):
        out = solve_mvc(graph, engine="sequential", deadline=0.0)
        assert out.nodes_visited == 0 and out.resumable


class TestChainedEquivalence:
    """Budgeted-leg chains must land on the clean optimum, not near it."""

    @pytest.mark.parametrize("frontier", ["lifo", "fifo", "best-first"])
    @pytest.mark.parametrize("bound", ["greedy", "matching"])
    def test_sequential_frontier_bound_matrix(self, frontier, bound):
        for n, p, seed in [(12, 0.3, 1), (15, 0.25, 2), (14, 0.4, 5)]:
            g = gnp(n, p, seed=seed)
            ref = solve_mvc_sequential(g).optimum
            final = solve_to_completion(g, engine="sequential", node_budget=2,
                                        frontier=frontier, bound=bound)
            assert final.optimum == ref, (n, p, seed, frontier, bound)
            assert final.status == "optimal"

    @pytest.mark.parametrize("engine", ["stackonly", "hybrid", "globalonly",
                                        "cpu-threads"])
    def test_engine_budget_chains(self, engine, reference, graph):
        final = solve_to_completion(graph, engine=engine, node_budget=6,
                                    **kw(engine))
        assert final.optimum == reference

    def test_structured_instances(self):
        for g, ref in [(petersen(), 6), (grid_graph(4, 4), 8)]:
            final = solve_to_completion(g, engine="sequential", node_budget=2)
            assert final.optimum == ref

    def test_max_legs_guard(self, graph):
        with pytest.raises(RuntimeError, match="legs"):
            solve_to_completion(graph, engine="sequential", node_budget=1,
                                max_legs=1)


class TestCheckpointCodec:
    def test_roundtrip_bytes_and_disk(self, graph, tmp_path):
        out = solve_mvc(graph, engine="sequential", deadline=0.0)
        cp = out.checkpoint
        again = Checkpoint.from_bytes(cp.to_bytes())
        assert again.engine == cp.engine and again.bound == cp.bound
        assert again.best_size == cp.best_size
        assert again.nodes_visited == cp.nodes_visited
        assert again.graph_fp == cp.graph_fp
        assert again.items == cp.items
        path = tmp_path / "solve.ckpt"
        cp.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.to_payload()["version"] == CHECKPOINT_VERSION
        final = resume_from(loaded, graph)
        while not final.complete:
            final = resume_from(final.checkpoint, graph)
        assert final.optimum == solve_mvc_sequential(graph).optimum

    def test_graph_shape_validated(self, graph):
        out = solve_mvc(graph, engine="sequential", deadline=0.0)
        wrong = gnp(12, 0.3, seed=9)
        with pytest.raises(ValueError, match="graph"):
            resume_from(out.checkpoint, wrong)

    def test_corrupt_blob_rejected(self):
        import pickle

        with pytest.raises(ValueError):
            Checkpoint.from_bytes(pickle.dumps([1, 2, 3]))

    def test_malformed_blobs_are_value_errors(self, graph, malformed_checkpoints):
        cp = solve_mvc(graph, engine="sequential", deadline=0.0).checkpoint
        for name, blob in malformed_checkpoints(cp).items():
            with pytest.raises(ValueError):
                Checkpoint.from_bytes(blob)

    def test_items_are_frames_against_the_root_degrees(self, graph):
        from repro.graph.degree_array import VCState
        from repro.graph.fingerprint import graph_fingerprint

        out = solve_mvc(graph, engine="sequential", deadline=0.0)
        cp = out.checkpoint
        assert cp.graph_fp == graph_fingerprint(graph)
        for (frame, depth), (state, depth2) in zip(cp.items, cp.states(graph)):
            assert type(frame) is bytes and depth == depth2
            ref = VCState.from_wire_v2(frame, graph.degrees)
            assert np.array_equal(ref.deg, state.deg)
            assert state.to_wire_v2(graph.degrees) == frame

    @pytest.mark.parametrize("engine", ("sequential", "stackonly", "distributed"))
    def test_relabelled_graph_with_same_shape_is_refused(self, graph, engine):
        """Same (n, m), other labels: the delta frames would decode to
        states of neither graph, so the resume refuses before any walk."""
        from repro.graph.csr import CSRGraph

        perm = np.random.default_rng(3).permutation(graph.n)
        twin = CSRGraph.from_edges(graph.n, [
            (int(perm[u]), int(perm[v])) for u in range(graph.n)
            for v in graph.neighbors(u) if u < v])
        assert (twin.n, twin.m) == (graph.n, graph.m)
        out = solve_mvc(graph, engine=engine, node_budget=3, **kw(engine))
        assert out.checkpoint is not None and out.checkpoint.items
        with pytest.raises(ValueError, match="checkpoint was taken on graph"):
            resume_from(out.checkpoint, twin, **kw(engine))


class TestStatusLadder:
    def test_clean_exhaustion_is_optimal(self):
        assert classify_status(interrupted=False, trigger=None,
                               formulation="mvc", has_cover=True,
                               optimum=5, lower_bound=5) == "optimal"

    def test_bound_closing_gap_is_optimal(self):
        assert classify_status(interrupted=True, trigger="deadline",
                               formulation="mvc", has_cover=True,
                               optimum=5, lower_bound=5) == "optimal"

    def test_deadline_with_cover_is_feasible(self):
        assert classify_status(interrupted=True, trigger="deadline",
                               formulation="mvc", has_cover=True,
                               optimum=6, lower_bound=4) == "feasible"

    def test_deadline_without_cover_is_bound_only(self):
        assert classify_status(interrupted=True, trigger="deadline",
                               formulation="pvc", has_cover=False,
                               optimum=None, lower_bound=3, k=5) == "bound_only"

    def test_node_budget_is_budget_exhausted(self):
        assert classify_status(interrupted=True, trigger="node_budget",
                               formulation="mvc", has_cover=True,
                               optimum=6, lower_bound=4) == "budget_exhausted"

    def test_pvc_found_cover_answers_query(self):
        assert classify_status(interrupted=True, trigger="deadline",
                               formulation="pvc", has_cover=True,
                               optimum=4, lower_bound=2, k=5) == "optimal"

    def test_interrupted_with_nothing_pending_is_complete(self):
        """A budget that trips as the last sub-tree finishes leaves an
        exhausted tree: a PVC search without a witness is refuted."""
        out = finish_outcome(petersen(), 5, engine="sequential", cover=None,
                             interrupted=True, pending=())
        assert out.status == "optimal" and out.feasible is False
        assert out.lower_bound == 6 and out.checkpoint is None and out.timed_out

    def test_pvc_bound_proves_infeasible(self):
        assert classify_status(interrupted=True, trigger="deadline",
                               formulation="pvc", has_cover=False,
                               optimum=None, lower_bound=6, k=5) == "optimal"
