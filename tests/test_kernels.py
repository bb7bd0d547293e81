"""Property tests: the kernel tiers ≡ the reference rules.

The contract (relied on by every solver and engine): the fast cascade
reaches a **bit-identical fixpoint** — same degree array, cover size,
edge count and reduction counters — as the reference serial rules, on
both kernel tiers (the pure-Python ``scalar`` cascade and the compiled
``native`` one).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_mod
from repro.core.branching import expand_children
from repro.core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from repro.core.greedy import _greedy_cover_rules, greedy_cover
from repro.core.kernels import (
    alive_pairs,
    apply_reductions_fast,
    first_alive_neighbors,
)
from repro.core.reductions import apply_reductions, apply_reductions_reference
from repro.core.sequential import branch_and_reduce
from repro.core.stats import ReductionCounters, null_charge
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import Workspace, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import (
    disjoint_union,
    grid_graph,
    path_graph,
    petersen,
    star_graph,
)
from repro.graph.generators.suites import paper_suite

#: The two kernel tiers every cascade here runs on, by registry name;
#: tests/test_kernel_backends.py holds the registry-level matrix.
TIERS = ("scalar", "native")


def fast(kernels):
    """``apply_reductions_fast`` pinned to one kernel tier."""
    def run(graph, state, form, ws=None, charge=null_charge, counters=None):
        apply_reductions_fast(graph, state, form, ws, charge, counters,
                              kernels=kernels)

    return run


def hint_candidates(state):
    """The rule-candidate set a state's dirty hint actually seeds."""
    assert state.dirty is not None
    return {int(v) for v in state.dirty if state.deg[v] in (1, 2)}


def fixpoint(graph, reducer, best=None, k=None, ws=None):
    """Run ``reducer`` to fixpoint; return the comparable tuple."""
    state = fresh_state(graph)
    counters = ReductionCounters()
    if k is None:
        form = MVCFormulation(BestBound(size=best if best is not None else graph.n + 1))
    else:
        form = PVCFormulation(k=k, flag=FoundFlag())
    reducer(graph, state, form, ws if ws is not None else Workspace.for_graph(graph),
            counters=counters)
    return (
        state.deg.tobytes(),
        state.cover_size,
        state.edge_count,
        counters.degree_one,
        counters.degree_two_triangle,
        counters.high_degree,
        counters.sweeps,
    )


def assert_equivalent(graph, best=None, k=None):
    ref = fixpoint(graph, apply_reductions_reference, best=best, k=k)
    for kernels in TIERS:
        got = fixpoint(graph, fast(kernels), best=best, k=k)
        assert got == ref, f"{kernels} cascade diverged from the reference rules"


# --------------------------------------------------------------------- #
# adversarial structures for the batch tie-break logic
# --------------------------------------------------------------------- #
class TestStructuredEquivalence:
    def test_isolated_edges(self):
        g = disjoint_union(*[path_graph(2) for _ in range(6)])
        assert_equivalent(g)

    def test_shared_forced_hubs(self):
        # stars: all leaves are degree-one and share the forced centre
        g = disjoint_union(*[star_graph(4) for _ in range(3)])
        assert_equivalent(g)

    def test_mixed_components(self):
        g = disjoint_union(path_graph(5), petersen(), star_graph(3), path_graph(2),
                           CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        assert_equivalent(g)

    def test_grid_and_tight_budget(self):
        assert_equivalent(grid_graph(5, 6), best=8)

    def test_pvc_budget(self):
        assert_equivalent(star_graph(7), k=2)
        assert_equivalent(gnp(40, 0.2, seed=11), k=10)


# --------------------------------------------------------------------- #
# the three generator suites (random / phat / structured stand-ins)
# --------------------------------------------------------------------- #
def test_equivalence_across_paper_suite():
    for inst in paper_suite("tiny"):
        g = inst.graph()
        for best in (g.n + 1, max(3, g.n // 3)):
            assert_equivalent(g, best=best)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 60), p=st.floats(0.03, 0.7), seed=st.integers(0, 10_000),
       tighten=st.integers(0, 2))
def test_equivalence_random(n, p, seed, tighten):
    g = gnp(n, p, seed=seed)
    best = g.n + 1 if tighten == 0 else max(2, g.n // (2 * tighten))
    ref = fixpoint(g, apply_reductions_reference, best=best)
    for kernels in TIERS:
        assert fixpoint(g, fast(kernels), best=best) == ref, kernels


@settings(max_examples=10, deadline=None)
@given(n=st.integers(20, 60), tier=st.integers(1, 3), seed=st.integers(0, 500))
def test_equivalence_phat(n, tier, seed):
    g = phat_complement(n, tier, seed=seed)
    for best in (None, max(3, n // 3)):
        ref = fixpoint(g, apply_reductions_reference, best=best)
        for kernels in TIERS:
            assert fixpoint(g, fast(kernels), best=best) == ref, kernels


def test_apply_reductions_alias_is_fast():
    assert apply_reductions is apply_reductions_fast


def test_search_identical_under_both_reducers():
    """The whole traversal (not just one reduce) is trajectory-identical."""
    for g in (phat_complement(30, 2, seed=4), gnp(40, 0.15, seed=6)):
        outs = []
        for reducer in (apply_reductions_reference, fast("scalar")):
            best = BestBound(size=g.n + 1)
            stats = branch_and_reduce(g, MVCFormulation(best), reducer=reducer)
            outs.append((best.size, stats.nodes_visited, stats.branches, stats.prunes,
                         stats.reductions.degree_one, stats.reductions.degree_two_triangle,
                         stats.reductions.high_degree))
        assert outs[0] == outs[1]


# --------------------------------------------------------------------- #
# cross-node dirty propagation: the seeded child cascade is bit-identical
# to the full-rescan cascade at every node of a real traversal
# --------------------------------------------------------------------- #
def counters_tuple(c):
    return (c.degree_one, c.degree_two_triangle, c.high_degree, c.sweeps)


def walk_seeded_vs_rescan(g, best=None, k=None, node_cap=80, kernels="scalar"):
    """Replay branch-and-reduce on one kernel tier; at every node run
    three cascades on the same input state — hint-seeded, hint-stripped
    (full rescan), and the reference rules — and assert a bit-identical
    fixpoint (degree array, cover size, edge count, all reduction
    counters).  ``node_cap`` both bounds runtime and forces a
    depth-limited early exit mid-tree."""
    from repro.core.branching import max_degree_pivot
    from repro.graph.degree_array import VCState

    if k is None:
        form = MVCFormulation(BestBound(size=best if best is not None else g.n + 1))
    else:
        form = PVCFormulation(k=k, flag=FoundFlag())
    ws = Workspace.for_graph(g)
    ws_rescan = Workspace.for_graph(g)
    stack = [fresh_state(g)]
    nodes = branches = 0
    while stack and nodes < node_cap:
        state = stack.pop()
        nodes += 1
        rescan = VCState(state.deg.copy(), state.cover_size, state.edge_count)
        ref = VCState(state.deg.copy(), state.cover_size, state.edge_count)
        assert rescan.dirty is None and rescan.max_deg_hint == -1
        cs, cr, cf = ReductionCounters(), ReductionCounters(), ReductionCounters()
        apply_reductions_fast(g, state, form, ws, counters=cs, kernels=kernels)
        apply_reductions_fast(g, rescan, form, ws_rescan, counters=cr,
                              kernels=kernels)
        apply_reductions_reference(g, ref, form, counters=cf)
        for other, cnt in ((rescan, cr), (ref, cf)):
            assert state.deg.tobytes() == other.deg.tobytes()
            assert state.cover_size == other.cover_size
            assert state.edge_count == other.edge_count
            assert counters_tuple(cs) == counters_tuple(cnt)
        assert state.dirty is None  # the cascade consumed the hint
        if form.prune(state) or state.edge_count == 0:
            continue
        vmax = max_degree_pivot(state)
        deferred, cont = expand_children(g, state, vmax, ws, kernels=kernels)
        assert deferred.dirty is not None and cont.dirty is not None
        branches += 1
        stack.append(deferred)
        stack.append(cont)
    return branches


class TestSeededCascadeEquivalence:
    RANDOM = [(20, 0.3, 0), (40, 0.15, 1), (60, 0.08, 2), (30, 0.5, 3)]

    def test_random_suite_scalar_path(self):
        for n, p, seed in self.RANDOM:
            assert walk_seeded_vs_rescan(gnp(n, p, seed=seed)) > 0
            walk_seeded_vs_rescan(gnp(n, p, seed=seed), best=max(3, n // 3))

    def test_random_suite_native_path(self):
        for n, p, seed in self.RANDOM:
            assert walk_seeded_vs_rescan(gnp(n, p, seed=seed), node_cap=40,
                                         kernels="native") > 0

    def test_phat_suite_both_paths(self):
        for n, tier, seed in [(30, 2, 4), (40, 1, 5), (25, 3, 6)]:
            g = phat_complement(n, tier, seed=seed)
            assert walk_seeded_vs_rescan(g) > 0
            walk_seeded_vs_rescan(g, node_cap=40, kernels="native")

    def test_structured_suite(self):
        graphs = [
            grid_graph(4, 5),
            petersen(),
            disjoint_union(path_graph(6), star_graph(4), petersen()),
            disjoint_union(*[path_graph(2) for _ in range(5)]),
        ]
        for g in graphs:
            for kernels in TIERS:
                walk_seeded_vs_rescan(g, kernels=kernels)

    def test_paper_suite_tiny(self):
        for inst in paper_suite("tiny"):
            walk_seeded_vs_rescan(inst.graph(), node_cap=30)

    def test_pvc_budgets(self):
        walk_seeded_vs_rescan(gnp(40, 0.2, seed=11), k=10)
        walk_seeded_vs_rescan(star_graph(7), k=2)
        walk_seeded_vs_rescan(gnp(40, 0.2, seed=11), k=10, kernels="native")

    def test_depth_limited_early_exit(self):
        # Stop after very few nodes — mid-branch — on both kernel tiers.
        for cap in (1, 3, 7):
            for kernels in TIERS:
                walk_seeded_vs_rescan(phat_complement(30, 2, seed=4),
                                      node_cap=cap, kernels=kernels)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(6, 50), p=st.floats(0.05, 0.6), seed=st.integers(0, 2_000),
           tighten=st.integers(0, 2))
    def test_property_random(self, n, p, seed, tighten):
        best = None if tighten == 0 else max(2, n // (2 * tighten))
        walk_seeded_vs_rescan(gnp(n, p, seed=seed), best=best, node_cap=25)


def test_charged_reducers_immune_to_hints():
    """Cost-model charge streams must not depend on whether a state
    arrived with a dirty hint — charged cascades always full-rescan."""
    from repro.core.branching import max_degree_pivot
    from repro.core.parallel_reductions import apply_reductions_parallel
    from repro.graph.degree_array import VCState

    g = gnp(50, 0.12, seed=21)
    ws = Workspace.for_graph(g)
    parent = fresh_state(g)
    form = MVCFormulation(BestBound(size=g.n + 1))
    apply_reductions_fast(g, parent, form, ws)
    assert parent.edge_count > 0
    child, _ = expand_children(g, parent.copy(), max_degree_pivot(parent), ws)
    assert child.dirty is not None

    for reducer in (apply_reductions_reference, apply_reductions_parallel,
                    apply_reductions_fast):
        hinted = VCState(child.deg.copy(), child.cover_size, child.edge_count,
                         child.dirty, child.max_deg_hint)
        bare = VCState(child.deg.copy(), child.cover_size, child.edge_count)
        streams = []
        for st_ in (hinted, bare):
            charges = []
            reducer(g, st_, MVCFormulation(BestBound(size=g.n + 1)),
                    Workspace.for_graph(g),
                    charge=lambda kind, units: charges.append((kind, units)))
            streams.append(charges)
        assert streams[0] == streams[1], reducer.__name__
        assert streams[0]  # the instrumented runs actually charged work
        assert hinted.deg.tobytes() == bare.deg.tobytes()
        assert hinted.dirty is None  # every reducer consumes the hint


# --------------------------------------------------------------------- #
# batched helpers
# --------------------------------------------------------------------- #
class TestBatchHelpers:
    def test_first_alive_neighbors_matches_scalar(self):
        g = gnp(60, 0.05, seed=3)
        state = fresh_state(g)
        ones = np.flatnonzero(state.deg == 1)
        assert ones.size > 0
        from repro.core.reductions import first_alive_neighbor

        batched = first_alive_neighbors(g, state.deg, ones)
        expected = [first_alive_neighbor(g, state.deg, int(v)) for v in ones]
        assert batched.tolist() == expected

    def test_alive_pairs_matches_scalar(self):
        g = gnp(60, 0.06, seed=5)
        state = fresh_state(g)
        twos = np.flatnonzero(state.deg == 2)
        assert twos.size > 0
        from repro.core.reductions import alive_pair

        u, w = alive_pairs(g, state.deg, twos)
        expected = [alive_pair(g, state.deg, int(v)) for v in twos]
        assert list(zip(u.tolist(), w.tolist())) == expected

    def test_helpers_reject_wrong_degree(self):
        g = path_graph(4)
        state = fresh_state(g)
        with pytest.raises(ValueError):
            first_alive_neighbors(g, state.deg, np.array([1]))  # degree 2
        with pytest.raises(ValueError):
            alive_pairs(g, state.deg, np.array([0]))  # degree 1


# --------------------------------------------------------------------- #
# pooled buffers and scalar branch/greedy fast paths
# --------------------------------------------------------------------- #
class TestPoolAndScalarPaths:
    def test_pooled_copy_is_deep(self):
        g = gnp(20, 0.3, seed=1)
        ws = Workspace.for_graph(g)
        a = fresh_state(g)
        b = a.copy(ws)
        b.deg[0] = -1
        assert a.deg[0] != -1

    def test_release_then_borrow_recycles(self):
        g = gnp(12, 0.3, seed=2)
        ws = Workspace.for_graph(g)
        buf = fresh_state(g).deg
        ws.release_deg(buf)
        assert ws.borrow_deg() is buf

    def test_release_rejects_foreign_arrays(self):
        ws = Workspace(8)
        ws.release_deg(np.zeros(5, dtype=np.int32))   # wrong size
        ws.release_deg(np.zeros(8, dtype=np.int64))   # wrong dtype
        assert ws.borrow_deg().size == 8  # fresh allocation, not a foreign buffer

    def test_expand_children_scalar_matches_vectorized(self):
        """The scalar step, the compiled one and the vectorized (charged
        meter, no workspace) step build the same two children."""
        for g in (phat_complement(40, 2, seed=8), gnp(60, 0.08, seed=12)):
            state = fresh_state(g)
            vmax = int(np.argmax(state.deg))
            ws = Workspace.for_graph(g)
            d_scalar, c_scalar = expand_children(g, state.copy(), vmax, ws,
                                                 kernels="scalar")
            d_nat, c_nat = expand_children(g, state.copy(), vmax, ws,
                                           kernels="native")
            d_vec, c_vec = expand_children(g, state.copy(), vmax)
            for a, b, c in ((d_scalar, d_nat, d_vec), (c_scalar, c_nat, c_vec)):
                for other in (b, c):
                    assert np.array_equal(a.deg, other.deg)
                    assert a.cover_size == other.cover_size
                    assert a.edge_count == other.edge_count
                # The dirty hints may differ in raw form (the scalar path
                # records intermediate arrivals, the compiled one final
                # degrees), but the candidate set they seed is identical;
                # the vectorized step leaves no hint (full rescan).
                assert hint_candidates(a) == hint_candidates(b)
                assert c.dirty is None

    def test_greedy_worklist_pass_matches_reference_rules(self):
        """Each tier's pending-list pick loop ≡ the reference-rules pass,
        fire for fire.

        Covers, pick counts AND reduction counters must match: the
        worklist-driven pass claims the exact same sequence of rule
        fires and max-degree picks as one reference-rule round per pick.
        """
        graphs = (
            phat_complement(40, 2, seed=3),
            phat_complement(120, 3, seed=7),
            gnp(300, 0.02, seed=9),
            gnp(80, 0.05, seed=4),
            grid_graph(6, 6),
            star_graph(9),
        )
        for g in graphs:
            rules = _greedy_cover_rules(g)
            for kernels in TIERS:
                got = greedy_cover(g, kernels=kernels)
                assert rules.size == got.size
                assert np.array_equal(rules.cover, got.cover)
                assert rules.max_degree_picks == got.max_degree_picks
                for field in ("degree_one", "degree_two_triangle", "high_degree"):
                    assert getattr(rules.reductions, field) == \
                        getattr(got.reductions, field), (kernels, field)

# --------------------------------------------------------------------- #
# parallel-semantics rules: charge instrumentation must not change results
# --------------------------------------------------------------------- #
def test_parallel_rules_identical_charged_and_uncharged():
    from repro.core.parallel_reductions import apply_reductions_parallel

    for n, p, seed in [(40, 0.1, 1), (60, 0.05, 2), (30, 0.4, 3)]:
        g = gnp(n, p, seed=seed)
        a, b = fresh_state(g), fresh_state(g)
        form = lambda: MVCFormulation(BestBound(size=g.n + 1))
        charges = []
        apply_reductions_parallel(g, a, form(), Workspace.for_graph(g))
        apply_reductions_parallel(g, b, form(), Workspace.for_graph(g),
                                  charge=lambda kind, units: charges.append((kind, units)))
        assert np.array_equal(a.deg, b.deg)
        assert (a.cover_size, a.edge_count) == (b.cover_size, b.edge_count)
        assert charges  # the instrumented run actually charged work


# --------------------------------------------------------------------- #
# deferred-child batch handoff: both removal paths build the same child
# --------------------------------------------------------------------- #
class TestBranchBatchHandoff:
    """``BRANCH_BATCH_MIN_LIVE`` only moves work, never results."""

    def _expand_both_ways(self, g):
        from repro.core.branching import max_degree_pivot

        ws = Workspace.for_graph(g)
        form = MVCFormulation(BestBound(size=g.n + 1))
        parent = fresh_state(g)
        apply_reductions_fast(g, parent, form, ws)
        if parent.edge_count == 0:
            return None
        vmax = max_degree_pivot(parent, None)
        out = []
        saved = kernels_mod.BRANCH_BATCH_MIN_LIVE
        try:
            for cutoff in (10**9, 0):  # scalar loop vs forced batch kernel
                kernels_mod.BRANCH_BATCH_MIN_LIVE = cutoff
                state = parent.copy(ws)
                state.dirty = None
                deferred, continued = expand_children(g, state, vmax, ws,
                                                      kernels="scalar")
                out.append((deferred, continued))
        finally:
            kernels_mod.BRANCH_BATCH_MIN_LIVE = saved
        return out

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 60), p=st.floats(0.05, 0.6), seed=st.integers(0, 500))
    def test_children_bit_identical_and_hints_equivalent(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        both = self._expand_both_ways(g)
        if both is None:
            return
        (d_scalar, c_scalar), (d_batch, c_batch) = both
        assert np.array_equal(d_scalar.deg, d_batch.deg)
        assert (d_scalar.cover_size, d_scalar.edge_count) == \
            (d_batch.cover_size, d_batch.edge_count)
        assert np.array_equal(c_scalar.deg, c_batch.deg)
        assert (c_scalar.cover_size, c_scalar.edge_count) == \
            (c_batch.cover_size, c_batch.edge_count)
        # hint representations may differ; the candidate sets they seed not
        assert hint_candidates(d_scalar) == hint_candidates(d_batch)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(10, 40), p=st.floats(0.15, 0.55), seed=st.integers(0, 200))
    def test_traversal_identical_under_forced_batch(self, n, p, seed):
        g = gnp(n, p, seed=seed)

        def run():
            best = BestBound(size=g.n + 1)
            stats = branch_and_reduce(g, MVCFormulation(best), kernels="scalar")
            return (best.size, stats.nodes_visited, stats.branches, stats.prunes,
                    stats.reductions.degree_one, stats.reductions.degree_two_triangle,
                    stats.reductions.high_degree)

        baseline = run()
        saved = kernels_mod.BRANCH_BATCH_MIN_LIVE
        try:
            kernels_mod.BRANCH_BATCH_MIN_LIVE = 2
            forced = run()
        finally:
            kernels_mod.BRANCH_BATCH_MIN_LIVE = saved
        assert forced == baseline
