"""Property tests: the vectorized/scalar kernels ≡ the reference rules.

The contract (relied on by every solver and engine): the fast cascade
reaches a **bit-identical fixpoint** — same degree array, cover size,
edge count and reduction counters — as the reference serial rules, on
both of its internal paths (scalar small-graph and vectorized
dirty-worklist).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_mod
from repro.core.branching import expand_children
from repro.core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from repro.core.greedy import _greedy_cover_scalar, greedy_cover
from repro.core.kernels import (
    SCALAR_KERNEL_MAX_N,
    alive_pairs,
    apply_reductions_fast,
    degree_one_kernel,
    degree_two_triangle_kernel,
    first_alive_neighbors,
)
from repro.core.reductions import apply_reductions, apply_reductions_reference
from repro.core.sequential import branch_and_reduce
from repro.core.stats import ReductionCounters
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import DirtyQueue, Workspace, fresh_state
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

#: These tests pin the two interpreted paths (scalar and vectorized),
#: steered through the cutoff globals; the compiled ``native`` backend
#: has its own matrix in tests/test_kernel_backends.py.
pytestmark = pytest.mark.usefixtures("without_native")


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


def assert_equivalent(graph, best=None, k=None, monkeypatch=None):
    ref = fixpoint(graph, apply_reductions_reference, best=best, k=k)
    fast = fixpoint(graph, apply_reductions_fast, best=best, k=k)
    assert fast == ref, "fast cascade diverged from the reference rules"
    if monkeypatch is not None:
        # force the vectorized path even below the scalar cutoff
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
        vec = fixpoint(graph, apply_reductions_fast, best=best, k=k)
        monkeypatch.undo()
        assert vec == ref, "vectorized path diverged from the reference rules"


# --------------------------------------------------------------------- #
# adversarial structures for the batch tie-break logic
# --------------------------------------------------------------------- #
class TestStructuredEquivalence:
    def test_isolated_edges(self, monkeypatch):
        g = disjoint_union(*[path_graph(2) for _ in range(6)])
        assert_equivalent(g, monkeypatch=monkeypatch)

    def test_shared_forced_hubs(self, monkeypatch):
        # stars: all leaves are degree-one and share the forced centre
        g = disjoint_union(*[star_graph(4) for _ in range(3)])
        assert_equivalent(g, monkeypatch=monkeypatch)

    def test_mixed_components(self, monkeypatch):
        g = disjoint_union(path_graph(5), petersen(), star_graph(3), path_graph(2),
                           CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        assert_equivalent(g, monkeypatch=monkeypatch)

    def test_grid_and_tight_budget(self, monkeypatch):
        assert_equivalent(grid_graph(5, 6), best=8, monkeypatch=monkeypatch)

    def test_pvc_budget(self, monkeypatch):
        assert_equivalent(star_graph(7), k=2, monkeypatch=monkeypatch)
        assert_equivalent(gnp(40, 0.2, seed=11), k=10, monkeypatch=monkeypatch)


# --------------------------------------------------------------------- #
# the three generator suites (random / phat / structured stand-ins)
# --------------------------------------------------------------------- #
def test_equivalence_across_paper_suite(monkeypatch):
    for inst in paper_suite("tiny"):
        g = inst.graph()
        for best in (g.n + 1, max(3, g.n // 3)):
            assert_equivalent(g, best=best, monkeypatch=monkeypatch)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 60), p=st.floats(0.03, 0.7), seed=st.integers(0, 10_000),
       tighten=st.integers(0, 2))
def test_equivalence_random(n, p, seed, tighten):
    g = gnp(n, p, seed=seed)
    best = g.n + 1 if tighten == 0 else max(2, g.n // (2 * tighten))
    assert fixpoint(g, apply_reductions_fast, best=best) == \
        fixpoint(g, apply_reductions_reference, best=best)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(20, 60), tier=st.integers(1, 3), seed=st.integers(0, 500))
def test_equivalence_phat(n, tier, seed):
    g = phat_complement(n, tier, seed=seed)
    assert fixpoint(g, apply_reductions_fast) == \
        fixpoint(g, apply_reductions_reference)
    assert fixpoint(g, apply_reductions_fast, best=max(3, n // 3)) == \
        fixpoint(g, apply_reductions_reference, best=max(3, n // 3))


def test_vectorized_path_equivalence_random(monkeypatch):
    """The numpy dirty-worklist path, forced on graphs below the cutoff."""
    monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
    for n, p, seed in [(30, 0.1, 1), (80, 0.05, 2), (200, 0.02, 3), (50, 0.4, 4)]:
        g = gnp(n, p, seed=seed)
        fast = fixpoint(g, apply_reductions_fast)
        monkeypatch.undo()
        assert fast == fixpoint(g, apply_reductions_reference)
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)


def test_apply_reductions_alias_is_fast():
    assert apply_reductions is apply_reductions_fast


def test_search_identical_under_both_reducers():
    """The whole traversal (not just one reduce) is trajectory-identical."""
    for g in (phat_complement(30, 2, seed=4), gnp(40, 0.15, seed=6)):
        outs = []
        for reducer in (apply_reductions_reference, apply_reductions_fast):
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


def walk_seeded_vs_rescan(g, best=None, k=None, node_cap=80):
    """Replay branch-and-reduce; at every node run three cascades on the
    same input state — hint-seeded, hint-stripped (full rescan), and the
    reference rules — and assert a bit-identical fixpoint (degree array,
    cover size, edge count, all reduction counters).  ``node_cap`` both
    bounds runtime and forces a depth-limited early exit mid-tree, after
    which the shared workspace must hold no pending dirty vertices."""
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
        apply_reductions_fast(g, state, form, ws, counters=cs)
        apply_reductions_fast(g, rescan, form, ws_rescan, counters=cr)
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
        deferred, cont = expand_children(g, state, vmax, ws)
        assert deferred.dirty is not None and cont.dirty is not None
        branches += 1
        stack.append(deferred)
        stack.append(cont)
    d1, d2 = ws.dirty_queues()
    assert d1.count == 0 and d2.count == 0
    return branches


class TestSeededCascadeEquivalence:
    RANDOM = [(20, 0.3, 0), (40, 0.15, 1), (60, 0.08, 2), (30, 0.5, 3)]

    def test_random_suite_scalar_path(self):
        for n, p, seed in self.RANDOM:
            assert walk_seeded_vs_rescan(gnp(n, p, seed=seed)) > 0
            walk_seeded_vs_rescan(gnp(n, p, seed=seed), best=max(3, n // 3))

    def test_random_suite_vectorized_path(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
        for n, p, seed in self.RANDOM:
            assert walk_seeded_vs_rescan(gnp(n, p, seed=seed), node_cap=40) > 0

    def test_phat_suite_both_paths(self, monkeypatch):
        for n, tier, seed in [(30, 2, 4), (40, 1, 5), (25, 3, 6)]:
            g = phat_complement(n, tier, seed=seed)
            assert walk_seeded_vs_rescan(g) > 0
            monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
            walk_seeded_vs_rescan(g, node_cap=40)
            monkeypatch.undo()

    def test_structured_suite(self, monkeypatch):
        graphs = [
            grid_graph(4, 5),
            petersen(),
            disjoint_union(path_graph(6), star_graph(4), petersen()),
            disjoint_union(*[path_graph(2) for _ in range(5)]),
        ]
        for g in graphs:
            walk_seeded_vs_rescan(g)
            monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
            walk_seeded_vs_rescan(g)
            monkeypatch.undo()

    def test_paper_suite_tiny(self):
        for inst in paper_suite("tiny"):
            walk_seeded_vs_rescan(inst.graph(), node_cap=30)

    def test_pvc_budgets(self, monkeypatch):
        walk_seeded_vs_rescan(gnp(40, 0.2, seed=11), k=10)
        walk_seeded_vs_rescan(star_graph(7), k=2)
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
        walk_seeded_vs_rescan(gnp(40, 0.2, seed=11), k=10)

    def test_depth_limited_early_exit(self, monkeypatch):
        # Stop after very few nodes — mid-branch — on both kernel paths.
        for cap in (1, 3, 7):
            walk_seeded_vs_rescan(phat_complement(30, 2, seed=4), node_cap=cap)
            monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
            walk_seeded_vs_rescan(phat_complement(30, 2, seed=4), node_cap=cap)
            monkeypatch.undo()

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
# workspace dirty-queue hygiene across tree nodes
# --------------------------------------------------------------------- #
class TestWorklistHygiene:
    def test_poisoned_queues_cannot_corrupt_a_cascade(self, monkeypatch):
        """Stale pending vertices (as a buggy early exit would leave) are
        flushed by the seed reset, never acted upon."""
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
        g = gnp(60, 0.08, seed=13)
        ws = Workspace.for_graph(g)
        d1, d2 = ws.dirty_queues()
        d1.push(np.array([0, 1, 2, 3]))
        d2.push(np.array([5, 6, 7]))
        fast = fixpoint(g, apply_reductions_fast, ws=ws)
        monkeypatch.undo()
        assert fast == fixpoint(g, apply_reductions_reference)
        assert d1.count == 0 and d2.count == 0

    def test_budget_early_exit_leaves_queues_clean(self, monkeypatch):
        """A cascade cut short by a doomed budget (high-degree rule bails
        with budget < 0) must leave nothing pending for the next node."""
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
        g = gnp(50, 0.3, seed=3)
        ws = Workspace.for_graph(g)
        a = fixpoint(g, apply_reductions_fast, k=1, ws=ws)
        d1, d2 = ws.dirty_queues()
        assert d1.count == 0 and d2.count == 0
        b = fixpoint(g, apply_reductions_fast, best=g.n + 1, ws=ws)  # reuse the workspace
        monkeypatch.undo()
        assert a == fixpoint(g, apply_reductions_reference, k=1)
        assert b == fixpoint(g, apply_reductions_reference, best=g.n + 1)

    def test_full_search_leaves_queues_clean(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
        g = phat_complement(40, 2, seed=11)
        ws = Workspace.for_graph(g)
        best = BestBound(size=g.n + 1)
        branch_and_reduce(g, MVCFormulation(best), ws=ws)
        monkeypatch.undo()
        d1, d2 = ws.dirty_queues()
        assert d1.count == 0 and d2.count == 0


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

    def test_standalone_kernels_match_rules(self):
        from repro.core.reductions import degree_one_rule, degree_two_triangle_rule

        for g in (gnp(50, 0.06, seed=9), disjoint_union(path_graph(2), star_graph(3))):
            a, b = fresh_state(g), fresh_state(g)
            ws_a, ws_b = Workspace.for_graph(g), Workspace.for_graph(g)
            ca, cb = ReductionCounters(), ReductionCounters()
            changed_a = degree_one_rule(g, a, ws_a, counters=ca)
            changed_b = degree_one_kernel(g, b, ws_b, counters=cb)
            assert changed_a == changed_b
            assert np.array_equal(a.deg, b.deg)
            assert ca.degree_one == cb.degree_one
            changed_a = degree_two_triangle_rule(g, a, ws_a, counters=ca)
            changed_b = degree_two_triangle_kernel(g, b, ws_b, counters=cb)
            assert changed_a == changed_b
            assert np.array_equal(a.deg, b.deg)
            assert ca.degree_two_triangle == cb.degree_two_triangle


# --------------------------------------------------------------------- #
# dirty queue
# --------------------------------------------------------------------- #
class TestDirtyQueue:
    def test_drain_dedupes_and_sorts(self):
        q = DirtyQueue(10)
        q.push(np.array([5, 2, 5, 9]))
        q.push(np.array([2, 0]))
        assert q.drain_sorted().tolist() == [0, 2, 5, 9]
        assert q.drain_sorted().size == 0

    def test_grows_past_initial_capacity(self):
        q = DirtyQueue(4)
        for _ in range(20):
            q.push(np.array([0, 1, 2, 3]))
        assert q.drain_sorted().tolist() == [0, 1, 2, 3]

    def test_seed_resets(self):
        q = DirtyQueue(8)
        q.push(np.array([1, 2]))
        q.seed(np.array([7]))
        assert q.drain_sorted().tolist() == [7]

    def test_clear(self):
        q = DirtyQueue(8)
        q.push(np.array([3]))
        q.clear()
        assert q.drain_sorted().size == 0


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

    def test_expand_children_scalar_matches_vectorized(self, monkeypatch):
        for g in (phat_complement(40, 2, seed=8), gnp(60, 0.08, seed=12)):
            state = fresh_state(g)
            vmax = int(np.argmax(state.deg))
            ws = Workspace.for_graph(g)
            d_scalar, c_scalar = expand_children(g, state.copy(), vmax, ws)
            monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
            d_vec, c_vec = expand_children(g, state.copy(), vmax, ws)
            monkeypatch.undo()
            for a, b in ((d_scalar, d_vec), (c_scalar, c_vec)):
                assert np.array_equal(a.deg, b.deg)
                assert a.cover_size == b.cover_size
                assert a.edge_count == b.edge_count
                # The dirty hints may differ in raw form (the scalar path
                # records intermediate arrivals, the vectorized path final
                # degrees), but the candidate set they seed is identical.
                assert hint_candidates(a) == hint_candidates(b)

    def test_greedy_scalar_matches_vectorized(self, monkeypatch):
        for g in (phat_complement(40, 2, seed=3), gnp(80, 0.05, seed=4), grid_graph(5, 5)):
            scalar = _greedy_cover_scalar(g)
            monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
            vec = greedy_cover(g)
            monkeypatch.undo()
            assert scalar.size == vec.size
            assert np.array_equal(scalar.cover, vec.cover)
            assert scalar.max_degree_picks == vec.max_degree_picks

    def test_greedy_worklist_pass_matches_reference_rules(self):
        """The vectorized pick loop ≡ the reference-rules pass, fire for fire.

        Covers, pick counts AND reduction counters must match: the
        worklist-driven pass claims the exact same sequence of rule
        fires and max-degree picks as one reference-rule round per pick.
        """
        from repro.core.greedy import _greedy_cover_rules, _greedy_cover_vectorized

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
            vec = _greedy_cover_vectorized(g, Workspace.for_graph(g))
            assert rules.size == vec.size
            assert np.array_equal(rules.cover, vec.cover)
            assert rules.max_degree_picks == vec.max_degree_picks
            for field in ("degree_one", "degree_two_triangle", "high_degree"):
                assert getattr(rules.reductions, field) == getattr(vec.reductions, field)

    def test_greedy_worklist_pass_leaves_queues_clean(self):
        """Shared-workspace hygiene: no pending vertex may survive greedy."""
        from repro.core.greedy import _greedy_cover_vectorized

        g = gnp(120, 0.05, seed=13)
        ws = Workspace.for_graph(g)
        _greedy_cover_vectorized(g, ws)
        d1, d2 = ws.dirty_queues()
        assert d1.count == 0 and d2.count == 0
        # and the same workspace still serves an exact vectorized cascade
        state = fresh_state(g)
        kernels_mod._apply_reductions_vectorized(
            g, state, MVCFormulation(BestBound(size=g.n + 1)), ws)
        ref = fresh_state(g)
        apply_reductions_reference(g, ref, MVCFormulation(BestBound(size=g.n + 1)),
                                   Workspace.for_graph(g))
        assert np.array_equal(state.deg, ref.deg)


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
                deferred, continued = expand_children(g, state, vmax, ws)
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
            stats = branch_and_reduce(g, MVCFormulation(best))
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
