"""The pluggable bound layer: policy units, admissibility, engine agreement.

Four layers of guarantees for the ``BoundPolicy`` + ``NodeStep`` split:

1. the registered policies compute what they document (unit tests);
2. every policy's ``lower_bound`` is **admissible** — never above the
   true remaining optimum from :mod:`repro.core.brute` — on roots *and*
   on partially-covered intermediate states (hypothesis property);
3. every bound × every engine × every frontier returns the same optimum
   on the random / p-hat / structured / bipartite generator suites, and
   the stronger bounds *shrink* the explored tree on the bipartite-heavy
   suite (matching/König vs greedy, asserted per instance and recorded
   through an experiment-store run);
4. the default (``greedy``) bound leaves the charged work-unit stream,
   traversal statistics and sim makespans **bit-identical** to the
   pre-bound-layer engines (frozen inline oracle).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    BOUNDS,
    DEFAULT_BOUND,
    CombinedBound,
    GreedyBound,
    KonigBound,
    MatchingBound,
    make_bound,
)
from repro.core.brute import brute_force_mvc
from repro.core.formulation import BestBound, MVCFormulation
from repro.core.frontier import FRONTIERS, BestFirstFrontier, greedy_bound_key, make_frontier
from repro.core.matching import konig_cover
from repro.core.reductions import apply_reductions_reference
from repro.core.sequential import branch_and_reduce, solve_mvc_sequential, solve_pvc_sequential
from repro.core.solver import ENGINES, solve_mvc
from repro.core.verify import assert_valid_cover
from repro.engines.hybrid import HybridEngine
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.degree_array import (
    Workspace,
    alive_vertices,
    fresh_state,
    remove_vertex_into_cover,
)
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp, random_bipartite
from repro.graph.generators.structured import grid_graph, petersen
from repro.sim.device import TINY_SIM


def _partial_state(graph, rng, fraction=0.3):
    """A mid-search state: a random subset removed into the cover."""
    state = fresh_state(graph)
    for v in rng.choice(graph.n, size=int(graph.n * fraction), replace=False):
        if state.deg[v] >= 0:
            state.edge_count -= remove_vertex_into_cover(graph, state.deg, int(v))
            state.cover_size += 1
    return state


def _remaining_optimum(graph, state) -> int:
    """Exact minimum cover of the alive subgraph (brute force)."""
    alive = alive_vertices(state.deg)
    if alive.size == 0:
        return 0
    return brute_force_mvc(graph.subgraph(alive))[0]


# --------------------------------------------------------------------- #
# policy units
# --------------------------------------------------------------------- #
class TestBoundPolicies:
    def test_registry_ships_at_least_four_policies(self):
        assert len(BOUNDS) >= 4
        assert {"greedy", "degree", "matching", "konig", "combined"} <= set(BOUNDS)
        assert DEFAULT_BOUND == "greedy"

    def test_registry_round_trip_and_unknown_name(self):
        g = gnp(12, 0.3, seed=0)
        for name in BOUNDS:
            bound = make_bound(name, g)
            assert bound.name == name
        with pytest.raises(ValueError, match="unknown bound"):
            make_bound("buss", g)

    def test_greedy_prune_is_the_formulation_rule_verbatim(self):
        g = gnp(20, 0.3, seed=1)
        bound = GreedyBound(g)
        formulation = MVCFormulation(BestBound(size=g.n + 1))
        state = fresh_state(g)
        rng = np.random.default_rng(3)
        for _ in range(50):
            st_ = _partial_state(g, rng)
            for budget_probe in range(-2, 12):
                formulation.best.size = st_.cover_size + budget_probe + 1
                assert bound.prune(st_, formulation.budget(st_.cover_size)) \
                    == formulation.prune(st_)
        assert not bound.charged  # never metered: the default charge stream

    def test_greedy_lower_bound_matches_frontier_key(self):
        g = gnp(30, 0.2, seed=5)
        bound = GreedyBound(g)
        state = fresh_state(g)
        assert state.cover_size + bound.lower_bound(state) == greedy_bound_key(state)
        assert bound.frontier_key((state, 0)) == greedy_bound_key((state, 0))

    def test_degree_bound_dominates_greedy_lower_bound(self):
        rng = np.random.default_rng(7)
        for seed in range(8):
            g = gnp(24, 0.25, seed=seed)
            state = _partial_state(g, rng)
            lb_greedy = GreedyBound(g).lower_bound(state)
            lb_degree = make_bound("degree", g).lower_bound(state)
            assert lb_degree >= lb_greedy

    def test_matching_bound_is_the_maximal_matching_size(self):
        # a perfect matching on 2k vertices: lower bound exactly k
        k = 5
        edges = [(2 * i, 2 * i + 1) for i in range(k)]
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(2 * k, edges)
        assert MatchingBound(g).lower_bound(fresh_state(g)) == k

    def test_konig_bound_is_exact_on_bipartite_roots(self):
        for seed in (0, 3, 8):
            g = random_bipartite(12, 14, 0.3, seed=seed)
            exact = konig_cover(g)
            assert exact is not None
            assert KonigBound(g).lower_bound(fresh_state(g)) == exact.size

    def test_konig_falls_back_on_odd_cycles(self):
        g = petersen()  # odd girth 5: not bipartite
        lb = KonigBound(g).lower_bound(fresh_state(g))
        assert 0 < lb <= brute_force_mvc(g)[0]

    def test_combined_is_member_max_and_configurable(self):
        g = gnp(22, 0.3, seed=9)
        state = fresh_state(g)
        combined = CombinedBound(g)
        assert combined.lower_bound(state) == max(
            member.lower_bound(state) for member in combined.members)
        only_matching = CombinedBound(g, members=("matching",))
        assert only_matching.lower_bound(state) == \
            MatchingBound(g).lower_bound(state)
        with pytest.raises(ValueError, match="at least one member"):
            CombinedBound(g, members=())

    def test_matching_cap_early_exit_still_proves_the_prune(self):
        g = phat_complement(24, 2, seed=1)
        bound = MatchingBound(g)
        state = fresh_state(g)
        full = bound.lower_bound(state)
        capped = bound.lower_bound(state, cap=1)
        assert capped > 1  # proves the prune at budget 1...
        assert capped <= full  # ...with a (possibly) truncated matching

    def test_cost_units_free_only_for_greedy(self):
        g = gnp(16, 0.3, seed=2)
        state = fresh_state(g)
        for name in BOUNDS:
            bound = make_bound(name, g)
            if name == "greedy":
                assert bound.cost_units(state) == 0.0
            else:
                assert bound.charged and bound.cost_units(state) > 0.0

    def test_best_first_frontier_rekeyed_by_active_bound(self):
        g = random_bipartite(10, 10, 0.3, seed=4)
        default = make_frontier("best-first")
        assert isinstance(default, BestFirstFrontier)
        assert default.key is greedy_bound_key
        rekeyed = make_frontier("best-first", bound=make_bound("konig", g))
        assert rekeyed.key is not greedy_bound_key
        # the greedy policy keeps the built-in key (bit-identical default)
        kept = make_frontier("best-first", bound=make_bound("greedy", g))
        assert kept.key is greedy_bound_key


# --------------------------------------------------------------------- #
# admissibility (the correctness core of every pruning policy)
# --------------------------------------------------------------------- #
class TestAdmissibility:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(6, 16), p=st.floats(0.1, 0.6), seed=st.integers(0, 500),
           cover_seed=st.integers(0, 500))
    def test_every_bound_is_admissible_on_intermediate_states(
            self, n, p, seed, cover_seed):
        g = gnp(n, p, seed=seed)
        rng = np.random.default_rng(cover_seed)
        for state in (fresh_state(g), _partial_state(g, rng)):
            remaining = _remaining_optimum(g, state)
            for name in BOUNDS:
                lb = make_bound(name, g).lower_bound(state)
                assert lb <= remaining, (name, lb, remaining)

    @settings(max_examples=10, deadline=None)
    @given(left=st.integers(4, 9), right=st.integers(4, 9),
           p=st.floats(0.2, 0.6), seed=st.integers(0, 200))
    def test_konig_exact_and_others_admissible_on_bipartite(
            self, left, right, p, seed):
        g = random_bipartite(left, right, p, seed=seed)
        opt = brute_force_mvc(g)[0]
        state = fresh_state(g)
        assert KonigBound(g).lower_bound(state) == opt
        for name in BOUNDS:
            assert make_bound(name, g).lower_bound(state) <= opt


# --------------------------------------------------------------------- #
# bound x engine x frontier agreement
# --------------------------------------------------------------------- #
def _suite_graphs():
    """Small instances from each generator family, bipartite included."""
    return [
        ("gnp_sparse", gnp(26, 0.12, seed=4)),
        ("gnp_dense", gnp(18, 0.5, seed=9)),
        ("phat", phat_complement(20, 2, seed=7)),
        ("grid", grid_graph(4, 5)),
        ("bipartite", random_bipartite(12, 14, 0.3, seed=3)),
        ("petersen", petersen()),
    ]


SIM_ENGINES = [
    ("stackonly", lambda bound: StackOnlyEngine(device=TINY_SIM, start_depth=3,
                                                bound=bound)),
    ("hybrid", lambda bound: HybridEngine(device=TINY_SIM, worklist_capacity=64,
                                          bound=bound)),
]

CPU_ENGINES = ("cpu-threads",)


class TestBoundEngineFrontierAgreement:
    """Every bound × engine × frontier combination: identical optima."""

    @pytest.mark.parametrize("gname,graph", _suite_graphs())
    def test_matrix_agrees_on_mvc(self, gname, graph):
        reference = solve_mvc_sequential(graph)
        assert_valid_cover(graph, reference.cover, reference.optimum)
        for bname in BOUNDS:
            res = solve_mvc_sequential(graph, bound=bname)
            assert res.optimum == reference.optimum, (gname, bname)
            assert_valid_cover(graph, res.cover, res.optimum)
            for ename, factory in SIM_ENGINES:
                res = factory(bname).solve_mvc(graph)
                assert res.optimum == reference.optimum, (gname, ename, bname)
                assert_valid_cover(graph, res.cover, res.optimum)

    @pytest.mark.parametrize("gname,graph", _suite_graphs()[:3])
    def test_bound_times_frontier_agrees(self, gname, graph):
        reference = solve_mvc_sequential(graph).optimum
        for bname in BOUNDS:
            for fname in FRONTIERS:
                res = solve_mvc_sequential(graph, frontier=fname, bound=bname)
                assert res.optimum == reference, (gname, bname, fname)

    @pytest.mark.parametrize("gname,graph",
                             [_suite_graphs()[0], _suite_graphs()[4]])
    def test_cpu_engines_accept_every_bound(self, gname, graph):
        reference = solve_mvc_sequential(graph).optimum
        for ename in CPU_ENGINES:
            for bname in ("degree", "matching", "konig"):
                res = solve_mvc(graph, engine=ename, n_workers=2, bound=bname)
                assert res.optimum == reference, (gname, ename, bname)
                assert_valid_cover(graph, res.cover, res.optimum)

    def test_cpu_process_engine_accepts_bound(self):
        g = _suite_graphs()[4][1]
        reference = solve_mvc_sequential(g).optimum
        res = solve_mvc(g, engine="cpu-process", n_workers=2, bound="matching")
        assert res.optimum == reference

    @pytest.mark.parametrize("gname,graph", _suite_graphs()[:2])
    def test_pvc_feasibility_agrees_across_bounds(self, gname, graph):
        k = solve_mvc_sequential(graph).optimum
        for bname in BOUNDS:
            assert solve_pvc_sequential(graph, k, bound=bname).feasible, (gname, bname)
            assert solve_pvc_sequential(graph, k - 1, bound=bname).feasible is False, \
                (gname, bname)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(6, 13), p=st.floats(0.15, 0.6), seed=st.integers(0, 300))
    def test_bound_property_matches_brute_force(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        opt, _ = brute_force_mvc(g)
        for bname in BOUNDS:
            res = solve_mvc_sequential(g, bound=bname)
            assert res.optimum == opt, bname
            assert_valid_cover(g, res.cover, res.optimum)

    def test_unknown_bound_dies_with_one_line_choices(self):
        g = gnp(10, 0.3, seed=0)
        with pytest.raises(ValueError, match="unknown bound"):
            solve_mvc_sequential(g, bound="buss")
        with pytest.raises(ValueError, match="unknown bound"):
            HybridEngine(bound="buss")


# --------------------------------------------------------------------- #
# stronger bounds shrink the tree (the reason the layer exists)
# --------------------------------------------------------------------- #
#: The bipartite-heavy assertion suite: König/Hopcroft-Karp is exact on
#: these, so the strong bounds should collapse their search trees.
def _bipartite_heavy_suite():
    return [
        ("rb20x20", random_bipartite(20, 20, 0.15, seed=1)),
        ("rb16x24", random_bipartite(16, 24, 0.25, seed=1)),
        ("rb16x24b", random_bipartite(16, 24, 0.25, seed=5)),
    ]


class TestBoundStrengthShrinksTree:
    @pytest.mark.parametrize("gname,graph", _bipartite_heavy_suite())
    def test_matching_and_konig_explore_fewer_nodes(self, gname, graph):
        nodes = {
            bname: solve_mvc_sequential(graph, bound=bname).stats.nodes_visited
            for bname in ("greedy", "matching", "konig")
        }
        assert nodes["matching"] < nodes["greedy"], (gname, nodes)
        assert nodes["konig"] < nodes["greedy"], (gname, nodes)

    def test_no_bound_ever_grows_the_sequential_tree(self):
        # Every policy composes with the free Buss pre-test before its
        # own bound, so its prune set is a superset of the default's and
        # its tree a subtree — on every suite family, not just the
        # bipartite one (petersen is the historical counterexample: a
        # 5-cycle remainder Buss-prunes at budget 2 where a maximal
        # matching alone would not).
        for gname, graph in _suite_graphs() + _bipartite_heavy_suite():
            greedy_nodes = solve_mvc_sequential(graph).stats.nodes_visited
            for bname in BOUNDS:
                res = solve_mvc_sequential(graph, bound=bname)
                assert res.stats.nodes_visited <= greedy_nodes, (gname, bname)

    def test_node_reduction_recorded_via_experiment_store(self, tmp_path):
        """The acceptance artifact: a stored bound-sweep run whose cells
        show matching/König exploring fewer nodes than greedy."""
        from repro.experiment import RunStore, load_spec, run_experiment

        spec = load_spec({
            "name": "bound-strength",
            "scale": "tiny",
            "device": "TinySim",
            "instances": ["vc_exact_009", "movielens_100k"],
            "engines": ["sequential"],
            "bounds": ["greedy", "matching", "konig"],
            "instance_types": ["mvc"],
            "virtual_budget_s": 0.05,
            "seq_node_guard": 4000,
            "engine_node_guard": 2500,
        })
        store = RunStore(tmp_path / "store")
        outcome = run_experiment(spec, store)
        assert outcome.executed == 6
        records = outcome.run.completed().values()
        by_cell = {(rec["instance"], rec["bound"]): rec["result"]
                   for rec in records}
        for instance in ("vc_exact_009", "movielens_100k"):
            greedy = by_cell[(instance, "greedy")]
            for strong in ("matching", "konig"):
                cell = by_cell[(instance, strong)]
                assert cell["optimum"] == greedy["optimum"], (instance, strong)
                assert cell["nodes"] < greedy["nodes"], (instance, strong)
        # the run is queryable by bound through the SQLite index
        store.index_run(outcome.run)
        konig_cells = store.query_cells(run_id=outcome.run.run_id, bound="konig")
        assert len(konig_cells) == 2


# --------------------------------------------------------------------- #
# default-bound bit-identity (the frozen charge oracle)
# --------------------------------------------------------------------- #
def _reference_charged_traversal(graph):
    """The pre-bound-layer inline loop: ``formulation.prune`` hard-wired."""
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


class TestDefaultBoundBitIdentity:
    """``bound='greedy'`` (and the implicit default) change nothing."""

    @pytest.mark.parametrize("gname,graph", _suite_graphs()[:3])
    def test_charged_stream_bit_identical_to_frozen_oracle(self, gname, graph):
        expected_stream, expected_best, expected_stats = \
            _reference_charged_traversal(graph)
        for bound in (None, "greedy"):
            stream = []
            best = BestBound(size=graph.n + 1)
            stats = branch_and_reduce(
                graph, MVCFormulation(best), reducer=apply_reductions_reference,
                charge=lambda kind, units: stream.append((kind, float(units))),
                bound=bound,
            )
            assert best.size == expected_best
            assert stats.nodes_visited == expected_stats.nodes_visited
            assert stats.prunes == expected_stats.prunes
            assert stream == expected_stream  # bit-identical, order included
            # the default emits no lower_bound charges at all
            assert all(kind != "lower_bound" for kind, _ in stream)

    def test_sim_makespans_bit_identical_with_explicit_default(self):
        g = phat_complement(20, 2, seed=7)
        for ename, factory in SIM_ENGINES:
            default = factory("greedy").solve_mvc(g)
            if ename == "hybrid":
                baseline = HybridEngine(device=TINY_SIM,
                                        worklist_capacity=64).solve_mvc(g)
            else:
                baseline = StackOnlyEngine(device=TINY_SIM, start_depth=3).solve_mvc(g)
            assert default.stats.makespan_cycles == baseline.stats.makespan_cycles, ename
            assert default.nodes_visited == baseline.nodes_visited, ename
            assert default.optimum == baseline.optimum, ename

    def test_traversal_stats_identical_with_explicit_default(self):
        g = gnp(28, 0.2, seed=11)
        a = solve_mvc_sequential(g)
        b = solve_mvc_sequential(g, bound="greedy")
        assert a.optimum == b.optimum
        assert a.stats.nodes_visited == b.stats.nodes_visited
        assert a.stats.branches == b.stats.branches
        assert a.stats.prunes == b.stats.prunes
        assert np.array_equal(a.cover, b.cover)

    def test_non_default_bound_charges_lower_bound_cycles(self):
        g = random_bipartite(10, 12, 0.3, seed=2)
        res = HybridEngine(device=TINY_SIM, worklist_capacity=64,
                           bound="matching").solve_mvc(g)
        charged = sum(
            block.cycles_by_kind.get("lower_bound", 0.0)
            for block in res.stats.metrics.blocks
        )
        assert charged > 0.0
        assert res.stats.params["bound"] == "matching"
