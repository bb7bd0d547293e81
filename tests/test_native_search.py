"""The compiled depth-first loop (``_native.c``'s ``search``).

``branch_and_reduce`` hands the plain configuration to the ``native``
backend's ``search``, which runs the Fig. 1 loop to exhaustion in C.
These tests hold it to the interpreted loop under ``kernels="scalar"``
(bit-identical by the kernel-backend contract): every ``SearchStats``
field and reduction counter, the optimum, ``BestBound.updates`` and a
valid cover, for MVC and for PVC at k = OPT and k = OPT - 1, over the
random / p_hat / structured suites and hypothesis graphs.  A node-budget
trip must leave the same frontier, item by item, as the interpreted
loop; every excluded configuration must take the interpreted loop; and
the C boundary must reject malformed input with a typed error, leak
nothing on an allocation failure and never write to an item array.
``Walker.run`` walks without the GIL: Walkers on two threads at once
must reproduce the counters each gets alone, and a Walker mid-run must
reject every call from another thread.  A Walker scans bitset rows when
ceil(n / 64) <= 2m / n and CSR rows otherwise (``Walker.bitset``); both
representations are held to the same comparisons.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.core import native
from repro.core.bounds import make_bound
from repro.core.branching import random_pivot
from repro.core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from repro.core.frontier import LifoFrontier
from repro.core.greedy import greedy_cover
from repro.core.kernel_backends import make_kernels
from repro.core.reductions import apply_reductions_reference
from repro.core.sequential import branch_and_reduce
from repro.core.stats import SearchStats
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import VCState, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import (
    disjoint_union,
    grid_graph,
    path_graph,
    petersen,
    star_graph,
)

SUITE = {
    "gnp48": lambda: gnp(48, 0.12, seed=7),
    "gnp70": lambda: gnp(70, 0.05, seed=23),
    "phat40": lambda: phat_complement(40, 2, seed=11),
    "phat36": lambda: phat_complement(36, 3, seed=4),
    "phat60": lambda: phat_complement(60, 3, seed=5),
    "phat70": lambda: phat_complement(70, 3, seed=2),
    "gnp60": lambda: gnp(60, 0.3, seed=3),
    "union": lambda: disjoint_union(path_graph(5), petersen(), star_graph(6)),
    "grid56": lambda: grid_graph(5, 6),
}

#: Graphs with ceil(n / 64) > 2m / n, on which the Walker scans CSR rows.
CSR_SIDE = {
    "grid4x50": lambda: grid_graph(4, 50),
    "gnp240": lambda: gnp(240, 0.016, seed=0),
}

GRAPHS = {**SUITE, **CSR_SIDE}


def _ext():
    module = native.load()
    assert module is not None, native.load_error()
    return module


def _stats(s):
    r = s.reductions
    return (s.nodes_visited, s.branches, s.prunes, s.solutions_found,
            s.max_depth_reached, s.max_stack_depth, r.degree_one,
            r.degree_two_triangle, r.high_degree, r.sweeps,
            bool(s.extra.get("timed_out")))


def _mvc(graph, kernels, **kw):
    """One MVC traversal from the greedy incumbent, as the solver runs it."""
    greedy = greedy_cover(graph, kernels="scalar")
    best = BestBound(size=greedy.size, cover=greedy.cover)
    stats = branch_and_reduce(graph, MVCFormulation(best), kernels=kernels, **kw)
    return best, stats


def _pvc(graph, k, kernels, **kw):
    flag = FoundFlag()
    stats = branch_and_reduce(graph, PVCFormulation(k=k, flag=flag),
                              kernels=kernels, **kw)
    return flag, stats


def _assert_cover(graph, cover, size):
    cover = np.asarray(cover, dtype=np.int64)
    assert len(cover) == size == len(np.unique(cover))
    member = np.zeros(graph.n, dtype=bool)
    member[cover] = True
    edges = graph.edge_array()
    assert bool(np.all(member[edges[:, 0]] | member[edges[:, 1]]))


def _item(entry):
    """A frontier item as comparable plain data (hint kept in order)."""
    state, depth = entry
    dirty = None if state.dirty is None else np.asarray(state.dirty).tolist()
    return (state.deg.tobytes(), state.cover_size, state.edge_count, dirty,
            state.max_deg_hint, depth)


def _copy_items(items):
    return [(VCState(s.deg.copy(), s.cover_size, s.edge_count,
                     None if s.dirty is None else list(s.dirty), s.max_deg_hint), d)
            for s, d in items]


def _never():
    return False


# --------------------------------------------------------------------- #
# equivalence with the interpreted loop
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_walker_representation_follows_the_density_rule(name):
    graph = GRAPHS[name]()
    words = -(-graph.n // 64)
    walker = _ext().Walker(graph.indptr, graph.indices, "mvc")
    assert walker.bitset == (name in SUITE) == (words * graph.n <= 2 * graph.m)
    with pytest.raises(AttributeError):
        walker.bitset = not walker.bitset


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_mvc_matches_the_interpreted_loop(name):
    graph = GRAPHS[name]()
    best, stats = _mvc(graph, "native")
    ref_best, ref_stats = _mvc(graph, "scalar")
    assert stats.extra.get("native_search") == 1.0
    assert "native_search" not in ref_stats.extra
    assert _stats(stats) == _stats(ref_stats)
    assert (best.size, best.updates) == (ref_best.size, ref_best.updates)
    assert best.cover.tolist() == ref_best.cover.tolist()
    _assert_cover(graph, best.cover, best.size)


@pytest.mark.parametrize("delta", (0, 1), ids=("k=OPT", "k=OPT-1"))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_pvc_matches_the_interpreted_loop(name, delta):
    graph = GRAPHS[name]()
    opt = _mvc(graph, "native")[0].size
    if opt - delta < 0:
        pytest.skip("no smaller k")
    flag, stats = _pvc(graph, opt - delta, "native")
    ref_flag, ref_stats = _pvc(graph, opt - delta, "scalar")
    assert stats.extra.get("native_search") == 1.0
    assert _stats(stats) == _stats(ref_stats)
    assert (flag.found, flag.size) == (ref_flag.found, ref_flag.size)
    assert flag.found == (delta == 0)
    if flag.found:
        assert flag.cover.tolist() == ref_flag.cover.tolist()
        _assert_cover(graph, flag.cover, flag.size)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=160))))
def test_hypothesis_graphs_match_the_interpreted_loop(case):
    n, pairs = case
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    graph = CSRGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    best, stats = _mvc(graph, "native")
    ref_best, ref_stats = _mvc(graph, "scalar")
    assert _stats(stats) == _stats(ref_stats)
    assert (best.size, best.updates) == (ref_best.size, ref_best.updates)
    _assert_cover(graph, best.cover, best.size)
    for k in (best.size, best.size - 1):
        if k < 0:
            continue
        flag, stats = _pvc(graph, k, "native")
        ref_flag, ref_stats = _pvc(graph, k, "scalar")
        assert _stats(stats) == _stats(ref_stats)
        assert (flag.found, flag.size) == (ref_flag.found, ref_flag.size)


# --------------------------------------------------------------------- #
# node-budget trips, remainders and pre-filled frontiers
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("budget", (1, 7, 60))
@pytest.mark.parametrize("name", ("phat70", "gnp60", "grid56", "grid4x50"))
def test_budget_trip_leaves_the_interpreted_frontier(name, budget):
    """The remainder equals, item by item, what the per-node loop with
    the same compiled kernels leaves (``should_stop`` that never fires
    forces that loop); against ``scalar`` the hints agree as sets."""
    graph = GRAPHS[name]()
    runs = {}
    for label, kernels, extra in (("search", "native", {}),
                                  ("per-node", "native", {"should_stop": _never}),
                                  ("scalar", "scalar", {})):
        frontier = LifoFrontier()
        best, stats = _mvc(graph, kernels, node_budget=budget,
                           frontier=frontier, **extra)
        runs[label] = (best, stats, frontier.drain())
    assert "native_search" in runs["search"][1].extra
    assert "native_search" not in runs["per-node"][1].extra
    got, per_node, scalar = (runs[k] for k in ("search", "per-node", "scalar"))
    assert _stats(got[1]) == _stats(per_node[1]) == _stats(scalar[1])
    assert got[0].size == per_node[0].size == scalar[0].size
    assert [_item(e) for e in got[2]] == [_item(e) for e in per_node[2]]
    assert len(got[2]) == len(scalar[2])
    for a, b in zip(got[2], scalar[2]):
        ia, ib = _item(a), _item(b)
        assert ia[:3] + ia[4:] == ib[:3] + ib[4:]
        assert sorted(set(ia[3] or ())) == sorted(set(ib[3] or ()))


@pytest.mark.parametrize("name", ("phat70", "gnp60"))
def test_resuming_a_tripped_frontier_reaches_the_optimum(name):
    """Trip, then resume the remainder: the legs' nodes add up to the
    uninterrupted run's and the optimum is the same."""
    graph = SUITE[name]()
    full_best, full_stats = _mvc(graph, "native")
    greedy = greedy_cover(graph, kernels="scalar")
    best = BestBound(size=greedy.size, cover=greedy.cover)
    form = MVCFormulation(best)
    frontier = LifoFrontier()
    stats = SearchStats()
    branch_and_reduce(graph, form, node_budget=25, frontier=frontier,
                      stats=stats, kernels="native")
    assert stats.extra.get("timed_out") == 1.0 and len(frontier)
    legs = 1
    while len(frontier):
        root, _ = frontier.pop()
        stats.extra.pop("timed_out", None)
        branch_and_reduce(graph, form, root=root, frontier=frontier,
                          node_budget=stats.nodes_visited + 400, stats=stats,
                          kernels="native")
        legs += 1
    assert legs > 2
    assert best.size == full_best.size
    assert stats.nodes_visited == full_stats.nodes_visited
    _assert_cover(graph, best.cover, best.size)


@pytest.mark.parametrize("k_delta", (None, 0, 1))
def test_prefilled_frontier_gives_the_same_result(k_delta):
    """A frontier filled by an earlier leg (anytime resume, the inline
    drain) is taken over bottom to top, with ``root`` processed first."""
    graph = SUITE["phat60"]()
    opt = _mvc(graph, "native")[0].size
    frontier = LifoFrontier()
    _mvc(graph, "scalar", node_budget=40, frontier=frontier)
    pending = frontier.drain()[::-1]
    root_item, rest = pending[-1], pending[:-1]
    results = []
    for kernels in ("native", "scalar"):
        filled = LifoFrontier()
        for item in _copy_items(rest):
            filled.push(item)
        root = _copy_items([root_item])[0][0]
        if k_delta is None:
            holder, stats = _mvc(graph, kernels, root=root, frontier=filled)
            answer = (holder.size, holder.updates)
        else:
            holder, stats = _pvc(graph, opt - k_delta, kernels, root=root,
                                 frontier=filled)
            answer = (holder.found, holder.size)
        results.append((answer, _stats(stats), [_item(e)[:3] for e in filled.drain()],
                        "native_search" in stats.extra))
    assert results[0][:3] == results[1][:3]
    assert results[0][3] and not results[1][3]


# --------------------------------------------------------------------- #
# every excluded configuration keeps the interpreted loop
# --------------------------------------------------------------------- #
class _Lifo(LifoFrontier):
    __slots__ = ()


class _MVC(MVCFormulation):
    pass


class _Best(BestBound):
    pass


FALLBACKS = {
    "scalar backend": dict(kernels="scalar"),
    "explicit reducer": dict(reducer=lambda g, s, f, w, charge=None, counters=None:
                             apply_reductions_reference(g, s, f, w, counters=counters)),
    "charged run": dict(charge=lambda kind, units: None),
    "random pivot": dict(pivot=random_pivot, rng=np.random.default_rng(1)),
    "degree bound": dict(bound="degree"),
    "fifo frontier": dict(frontier="fifo"),
    "lifo subclass": dict(frontier=_Lifo()),
    "deadline": dict(deadline=60.0),
    "should_stop": dict(should_stop=_never),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_excluded_configurations_stay_interpreted(case):
    graph = SUITE["phat36"]()
    opt = _mvc(graph, "native")[0].size
    kw = dict(FALLBACKS[case])
    best, stats = _mvc(graph, kw.pop("kernels", "native"), **kw)
    assert "native_search" not in stats.extra
    assert best.size == opt


@pytest.mark.parametrize("case", ("formulation subclass", "holder subclass",
                                  "flag already set"))
def test_engine_formulations_stay_interpreted(case):
    graph = SUITE["phat36"]()
    greedy = greedy_cover(graph, kernels="scalar")
    if case == "formulation subclass":
        form = _MVC(BestBound(size=greedy.size, cover=greedy.cover))
    elif case == "holder subclass":
        form = MVCFormulation(_Best(size=greedy.size, cover=greedy.cover))
    else:
        flag = FoundFlag()
        flag.set(fresh_state(graph))
        form = PVCFormulation(k=graph.n, flag=flag)
    stats = branch_and_reduce(graph, form, kernels="native")
    assert "native_search" not in stats.extra


def test_armed_faults_and_telemetry_stay_interpreted():
    graph = SUITE["phat36"]()
    with faults.injected("reduce_raise:0.0"):
        assert "native_search" not in _mvc(graph, "native")[1].extra
    obs.arm(with_metrics=False)
    try:
        assert "native_search" not in _mvc(graph, "native")[1].extra
    finally:
        obs.disarm()
    assert _mvc(graph, "native")[1].extra.get("native_search") == 1.0


@pytest.mark.usefixtures("without_native")
def test_no_extension_stays_interpreted():
    graph = SUITE["phat36"]()
    best, stats = _mvc(graph, None)  # auto without the extension
    assert "native_search" not in stats.extra
    assert best.size == _mvc(graph, "scalar")[0].size


def test_auto_takes_the_compiled_loop():
    best, stats = _mvc(SUITE["phat36"](), None)
    assert stats.extra.get("native_search") == 1.0
    assert make_kernels("auto").bind(36, 10).name == "native"


# --------------------------------------------------------------------- #
# the C boundary
# --------------------------------------------------------------------- #
class TestSearchBoundary:
    def _args(self, graph=None):
        graph = graph or SUITE["phat36"]()
        root = fresh_state(graph)
        item = (root.deg, root.cover_size, root.edge_count, None, -1, 0)
        return graph, item

    def _search(self, graph, items, indptr=None, indices=None, kind="mvc",
                bound=None, node_budget=None):
        return _ext().search(graph.indptr if indptr is None else indptr,
                             graph.indices if indices is None else indices,
                             items, kind, graph.n + 1 if bound is None else bound,
                             node_budget)

    def test_wrong_dtypes_raise_type_error(self):
        graph, item = self._args()
        deg = item[0]
        cases = [
            dict(indptr=graph.indptr.astype(np.int32)),
            dict(indices=graph.indices.astype(np.int64)),
            dict(indptr=graph.indptr.tolist()),
            dict(items=[(deg.astype(np.int64),) + item[1:]]),
            dict(items=[(deg.astype(np.float32),) + item[1:]]),
            dict(items=[(deg.tolist(),) + item[1:]]),
            dict(items=[item[:5]]),
            dict(items=[list(item)]),
            dict(items=[item[:3] + (np.zeros(2, dtype=np.float64),) + item[4:]]),
            dict(items=None),
            dict(kind=0),
            dict(items=[item[:1] + ("1",) + item[2:]]),
        ]
        for kw in cases:
            items = kw.pop("items", [item])
            before = deg.copy()
            with pytest.raises(TypeError):
                self._search(graph, items, **kw)
            assert np.array_equal(deg, before)

    def test_wrong_lengths_raise_value_error(self):
        graph, item = self._args()
        deg = item[0]
        wide = np.zeros(2 * graph.n, dtype=np.int32)
        cases = [
            dict(indptr=graph.indptr[:-1].copy()),
            dict(indices=graph.indices[:-3].copy()),
            dict(items=[(deg[:-1].copy(),) + item[1:]]),
            dict(items=[(np.zeros(graph.n + 1, dtype=np.int32),) + item[1:]]),
            dict(items=[(wide[::2],) + item[1:]]),
            dict(items=[(np.zeros((graph.n, 1), dtype=np.int32),) + item[1:]]),
            dict(kind="mis"),
        ]
        for kw in cases:
            items = kw.pop("items", [item])
            with pytest.raises(ValueError):
                self._search(graph, items, **kw)

    @pytest.mark.parametrize("bad", (-1, 36, 10 ** 9))
    def test_out_of_range_hint_raises_value_error(self, bad):
        graph, item = self._args()
        for hint in (np.array([0, bad], dtype=np.int64), [1, bad],
                     np.array([bad], dtype=np.int32) if abs(bad) < 2 ** 31 else [bad]):
            good = item[:3] + ([0, 1], 5, 0)
            with pytest.raises(ValueError, match="dirty hint entry"):
                self._search(graph, [good, item[:3] + (hint, -1, 0)])

    def test_resumed_item_with_bad_hint_raises_through_the_solver(self):
        graph = SUITE["phat36"]()
        frontier = LifoFrontier()
        state = fresh_state(graph)
        frontier.push((VCState(state.deg.copy(), 0, graph.m, [0, graph.n], -1), 1))
        with pytest.raises(ValueError, match="dirty hint entry"):
            _mvc(graph, "native", frontier=frontier)
        assert len(frontier) == 1  # the frontier is left as it was

    def test_item_arrays_are_never_written(self):
        graph, _ = self._args()
        frontier = LifoFrontier()
        _mvc(graph, "scalar", node_budget=30, frontier=frontier)
        items = [(s.deg, s.cover_size, s.edge_count, s.dirty, s.max_deg_hint, d)
                 for s, d in frontier.drain()[::-1]]
        for s in items:
            s[0].flags.writeable = False  # a write would raise, not corrupt
        before = [(s[0].tobytes(), None if s[3] is None else list(s[3])) for s in items]
        out = self._search(graph, items)
        assert out[0] == 0  # exhausted
        assert [(s[0].tobytes(), None if s[3] is None else list(s[3]))
                for s in items] == before

    def test_root_state_is_not_mutated(self):
        graph = SUITE["phat36"]()
        root = fresh_state(graph)
        before = root.deg.copy()
        _, stats = _mvc(graph, "native", root=root)
        assert "native_search" in stats.extra
        assert np.array_equal(root.deg, before)

    def test_allocation_failure_raises_memory_error_and_leaks_nothing(self):
        self._allocation_sweep("phat60")

    def test_allocation_failure_on_csr_rows_leaks_nothing(self):
        self._allocation_sweep("grid4x50")

    def _allocation_sweep(self, name):
        graph = GRAPHS[name]()
        ext = _ext()
        frontier = LifoFrontier()
        _mvc(graph, "scalar", node_budget=20, frontier=frontier)
        items = [(s.deg, s.cover_size, s.edge_count, s.dirty, s.max_deg_hint, d)
                 for s, d in frontier.drain()[::-1]]
        expected = self._search(graph, items, node_budget=200)
        failures = 0
        try:
            for k in range(400):
                ext._fail_search_alloc(k)
                try:
                    out = self._search(graph, items, node_budget=200)
                except MemoryError:
                    failures += 1
                else:
                    assert out[:3] == expected[:3] and out[4:14] == expected[4:14]
                    break
                finally:
                    ext._fail_search_alloc(-1)
                assert ext._search_blocks() == 0
        finally:
            ext._fail_search_alloc(-1)
        assert failures >= 3
        assert ext._search_blocks() == 0

    def test_empty_items_and_budget_zero(self):
        graph, item = self._args()
        out = self._search(graph, [])
        assert out[0] == 0 and out[4] == 0 and out[14] == []
        out = self._search(graph, [item], node_budget=0)
        assert out[0] == 2 and out[4] == 0
        (deg, cover, edges, hint, max_deg, depth), = out[14]
        assert deg.tobytes() == item[0].tobytes()
        assert (cover, edges, hint, max_deg, depth) == item[1:]


def test_degraded_native_has_no_compiled_loop(monkeypatch):
    from repro.core import kernel_backends as kb

    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(kb, "_INSTANCES", {})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        backend = make_kernels("native")
    graph = SUITE["union"]()
    assert backend.search(graph, [], "mvc", graph.n, None) is None
    best, stats = _mvc(graph, backend)
    assert "native_search" not in stats.extra
    assert best.size == _mvc(graph, "scalar")[0].size
    assert make_kernels("scalar").search(graph, [], "mvc", 1, None) is None


def test_bound_policy_instance_of_greedy_is_eligible():
    graph = SUITE["phat36"]()
    best, stats = _mvc(graph, "native", bound=make_bound("greedy", graph))
    assert stats.extra.get("native_search") == 1.0


# --------------------------------------------------------------------- #
# the persistent Walker
# --------------------------------------------------------------------- #
#: The distributed section of benchmarks/ci_smoke.sh.
CI_SMOKE = {
    "gnp20": lambda: gnp(20, 0.2, seed=12),
    "phat16": lambda: phat_complement(16, 2, seed=4),
    "grid4x4": lambda: grid_graph(4, 4),
    "gnp60": lambda: gnp(60, 0.12, seed=3),
}

#: search()'s counters that do not depend on the order the stack is
#: walked in (nodes, branches, prunes, solutions, reduction counters),
#: by position in its result tuple.
_SUMMED = (4, 5, 6, 7, 10, 11, 12, 13)


def _root_item(graph):
    root = fresh_state(graph)
    return (root.deg, root.cover_size, root.edge_count, None, -1, 0)


def _chunked(graph, kind, bound, budgets, reorder):
    """Walk ``graph`` on one Walker in chunks of ``budgets`` nodes, the
    bound tightened between chunks as a worker does; with ``reorder``,
    donate the bottom half and push it back on top between chunks.
    Returns (status, best, per-counter sums, max_stack, max_depth)."""
    walker = _ext().Walker(graph.indptr, graph.indices, kind)
    walker.push([_root_item(graph)])
    sums = [0] * len(_SUMMED)
    best, status, max_stack, max_depth = bound, 0, 0, 0
    for budget in budgets:
        out = walker.run(best if kind == "mvc" else bound, budget)
        assert len(out) == 14
        sums = [s + out[i] for s, i in zip(sums, _SUMMED)]
        max_stack, max_depth = max(max_stack, out[8]), max(max_depth, out[9])
        status = out[0]
        if out[3] is not None:
            best = out[1]
            assert int(np.count_nonzero(out[3] == -1)) == best
        if status != 2:
            break
        if reorder:
            moved = walker.donate_bottom(len(walker) // 2)
            walker.push(moved)
    assert status != 2, "budgets ran out before the walk finished"
    return status, best if kind == "mvc" else out[1], sums, max_stack, max_depth


def _one_shot(graph, kind, bound):
    out = _ext().search(graph.indptr, graph.indices, [_root_item(graph)],
                        kind, bound, None)
    return out[0], out[1], [out[i] for i in _SUMMED], out[8], out[9]


def _budgets(rng=None):
    if rng is None:
        return [64, 1024] * 10_000
    return [int(b) for b in rng.integers(1, 300, size=100_000)]


@pytest.mark.parametrize("budgets", ("64/1024", "random"))
@pytest.mark.parametrize("name", sorted(CI_SMOKE) + sorted(CSR_SIDE))
def test_chunked_walker_matches_one_shot_search(name, budgets):
    """Chunked runs on one Walker equal one search() call, counter for
    counter; with donate_bottom + push between chunks (the order changes)
    the optimum and every order-free counter still agree where the bound
    cannot move: PVC at k = OPT - 1 and MVC from bound OPT."""
    graph = {**CI_SMOKE, **CSR_SIDE}[name]()
    plan = _budgets(None if budgets == "64/1024" else np.random.default_rng(7))
    greedy = greedy_cover(graph, kernels="scalar").size
    opt = _one_shot(graph, "mvc", greedy)[1]
    assert _chunked(graph, "mvc", greedy, plan, reorder=False) == \
        _one_shot(graph, "mvc", greedy)
    assert _chunked(graph, "mvc", greedy, plan, reorder=True)[1] == opt
    for kind, bound in (("pvc", opt - 1), ("mvc", opt)):
        if bound < 0:
            continue
        want = _one_shot(graph, kind, bound)
        got = _chunked(graph, kind, bound, plan, reorder=True)
        assert got[:3] == want[:3]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=160))),
    st.integers(0, 2 ** 31 - 1))
def test_hypothesis_chunked_walker_matches_one_shot_search(case, seed):
    n, pairs = case
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    graph = CSRGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    if graph.m == 0:
        return
    plan = _budgets(np.random.default_rng(seed))
    greedy = greedy_cover(graph, kernels="scalar").size
    want = _one_shot(graph, "mvc", greedy)
    assert _chunked(graph, "mvc", greedy, plan, reorder=False) == want
    assert _chunked(graph, "mvc", greedy, plan, reorder=True)[1] == want[1]
    for kind, bound in (("pvc", want[1] - 1), ("mvc", want[1])):
        if bound >= 0:
            assert _chunked(graph, kind, bound, plan, reorder=True)[:3] == \
                _one_shot(graph, kind, bound)[:3]


class TestWalker:
    def _walker(self, name="phat60", kind="mvc"):
        graph = SUITE[name]()
        walker = _ext().Walker(graph.indptr, graph.indices, kind)
        return graph, walker

    def test_stack_moves_and_counters(self):
        graph, walker = self._walker()
        assert len(walker) == 0
        assert walker.donate_bottom(5) == [] and walker.drain() == []
        walker.push([_root_item(graph)])
        assert walker.donate_bottom(5) == []  # the top item always stays
        out = walker.run(graph.n + 1, 30)
        assert out[0] == 2 and out[4] == 30
        depth = len(walker)
        assert depth > 3
        given = walker.donate_bottom(2)
        assert len(given) == 2 and len(walker) == depth - 2
        assert all(item[5] >= 1 for item in given)  # shallowest first
        assert given[0][5] <= given[1][5]
        walker.push(given)
        assert len(walker) == depth
        rest = walker.drain()
        assert len(rest) == depth and len(walker) == 0
        assert (walker.runs, walker.items_in, walker.items_out) == (1, 3, depth + 2)

    def test_donation_keeps_the_top_and_order(self):
        graph, walker = self._walker()
        walker.push([_root_item(graph)])
        walker.run(graph.n + 1, 40)
        before = [(i[0].tobytes(), i[1:3], i[5]) for i in walker.drain()]
        walker.push([(np.frombuffer(d, dtype=np.int32), c, e, None, -1, depth)
                     for d, (c, e), depth in before])
        given = walker.donate_bottom(len(before) + 10)
        assert len(given) == len(before) - 1
        assert [(i[0].tobytes(), i[1:3], i[5]) for i in given] == before[:-1]
        (top,) = walker.drain()
        assert (top[0].tobytes(), top[1:3], top[5]) == before[-1]

    def test_bad_push_pushes_nothing(self):
        graph, walker = self._walker()
        item = _root_item(graph)
        with pytest.raises(ValueError, match="dirty hint entry"):
            walker.push([item, item[:3] + ([graph.n], -1, 0)])
        with pytest.raises(TypeError):
            walker.push([item, item[:5]])
        assert len(walker) == 0 and walker.items_in == 0

    def test_bad_arguments(self):
        graph = SUITE["phat36"]()
        ext = _ext()
        with pytest.raises(TypeError):
            ext.Walker(graph.indptr, graph.indices, 0)
        with pytest.raises(ValueError):
            ext.Walker(graph.indptr, graph.indices, "mis")
        with pytest.raises(TypeError):
            ext.Walker(graph.indptr.astype(np.int32), graph.indices, "mvc")
        walker = ext.Walker(graph.indptr, graph.indices, "pvc")
        with pytest.raises(TypeError):
            walker.run("3", None)
        with pytest.raises(TypeError):
            walker.run(3)
        with pytest.raises(TypeError):
            walker.donate_bottom(None)
        assert walker.run(3, None)[0] == 0  # an empty stack is exhausted

    def test_pvc_found_leaves_the_rest_of_the_stack(self):
        graph, walker = self._walker(kind="pvc")
        opt = _mvc(graph, "native")[0].size
        walker.push([_root_item(graph)])
        out = walker.run(opt, None)
        assert out[0] == 1 and out[1] == opt and out[3] is not None
        assert int(np.count_nonzero(out[3] == -1)) == opt
        leftover = walker.drain()
        want = _ext().search(graph.indptr, graph.indices, [_root_item(graph)],
                             "pvc", opt, None)
        assert [i[0].tobytes() for i in leftover] == \
            [i[0].tobytes() for i in want[14]]

    def test_freed_walker_releases_every_block(self):
        ext = _ext()
        assert ext._search_blocks() == 0
        graph, walker = self._walker("phat60")
        walker.push([_root_item(graph)])
        walker.run(graph.n + 1, 200)
        assert ext._search_blocks() > 0
        del walker
        assert ext._search_blocks() == 0

    def test_allocation_failure_breaks_the_walker_and_leaks_nothing(self):
        self._allocation_sweep("phat60")

    def test_allocation_failure_on_csr_rows_breaks_the_walker(self):
        self._allocation_sweep("grid4x50")

    def _allocation_sweep(self, name):
        """Fail each allocation in turn, from the constructor's bitset
        (the first one, where the Walker builds it) through push and run
        (whose live masks come first)."""
        ext = _ext()
        graph = GRAPHS[name]()
        failed_in = []
        try:
            for k in range(400):
                ext._fail_search_alloc(k)
                walker, stage = None, "init"
                try:
                    walker = ext.Walker(graph.indptr, graph.indices, "mvc")
                    stage = "push"
                    walker.push([_root_item(graph)])
                    stage = "run"
                    walker.run(graph.n + 1, 150)
                except MemoryError:
                    failed_in.append(stage)
                    if stage == "push":  # pushes nothing, stays usable
                        assert len(walker) == 0 and walker.items_in == 0
                    elif stage == "run":
                        with pytest.raises(RuntimeError, match="unusable"):
                            walker.run(graph.n + 1, 10)
                else:
                    break
                finally:
                    ext._fail_search_alloc(-1)
                    del walker
                assert ext._search_blocks() == 0
        finally:
            ext._fail_search_alloc(-1)
        assert failed_in[0] == ("init" if name in SUITE else "push")
        assert failed_in.count("init") == (name in SUITE)
        assert failed_in.count("run") >= 2
        assert ext._search_blocks() == 0


class TestWalkerThreads:
    """run() walks without the GIL: concurrent Walkers stay exact, and a
    Walker mid-run locks every other caller out."""

    def test_concurrent_walkers_reproduce_the_sequential_counters(self):
        """More threads than cores walk their own Walkers at once, in
        chunks (each chunk takes and returns scratch while the others
        walk), with a short switch interval; every walk's result equals
        the one walked alone."""
        names = ("phat60", "phat70", "gnp60", "grid4x50")
        plan = [int(b) for b in np.random.default_rng(3).integers(1, 300, 5000)]
        graphs = {name: GRAPHS[name]() for name in names}
        bounds = {name: greedy_cover(g, kernels="scalar").size
                  for name, g in graphs.items()}
        alone = {name: _chunked(g, "mvc", bounds[name], plan, reorder=False)
                 for name, g in graphs.items()}
        barrier = threading.Barrier(len(names))
        got, errors = {}, []

        def walk(name):
            try:
                barrier.wait(timeout=30)
                got[name] = _chunked(graphs[name], "mvc", bounds[name], plan,
                                     reorder=False)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                got.clear()
                threads = [threading.Thread(target=walk, args=(name,))
                           for name in names]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert not errors, errors
                assert got == alone
        finally:
            sys.setswitchinterval(interval)
        assert _ext()._search_blocks() == 0

    def test_walker_mid_run_rejects_other_threads(self):
        ext = _ext()
        graph = phat_complement(150, 3, seed=1)  # ~270k nodes, ~0.5 s
        walker = ext.Walker(graph.indptr, graph.indices, "mvc")
        walker.push([_root_item(graph)])
        out = []
        runner = threading.Thread(
            target=lambda: out.append(walker.run(graph.n + 1, None)))
        runner.start()
        calls = {
            "len": lambda: len(walker),
            "push": lambda: walker.push([_root_item(graph)]),
            "run": lambda: walker.run(graph.n + 1, 10),
            "donate_bottom": lambda: walker.donate_bottom(1),
            "drain": walker.drain,
        }
        started = False
        while runner.is_alive() and not started:
            try:
                len(walker)  # succeeds until the run is in flight
            except RuntimeError:
                started = True
        assert started, "the run ended before it was seen in flight"
        for name, call in calls.items():
            with pytest.raises(RuntimeError, match="in flight"):
                call()
        runner.join(timeout=60)
        assert not runner.is_alive()
        (result,) = out
        assert result[0] == 0 and walker.runs == 1 and len(walker) == 0


@pytest.mark.parametrize("kernels", ("native", "scalar"))
def test_chunk_walk_with_donations_reaches_the_optimum(kernels):
    """ChunkWalk on either loop: chunks, bottom donations parked in a pool
    and walked later still end at the optimum with a valid cover."""
    from repro.core.sequential import ChunkWalk

    graph = SUITE["phat70"]()
    opt = _mvc(graph, "native")[0].size
    greedy = greedy_cover(graph, kernels="scalar")
    best = BestBound(size=greedy.size, cover=greedy.cover)
    walk = ChunkWalk(graph, MVCFormulation(best), kernels=kernels)
    assert (walk.walker is not None) == (kernels == "native")
    walk.push([fresh_state(graph)])
    pool = []
    while len(walk) or pool:
        if not len(walk):
            walk.push([pool.pop()])
        walk.run(50)
        pool.extend(walk.donate_bottom(3))
    assert best.size == opt
    _assert_cover(graph, best.cover, best.size)
    nodes = walk.stats.nodes_visited
    walk.run(5)  # an empty stack walks nothing
    assert nodes == walk.stats.nodes_visited > 0 and walk.drain() == []
