"""Cross-cutting hypothesis properties spanning several subsystems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sequential_sim import solve_mvc_sequential_sim
from repro.core.greedy import greedy_cover
from repro.core.matching import konig_cover
from repro.core.sequential import solve_mvc_sequential, solve_pvc_sequential
from repro.core.verify import cover_complement_is_independent, is_vertex_cover
from repro.engines.hybrid import HybridEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators.random_graphs import gnp, random_bipartite
from repro.graph.io.dimacs import format_dimacs, parse_dimacs
from repro.graph.io.metis import format_metis, parse_metis
from repro.sim.device import TINY_SIM


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 30), p=st.floats(0, 0.8), seed=st.integers(0, 500))
def test_io_roundtrips_any_graph(n, p, seed):
    """DIMACS and METIS round-trip every generated graph bit-exactly."""
    g = gnp(n, p, seed=seed)
    assert parse_dimacs(format_dimacs(g)) == g
    assert parse_metis(format_metis(g)) == g


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 22), p=st.floats(0.05, 0.9), seed=st.integers(0, 500))
def test_cover_and_independent_set_duality(n, p, seed):
    """S is a cover iff V\\S is independent — for solver output."""
    g = gnp(n, p, seed=seed)
    out = solve_mvc_sequential(g)
    assert is_vertex_cover(g, out.cover)
    assert cover_complement_is_independent(g, out.cover)


@settings(max_examples=20, deadline=None)
@given(a=st.integers(1, 10), b=st.integers(1, 10), p=st.floats(0.1, 0.9),
       seed=st.integers(0, 300))
def test_greedy_konig_sequential_sandwich(a, b, p, seed):
    """On bipartite graphs: König == sequential optimum <= greedy."""
    g = random_bipartite(a, b, p, seed=seed)
    konig = konig_cover(g)
    seq = solve_mvc_sequential(g)
    greedy = greedy_cover(g)
    assert konig.size == seq.optimum
    assert seq.optimum <= greedy.size


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4, 16), p=st.floats(0.2, 0.7), seed=st.integers(0, 200))
def test_sim_pricing_never_changes_answers(n, p, seed):
    """Charging the cost model must not perturb the traversal itself."""
    g = gnp(n, p, seed=seed)
    plain = solve_mvc_sequential(g)
    priced = solve_mvc_sequential_sim(g)
    assert priced.optimum == plain.optimum
    assert priced.nodes_visited == plain.stats.nodes_visited
    assert np.array_equal(np.sort(priced.cover), np.sort(plain.cover))


@settings(max_examples=8, deadline=None)
@given(n=st.integers(6, 14), p=st.floats(0.25, 0.6), seed=st.integers(0, 100))
def test_pvc_binary_search_recovers_optimum(n, p, seed):
    """Repeated PVC queries bracket the optimum, as a user of the
    parameterized API would do."""
    g = gnp(n, p, seed=seed)
    expected = solve_mvc_sequential(g).optimum
    lo, hi = 0, g.n
    while lo < hi:
        mid = (lo + hi) // 2
        if solve_pvc_sequential(g, mid).feasible:
            hi = mid
        else:
            lo = mid + 1
    assert lo == expected


@settings(max_examples=8, deadline=None)
@given(n=st.integers(5, 13), p=st.floats(0.2, 0.7), seed=st.integers(0, 100))
def test_hybrid_engine_idempotent_across_runs(n, p, seed):
    """Same graph, same engine configuration: bit-identical trajectories."""
    g = gnp(n, p, seed=seed)
    a = HybridEngine(device=TINY_SIM).solve_mvc(g)
    b = HybridEngine(device=TINY_SIM).solve_mvc(g)
    assert a.optimum == b.optimum
    assert a.stats.makespan_cycles == b.stats.makespan_cycles
    assert a.stats.metrics.cycles_by_kind() == b.stats.metrics.cycles_by_kind()


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 18), seed=st.integers(0, 100))
def test_greedy_cover_encoded_in_degree_array(n, seed):
    """The greedy result's cover is exactly its sentinel set, and valid."""
    g = gnp(n, 0.4, seed=seed)
    res = greedy_cover(g)
    assert len(set(res.cover.tolist())) == res.size
    assert is_vertex_cover(g, res.cover)


def test_complement_cover_relation():
    """opt(G) + max_independent_set(G) == n, via the complement detour."""
    g = gnp(14, 0.4, seed=42)
    opt = solve_mvc_sequential(g).optimum
    # maximum independent set of G = n - opt(G); check by brute force
    from repro.core.brute import brute_force_mvc

    opt_b, cover = brute_force_mvc(g)
    assert opt == opt_b
    independent = set(range(g.n)) - cover
    assert len(independent) == g.n - opt
