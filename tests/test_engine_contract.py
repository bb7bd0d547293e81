"""One written contract, checked on every row of ``ENGINE_TABLE``.

Whatever the engine — sequential, simulated GPU or worker pool — the
facade returns a :class:`SolveOutcome` whose cover certifies the claim,
PVC answers both sides of the optimum, a node budget stops exactly at
the budget, and an interrupted solve resumes from its serialized
checkpoint to the clean optimum.  The cache may answer instead of the
engine, but never differently.  On random small graphs every engine
agrees with an oracle this repo did not write (networkx's maximum clique
of the complement).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import SolveCache
from repro.core.anytime import resume_from
from repro.core.outcome import Checkpoint, SolveOutcome
from repro.core.solver import ENGINES, POOL_ENGINES, solve_mvc, solve_pvc
from repro.core.verify import assert_valid_cover
from repro.graph.csr import CSRGraph
from repro.graph.generators.phat import phat_complement

#: 133 sequential nodes: large enough for a 30-node budget to interrupt,
#: small enough that the simulated engines finish in well under a second.
GRAPH = phat_complement(40, 3, seed=1)
OPTIMUM = 31
BUDGET = 30


def kw(engine: str) -> dict:
    return {"n_workers": 2} if engine in POOL_ENGINES else {}


def _resume_to_end(out: SolveOutcome, engine: str) -> SolveOutcome:
    """Resume until complete, each leg from the serialized checkpoint."""
    legs = 0
    while not out.complete:
        assert out.resumable, (engine, out.status)
        checkpoint = Checkpoint.from_bytes(out.checkpoint.to_bytes())
        out = resume_from(checkpoint, GRAPH, **kw(out.engine))
        legs += 1
        assert legs <= 50, engine
    return out


@pytest.mark.parametrize("engine", ENGINES)
def test_mvc_optimum_with_certificate(engine):
    out = solve_mvc(GRAPH, engine=engine, cache=False, **kw(engine))
    assert isinstance(out, SolveOutcome)
    assert out.status == "optimal" and out.engine == engine
    assert out.optimum == out.lower_bound == OPTIMUM
    assert out.feasible is None and not out.timed_out and out.checkpoint is None
    assert_valid_cover(GRAPH, out.cover, OPTIMUM)


@pytest.mark.parametrize("engine", ENGINES)
def test_pvc_witness_and_refutation(engine):
    yes = solve_pvc(GRAPH, OPTIMUM, engine=engine, cache=False, **kw(engine))
    assert isinstance(yes, SolveOutcome)
    assert yes.status == "optimal" and yes.feasible is True
    assert_valid_cover(GRAPH, yes.cover, yes.optimum, k=OPTIMUM)
    no = solve_pvc(GRAPH, OPTIMUM - 1, engine=engine, cache=False, **kw(engine))
    assert isinstance(no, SolveOutcome)
    assert no.status == "optimal" and no.feasible is False
    assert no.optimum is None and no.cover is None
    assert no.lower_bound == OPTIMUM  # proven: no cover of size k


@pytest.mark.parametrize("engine", ENGINES)
def test_node_budget_is_exact_and_resumes(engine):
    out = solve_mvc(GRAPH, engine=engine, node_budget=BUDGET, cache=False,
                    **kw(engine))
    assert isinstance(out, SolveOutcome)
    assert out.status == "budget_exhausted" and out.timed_out
    assert out.nodes_visited == BUDGET
    assert out.lower_bound <= OPTIMUM <= out.optimum
    assert out.checkpoint.engine == engine
    final = _resume_to_end(out, engine)
    assert final.optimum == OPTIMUM
    assert_valid_cover(GRAPH, final.cover, OPTIMUM)


@pytest.mark.parametrize("engine", ENGINES)
def test_deadline_zero_resumes(engine):
    out = solve_mvc(GRAPH, engine=engine, deadline=0.0, cache=False, **kw(engine))
    assert isinstance(out, SolveOutcome)
    assert out.status == "feasible" and out.deadline_tripped
    assert out.lower_bound <= OPTIMUM
    final = _resume_to_end(out, engine)
    assert final.optimum == OPTIMUM
    assert_valid_cover(GRAPH, final.cover, OPTIMUM)


@pytest.mark.parametrize("engine", ENGINES)
def test_cache_armed_equals_cold(engine, tmp_path):
    cold = solve_mvc(GRAPH, engine=engine, cache=False, **kw(engine))
    cache = SolveCache(tmp_path / "c")
    miss = solve_mvc(GRAPH, engine=engine, cache=cache, **kw(engine))
    hit = solve_mvc(GRAPH, engine=engine, cache=cache, **kw(engine))
    refuted = solve_pvc(GRAPH, OPTIMUM - 1, engine=engine, cache=cache, **kw(engine))
    for out in (miss, hit, refuted):
        assert isinstance(out, SolveOutcome)
    assert miss.engine == engine and hit.engine == "cache"
    assert miss.optimum == hit.optimum == cold.optimum
    assert hit.nodes_visited == 0 and refuted.nodes_visited == 0
    np.testing.assert_array_equal(np.sort(np.asarray(miss.cover)), hit.cover)
    assert refuted.feasible is False
    assert cache.session["hits_exact"] == 1 and cache.session["hits_derived"] == 1


#: Graphs of up to 40 vertices and 150 edges (self-loops and repeats
#: dropped), as (n, edges).
small_graphs = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150)))


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=small_graphs)
def test_mvc_matches_networkx_oracle(engine, case):
    """An oracle this repo did not write: MVC = n - omega(complement)."""
    n, pairs = case
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    g = CSRGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges)
    _, omega = nx.algorithms.clique.max_weight_clique(nx.complement(nxg), weight=None)
    out = solve_mvc(g, engine=engine, cache=False, **kw(engine))
    assert out.status == "optimal" and out.optimum == n - omega
    assert_valid_cover(g, out.cover, n - omega)
