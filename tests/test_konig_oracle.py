"""König's theorem as an independent oracle on the bipartite suite graphs.

On a bipartite graph the minimum vertex cover equals the maximum
matching (König).  The matching here is scipy's
``maximum_bipartite_matching`` on the 2-coloured biadjacency matrix, so
the check shares no code with this repo's solver (nor with its own
``core/matching.py``).  Every ``ENGINE_TABLE`` row must reach it.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    connected_components,
    maximum_bipartite_matching,
    shortest_path,
)

from repro.core.solver import ENGINES, POOL_ENGINES, solve_mvc
from repro.core.verify import assert_valid_cover
from repro.graph.generators.suites import suite_instance

#: The tiny-scale suite instances that are bipartite (36-68 vertices).
BIPARTITE = ("movielens_100k", "wikipedia_link_lo", "us_power_grid",
             "vc_exact_023", "vc_exact_009")


def konig_size(graph) -> int:
    """Maximum matching of a bipartite graph, computed by scipy alone."""
    adj = csr_matrix((np.ones(graph.indices.size), graph.indices, graph.indptr),
                     shape=(graph.n, graph.n))
    _, labels = connected_components(adj, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    hops = shortest_path(adj, directed=False, unweighted=True, indices=roots)
    side = hops[labels, np.arange(graph.n)].astype(np.int64) % 2 == 0
    edges = graph.edge_array()
    assert np.all(side[edges[:, 0]] != side[edges[:, 1]]), "not bipartite"
    biadjacency = adj[side][:, ~side].tocsr()
    match = maximum_bipartite_matching(biadjacency, perm_type="column")
    return int(np.count_nonzero(match >= 0))


@pytest.fixture(scope="module")
def instances():
    graphs = [suite_instance(name, "tiny").graph() for name in BIPARTITE]
    return [(name, g, konig_size(g)) for name, g in zip(BIPARTITE, graphs)]


def test_konig_sizes_are_nontrivial(instances):
    assert [size for _, _, size in instances] == [18, 22, 18, 30, 34]


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_meets_konig(engine, instances):
    kw = {"n_workers": 2} if engine in POOL_ENGINES else {}
    for name, graph, size in instances:
        out = solve_mvc(graph, engine=engine, cache=False, **kw)
        assert out.status == "optimal", (name, engine)
        assert out.optimum == size, (name, engine, out.optimum, size)
        assert_valid_cover(graph, out.cover, size)
