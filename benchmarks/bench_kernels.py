"""Micro-benchmarks of the kernel substrate (scalar tier vs reference).

Run with::

    pytest benchmarks/bench_kernels.py -o python_functions="bench_*" --benchmark-only

The fast/reference pairs measure the same semantic operation, so their
ratio is the kernel layer's speedup; the property tests in
``tests/test_kernels.py`` prove the results identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.formulation import BestBound, MVCFormulation
from repro.core.kernels import (
    _apply_reductions_scalar,
    alive_pairs,
    apply_reductions_fast,
    first_alive_neighbors,
)
from repro.core.parallel_reductions import apply_reductions_parallel
from repro.core.reductions import apply_reductions_reference
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import Workspace, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp

SPARSE = gnp(400, 0.01, seed=78)
BIG_SPARSE = gnp(4000, 0.001, seed=79)
DENSE = phat_complement(100, 2, seed=77)


def _form(graph: CSRGraph) -> MVCFormulation:
    return MVCFormulation(BestBound(size=graph.n + 1))


def bench_reduce_fast_scalar(benchmark):
    """Pending-list cascade of the ``scalar`` backend."""
    form, ws = _form(SPARSE), Workspace.for_graph(SPARSE)

    def run():
        state = fresh_state(SPARSE)
        apply_reductions_fast(SPARSE, state, form, ws, kernels="scalar")

    benchmark(run)


def bench_reduce_reference_big(benchmark):
    """Reference serial rules on a 4000-vertex sparse graph."""
    form, ws = _form(BIG_SPARSE), Workspace.for_graph(BIG_SPARSE)

    def run():
        state = fresh_state(BIG_SPARSE)
        apply_reductions_reference(BIG_SPARSE, state, form, ws)

    benchmark(run)


def bench_reduce_parallel_fast(benchmark):
    """Section IV-D batch rules (now running on the batched primitives)."""
    form, ws = _form(SPARSE), Workspace.for_graph(SPARSE)

    def run():
        state = fresh_state(SPARSE)
        apply_reductions_parallel(SPARSE, state, form, ws)

    benchmark(run)


def bench_first_alive_neighbors(benchmark):
    state = fresh_state(SPARSE)
    ones = np.flatnonzero(state.deg == 1)
    assert ones.size > 5
    benchmark(first_alive_neighbors, SPARSE, state.deg, ones)


def bench_alive_pairs(benchmark):
    state = fresh_state(SPARSE)
    twos = np.flatnonzero(state.deg == 2)
    assert twos.size > 5
    benchmark(alive_pairs, SPARSE, state.deg, twos)


def bench_has_edges_batch(benchmark):
    state = fresh_state(SPARSE)
    twos = np.flatnonzero(state.deg == 2)
    u, w = alive_pairs(SPARSE, state.deg, twos)
    SPARSE.has_edges(u, w)  # warm the edge-key cache
    benchmark(SPARSE.has_edges, u, w)


def bench_row_segments(benchmark):
    verts = np.arange(0, DENSE.n, 3, dtype=np.int64)
    benchmark(DENSE.row_segments, verts)


def bench_scalar_cascade_dense(benchmark):
    """Scalar cascade on the dense graph with a tight budget (hd-heavy)."""
    DENSE.adjacency_tuples()  # warm the cache

    def run():
        state = fresh_state(DENSE)
        _apply_reductions_scalar(DENSE, state, MVCFormulation(BestBound(size=30)))

    benchmark(run)


def bench_subgraph_vectorized(benchmark):
    keep = list(range(0, DENSE.n, 2))
    benchmark(DENSE.subgraph, keep)


def bench_complement_vectorized(benchmark):
    g = gnp(150, 0.1, seed=3)
    benchmark(g.complement)
